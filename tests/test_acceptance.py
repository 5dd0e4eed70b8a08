"""Acceptance gate: every criterion at its stated tolerance, one line each."""
import time
from contextlib import contextmanager

import numpy as np
import pytest

from qgld import (
    GradientEncoding,
    InverseExpectationRequest,
    build_delta,
    build_factorization,
    classical_reference_expectation,
    eig_hermitian,
    eigenvalue_gradient_probes,
    inverse,
    kernel_fit,
    kernel_predict,
    logdet_gradient_entry,
    qgld_expectation,
    run_rqbl,
    sigma_qgld_expectation,
)
from qgld.qgpe import readout_gradients
from conftest import (
    HADAMARD,
    SIGMA_X,
    SIGMA_Z,
    RegisterLayout,
    apply_controlled_family,
    deviation_distribution,
    directional_eigen_derivative,
    forward_qft_deviation,
    hadamard_deviation_register,
    init_basis,
    inverse_qft_deviation,
    random_hermitian,
    random_state,
    random_symmetric_decaying,
)


@contextmanager
def criterion(number, description, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except AssertionError:
        print(f"FAIL criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, f"criterion {number} took {elapsed:.2f}s > {budget_seconds}s"
    print(f"PASS criterion {number}: {description} ({elapsed:.2f}s)")


def test_criterion_1_table_reproduction(capsys):
    from qgld.cli import build_parser

    with criterion(1, "single-qubit gradient table within 1e-5 of printed values", 1.0):
        args = build_parser().parse_args(["reproduce-table1"])
        output = args.handler(args)
        rows = [line.split(",") for line in output.strip().splitlines()[1:]]
        assert len(rows) == 9
        printed = {
            ("X", "+"): 0.999999, ("X", "-"): 0.999999,
            ("|0><0|", "+"): 0.500000, ("|0><0|", "-"): 0.499999,
            ("|1><1|", "+"): 0.500000, ("|1><1|", "-"): 0.499999,
            ("I", "+"): 0.999999, ("I", "-"): 1.000000,
        }
        for row in rows[:8]:
            assert abs(float(row[-1]) - printed[(row[1], row[2])]) <= 1e-5
        assert abs(float(rows[8][-1]) - 0.70710691) <= 1e-5


def test_criterion_2_hadamard_gradient():
    with criterion(2, "Hadamard gradient 1/sqrt(2) with linear-in-L residual", 1.0):
        delta = build_delta("custom", 2, matrix=SIGMA_X)
        dec = eig_hermitian(HADAMARD)
        for which in (0, 1):
            [grad] = eigenvalue_gradient_probes(HADAMARD, dec.vectors[:, [which]], delta, GradientEncoding(L=1e-6))
            assert abs(grad - 1 / np.sqrt(2)) <= 1e-6
        residuals = []
        for l_value in (1e-5, 1e-6):
            [grad] = eigenvalue_gradient_probes(HADAMARD, dec.vectors[:, [1]], delta, GradientEncoding(L=l_value))
            residuals.append(abs(grad - 1 / np.sqrt(2)))
        assert 5 <= residuals[0] / residuals[1] <= 20


def test_criterion_3_inverse_identity():
    with criterion(3, "log-det gradient entries match the LU inverse within 1e-4", 30.0):
        rng = np.random.default_rng(1003)
        instances = [SIGMA_Z.copy()]
        sizes = [2, 4, 8]
        while len(instances) < 50:
            n = sizes[len(instances) % 3]
            instances.append(random_hermitian(rng, n, indefinite=True))
        for x in instances:
            n = x.shape[0]
            y = inverse(x)
            entries = [(0, 0), (0, n - 1)]
            if n > 2:
                entries.append((1, n // 2))
            for i, j in entries:
                got = logdet_gradient_entry(x, i, j, k=n)
                want = y[i, i].real if i == j else (y[i, j] + y[j, i]).real
                assert abs(got - want) <= 1e-4
        # the indefinite sigma-z off-diagonal entry vanishes
        assert abs(logdet_gradient_entry(SIGMA_Z, 0, 1, k=2)) <= 1e-4


def _spd_instances():
    # gaps well above the perturbation reach at the largest swept L, so the
    # one-sided probe error stays in its linear regime across the sweep
    rng = np.random.default_rng(1004)
    instances = []
    for trial in range(20):
        n = (2, 4, 8)[trial % 3]
        x = random_hermitian(rng, n, min_eig=0.8, gap=0.4)
        phi = random_state(rng, n)
        instances.append((x, phi))
    return instances


def test_criterion_4_expectation_pipeline():
    with criterion(4, "inverse expectation within 1e-4 with linear-in-L error", 60.0):
        instances = _spd_instances()
        for x, phi in instances:
            report = qgld_expectation(
                InverseExpectationRequest(x=x, phi=phi, k=x.shape[0], enc=GradientEncoding(L=1e-6)),
                with_classical_reference=True,
            )
            assert abs(report.total - report.classical_reference) <= 1e-4
        mean_errors = []
        for l_value in (1e-2, 1e-3, 1e-4):
            errs = []
            for x, phi in instances:
                report = qgld_expectation(
                    InverseExpectationRequest(x=x, phi=phi, k=x.shape[0],
                                              enc=GradientEncoding(L=l_value)),
                    with_classical_reference=True,
                )
                errs.append(abs(report.total - report.classical_reference))
            mean_errors.append(float(np.mean(errs)))
        assert 5 <= mean_errors[0] / mean_errors[1] <= 20
        assert 5 <= mean_errors[1] / mean_errors[2] <= 20


def test_criterion_5_superposition_equivalence():
    with criterion(5, "superposition pipeline matches per-eigenvector within 2e-4", 60.0):
        for x, phi in _spd_instances():
            per_eig = qgld_expectation(
                InverseExpectationRequest(x=x, phi=phi, k=x.shape[0], enc=GradientEncoding(L=1e-6))
            ).total
            superposed = sigma_qgld_expectation(x, phi)
            assert abs(superposed - per_eig) <= 2e-4


def test_criterion_6_block_lanczos():
    with criterion(6, "block Lanczos convergence and orthonormality", 30.0):
        rng = np.random.default_rng(1006)
        x = random_symmetric_decaying(rng, 64)
        dense = np.linalg.eigvalsh(x)
        target = dense[np.argmax(np.abs(dense))]
        fact = build_factorization(x, b=2, k=12, rng_seed=7)
        for steps in range(1, fact.steps + 1):
            basis = fact.basis()[:, :steps * 2]
            gram = basis.conj().T @ basis
            assert np.linalg.norm(gram - np.eye(basis.shape[1])) <= 1e-8
        sol = run_rqbl(x, b=2, k=12, rng_seed=7)
        assert abs(sol.values[0] - target) <= 1e-8

        gauss = np.random.default_rng(1606).standard_normal((128, 128))
        q, _ = np.linalg.qr(gauss)
        values = 2.0 ** (-np.arange(128, dtype=float))
        x128 = (q * values) @ q.T
        x128 = (x128 + x128.T) / 2
        errors = []
        for k in range(1, 9):
            sol = run_rqbl(x128, b=2, k=k, rng_seed=8)
            errors.append(abs(sol.values[0] - 1.0))
        for earlier, later in zip(errors, errors[1:]):
            assert later <= earlier + 1e-12
        assert errors[7] < 1e-8


def test_criterion_7_kernel_demo():
    with criterion(7, "kernel ridge probe solver matches classical within 1e-3", 60.0):
        points = np.linspace(0.0, 2 * np.pi, 16)
        targets = np.sin(points)
        classical = kernel_fit(points, targets, sigma=1.0, ridge=1e-6)
        probe = kernel_fit(points, targets, sigma=1.0, ridge=1e-6, solver="qgld", k=16)
        assert np.max(np.abs(probe.alpha - classical.alpha)) <= 1e-3
        grid = np.linspace(0.0, 2 * np.pi, 50)
        pred_classical = kernel_predict(classical, grid)
        pred_probe = kernel_predict(probe, grid)
        assert np.max(np.abs(pred_classical - np.sin(grid))) < 1e-2
        assert np.max(np.abs(pred_probe - pred_classical)) <= 1e-3


def test_criterion_8_property_suites():
    with criterion(8, "property suite (trace-log, gradients, phases, QFT)", 60.0):
        rng = np.random.default_rng(1008)

        for n in (4, 16, 32):
            a = random_hermitian(rng, n, min_eig=0.2)
            trace_log = float(np.sum(np.log(np.linalg.eigvalsh(a))))
            assert abs(np.linalg.slogdet(a)[1] - trace_log) <= 1e-9 * n

        for _ in range(100):
            n = int(rng.choice([2, 4, 8, 16]))
            a = random_hermitian(rng, n, indefinite=True)
            delta = random_hermitian(rng, n, indefinite=True, min_eig=0.0)
            delta = delta / np.linalg.norm(delta, ord=2)
            p = int(rng.integers(0, n))
            hf = directional_eigen_derivative(a, delta, p)
            fd = directional_eigen_derivative(a, delta, p, mode="central_difference")
            assert abs(hf - fd) <= 1e-6

        x = random_hermitian(rng, 4)
        delta = build_delta("all_ones", 4)
        enc = GradientEncoding(L=1e-5, m=2)
        dec = eig_hermitian(x)
        from qgld import ControlledFamily, evolution_family, probe_distributions

        family = evolution_family(x, delta, enc)
        base = probe_distributions(family, dec.vectors[:, [0]])
        rotated = probe_distributions(ControlledFamily(np.exp(1.234j) * family.phases, family.vectors),
                                      dec.vectors[:, [0]])
        assert np.max(np.abs(base - rotated)) <= 1e-12

        distributions = []
        for sign in (1.0, -1.0):
            state = init_basis(RegisterLayout(1, 1), 0)
            hadamard_deviation_register(state)
            apply_controlled_family(state, [np.eye(2), np.exp(sign * 0.9j) * np.eye(2)])
            inverse_qft_deviation(state)
            distributions.append(deviation_distribution(state)[:, 0])
        np.testing.assert_allclose(distributions[0], distributions[1], atol=1e-14)
        assert readout_gradients(distributions[0][:, None], GradientEncoding())[0] == pytest.approx(0.9)

        layout = RegisterLayout(4, 2)
        state = init_basis(layout, 0)
        state.amplitudes = random_state(rng, 64)
        before = state.amplitudes.copy()
        inverse_qft_deviation(forward_qft_deviation(state))
        assert np.max(np.abs(state.amplitudes - before)) <= 1e-10
