import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qgld.cli
import qgld.expectation
import qgld.linalg
import qgld.statevector as sv
from qgld import (
    AliasedReadout,
    DenseSource,
    adapt_degenerate_eigenvectors,
    InverseExpectationRequest,
    GradientEncoding,
    NonFiniteInput,
    NonHermitianInput,
    PerturbationDirection,
    QgldError,
    RoundingFloor,
    RqblSource,
    UnnormalizedPhi,
    build_delta,
    classical_reference_expectation,
    eig_hermitian,
    eigenvalue_gradient_probes,
    kernel_fit,
    logdet_directional_derivatives,
    logdet_gradient_entry,
    probe_distributions,
    qgld_expectation,
    qgld_expectation_sweep,
    sampled_qgld,
    sigma_qgld_expectation,
)
from qgld.cli import random_spd
from conftest import SIGMA_X, SIGMA_Z, random_hermitian, random_state, reference_distributions, unitary_phase_exp
from reports import draw


def random_spd_pow2(rng, n):
    return random_hermitian(rng, n)


class TestLogdetGradientEntry:
    def test_sigma_x_offdiagonal_rank1(self):
        got = logdet_gradient_entry(SIGMA_X, 0, 1, k=1)
        assert abs(got - 1.0) <= 2e-6

    def test_sigma_z_offdiagonal_vanishes(self):
        got = logdet_gradient_entry(SIGMA_Z, 0, 1, k=2)
        assert abs(got) <= 2e-6

    def test_diagonal_entry(self):
        got = logdet_gradient_entry(np.diag([2.0, 4.0]).astype(complex), 0, 0, k=2)
        assert abs(got - 0.5) <= 2e-6

    def test_matches_lu_inverse(self, rng):
        for n in (2, 4, 8):
            x = random_hermitian(rng, n, indefinite=True)
            inv = np.linalg.inv(x)
            i, j = 0, n - 1
            got = logdet_gradient_entry(x, i, j, k=n)
            want = (inv[i, j] + inv[j, i]).real
            assert abs(got - want) <= 1e-4

    def test_is_the_element_direction_derivative(self, rng):
        for n in (2, 4, 8):
            x = random_hermitian(rng, n, indefinite=True)
            for i, j in ((0, 0), (0, n - 1), (n - 1, 1)):
                direction = build_delta("element", n, i=i, j=j)
                want = np.zeros((n, n))
                want[i, j] = want[j, i] = 1.0
                np.testing.assert_array_equal(direction.matrix, want)
                assert logdet_gradient_entry(x, i, j, k=n) == logdet_directional_derivatives(x, [direction], n)[0]


class TestLogdetDirectionalDerivative:
    def test_unconverged_eigensource_rejected(self):
        # four Lanczos steps leave the top Ritz pairs far from converged: the
        # entry would read 0.0242 against (X^-1)_25 + (X^-1)_52 = 0.1188
        source = RqblSource(b=1, seed=2, steps=4)
        with pytest.raises(ValueError, match="residual"):
            logdet_gradient_entry(random_spd(16, 3), 2, 5, k=4, eigensource=source)

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.sampled_from([2, 4, 8]),
        indefinite=st.booleans(),
        norm=st.floats(0.05, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_trace_of_inverse_times_direction(self, n, indefinite, norm, seed):
        rng = np.random.default_rng(seed)
        x = random_hermitian(rng, n, indefinite=indefinite)
        gauss = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        delta = gauss + gauss.conj().T
        delta *= norm / np.linalg.norm(delta, ord=2)
        got = logdet_directional_derivatives(x, [build_delta("custom", n, matrix=delta)], n)[0]
        want = np.trace(np.linalg.inv(x) @ delta).real
        assert abs(got - want) <= 1e-4

    def test_rejects_non_hermitian_direction(self):
        with pytest.raises(NonHermitianInput):
            logdet_directional_derivatives(SIGMA_Z, [build_delta("custom", 2, matrix=[[0.0, 1.0], [0.0, 0.0]])], 2)
        # a bare matrix is not a direction: the core takes PerturbationDirections only
        with pytest.raises(TypeError, match=r'build_delta\("custom", n, matrix=...\)'):
            logdet_directional_derivatives(SIGMA_Z, [np.eye(2)], 2)

    @pytest.mark.parametrize("n", [64, 128, 256])
    def test_dense_family_floor_holds_at_large_n(self, n):
        # at 1.05 times the floor taken with ||X||_2 (M = 2, slope bound ||Delta||_2 + c = 2), a dense
        # element(0, 1) direction read 2 Re (X^-1)_01 1.2e-4, 4.0e-4 and 6.7e-4 off at N = 64, 128 and
        # 256; the floor is taken with ||X||_F, and an L it admits must read within 1e-4
        x = random_spd(n, 1)
        element = np.zeros((n, n))
        element[0, 1] = element[1, 0] = 1.0
        enc = GradientEncoding(L=1.05 * 2 * np.finfo(float).eps * np.linalg.norm(x, 2) / (1e-4 * 2.0))
        try:
            [got] = logdet_directional_derivatives(x, [build_delta("custom", n, matrix=element)], n, enc)
        except RoundingFloor as refused:
            assert "M eps ||X||_F / L" in str(refused)
        else:
            assert abs(got - 2.0 * np.linalg.inv(x)[0, 1].real) <= 1e-4

    def test_rejects_direction_of_another_dimension(self):
        with pytest.raises(ValueError, match="direction 0 has dimension 4, expected 2"):
            logdet_directional_derivatives(SIGMA_Z, [build_delta("element", 4, i=0, j=1)], 2)

    def test_batch_equals_one_direction_calls(self, rng):
        for n, symmetric in ((2, False), (4, True), (8, False)):
            x = random_hermitian(rng, n, indefinite=True)
            deltas = []
            for _ in range(3):
                gauss = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                deltas.append(gauss + gauss.conj().T)
            deltas.append(np.outer(np.eye(n)[0], np.ones(n)) + np.outer(np.ones(n), np.eye(n)[0]))
            # unit spectral norm keeps every shifted slope inside the W = 1 readout range
            deltas = [build_delta("custom", n, matrix=d / np.linalg.norm(d, ord=2)) for d in deltas]
            batch = logdet_directional_derivatives(x, iter(deltas), n, symmetric=symmetric)
            assert batch == [logdet_directional_derivatives(x, [d], n, symmetric=symmetric)[0] for d in deltas]
        # every kind of direction in one call, on both branches of the core (eigenbasis families for
        # factored directions on a dense resolve, the dense family otherwise) and both sources
        n = 8
        x = random_hermitian(rng, n)
        gauss = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        factors = (rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))) / 4
        deltas = [
            build_delta("element", n, i=2, j=2),
            build_delta("element", n, i=1, j=6),
            build_delta("outer", n, phi=random_state(rng, n)),
            PerturbationDirection.from_factors(factors, (1.0, -1.0)),
            build_delta("custom", n, matrix=(gauss + gauss.conj().T) / np.linalg.norm(gauss + gauss.conj().T, 2)),
        ]
        for source in (DenseSource(), RqblSource(b=2, seed=1)):
            for symmetric in (False, True):
                batch = logdet_directional_derivatives(x, deltas, n, eigensource=source, symmetric=symmetric)
                assert batch == [logdet_directional_derivatives(x, [d], n, eigensource=source,
                                                                symmetric=symmetric)[0] for d in deltas]

    def test_batch_resolves_once(self, rng, monkeypatch):
        calls = []
        resolve = DenseSource.resolve

        def counting(self, x):
            calls.append(1)
            return resolve(self, x)

        monkeypatch.setattr(DenseSource, "resolve", counting)
        x = random_hermitian(rng, 4, indefinite=True)
        deltas = [build_delta("custom", 4, matrix=m) for m in (np.eye(4), x, np.ones((4, 4)) / 4)]
        logdet_directional_derivatives(x, deltas, 4)
        assert len(calls) == 1


class TestRankRange:
    # each of these returned a number at exit 0 before k was checked against
    # the eigenpairs the source resolved: k = -1 read 0.1644 against -0.0331
    @pytest.mark.parametrize("k", [-1, -7, 99])
    def test_entry_rejects_k_outside_resolved_pairs(self, k):
        with pytest.raises(ValueError, match="k = "):
            logdet_gradient_entry(random_spd(8, 3), 1, 5, k=k)

    def test_lanczos_breakdown_cannot_serve_full_rank(self):
        # four distinct eigenvalues: a b = 1 Krylov space stops after 4 steps,
        # and k = 8 silently used 4 pairs (0.333 against 0.508)
        x = np.diag([5.0, 5.0, 2.0, 2.0, 1.0, 1.0, 3.0, 3.0]).astype(complex)
        phi = np.ones(8) / np.sqrt(8)
        request = InverseExpectationRequest(x=x, phi=phi, k=8, eigensource=RqblSource(b=1, seed=0))
        with pytest.raises(ValueError, match=r"outside \[1, 4\]"):
            qgld_expectation(request)

    @pytest.mark.parametrize("b", [0, -1])
    def test_block_size_below_one_is_named(self, b):
        # b = 0 raised a bare ZeroDivisionError from the default step count N // b
        x = random_spd(8, 3)
        with pytest.raises(ValueError, match=rf"block size {b} outside \[1, 8\]"):
            RqblSource(b=b, seed=0).resolve(x)
        request = InverseExpectationRequest(x=x, phi=np.ones(8) / np.sqrt(8), k=8, eigensource=RqblSource(b=b, seed=0))
        with pytest.raises(ValueError, match=rf"block size {b} "):
            qgld_expectation(request)

    @pytest.mark.parametrize("b", [5, 16])
    def test_block_size_above_dimension_is_named(self, b):
        # read "k*b = 0 outside [1, 4]" from the default step count N // b
        with pytest.raises(ValueError, match=rf"block size {b} outside \[1, 4\]"):
            RqblSource(b=b, seed=1).resolve(np.diag([1.0, 2.0, 3.0, 4.0]))

    def test_dimension_must_be_a_power_of_two(self):
        # the system register holds n qubits, N = 2^n
        request = InverseExpectationRequest(x=random_spd(12, 1), phi=np.ones(12) / np.sqrt(12), k=12)
        with pytest.raises(ValueError, match="dimension 12 is not a power of two"):
            qgld_expectation(request)

    # k = 3 on diag(1, 1, 2, 4) read 0.1875 at exit 0: the rank-3 sum takes one vector of the E = 1
    # plane, chosen by the adaptation, so it can be anything in [0.1875, 0.6875]
    def test_k_ending_inside_a_cluster_is_refused(self):
        x, phi = np.diag([1.0, 1.0, 2.0, 4.0]).astype(complex), np.ones(4) / 2
        with pytest.raises(ValueError, match=r"k = 3 ends inside a cluster .* use k = 2 or 4$"):
            qgld_expectation(InverseExpectationRequest(x=x, phi=phi, k=3))
        for k, want in ((2, 0.1875), (4, 0.6875)):
            assert abs(qgld_expectation(InverseExpectationRequest(x=x, phi=phi, k=k)).total - want) <= 1e-4
        with pytest.raises(ValueError, match=r"k = 1 ends inside a cluster .* use k = 2$"):
            logdet_gradient_entry(np.diag([1.0, 2.0, 4.0, 4.0]), 0, 1, k=1)
        with pytest.raises(UnnormalizedPhi):  # a bad phi is named before the cut
            qgld_expectation(InverseExpectationRequest(x=x, phi=np.ones(4), k=3))
        # a cluster under the pseudo-inverse threshold adds nothing to the sum, however k cuts it
        report = qgld_expectation(InverseExpectationRequest(x=np.diag([0.0, 0.0, 1.0, 2.0]), phi=phi, k=3))
        assert report.skipped == (0.0,) and abs(report.total - 0.375) <= 1e-4

    def test_a_pair_merged_at_the_probe_scale_is_a_cluster(self, rng):
        # a gap of 5e-3 is one cluster to the adaptation once 4 L ||Delta||_2 reaches it
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        x, phi = (q * np.array([1.0, 1.005, 2.0, 4.0])) @ q.conj().T, random_state(rng, 4)
        merged, apart = GradientEncoding(L=1.5e-3), GradientEncoding(L=1e-6)
        with pytest.raises(ValueError, match=r"k = 3 ends inside .* use k = 2 or 4$"):
            qgld_expectation(InverseExpectationRequest(x=x, phi=phi, k=3, enc=merged))
        with pytest.raises(ValueError, match=r"k = 3 ends inside"):
            logdet_directional_derivatives(x, [build_delta("element", 4, i=0, j=1)], 3, merged)
        overlaps = np.abs(q.conj().T @ phi) ** 2
        want = overlaps[3] / 4.0 + overlaps[2] / 2.0 + overlaps[1] / 1.005
        got = qgld_expectation(InverseExpectationRequest(x=x, phi=phi, k=3, enc=apart)).total
        assert abs(got - want) <= 1e-4

    def test_a_cluster_apart_in_relevance_order_is_refused_at_every_cut_between(self, rng):
        # relevance order 3, 1.003, -1.002, 1.0: the cluster {1.0, 1.003} holds ranks 1 and 3, so
        # k = 2 and k = 3 each take one of its vectors, though no two neighbours in the order share it
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        x = (q * np.array([-1.002, 1.0, 1.003, 3.0])) @ q.conj().T
        enc = GradientEncoding(L=1.5e-3)
        for k in (2, 3):
            with pytest.raises(ValueError, match=rf"k = {k} ends inside .* use k = 1 or 4$"):
                qgld_expectation(InverseExpectationRequest(x=x, phi=random_state(rng, 4), k=k, enc=enc))

    @pytest.mark.parametrize("call", ["logdet", "per-eigenvector probes", "sigma", "sampled", "kernel"])
    def test_dimension_refused_before_any_eigendecomposition(self, monkeypatch, call):
        x, phi = random_spd(12, 1), np.ones(12) / np.sqrt(12)
        points = np.linspace(0.0, 2 * np.pi, 24)
        calls = {
            "logdet": lambda: logdet_directional_derivatives(x, [build_delta("element", 12, i=0, j=1)], 12),
            "per-eigenvector probes": lambda: eigenvalue_gradient_probes(x, np.eye(12), build_delta("all_ones", 12),
                                                                         GradientEncoding(W=24.0)),
            "sigma": lambda: sigma_qgld_expectation(x, phi),
            "sampled": lambda: sampled_qgld(x, phi, 4, 1),
            "kernel": lambda: kernel_fit(points, np.sin(points), 1.0, 1e-3, solver="qgld"),
        }

        def unreachable(*args, **kwargs):
            raise AssertionError("an eigendecomposition ran")

        monkeypatch.setattr(np.linalg, "eigh", unreachable)
        with pytest.raises(ValueError, match=r"dimension (12|24) is not a power of two"):
            calls[call]()


class TestQgldExpectation:
    def test_sigma_z_uniform_phi(self):
        request = InverseExpectationRequest(
            x=SIGMA_Z, phi=np.array([1, 1]) / np.sqrt(2), k=2
        )
        report = qgld_expectation(request)
        assert abs(report.total) <= 2e-6

    def test_identity_any_phi(self, rng):
        phi = random_state(rng, 4)
        request = InverseExpectationRequest(x=np.eye(4, dtype=complex), phi=phi, k=4)
        report = qgld_expectation(request)
        assert report.total == pytest.approx(1.0, abs=1e-8)

    def test_random_spd_matches_reference(self, rng):
        x = random_spd_pow2(rng, 8)
        phi = random_state(rng, 8)
        request = InverseExpectationRequest(
            x=x, phi=phi, k=8, enc=GradientEncoding(L=1e-5)
        )
        report = qgld_expectation(request, with_classical_reference=True)
        assert abs(report.total - report.classical_reference) <= 1e-4

    def test_report_structure(self, rng):
        x = random_spd_pow2(rng, 4)
        phi = random_state(rng, 4)
        report = qgld_expectation(InverseExpectationRequest(x=x, phi=phi, k=3))
        assert report.eigenvalues.shape == report.slopes.shape == report.residuals.shape == (3,)
        assert np.all(report.slopes >= 0.0)  # outer-product direction slopes are nonnegative
        assert report.total == pytest.approx(float(np.sum(report.slopes / report.eigenvalues)))
        # most relevant first
        magnitudes = np.abs(report.eigenvalues).tolist()
        assert magnitudes == sorted(magnitudes, reverse=True)
        assert max(report.residuals) <= 1e-6 * np.linalg.norm(x)
        for array in (report.eigenvalues, report.slopes, report.residuals):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0
        dump = report.to_dict()
        assert set(dump) == {
            "contributions", "total", "classical_reference", "residuals",
            "skipped_eigenvalues",
        }
        for c in dump["contributions"]:
            assert c["Yp"] == pytest.approx(c["deltaE_p"] / c["E_p"], abs=1e-15)

    def test_total_is_the_loop_sum_of_contributions(self, rng):
        # the core sums deltaE_p / E_p as one running sum in |E| order; the loop below is its
        # reference, bit for bit, including the sign of a zero total (all slopes 0 on E < 0)
        requests = [InverseExpectationRequest(x=random_hermitian(rng, 8, indefinite=True), phi=random_state(rng, 8),
                                              k=k) for k in (8, 5)]
        requests.append(InverseExpectationRequest(x=np.diag([-4.0, 1.0, 2.0, 3.0]).astype(complex),
                                                  phi=np.eye(4, dtype=complex)[1], k=1))
        for request in requests:
            for report in qgld_expectation_sweep(request, [1e-3, 1e-6]):
                total, values = 0.0, []
                for e, s in zip(report.eigenvalues.tolist(), report.slopes.tolist()):
                    values.append(s / e)
                    total += s / e
                assert [c["Yp"] for c in report.to_dict()["contributions"]] == values
                assert (report.total, np.copysign(1.0, report.total)) == (total, np.copysign(1.0, total))
        assert values[0] == 0.0 and np.copysign(1.0, report.total) == 1.0

    def test_rank_truncation_error_bound(self, rng):
        # spectrum 2^-i: truncation error bounded by the classically computed tail
        n = 8
        gauss = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        q, _ = np.linalg.qr(gauss)
        values = 2.0 ** (-np.arange(n, dtype=float))
        x = (q * values) @ q.conj().T
        x = (x + x.conj().T) / 2
        phi = random_state(rng, n)
        full = qgld_expectation(InverseExpectationRequest(x=x, phi=phi, k=n)).total
        dec_vals, dec_vecs = np.linalg.eigh(x)
        overlaps = np.abs(dec_vecs.conj().T @ phi) ** 2
        order = np.argsort(-np.abs(dec_vals))
        for k in (2, 4, 6):
            truncated = qgld_expectation(InverseExpectationRequest(x=x, phi=phi, k=k)).total
            tail = sum(overlaps[p] / dec_vals[p] for p in order[k:])
            assert abs(truncated - full) <= abs(tail) + 1e-6

    def test_pseudo_inverse_skips_tiny_eigenvalues(self):
        x = np.diag([1.0, 1e-14]).astype(complex)
        phi = np.array([1.0, 0.0])
        report = qgld_expectation(InverseExpectationRequest(x=x, phi=phi, k=2))
        assert len(report.skipped) == 1
        assert report.total == pytest.approx(1.0, abs=1e-8)

    def test_rqbl_eigensource(self, rng):
        x = random_spd_pow2(rng, 8)
        phi = random_state(rng, 8)
        request = InverseExpectationRequest(
            x=x, phi=phi, k=8, eigensource=RqblSource(b=2, seed=3)
        )
        report = qgld_expectation(request, with_classical_reference=True)
        assert abs(report.total - report.classical_reference) <= 1e-4

    def test_unconverged_eigensource_rejected(self, rng):
        x = random_spd_pow2(rng, 8)
        phi = random_state(rng, 8)
        request = InverseExpectationRequest(
            x=x, phi=phi, k=2, eigensource=RqblSource(b=1, seed=3, steps=2)
        )
        with pytest.raises(ValueError, match="residual"):
            qgld_expectation(request)

    def test_peak_readout_fallback(self, rng):
        # m >= 2 probes fall back to the distribution peak; accuracy is
        # limited by the bin width pi*W/M per eigenvalue
        x = random_spd_pow2(rng, 4)
        phi = random_state(rng, 4)
        enc = GradientEncoding(L=1e-6, m=6)
        report = qgld_expectation(
            InverseExpectationRequest(x=x, phi=phi, k=4, enc=enc),
            with_classical_reference=True,
        )
        values = np.linalg.eigvalsh(x)
        budget = sum(np.pi * enc.W / enc.deviation_dim / abs(v) for v in values)
        assert abs(report.total - report.classical_reference) <= budget

    def test_delta_e_matches_overlap_oracle(self, rng):
        # raw probed gradients equal |<p|phi>|^2 (Hellmann-Feynman for the
        # outer direction) within the L-linear error
        x = random_spd_pow2(rng, 4)
        phi = random_state(rng, 4)
        report = qgld_expectation(InverseExpectationRequest(x=x, phi=phi, k=4))
        vals, vecs = np.linalg.eigh(x)
        order = np.argsort(-np.abs(vals))
        assert len(report.slopes) == 4
        for slope, p in zip(report.slopes, order):
            overlap = abs(vecs[:, p].conj() @ phi) ** 2
            assert abs(slope - overlap) <= 1e-5


class TestClassicalReference:
    def test_identity(self, rng):
        assert classical_reference_expectation(np.eye(5), random_state(rng, 5)) == pytest.approx(1.0)

    def test_sigma_z_uniform(self):
        phi = np.array([1, 1]) / np.sqrt(2)
        assert classical_reference_expectation(SIGMA_Z, phi) == pytest.approx(0.0, abs=1e-14)

    def test_spectral_sum_oracle(self, rng):
        x = random_hermitian(rng, 16)
        phi = random_state(rng, 16)
        vals, vecs = np.linalg.eigh(x)
        spectral = sum(abs(vecs[:, p].conj() @ phi) ** 2 / vals[p] for p in range(16))
        assert abs(classical_reference_expectation(x, phi) - spectral) <= 1e-10


class TestSigmaQgld:
    def test_sigma_z_cancellation(self):
        got = sigma_qgld_expectation(SIGMA_Z, np.array([1, 1]) / np.sqrt(2))
        assert abs(got) <= 2e-6

    def test_identity(self):
        got = sigma_qgld_expectation(np.eye(2, dtype=complex), np.array([1.0, 0.0]))
        assert got == pytest.approx(1.0, abs=1e-10)

    def test_diag_quadratic_form_oracle(self):
        # classical oracle: phi^dag X^-1 phi = 0.5*(1/2) + 0.5*(1/4)
        got = sigma_qgld_expectation(np.diag([2.0, 4.0]).astype(complex), np.array([1, 1]) / np.sqrt(2))
        assert got == pytest.approx(0.375, abs=1e-8)

    def test_matches_per_eigenvector_pipeline(self, rng):
        for n in (2, 4, 8):
            x = random_spd_pow2(rng, n)
            phi = random_state(rng, n)
            per_eig = qgld_expectation(InverseExpectationRequest(x=x, phi=phi, k=n)).total
            superposed = sigma_qgld_expectation(x, phi)
            assert abs(superposed - per_eig) <= 2e-4

    def test_indefinite_case(self, rng):
        x = random_hermitian(rng, 4, indefinite=True)
        phi = random_state(rng, 4)
        want = classical_reference_expectation(x, phi)
        assert abs(sigma_qgld_expectation(x, phi) - want) <= 1e-6

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_large_matches_reference(self, seed):
        # at N = 256 the family carries no eigenphase rounding for the zoom to amplify
        x = random_spd(256, seed)
        rng = np.random.default_rng(seed)
        phi = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        phi /= np.linalg.norm(phi)
        want = classical_reference_expectation(x, phi)
        assert abs(sigma_qgld_expectation(x, phi) - want) <= 1e-8 * abs(want)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_fuzz_draw_reads_the_solve_or_raises(self, seed):
        # the two-outcome contract over the CI fuzz's draw space: definite, indefinite and low-rank + 1e-2
        _, _, x, phi = draw(np.random.default_rng(seed))
        want = float(np.real(phi.conj() @ np.linalg.solve(x, phi)))
        try:
            got = sigma_qgld_expectation(x, phi)
        except (QgldError, ValueError):
            return
        assert abs(got - want) <= 1e-8 * max(1.0, abs(want))

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 16), reach=st.floats(0.1, 10.0), seed=st.integers(0, 2**32 - 1))
    def test_family_members_equal_composed_evolutions(self, n, reach, seed):
        # each member is exp(it(X + s V diag(w) V^dag)) exp(-itX), for t ||X|| = reach
        rng = np.random.default_rng(seed)
        x = random_hermitian(rng, n, indefinite=True)
        dec = eig_hermitian(x)
        weights = rng.standard_normal(n)
        w_run = 2.0 * np.linalg.norm(x, ord=2) / (1e-6 * reach)
        enc = GradientEncoding(L=1e-6, W=w_run, m=1)
        t = enc.time_step()
        delta = (dec.vectors * weights) @ dec.vectors.conj().T
        family = qgld.expectation._scaled_phase_family(weights, w_run)
        assert family.slots.size == 0  # every slot diagonal
        for s, member in zip(enc.offsets(), family.phases):
            want = unitary_phase_exp(x + s * delta, t) @ unitary_phase_exp(x, -t)
            assert np.max(np.abs((dec.vectors * member) @ dec.vectors.conj().T - want)) <= 1e-12


    def test_family_has_identity_slot_and_one_check(self, rng, monkeypatch):
        # two diagonal slots: the s = 0 member is the identity diagonal
        # ones(8), and both slots' phases are checked with one call
        family = qgld.expectation._scaled_phase_family(rng.standard_normal(8), 1e4)
        assert len(family) == 2
        assert family.slots.size == 0
        np.testing.assert_array_equal(family.phases[0], np.ones(8))
        checks = []
        real_defect = sv.unitarity_defect

        def counting_defect(u, **kwargs):
            checks.append(1)
            return real_defect(u, **kwargs)

        monkeypatch.setattr(sv, "unitarity_defect", counting_defect)
        x, phi = random_spd_pow2(rng, 8), random_state(rng, 8)
        sigma_qgld_expectation(x, phi)
        assert len(checks) == 1
        sampled_qgld(x, phi, 12, rng_seed=3)
        assert len(checks) == 3


class TestSampledQgld:
    def test_identity_single_sample_exact(self, rng):
        phi = random_state(rng, 4)
        estimate, spread = sampled_qgld(np.eye(4, dtype=complex), phi, 1, rng_seed=5)
        assert estimate == 1.0
        assert spread == 0.0

    def test_deterministic(self, rng):
        x = random_spd_pow2(rng, 4)
        phi = random_state(rng, 4)
        first = sampled_qgld(x, phi, 16, rng_seed=9)
        second = sampled_qgld(x, phi, 16, rng_seed=9)
        assert first == second

    def test_equals_dense_basis_pipeline_on_same_draws(self, rng):
        # the circuits run on V^dag q; the dense members V diag(d) V^dag on q read the same phases
        x, phi = random_spd_pow2(rng, 8), random_state(rng, 8)
        estimate, _ = sampled_qgld(x, phi, 8, rng_seed=4)
        dec, raw, scaled = qgld.expectation._superposition_weights(x, phi)
        draws = np.random.default_rng(4)
        q = np.linalg.qr(draws.standard_normal((8, 8)) + 1j * draws.standard_normal((8, 8)))[0]
        readings = []
        for weights in (scaled, raw):
            family, w_run = qgld.expectation._superposition_family(weights)
            dense = sv.ControlledFamily(family.phases, np.stack([dec.vectors] * len(family)))
            readings.append(8 * w_run * qgld.expectation._signed_phases(dense, q))
        assert abs(estimate - np.mean(readings[0] / readings[1])) <= 1e-9 * abs(estimate)

    def test_diag_statistics(self):
        x = np.diag([2.0, 4.0]).astype(complex)
        phi = np.array([1, 1]) / np.sqrt(2)
        estimate, spread = sampled_qgld(x, phi, 256, rng_seed=12)
        assert abs(estimate - 0.375) <= 3 * max(spread, 1e-6)


@settings(max_examples=40, deadline=None)
@given(n_qubits=st.integers(1, 6), reach=st.floats(0.1, 3.0), pipeline=st.sampled_from(["sigma", "sampled"]),
       seed=st.integers(0, 2**32 - 1))
def test_eigenbasis_circuit_equals_dense_circuit(n_qubits, reach, pipeline, seed):
    # the superposition circuits run on diagonal members and columns rotated by
    # V^dag; the reference circuit runs V diag(member) V^dag on the unrotated columns
    rng = np.random.default_rng(seed)
    n = 1 << n_qubits
    vectors = eig_hermitian(random_hermitian(rng, n, indefinite=True)).vectors
    weights = rng.standard_normal(n)
    family = qgld.expectation._scaled_phase_family(weights, float(np.max(np.abs(weights))) / reach)
    dense = [(vectors * member) @ vectors.conj().T for member in family.phases]
    if pipeline == "sigma":
        columns = np.full((n, 1), 1.0 / np.sqrt(n), dtype=complex)
        unrotated = vectors @ columns  # the equal superposition of the eigenvectors
    else:
        gauss = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        unrotated = np.linalg.qr(gauss)[0][:, :min(n, 5)]
        columns = vectors.conj().T @ unrotated
    quarter_wave = np.repeat([[1.0], [-1j]], columns.shape[1], axis=1)
    for phases in (None, quarter_wave):
        np.testing.assert_allclose(probe_distributions(family, columns, deviation_phases=phases),
                                   reference_distributions(dense, unrotated, phases), rtol=0, atol=1e-12)


def test_zero_weights_read_positive_zero():
    # phi sits on an eigenvalue under the pseudo-inverse threshold, so every weight is 0:
    # the scale is 1 and the identity family reads +0.0, with no branch for it
    x, phi = np.diag([1.0, 2.0, 3.0, 1e-300]).astype(complex), np.eye(4)[3]
    total = sigma_qgld_expectation(x, phi)
    assert total == 0.0 and not np.signbit(total)
    estimate, spread = sampled_qgld(x, phi, 6, rng_seed=0)
    assert (estimate, spread) == (0.0, 0.0) and not np.signbit(estimate)


@pytest.mark.parametrize("scale", [1e10, 1e16, 1e100])
def test_superposition_reads_keep_their_relative_error_at_any_scale(scale):
    # a probe scale clamped at 1 made the rounding floor absolute: on random_spd(64, 1) at 1e10, 1e16
    # and 1e100 sigma read 8.3e-4, 1.0 and 1.0 relative off (0.0 at 1e16 and up), sampled 1.2e-3, 1.0, 1.0
    x, phi = random_spd(64, 1), np.full(64, 1 / 8, dtype=complex)
    want = float((phi.conj() @ np.linalg.solve(x, phi)).real)
    assert abs(sigma_qgld_expectation(x / scale, phi) / scale - want) <= 1e-9 * want
    assert abs(sigma_qgld_expectation(scale * x, phi) * scale - want) <= 1e-9 * want
    estimate = sampled_qgld(x, phi, 8, 3)[0]
    assert abs(sampled_qgld(scale * x, phi, 8, 3)[0] * scale - estimate) <= 1e-9 * estimate


@pytest.mark.parametrize("call", [lambda x, phi, enc: sigma_qgld_expectation(x, phi, enc),
                                  lambda x, phi, enc: sampled_qgld(x, phi, 4, 0, enc=enc)], ids=["sigma", "sampled"])
def test_superposition_pipelines_take_no_encoding(rng, call):
    # the probe scale comes from the weights: there is no W to pass
    with pytest.raises(TypeError):
        call(random_spd_pow2(rng, 4), random_state(rng, 4), GradientEncoding(W=2.0))


@pytest.mark.parametrize("pipeline", [sigma_qgld_expectation, lambda x, phi: sampled_qgld(x, phi, 6, 0)],
                         ids=["sigma", "sampled"])
def test_one_eigendecomposition_per_superposition_call(rng, monkeypatch, pipeline):
    counted = []
    eig = qgld.linalg.eig_hermitian

    def counting(*args, **kwargs):
        counted.append(1)
        return eig(*args, **kwargs)

    monkeypatch.setattr(qgld.linalg, "eig_hermitian", counting)
    monkeypatch.setattr(qgld.expectation, "eig_hermitian", counting)
    pipeline(random_spd_pow2(rng, 4), random_state(rng, 4))
    assert len(counted) == 1


@pytest.mark.parametrize("call", [
    # the qgld expectation of phi in both windows, through its core
    lambda x: logdet_directional_derivatives(x, [build_delta("outer", 4, phi=np.ones(4) / 2)], 4, symmetric=True),
    lambda x: logdet_gradient_entry(x, 0, 3, k=4),
], ids=["qgld_expectation", "logdet_gradient_entry"])
def test_one_eigendecomposition_per_dense_per_eigenvector_call(rng, monkeypatch, call):
    # the resolve only: the s = 0 members are the identity and the others come
    # from the secular equation (1 + 2 family members at the parent)
    counted = []
    eig = qgld.linalg.eig_hermitian

    def counting(*args, **kwargs):
        counted.append(1)
        return eig(*args, **kwargs)

    monkeypatch.setattr(qgld.linalg, "eig_hermitian", counting)
    monkeypatch.setattr(qgld.expectation, "eig_hermitian", counting)
    call(random_spd_pow2(rng, 4))
    assert len(counted) == 1


def test_clustered_spectrum_keeps_relative_precision():
    # half the spectrum in a 1e-9-wide cluster at 1e-3: the dense members'
    # phase floor t * eps * ||X|| made this raise ProbabilityOutOfRange at
    # every L below
    n = 256
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    values = np.concatenate([1e-3 + rng.uniform(0.0, 1e-9, n // 2), rng.uniform(0.5, 2.0, n // 2)])
    x = (q * values) @ q.conj().T
    x = (x + x.conj().T) / 2
    phi = random_state(rng, n)
    want = float(np.real(phi.conj() @ np.linalg.solve(x, phi)))
    for l_value in (1e-6, 1e-7, 1e-8):
        request = InverseExpectationRequest(x=x, phi=phi, k=n, enc=GradientEncoding(L=l_value))
        assert abs(qgld_expectation(request).total / want - 1.0) <= 1e-6


@pytest.fixture
def no_circuit(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("a circuit ran")

    monkeypatch.setattr(qgld.expectation, "probe_distributions", fail)


class TestReadoutRange:
    @pytest.mark.parametrize("m, shift, symmetric, w_limit", [
        (1, "unshifted", False, 1.0),
        (1, "centered", False, 1.0),
        (2, "centered", False, 1.0),
        (2, "unshifted", False, 2.0),
        (2, "unshifted", True, 1.0),  # the centered window of the pair
    ])
    def test_bound_beyond_range_raises_before_any_circuit(self, no_circuit, m, shift, symmetric, w_limit):
        # sigma-z, all-ones, shift c = ||Delta||_2 = 2: slopes up to 4, read up to w_limit * pi * W
        w = 4.0 / (w_limit * np.pi) * 0.99
        enc, delta = GradientEncoding(W=w, m=m, shift=shift), build_delta("all_ones", 2)
        with pytest.raises(AliasedReadout, match="readout range"):
            if symmetric:  # both windows are read on the log-det path, which shifts by ||Delta||_2 too
                logdet_directional_derivatives(SIGMA_Z, [delta], 2, enc, symmetric=True)
            else:
                eigenvalue_gradient_probes(SIGMA_Z, np.eye(2), delta, enc, identity_shift=2.0)

    @pytest.mark.parametrize("m, shift, w_limit", [(1, "unshifted", 1.0), (2, "unshifted", 2.0)])
    def test_bound_inside_range_reads(self, m, shift, w_limit):
        enc = GradientEncoding(W=4.0 / (w_limit * np.pi) * 1.01, m=m, shift=shift)
        got = eigenvalue_gradient_probes(SIGMA_Z, np.eye(2), build_delta("all_ones", 2), enc, identity_shift=2.0)
        # m = 1 reads the slope <p|J|p> = 1; m = 2 to within half a bin, pi W / M
        np.testing.assert_allclose(got, [1.0, 1.0], atol=1e-4 if m == 1 else np.pi * enc.W / 4)

    def test_pipeline_checks_before_any_circuit(self, no_circuit):
        # random-spd:4:1 with uniform phi read 0.335 against 0.925 at W = 0.05
        request = InverseExpectationRequest(x=random_spd(4, 1), phi=np.ones(4) / 2, k=4,
                                            enc=GradientEncoding(W=0.05))
        with pytest.raises(AliasedReadout, match="W >= 0.3183"):
            qgld_expectation(request)


class TestRequestValidation:
    # a request is plain data: the call checks it, before any circuit runs
    def test_k_bounds(self, rng, no_circuit):
        x = random_spd_pow2(rng, 4)
        for k in (0, 5):
            request = InverseExpectationRequest(x=x, phi=random_state(rng, 4), k=k)
            with pytest.raises(ValueError, match=f"k = {k} outside"):
                qgld_expectation(request)

    def test_phi_normalization(self, rng, no_circuit):
        x = random_spd_pow2(rng, 4)
        request = InverseExpectationRequest(x=x, phi=np.ones(4), k=2)
        with pytest.raises(UnnormalizedPhi):
            qgld_expectation(request)

    @pytest.mark.parametrize("x, phi, error, match", [
        (np.triu(np.ones((4, 4))), np.ones(4) / 2, NonHermitianInput, "hermiticity"),
        (np.eye(4), np.ones(3) / np.sqrt(3), ValueError, r"phi has shape \(3,\), expected \(4,\)"),
    ])
    def test_x_and_phi_are_named_by_the_call(self, no_circuit, x, phi, error, match):
        request = InverseExpectationRequest(x=x, phi=phi, k=2)
        with pytest.raises(error, match=match):
            qgld_expectation(request)

    PIPELINES = {
        "outer": lambda x, phi: build_delta("outer", 4, phi=phi),
        "per-eigenvector": lambda x, phi: qgld_expectation(InverseExpectationRequest(x=x, phi=phi, k=4)),
        "sigma": sigma_qgld_expectation,
        "sampled": lambda x, phi: sampled_qgld(x, phi, 4, 0),
    }

    @pytest.mark.parametrize("pipeline", sorted(PIPELINES))
    def test_non_finite_phi_rejected(self, rng, pipeline):
        phi = np.array([np.nan, 0.5, 0.5, 0.5])
        with pytest.raises(NonFiniteInput, match="phi"):
            self.PIPELINES[pipeline](random_spd_pow2(rng, 4), phi)

    @pytest.mark.parametrize("pipeline", sorted(PIPELINES))
    def test_zero_phi_rejected(self, rng, pipeline):
        with pytest.raises(UnnormalizedPhi, match="phi"):
            self.PIPELINES[pipeline](random_spd_pow2(rng, 4), np.zeros(4))

    @pytest.mark.parametrize("pipeline", sorted(PIPELINES))
    def test_unnormalized_phi_rejected(self, pipeline):
        # at phi = 2 e_0, sigma returned phi^dag X^-1 phi = 4.0 and sampled the normalized 1.0
        x = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
        with pytest.raises(UnnormalizedPhi, match="phi norm 2.000000000000 != 1"):
            self.PIPELINES[pipeline](x, np.array([2.0, 0.0, 0.0, 0.0]))


class TestAdaptDegenerateEigenvectors:
    def test_recomputes_residuals_of_rotated_columns_only(self, rng):
        # clusters {0, 1, 2} and {4, 5}; columns 3, 6 and 7 stay unrotated
        q, _ = np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
        x = (q * np.array([1.0, 1.0, 1.0, 2.0, 3.0, 3.0, 4.0, 5.0])) @ q.conj().T
        dec = eig_hermitian(x)
        delta = random_hermitian(rng, 8)
        passed = np.arange(1, 9) * 1e-3  # not residuals of any column, so a recompute shows
        vars(dec)["residuals"] = passed  # as if already read
        vectors, residuals = adapt_degenerate_eigenvectors(dec, PerturbationDirection(delta), 1e-6)
        unrotated, rotated = [3, 6, 7], [0, 1, 2, 4, 5]
        np.testing.assert_array_equal(vectors[:, unrotated], dec.vectors[:, unrotated])
        np.testing.assert_array_equal(residuals[unrotated], passed[unrotated])
        direct = np.linalg.norm(x @ vectors - vectors * dec.values, axis=0)
        eps_scale = 4 * np.finfo(float).eps * np.linalg.norm(x)
        np.testing.assert_allclose(residuals[rotated], direct[rotated], rtol=0, atol=eps_scale)
        for cluster in ([0, 1, 2], [4, 5]):
            block = vectors[:, cluster].conj().T @ delta @ vectors[:, cluster]
            np.testing.assert_allclose(block, np.diag(np.diag(block)), atol=1e-12)
        # the caller's arrays are left as they were
        np.testing.assert_array_equal(passed, np.arange(1, 9) * 1e-3)
        np.testing.assert_array_equal(dec.vectors, eig_hermitian(x).vectors)

    def test_no_cluster_returns_its_inputs(self, rng):
        # every gap above the reach: nothing rotates, so nothing is copied or recomputed
        x = random_hermitian(rng, 8)
        dec = eig_hermitian(x)
        passed = np.arange(1, 9) * 1e-3
        vars(dec)["residuals"] = passed  # as if already read
        vectors, residuals = adapt_degenerate_eigenvectors(dec, PerturbationDirection(random_hermitian(rng, 8)), 1e-6)
        assert vectors is dec.vectors and residuals is passed


class TestOneEigendecompositionPerCall:
    """Each public query resolves X once and reads every pair, mask and
    residual from that one Spectrum; family eighs over (members, N, N)
    stacks are not counted."""

    CALLS = {
        "qgld_expectation": lambda x, phi: qgld_expectation(InverseExpectationRequest(x=x, phi=phi, k=8)),
        "logdet_directional_derivatives": lambda x, phi: logdet_directional_derivatives(
            x, [build_delta("element", 8, i=i, j=j) for i, j in ((0, 0), (1, 5), (2, 7))], 8),
        "sigma_qgld_expectation": sigma_qgld_expectation,
        "sampled_qgld": lambda x, phi: sampled_qgld(x, phi, 8, 1),
        "kernel_fit": lambda x, phi: kernel_fit(np.arange(8.0), np.sin(np.arange(8.0)), 1.0, 1e-3, solver="qgld"),
        "qgld gradient": lambda x, phi: qgld.cli.main(["gradient", "--matrix", "random-spd:8:3",
                                                       "--delta", "element:1,5"]),
    }

    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_one_full_size_eigh(self, monkeypatch, capsys, call):
        full_size, eigh = [], np.linalg.eigh

        def counting(a, *args, **kwargs):
            if np.ndim(a) == 2 and np.shape(a) == (8, 8):
                full_size.append(1)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        self.CALLS[call](random_spd(8, 3), np.ones(8) / np.sqrt(8))
        assert len(full_size) == 1


class TestOneClusterScanPerDirection:
    """The k-cut check reads the clusters the adaptation scans, so each
    direction's clusters are scanned once per pass."""

    @pytest.fixture
    def scans(self, monkeypatch):
        counted, clusters = [], qgld.linalg.Spectrum.clusters

        def counting(self, reach):
            counted.append(reach)
            return clusters(self, reach)

        monkeypatch.setattr(qgld.linalg.Spectrum, "clusters", counting)
        return counted

    def test_three_directions_scan_three_times(self, scans):
        deltas = [build_delta("element", 8, i=i, j=j) for i, j in ((0, 0), (1, 5), (2, 7))]
        logdet_directional_derivatives(random_spd(8, 3), deltas, 8)
        assert len(scans) == 3

    def test_a_16_point_kernel_fit_scans_16_times(self, scans):
        points = np.linspace(0.0, 2 * np.pi, 16)
        kernel_fit(points, np.sin(points), 0.5, 1e-3, solver="qgld")
        assert len(scans) == 16

    def test_given_k_the_adaptation_refuses_a_cut_and_otherwise_rotates(self):
        spectrum = eig_hermitian(np.diag([1.0, 1.0, 2.0, 4.0]))
        delta = build_delta("outer", 4, phi=np.ones(4) / 2)
        with pytest.raises(ValueError, match=r"k = 3 ends inside a cluster .* use k = 2 or 4$"):
            adapt_degenerate_eigenvectors(spectrum, delta, 1e-6, 3)
        for k in (None, 2, 4):  # the gradient CLI's pass gives no k
            vectors, _ = adapt_degenerate_eigenvectors(spectrum, delta, 1e-6, k)
            assert not np.array_equal(vectors[:, :2], spectrum.vectors[:, :2])


class TestRitzBasis:
    """Ritz pairs are probed in their own basis, through the same
    eigenbasis families as a dense resolve's eigenpairs."""

    # read 0.451714 and 0.305737: the dense family exp(i t (X + s Delta)) on the one Ritz vector the
    # Krylov space holds of each degenerate eigenspace read a mixture of the phases Delta splits it into
    @pytest.mark.parametrize("seed,want", [(0, 0.450461), (1, 0.304710)])
    def test_degenerate_matrix_reads_the_sum_over_its_ritz_pairs(self, seed, want):
        x, phi, source = np.diag([1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 3.0, 3.0]), np.ones(8) / np.sqrt(8), RqblSource(1, seed)
        ritz = source.resolve(x)
        assert len(ritz.values) == 3  # a basis whose size is not a power of two is read, not refused
        used, _ = ritz.select(3)
        rank_k = float(np.sum(np.abs(ritz.vectors[:, used].conj().T @ phi) ** 2 / ritz.values[used]))
        assert abs(rank_k - want) <= 1e-6
        report = qgld_expectation(InverseExpectationRequest(x=x, phi=phi, k=3, eigensource=source))
        assert abs(report.total - rank_k) <= 1e-4

    @pytest.mark.parametrize("kind", ["outer", "element", "all_ones", "from_factors", "custom"])
    def test_only_custom_directions_build_a_dense_family(self, rng, monkeypatch, kind):
        builds, build = [], qgld.expectation.evolution_family

        def counting(*args, **kwargs):
            builds.append(1)
            return build(*args, **kwargs)

        monkeypatch.setattr(qgld.expectation, "evolution_family", counting)
        x, phi = random_spd(8, 3), random_state(rng, 8)
        delta = {
            "outer": lambda: build_delta("outer", 8, phi=phi),
            "element": lambda: build_delta("element", 8, i=1, j=5),
            "all_ones": lambda: build_delta("all_ones", 8),
            "from_factors": lambda: PerturbationDirection.from_factors(random_state(rng, 8)[:, None], (-1.0,)),
            "custom": lambda: build_delta("custom", 8, matrix=random_hermitian(rng, 8) / 8),
        }[kind]()
        enc = GradientEncoding(W=2.0 * delta.norm)
        for source in (DenseSource(), RqblSource(b=2, seed=1)):
            for symmetric, windows in ((False, 1), (True, 2)):
                builds.clear()
                logdet_directional_derivatives(x, [delta], 8, enc, source, symmetric)
                assert len(builds) == (windows if kind == "custom" else 0)
        builds.clear()
        qgld_expectation(InverseExpectationRequest(x=x, phi=phi, k=8, eigensource=RqblSource(b=2, seed=1)))
        assert builds == []

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from([4, 8, 16]),
        b=st.integers(1, 4),
        steps=st.sampled_from(["default", "invariant", "partial"]),
        spectrum=st.sampled_from(["definite", "indefinite", "low-rank + 1e-2"]),
        kind=st.sampled_from(["outer", "element", "from_factors"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_lanczos_reads_the_rank_k_sum_over_its_ritz_pairs(self, n, b, steps, spectrum, kind, seed):
        rng = np.random.default_rng(seed)
        values = np.exp(rng.uniform(np.log(0.1), np.log(10.0), n))
        if spectrum == "indefinite":
            values *= rng.choice([-1.0, 1.0], n)
        elif spectrum == "low-rank + 1e-2":
            values[rng.integers(1, n):] = 0.0
        q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        x = (q * values) @ q.conj().T
        x = (x + x.conj().T) / 2 + (1e-2 * np.eye(n) if spectrum == "low-rank + 1e-2" else 0.0)
        # "invariant": as many steps as X has distinct eigenvalues, after which the Krylov space is
        # invariant, so that a low-rank X passes the residual check before N // b steps
        distinct = len(np.unique(values))
        source = RqblSource(b, seed % 2**31, {"default": None, "invariant": min(distinct, n // b),
                                              "partial": int(rng.integers(1, n // b + 1))}[steps])
        if kind == "outer":
            delta = build_delta("outer", n, phi=random_state(rng, n))
        elif kind == "element":
            delta = build_delta("element", n, i=int(rng.integers(n)), j=int(rng.integers(n)))
        else:
            factors = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
            delta = PerturbationDirection.from_factors(factors / np.linalg.norm(factors, 2), rng.choice([-1.0, 1.0], 2))
        k, enc = int(rng.integers(1, n + 1)), GradientEncoding()
        try:
            [total] = logdet_directional_derivatives(x, [delta], k, enc, source)
        except (QgldError, ValueError):
            return  # a documented refusal: a partial space's residual, k beyond the pairs or inside a cluster
        ritz = source.resolve(x)
        used, _ = ritz.select(k)
        # <u_p|Delta|u_p> over the returned Ritz pairs, a cluster's in the basis the adaptation gives it (the
        # basis the core reads, and the one in which a cluster whose values differ sums to a defined total)
        adapted, _ = adapt_degenerate_eigenvectors(ritz, delta, enc.L)
        couplings = adapted[:, used].conj().T @ delta.factors
        first_order = np.abs(couplings) ** 2 @ np.array(delta.signs)
        want = float(np.sum(first_order / ritz.values[used]))
        # each slope against the <u_p|Delta|u_p> of the pair it read, within the core's stated bound
        _, _, [slopes], _, _ = qgld.expectation._probe_relevant_eigenpairs(ritz, [(delta, enc)], k)
        eta = np.linalg.norm(adapted.conj().T @ adapted - np.eye(adapted.shape[1]), 2)
        cluster = np.full(len(ritz.values), -1)
        for label, idx in enumerate(ritz.clusters(4.0 * enc.L * delta.norm)):
            cluster[idx] = label
        gaps = np.array([min((abs(ritz.values[p] - value) for q, value in enumerate(ritz.values)
                              if q != p and (cluster[q] < 0 or cluster[q] != cluster[p])), default=np.inf)
                         for p in used])
        second_order = enc.L * delta.norm * (1.0 + eta) ** 2 * delta.norm * (1.0 + enc.W * enc.L / gaps) / gaps
        bound = second_order + 4.0 * np.sqrt(2.0 * np.finfo(float).eps) * enc.W
        assert np.all(np.abs(slopes - first_order) <= bound)
        # the total to 1e-4, or where a gap is small beside L ||Delta||_2 / 1e-4 to the slope bounds over
        # |E_p|: no check refuses that finite-L error yet, and a dense resolve reads it too
        tolerance = max(1e-4 * max(1.0, abs(want)), float(np.sum(second_order / np.abs(ritz.values[used]))))
        assert abs(total - want) <= tolerance
