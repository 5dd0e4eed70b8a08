import numpy as np
import pytest

import qgld.expectation
import qgld.kernel
from qgld import (
    DenseSource,
    IllConditioned,
    NonFiniteInput,
    PerturbationDirection,
    gaussian_kernel_matrix,
    kernel_fit,
    kernel_predict,
    logdet_directional_derivatives,
)


def sin_training_set():
    points = np.linspace(0.0, 2 * np.pi, 16)
    return points, np.sin(points)


def fit_without_svd(monkeypatch, n: int, solver: str) -> None:
    """Fit sin on ``n`` points with np.linalg.svd and np.linalg.cond patched
    to fail, and check alpha against the direct solve."""
    def unreachable(*args, **kwargs):
        raise AssertionError("an SVD ran")

    points = np.linspace(0.0, 2 * np.pi, n)
    want = np.linalg.solve(gaussian_kernel_matrix(points, 0.5) + 1e-3 * np.eye(n), np.sin(points))
    monkeypatch.setattr(np.linalg, "svd", unreachable)
    monkeypatch.setattr(np.linalg, "cond", unreachable)
    model = kernel_fit(points, np.sin(points), sigma=0.5, ridge=1e-3, solver=solver)
    assert np.max(np.abs(model.alpha - want)) <= 1e-3


def count_stacks(monkeypatch, n: int) -> tuple:
    """Fit sin on ``n`` points with the qgld solver, and return the probes of
    each eigenbasis_families call, the probes of each stack it yields, and
    the probe circuits run."""
    circuits, called, built = [], [], []
    distributions, families = qgld.expectation.probe_distributions, qgld.expectation.eigenbasis_families

    def counting_circuit(*args, **kwargs):
        circuits.append(1)
        return distributions(*args, **kwargs)

    def counting_families(values, signs, couplings, enc):
        called.append(len(couplings))
        for rows, stack in families(values, signs, couplings, enc):
            built.append(len(stack.phases))
            yield rows, stack

    monkeypatch.setattr(qgld.expectation, "probe_distributions", counting_circuit)
    monkeypatch.setattr(qgld.expectation, "eigenbasis_families", counting_families)
    points = np.linspace(0.0, 2 * np.pi, n)
    kernel_fit(points, np.sin(points), sigma=0.5, ridge=1e-3, solver="qgld")
    return called, built, len(circuits)


class TestKernelMatrix:
    def test_unit_diagonal(self):
        points = np.array([0.0, 1.0, 2.5])
        k = gaussian_kernel_matrix(points, sigma=1.0)
        np.testing.assert_allclose(np.diag(k), np.ones(3), atol=1e-15)

    def test_width_scaling(self):
        k = gaussian_kernel_matrix(np.array([0.0, 2.0]), sigma=2.0)
        assert k[0, 1] == pytest.approx(np.exp(-1.0))

    def test_cross_kernel(self):
        k = gaussian_kernel_matrix(np.array([0.0]), sigma=1.0, other=np.array([0.0, 1.0]))
        np.testing.assert_allclose(k, [[1.0, np.exp(-1.0)]], atol=1e-15)


class TestClassicalSolver:
    def test_single_point(self):
        model = kernel_fit([0.0], [2.0], sigma=1.0, ridge=0.5)
        assert model.alpha[0] == pytest.approx(2.0 / 1.5)

    def test_large_ridge_limit(self, rng):
        points = np.linspace(0, 1, 6)
        targets = rng.standard_normal(6)
        ridge = 1e4
        model = kernel_fit(points, targets, sigma=1.0, ridge=ridge)
        np.testing.assert_allclose(model.alpha, targets / ridge, rtol=0.01)

    def test_interpolates_at_tiny_ridge(self):
        points, targets = sin_training_set()
        model = kernel_fit(points, targets, sigma=1.0, ridge=1e-10)
        for x, f in zip(points, targets):
            assert kernel_predict(model, x) == pytest.approx(f, abs=1e-6)

    def test_zero_alpha_predicts_zero(self):
        points, targets = sin_training_set()
        model = kernel_fit(points, targets, sigma=1.0, ridge=1e-6)
        zeroed = type(model)(
            training_points=model.training_points,
            targets=model.targets,
            sigma=model.sigma,
            ridge=model.ridge,
            alpha=np.zeros_like(model.alpha),
            solver="classical",
        )
        assert kernel_predict(zeroed, 1.234) == 0.0

    def test_ill_conditioned_raises(self):
        points = np.array([0.0, 1e-9, 1.0])
        with pytest.raises(IllConditioned):
            kernel_fit(points, np.sin(points), sigma=1.0, ridge=1e-16)

    @pytest.mark.parametrize("n", [16, 32])
    def test_no_svd(self, monkeypatch, n):
        # kappa_2 = max|E| / min|E| of eigvalsh replaces np.linalg.cond's SVD
        fit_without_svd(monkeypatch, n, "classical")

    @pytest.mark.parametrize("solver", ["classical", "qgld"])
    def test_singular_system_refused_without_a_warning(self, solver):
        # K + 1e-300 I for two equal points: an eigenvalue of 0 reads as kappa_2 = inf, with no
        # divide by zero (a RuntimeWarning is an error under the test config)
        with pytest.raises(IllConditioned, match="condition estimate inf exceeds"):
            kernel_fit([0.0, 0.0], [0.0, 1.0], sigma=1.0, ridge=1e-300, solver=solver)

    def test_validation(self):
        with pytest.raises(ValueError):
            kernel_fit([0.0, 1.0], [1.0], sigma=1.0, ridge=1e-6)
        with pytest.raises(ValueError):
            kernel_fit([0.0], [1.0], sigma=1.0, ridge=0.0)

    @pytest.mark.parametrize("solver", ["classical", "qgld"])
    @pytest.mark.parametrize("name, value", [("sigma", 0.0), ("sigma", -1.0), ("sigma", np.nan), ("sigma", np.inf),
                                             ("ridge", np.nan), ("ridge", np.inf), ("ridge", -1e-3)])
    def test_sigma_and_ridge_finite_and_positive(self, monkeypatch, solver, name, value):
        # each of these raised numpy's "SVD did not converge" from the condition estimate, or got
        # past it, naming neither parameter; now they are refused before the kernel matrix is formed
        def unreachable(*args, **kwargs):
            raise AssertionError("the kernel matrix was formed")

        monkeypatch.setattr(qgld.kernel, "gaussian_kernel_matrix", unreachable)
        params = {"sigma": 1.0, "ridge": 1e-3, name: value}
        with pytest.raises(ValueError, match=f"{name} = {value} must be finite and positive"):
            kernel_fit(np.linspace(0.0, 3.0, 4), np.ones(4), solver=solver, **params)

    @pytest.mark.parametrize("solver", ["classical", "qgld"])
    @pytest.mark.parametrize("name", ["points", "targets"])
    def test_non_finite_inputs_rejected(self, solver, name):
        data = {"points": np.linspace(0.0, 3.0, 4), "targets": np.ones(4)}
        data[name][1] = np.nan
        with pytest.raises(NonFiniteInput, match=name):
            kernel_fit(data["points"], data["targets"], sigma=1.0, ridge=1e-3, solver=solver)

    @pytest.mark.parametrize("solver", ["classical", "qgld"])
    def test_zero_targets_give_zero_alpha(self, solver):
        model = kernel_fit(np.linspace(0.0, 3.0, 4), np.zeros(4), sigma=1.0, ridge=1e-3, solver=solver)
        np.testing.assert_array_equal(model.alpha, np.zeros(4))


class TestProbeSolver:
    def test_alpha_matches_classical(self):
        points, targets = sin_training_set()
        classical = kernel_fit(points, targets, sigma=1.0, ridge=1e-6)
        probe = kernel_fit(points, targets, sigma=1.0, ridge=1e-6, solver="qgld", k=16)
        assert np.max(np.abs(probe.alpha - classical.alpha)) <= 1e-3
        assert probe.solver == "qgld"

    def test_heldout_predictions_match_baseline(self):
        points, targets = sin_training_set()
        classical = kernel_fit(points, targets, sigma=1.0, ridge=1e-6)
        probe = kernel_fit(points, targets, sigma=1.0, ridge=1e-6, solver="qgld", k=16)
        grid = np.linspace(0.0, 2 * np.pi, 50)
        pred_classical = kernel_predict(classical, grid)
        pred_probe = kernel_predict(probe, grid)
        assert np.max(np.abs(pred_classical - np.sin(grid))) < 1e-2
        assert np.max(np.abs(pred_probe - pred_classical)) <= 1e-3

    # every weight's probes are read in both windows (the fit is symmetric), each window's from one
    # secular call, solved and read EIGENBASIS_BATCH // N^2 probes a stack, one batched circuit a stack
    def test_one_probe_set_per_alpha(self, monkeypatch):
        # all 16 weights in one stack per window
        assert count_stacks(monkeypatch, 16) == ([16, 16], [16, 16], 2)

    def test_fixed_size_stacks_at_32_points(self, monkeypatch):
        # 16 of the 32 weights a stack: two stacks per window, where mixed windows made eight
        assert count_stacks(monkeypatch, 32) == ([32, 32], [16, 16, 16, 16], 4)

    def test_one_resolve_per_fit(self, monkeypatch):
        calls = []
        resolve = DenseSource.resolve

        def counting(self, x):
            calls.append(1)
            return resolve(self, x)

        monkeypatch.setattr(DenseSource, "resolve", counting)
        points, targets = sin_training_set()
        kernel_fit(points, targets, sigma=1.0, ridge=1e-6, solver="qgld")
        assert len(calls) == 1

    def test_ill_conditioned_raises_from_the_resolve(self):
        points = np.array([0.0, 1e-9, 1.0, 2.0])
        with pytest.raises(IllConditioned):
            kernel_fit(points, np.sin(points), sigma=1.0, ridge=1e-16, solver="qgld")

    @pytest.mark.parametrize("n", [16, 32])
    def test_no_svd(self, monkeypatch, n):
        # kappa_2 = max|E| / min|E| of the fit's one resolve replaces np.linalg.cond's SVD
        fit_without_svd(monkeypatch, n, "qgld")

    def test_alpha_is_per_weight_directional_derivative(self):
        points, targets = sin_training_set()
        model = kernel_fit(points, targets, sigma=1.0, ridge=1e-6, solver="qgld", k=12)
        n = len(points)
        system = gaussian_kernel_matrix(points, 1.0) + 1e-6 * np.eye(n)
        f_norm = float(np.linalg.norm(targets))
        f_hat = targets / f_norm
        for i, e in enumerate(np.eye(n)):
            factors = np.stack([e + f_hat, e - f_hat], axis=1) / 2
            direction = PerturbationDirection.from_factors(factors, (1.0, -1.0))
            np.testing.assert_allclose(direction.matrix, (np.outer(e, f_hat) + np.outer(f_hat, e)) / 2,
                                       rtol=0, atol=4 * np.finfo(float).eps)
            [derivative] = logdet_directional_derivatives(system, [direction], 12, symmetric=True)
            assert model.alpha[i] == f_norm * derivative

    @pytest.mark.parametrize("k", [-1, 0, 17])
    def test_k_outside_resolved_pairs_rejected(self, k):
        points, targets = sin_training_set()
        with pytest.raises(ValueError, match="k = "):
            kernel_fit(points, targets, sigma=1.0, ridge=1e-6, solver="qgld", k=k)

    @pytest.mark.parametrize("k", [-1, 0, 5])
    def test_k_checked_with_zero_targets(self, k):
        with pytest.raises(ValueError, match="k = "):
            kernel_fit(np.arange(4.0), np.zeros(4), sigma=1.0, ridge=1e-3, solver="qgld", k=k)
