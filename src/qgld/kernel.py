"""Gaussian-kernel ridge regression with a classical or probe-based solver.

The weights alpha = (K + lambda*I)^-1 f either come from the LU inverse or
are recovered entry by entry from log-determinant directional derivatives:
because K and f are real, alpha_i = ||f|| * e_i^T (K + lambda*I)^-1 f_hat is
||f|| times the derivative of log det(K + lambda*I) along the signed
direction (e_i f_hat^T + f_hat e_i^T)/2, one probe set per weight, all n
directions read from one eigendecomposition of K + lambda*I, whose
eigenvalues also give its condition number; the classical solver reads the
same kappa_2 from its eigenvalues alone.  Each direction is passed in its
rank-two factored form, so its probes run in the eigenbasis of K + lambda*I.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IllConditioned, NonFiniteInput
from .expectation import DenseSource, _probe_relevant_eigenpairs
from .linalg import inverse
from .qgpe import GradientEncoding, PerturbationDirection

CONDITION_LIMIT = 1e12


@dataclass(frozen=True)
class KernelModel:
    training_points: np.ndarray
    targets: np.ndarray
    sigma: float
    ridge: float
    alpha: np.ndarray
    solver: str


def gaussian_kernel_matrix(points: np.ndarray, sigma: float, other: np.ndarray | None = None) -> np.ndarray:
    """K_ij = exp(-||x_i - x_j||^2 / sigma^2)."""
    a = np.atleast_2d(np.asarray(points, dtype=float).T).T
    b = a if other is None else np.atleast_2d(np.asarray(other, dtype=float).T).T
    sq = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=-1)
    return np.exp(-sq / sigma**2)


def kernel_fit(points, targets, sigma: float, ridge: float, solver: str = "classical",
               k: int | None = None, enc: GradientEncoding = GradientEncoding()) -> KernelModel:
    """Fit alpha = (K + ridge*I)^-1 f with the chosen solver.  Raises
    ValueError unless sigma and ridge are finite and positive."""
    points = np.asarray(points, dtype=float)
    targets = np.asarray(targets, dtype=float)
    for name, value in (("sigma", sigma), ("ridge", ridge)):
        if not (np.isfinite(value) and value > 0):  # negated, so that a NaN fails here
            raise ValueError(f"{name} = {value} must be finite and positive")
    if len(points) != len(targets):
        raise ValueError("points and targets differ in length")
    for name, values in (("points", points), ("targets", targets)):
        if not np.isfinite(values).all():
            bad = int(np.sum(~np.isfinite(values)))
            raise NonFiniteInput(f"{name} has {bad} non-finite entries (NaN or inf)")
    n = len(targets)
    system = gaussian_kernel_matrix(points, sigma) + ridge * np.eye(n)
    if solver == "qgld":
        spectrum = DenseSource().resolve(system)  # refuses an N that is not a power of two before its eigh
        magnitudes = np.abs(spectrum.values)
    else:
        magnitudes = np.abs(np.linalg.eigvalsh(system))
    # kappa_2 = max|E| / min|E|, inf for a singular system
    cond = float(np.max(magnitudes) / np.min(magnitudes)) if np.min(magnitudes) > 0.0 else np.inf
    if cond > CONDITION_LIMIT:
        raise IllConditioned(f"condition estimate {cond:.3e} exceeds {CONDITION_LIMIT:.0e}")

    if solver == "classical":
        alpha = (inverse(system) @ targets).real
    elif solver == "qgld":
        k = n if k is None else k
        if not 1 <= k <= n:
            raise ValueError(f"k = {k} outside [1, {n}]")
        f_norm = float(np.linalg.norm(targets))
        alpha = np.zeros(n)
        if f_norm > 0.0:  # zero targets give alpha = 0; f_hat would be 0/0
            f_hat = targets / f_norm
            # (e_i f^T + f e_i^T)/2 = a a^T - b b^T with a, b = (e_i +- f)/2
            probes = ((PerturbationDirection.from_factors(np.stack([e + f_hat, e - f_hat], axis=1) / 2, (1.0, -1.0)),
                       enc) for e in np.eye(n))
            alpha = f_norm * _probe_relevant_eigenpairs(spectrum, probes, k, symmetric=True)[4]
    else:
        raise ValueError(f"unknown solver {solver!r}")
    return KernelModel(
        training_points=points,
        targets=targets,
        sigma=sigma,
        ridge=ridge,
        alpha=alpha,
        solver=solver,
    )


def kernel_predict(model: KernelModel, x) -> np.ndarray | float:
    """f(x) = sum_j alpha_j kappa(x, x_j)."""
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    grid = np.atleast_1d(x)
    weights = gaussian_kernel_matrix(grid, model.sigma, other=model.training_points)
    out = weights @ model.alpha
    return float(out[0]) if scalar else out
