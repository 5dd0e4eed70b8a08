"""Dense complex linear algebra and the classical oracles used for cross-checking.

Everything here is plain numpy on dense arrays, except the LU oracles
(``logdet_lu``, ``inverse``), which import scipy when first called, so
``import qgld`` does not load it.  Matrices are ``np.ndarray`` of complex
dtype; "hermitian" always means hermitian within ``HERMITICITY_RTOL``
relative to the largest entry.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateEigenvalue,
    NonFiniteInput,
    NonHermitianInput,
    RankDeficientBlock,
    SingularMatrix,
)

HERMITICITY_RTOL = 1e-12
PIVOT_RTOL = 1e-13
DEGENERACY_RTOL = 1e-8
RANK_RTOL = 1e-10
CENTRAL_DIFFERENCE_STEP = 1e-5


def as_complex_matrix(a) -> np.ndarray:
    """Coerce input to a square complex128 array with finite entries."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        bad = np.argwhere(~np.isfinite(a))
        i, j = bad[0]
        raise NonFiniteInput(
            f"matrix has {len(bad)} non-finite entries (NaN or inf), first at ({i}, {j}): {a[i, j]}"
        )
    return a


def hermiticity_defect(a: np.ndarray) -> float:
    """max_ij |a_ij - conj(a_ji)|, the absolute deviation from hermiticity."""
    return float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0


def require_hermitian(a) -> np.ndarray:
    a = as_complex_matrix(a)
    scale = max(float(np.max(np.abs(a))), 1e-300)
    if hermiticity_defect(a) > HERMITICITY_RTOL * scale:
        raise NonHermitianInput(
            f"hermiticity defect {hermiticity_defect(a):.3e} exceeds {HERMITICITY_RTOL:.1e} * {scale:.3e}"
        )
    return a


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues ascending, orthonormal eigenvectors as columns."""

    values: np.ndarray
    vectors: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.values)


def eig_hermitian(a) -> EigenDecomposition:
    """Full eigendecomposition of a hermitian matrix.

    Ordering is deterministic: eigenvalues ascending, and each eigenvector's
    first component of magnitude above 1e-8 is made real and positive.
    """
    a = require_hermitian(a)
    values, vectors = np.linalg.eigh(a)
    vectors = _fix_phases(vectors)
    return EigenDecomposition(values=values, vectors=vectors)


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    pivots = vectors[np.argmax(np.abs(vectors) > 1e-8, axis=0), np.arange(vectors.shape[1])]
    magnitudes = np.abs(pivots)
    fixable = magnitudes > 0
    return vectors * np.where(fixable, magnitudes / np.where(fixable, pivots, 1.0), 1.0)


def relevance_order(values) -> np.ndarray:
    """Indices of ``values`` by |E| descending (most relevant first).

    Magnitudes within DEGENERACY_RTOL * max|E| of their neighbour in that
    order are ties, ordered by ascending E, so a +-lambda pair comes out the
    same way whichever of the two rounding puts further out.
    """
    values = np.asarray(values, dtype=float)
    order = np.argsort(-np.abs(values), kind="stable")
    magnitudes = np.abs(values[order])
    cluster = np.concatenate([[0], np.cumsum(-np.diff(magnitudes) > DEGENERACY_RTOL * magnitudes[0])])
    return order[np.lexsort((values[order], cluster))]


def unitary_phase_exp(a, t: float) -> np.ndarray:
    """exp(i*t*A) for hermitian A, through the eigendecomposition."""
    dec = eig_hermitian(a)
    phases = np.exp(1j * t * dec.values)
    return (dec.vectors * phases) @ dec.vectors.conj().T


def _lu_pivots(a: np.ndarray):
    import warnings

    import scipy.linalg

    with warnings.catch_warnings():
        # exact zero pivots surface via our SingularMatrix check below
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(a, check_finite=True)
    diag = np.diag(lu)
    scale = max(float(np.linalg.norm(a)), 1e-300)
    if np.min(np.abs(diag)) <= PIVOT_RTOL * scale:
        raise SingularMatrix(
            f"LU pivot {np.min(np.abs(diag)):.3e} below {PIVOT_RTOL:.1e} * ||A||_F"
        )
    return lu, piv, diag


def logdet_lu(a) -> complex:
    """log det A by LU factorization, imaginary part on the principal branch (-pi, pi]."""
    a = as_complex_matrix(a)
    lu, piv, diag = _lu_pivots(a)
    real = float(np.sum(np.log(np.abs(diag))))
    # row swaps contribute a sign: permutation parity from the pivot list
    swaps = int(np.sum(piv != np.arange(len(piv))))
    phase = float(np.sum(np.angle(diag))) + np.pi * (swaps % 2)
    phase = float(np.remainder(phase + np.pi, 2 * np.pi) - np.pi)
    if phase == -np.pi:
        phase = np.pi
    return complex(real, phase)


def inverse(a) -> np.ndarray:
    """A^-1 via LU with partial pivoting; raises SingularMatrix on pivot underflow."""
    import scipy.linalg

    a = as_complex_matrix(a)
    lu, piv, _ = _lu_pivots(a)
    return scipy.linalg.lu_solve((lu, piv), np.eye(a.shape[0], dtype=complex))


def orthonormalize_svd(block) -> np.ndarray:
    """Replace an N x b block by U V^dag from its SVD (orthonormal, same span)."""
    block = np.asarray(block, dtype=complex)
    if block.ndim == 1:
        block = block[:, None]
    u, s, vh = np.linalg.svd(block, full_matrices=False)
    if s[-1] <= RANK_RTOL * s[0]:
        raise RankDeficientBlock(
            f"singular value ratio {s[-1] / s[0]:.3e} below {RANK_RTOL:.1e}"
        )
    return u @ vh


def _eigenvalue_gap(values: np.ndarray, p: int) -> float:
    gaps = []
    if p > 0:
        gaps.append(abs(values[p] - values[p - 1]))
    if p < len(values) - 1:
        gaps.append(abs(values[p + 1] - values[p]))
    return min(gaps) if gaps else np.inf


def hellmann_feynman_derivative(dec: EigenDecomposition, delta: np.ndarray, p: int, a_norm: float) -> float:
    """<p|Delta|p>, the slope of the p-th eigenvalue of ``dec`` along the
    hermitian ``delta``, read from an existing eigendecomposition of A
    (``a_norm`` = ||A||_F).  Raises DegenerateEigenvalue when the eigenvalue's
    gap is at most DEGENERACY_RTOL * ||A||_F."""
    if _eigenvalue_gap(dec.values, p) <= DEGENERACY_RTOL * max(a_norm, 1e-300):
        raise DegenerateEigenvalue(
            f"gap at index {p} below {DEGENERACY_RTOL:.1e} * ||A||_F; "
            "use degenerate_directional_derivatives"
        )
    v = dec.vectors[:, p]
    return float(np.real(v.conj() @ delta @ v))


def directional_eigen_derivative(a, delta, p: int, mode: str = "hellmann_feynman") -> float:
    """d/ds of the p-th ascending eigenvalue of A + s*Delta at s = 0.

    ``hellmann_feynman`` evaluates <p|Delta|p> and requires the eigenvalue to
    be nondegenerate; ``central_difference`` re-diagonalizes at +-h
    (h = CENTRAL_DIFFERENCE_STEP) and is the independent cross-check.  For
    degenerate eigenvalues see :func:`degenerate_directional_derivatives`.
    """
    a = require_hermitian(a)
    delta = require_hermitian(delta)
    if mode == "hellmann_feynman":
        return hellmann_feynman_derivative(eig_hermitian(a), delta, p, float(np.linalg.norm(a)))
    if mode == "central_difference":
        h = CENTRAL_DIFFERENCE_STEP
        up = np.linalg.eigvalsh(a + h * delta)
        dn = np.linalg.eigvalsh(a - h * delta)
        return float((up[p] - dn[p]) / (2 * h))
    raise ValueError(f"unknown mode {mode!r}")


def degenerate_directional_derivatives(a, delta, p: int) -> np.ndarray:
    """Directional derivatives for a degenerate eigenvalue.

    Diagonalizes Delta restricted to the degenerate subspace containing index
    p and returns its eigenvalues ascending (standard degenerate perturbation
    theory).
    """
    a = require_hermitian(a)
    delta = require_hermitian(delta)
    dec = eig_hermitian(a)
    scale = max(float(np.linalg.norm(a)), 1e-300)
    members = np.abs(dec.values - dec.values[p]) <= DEGENERACY_RTOL * scale
    basis = dec.vectors[:, members]
    restricted = basis.conj().T @ delta @ basis
    return np.linalg.eigvalsh((restricted + restricted.conj().T) / 2)
