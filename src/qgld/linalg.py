"""Dense complex linear algebra and the classical oracles used for cross-checking.

Everything here is plain numpy on dense arrays, the LU oracle ``inverse``
included: its pivot check is a blocked LU with LAPACK's pivot rule, written
in numpy.  Matrices are ``np.ndarray`` of complex dtype; "hermitian" always
means hermitian within ``HERMITICITY_RTOL`` relative to the largest entry.
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
EPS = float(np.finfo(float).eps)
SECULAR_DEFLATION = 8 * EPS
SECULAR_MAX_STEPS = 64
LU_PANEL = 32
RESIDUAL_COLUMNS = 64


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


def require_hermitian(a) -> np.ndarray:
    """``a`` as :func:`as_complex_matrix` gives it, after checking that its
    hermiticity defect max_ij |a_ij - conj(a_ji)| is at most
    HERMITICITY_RTOL * max_ij |a_ij|; raises NonHermitianInput otherwise.
    Both maxima are taken over the RESIDUAL_COLUMNS-square tiles on and
    above the diagonal and their mirror tiles, so that the largest
    temporary is one tile's copy, which the differences overwrite."""
    a = as_complex_matrix(a)
    n, step = a.shape[0], RESIDUAL_COLUMNS
    defect, scale = 0.0, 1e-300
    for start in range(0, n, step):
        for col in range(start, n, step):
            upper = a[start:start + step, col:col + step]
            mirror = a[col:col + step, start:start + step].T.copy()
            scale = max(scale, np.abs(upper).max(), np.abs(mirror).max())
            np.subtract(upper, np.conjugate(mirror, out=mirror), out=mirror)
            defect = max(defect, np.abs(mirror).max())
    if defect > HERMITICITY_RTOL * scale:
        raise NonHermitianInput(f"hermiticity defect {defect:.3e} exceeds {HERMITICITY_RTOL:.1e} * {scale:.3e}")
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


def eigen_residuals(a: np.ndarray, values: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """||A v_j - E_j v_j|| for each column v_j of ``vectors``, formed
    RESIDUAL_COLUMNS columns at a time so no full-size temporary is made."""
    residuals = np.empty(vectors.shape[1])
    for start in range(0, vectors.shape[1], RESIDUAL_COLUMNS):
        block = slice(start, start + RESIDUAL_COLUMNS)
        v = vectors[:, block]
        residuals[block] = np.linalg.norm(a @ v - v * values[block], axis=0)
    return residuals


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Scale each eigenvector column, of one matrix or of a stack, in place
    so that its first component of magnitude above 1e-8 is real and
    positive; returns ``vectors``."""
    first = np.argmax(np.abs(vectors) > 1e-8, axis=-2)[..., None, :]
    pivots = np.take_along_axis(vectors, first, axis=-2)
    magnitudes = np.abs(pivots)
    fixable = magnitudes > 0
    vectors *= np.where(fixable, magnitudes / np.where(fixable, pivots, 1.0), 1.0)
    return vectors


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


def low_rank_update_eigh(values, factors, weights):
    """Eigensystems of diag(values) + F_p diag(weights_p) F_p^dag for P
    problems: ``values`` (N,) real, ``factors`` (P, N, r) and ``weights``
    (P, r) real and nonzero, one per rank-one term.

    Each rank-one term is one secular-equation solve (Golub 1973; Bunch,
    Nielsen and Sorensen 1978), applied in turn.  Eigenvalue k of problem p
    is returned as values[anchor[p, k]] + offset[p, k], held against the pole
    it was found next to, so every difference from the unperturbed values
    keeps the relative precision of the offsets rather than eps * max|values|.
    Returns (vectors (P, N, N), columns the eigenvectors; anchor; offset).
    """
    values = np.asarray(values, dtype=float)
    factors = np.asarray(factors, dtype=complex)
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (factors.shape[0], factors.shape[2]) or not np.all(weights):
        raise ValueError(f"weights of shape {weights.shape} for factors of shape {factors.shape}: "
                         f"need (P, r), every weight nonzero")
    anchor = np.broadcast_to(np.arange(len(values)), factors.shape[:2])
    offset = np.zeros(factors.shape[:2])
    vectors = None
    for column in range(factors.shape[2]):
        z = factors[:, :, column]
        if vectors is not None:
            z = np.einsum("pki,pk->pi", vectors.conj(), z)
        step, root, tau = _secular_rank_one(values, anchor, offset, z, weights[:, column])
        rows = np.arange(len(root))[:, None]
        anchor, offset = anchor[rows, root], offset[rows, root] + tau
        vectors = step if vectors is None else vectors @ step
    return vectors, anchor, offset


def _secular_rank_one(values, anchor, offset, z, rho):
    """Eigensystems of diag(d) + rho_p z_p z_p^dag, d_i = values[anchor_i] +
    offset_i, for P problems at once, vectorized over problems and roots.

    Components |z_i| <= SECULAR_DEFLATION * ||z|| are deflated (their pole is
    an eigenvalue), as are all but one of a run of poles closer than
    8 * eps * (rho ||z||^2 + max|offset|), after a Householder reflection puts
    the run's weight on its first pole.  Each remaining root lies between
    consecutive poles (the last one below d_max + rho ||z||^2).  It starts
    from the one-pole estimate, is held as an offset tau from the nearer
    pole, and is refined by the two-pole rational ("middle way") iteration of
    LAPACK dlaed4 (R.-C. Li, LAWN 89), solved for the new offset itself and
    safeguarded by bisection.  Eigenvectors come from the Gu-Eisenstat vector
    z_hat, for which the computed roots are exact, so they are orthogonal to
    working precision.  Returns (vectors, root pole index, tau).
    """
    p_total, n = z.shape
    rows = np.arange(p_total)[:, None]
    idx = np.arange(n)
    sign = np.sign(rho)[:, None]  # rho < 0 solves -D + |rho| z z^dag
    base = values[anchor]
    key = base + offset
    part = key - base
    low = (base - (key - part)) + (offset - part)  # key + low = base + offset exactly
    order = np.lexsort((sign * low, sign * key), axis=-1)
    base, off = sign * base[rows, order], sign * offset[rows, order]
    gaps = base[:, None, :] - base[:, :, None]  # d_j - d_i
    gaps += off[:, None, :] - off[:, :, None]
    mag = np.abs(z[rows, order])
    weight = np.abs(rho)[:, None] * mag * mag
    active = mag > SECULAR_DEFLATION * np.sqrt(np.sum(mag * mag, axis=1, keepdims=True))
    slot = idx  # the pole each deflated eigenvalue keeps

    def next_active():
        later = np.minimum.accumulate(np.where(active, idx, n)[:, ::-1], axis=1)[:, ::-1]
        nxt = np.concatenate([later[:, 1:], np.full((p_total, 1), n)], axis=1)
        return nxt, gaps[rows, idx, np.minimum(nxt, n - 1)]

    nxt, width = next_active()
    tie = 8 * EPS * (np.sum(weight, axis=1, keepdims=True) + np.max(np.abs(offset), axis=1, keepdims=True))
    tied = active & (nxt < n) & (width <= tie)
    runs = []
    if tied.any():
        continued = np.zeros((p_total, n + 1), dtype=bool)
        continued[np.nonzero(tied)[0], nxt[tied]] = True
        slot = np.broadcast_to(idx, (p_total, n)).copy()
        for p, k in zip(*np.nonzero(tied & ~continued[:, :n])):
            members = [k]
            while tied[p, members[-1]]:
                members.append(nxt[p, members[-1]])
            v = -mag[p, members] / np.linalg.norm(mag[p, members])
            v[0] += 1.0
            reflect = np.eye(len(members)) - 2.0 * np.outer(v, v) / max(v @ v, 1e-300)
            runs.append((p, members, reflect))
            weight[p, members[0]] = np.abs(rho[p]) * np.sum(mag[p, members] ** 2)
            active[p, members[1:]] = False
            slot[p, members[1:]] = members[0]
        nxt, width = next_active()
    last = nxt == n
    # the last root lies below d_max + rho ||z||^2
    width = np.where(last, np.sum(weight * active, axis=1, keepdims=True), width)
    # each root's rational model has two poles, relative to its origin: the
    # bracketing ones, or for the last root the active pole before it and its own
    earlier = np.maximum.accumulate(np.where(active, idx, -1), axis=1)
    before = np.concatenate([np.full((p_total, 1), -1), earlier[:, :-1]], axis=1)
    left_pole = np.where(last & (before >= 0), gaps[rows, idx, np.maximum(before, 0)], 0.0)
    right_pole = np.where(last, 0.0, width)

    # pole j at or below pole k, and above it: each side is its own masked
    # sum, so a small side keeps its relative precision next to a large one
    side_below = np.tri(n)
    side_above = 1.0 - side_below
    counted = np.broadcast_to(active[:, None, :], gaps.shape)  # deflated poles drop out of every sum
    diff, terms, dterms = np.empty(gaps.shape), np.zeros(gaps.shape), np.zeros(gaps.shape)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        origin, delta = idx, gaps  # rows of the pole each root is held against
        # start from the one-pole estimate w_k / (1 + sum_{j != k} w_j / (d_j - d_k)), else mid-interval
        np.divide(weight[:, None, :], gaps, out=terms, where=counted)
        terms[:, idx, idx] = 0.0
        tau = weight / (1.0 + terms.sum(axis=2))
        tau = np.where((tau > 0) & (tau < width), tau, width / 2)
        lo, hi = np.zeros((p_total, n)), width
        todo = active.copy()
        for step in range(SECULAR_MAX_STEPS):
            np.subtract(delta, tau[:, :, None], out=diff)
            np.divide(weight[:, None, :], diff, out=terms, where=counted)
            np.divide(terms, diff, out=dterms, where=counted)
            psi, phi = np.einsum("pkj,kj->pk", terms, side_below), np.einsum("pkj,kj->pk", terms, side_above)
            dpsi = np.einsum("pkj,kj->pk", dterms, side_below)
            dphi = np.einsum("pkj,kj->pk", dterms, side_above)
            f = 1.0 + psi + phi
            bound = 8.0 * (phi - psi) + 2.0
            # the last root's own pole is the model's right one
            own, down = terms[:, idx, idx] * last, dterms[:, idx, idx] * last
            psi, phi, dpsi, dphi = psi - own, phi + own, dpsi - down, dphi + down
            slope = dpsi + dphi
            unconverged = np.abs(f) > EPS * (bound + 3.0 * np.abs(tau) * slope)
            if step and not (todo & unconverged).any():
                break  # this step's update would leave every root where it is
            below = f < 0
            lo, hi = np.where(below, tau, lo), np.where(below, hi, tau)
            # the model c + s / (left_pole - x) + t / (right_pole - x) matching f and f' at
            # tau (one of the poles is 0), solved for the new offset x itself, so a root
            # next to the origin keeps its relative precision
            left, right = left_pole - tau, right_pole - tau
            s_left, s_right = left * left * dpsi, right * right * dphi
            c = f - left * dpsi - right * dphi
            a = c * (left_pole + right_pole) + s_left + s_right
            b = s_left * right_pole + s_right * left_pole
            q = (a + np.copysign(np.sqrt(np.abs(a * a - 4 * b * c)), a)) / 2
            new = np.where((b / q > lo) & (b / q < hi), b / q, q / c)
            todo &= unconverged & (new != tau)
            new = np.where(todo, np.where((new > lo) & (new < hi), new, (lo + hi) / 2), tau)
            if step == 0:  # from here on, hold each root against its nearer pole
                upper = ~last & (new > width / 2)
                origin = np.where(upper, nxt, idx)
                new, lo, hi = (np.where(upper, v - width, v) for v in (new, lo, hi))
                left_pole, right_pole = np.where(upper, -width, left_pole), np.where(upper, 0.0, right_pole)
                delta = gaps[rows[:, :, None], origin[:, :, None], idx]
            tau = new
            if not todo.any():
                break
        # d_i - root_k, and the Gu-Eisenstat z_hat_i^2 = |prod_k (root_k - d_i) / prod_{k != i} (d_k - d_i)|
        np.subtract(delta, tau[:, :, None], out=diff)
        apart = diff.transpose(0, 2, 1)
        pair = counted & active[:, :, None]
        np.divide(apart, gaps, out=terms)
        terms[:, idx, idx] = apart[:, idx, idx]
        np.copyto(terms, 1.0, where=~pair)
        z_hat = np.sqrt(np.abs(np.prod(terms, axis=2)))
        vec = np.divide(z_hat[:, :, None], apart, out=dterms)
    del gaps, delta, diff, apart, terms  # before the complex vectors, to bound the peak
    np.copyto(vec, 0.0, where=~pair)
    vec /= np.sqrt(np.einsum("pik,pik->pk", vec, vec))[:, None, :] + ~active[:, None, :]
    vec[:, idx, idx] += ~active
    for p, members, reflect in runs:
        vec[p, members, :] = reflect @ vec[p, members, :]
    vectors = np.empty(vec.shape, dtype=complex)
    vectors[rows, order, :] = vec
    vectors *= np.exp(1j * np.angle(z))[:, :, None]
    root = order[rows, np.where(active, origin, slot)]
    return vectors, root, np.where(active, sign * tau, 0.0)


def _lu_pivots(a: np.ndarray):
    """Pivot list and U diagonal of PA = LU, in LAPACK getrf's layout (row j
    was swapped with row piv[j]); raises SingularMatrix when a pivot is at
    most PIVOT_RTOL * ||A||_F.

    Blocked right-looking LU with partial pivoting: each LU_PANEL-wide panel
    is factored column by column, then its rows of U to the right are solved
    for, then the trailing block takes one matmul.  Pivots follow LAPACK's
    izamax rule, the largest |re| + |im| with ties to the first, as getrf
    does, so the pivots and U diagonal are getrf's up to rounding.
    """
    lu = a.copy()
    n = lu.shape[0]
    piv = np.empty(n, dtype=np.intp)
    for start in range(0, n, LU_PANEL):
        stop = min(start + LU_PANEL, n)
        for j in range(start, stop):
            column = lu[j:, j]
            p = j + int(np.argmax(np.abs(column.real) + np.abs(column.imag)))
            piv[j] = p
            if p != j:
                lu[[j, p]] = lu[[p, j]]
            if lu[j, j] != 0:  # an exact zero pivot is left to the check below
                lu[j + 1:, j] /= lu[j, j]
            lu[j + 1:, j + 1:stop] -= np.outer(lu[j + 1:, j], lu[j, j + 1:stop])
        # the panel's rows of U right of it, once its swaps are done: L11^-1 A12
        for j in range(start, stop - 1):
            lu[j + 1:stop, stop:] -= np.outer(lu[j + 1:stop, j], lu[j, stop:])
        lu[stop:, stop:] -= lu[stop:, start:stop] @ lu[start:stop, stop:]
    diag = np.diag(lu).copy()
    scale = max(float(np.linalg.norm(a)), 1e-300)
    if np.min(np.abs(diag)) <= PIVOT_RTOL * scale:
        raise SingularMatrix(
            f"LU pivot {np.min(np.abs(diag)):.3e} below {PIVOT_RTOL:.1e} * ||A||_F"
        )
    return piv, diag


def inverse(a) -> np.ndarray:
    """A^-1 via LU with partial pivoting; raises SingularMatrix on pivot underflow.

    The pivot check is ``_lu_pivots``; the inverse itself is LAPACK gesv
    through numpy, whose getrf picks the same pivots."""
    a = as_complex_matrix(a)
    _lu_pivots(a)
    return np.linalg.solve(a, np.eye(a.shape[0], dtype=complex))


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
    gap = _eigenvalue_gap(dec.values, p)
    if gap <= DEGENERACY_RTOL * max(a_norm, 1e-300):
        raise DegenerateEigenvalue(f"gap at index {p} is {gap:.3e}, at most {DEGENERACY_RTOL:.1e} * ||A||_F")
    v = dec.vectors[:, p]
    return float(np.real(v.conj() @ delta @ v))

