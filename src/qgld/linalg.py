"""Dense complex linear algebra and the classical oracles used for cross-checking.

Plain numpy on dense arrays: every factorization is numpy's LAPACK call.
Matrices are ``np.ndarray`` of complex dtype; "hermitian" always means
hermitian within ``HERMITICITY_RTOL`` relative to the largest entry.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import NearZeroEigenvalue, NonFiniteInput, NonHermitianInput, RankDeficientBlock, SingularMatrix

HERMITICITY_RTOL = 1e-12
PIVOT_RTOL = 1e-13
DEGENERACY_RTOL = 1e-8
RANK_RTOL = 1e-10
EPS = float(np.finfo(float).eps)
SECULAR_DEFLATION = 8 * EPS
SECULAR_MAX_STEPS = 64
RESIDUAL_COLUMNS = 64
PSEUDO_INVERSE_RTOL = 1e-10
EIGEN_RESIDUAL_RTOL = 1e-6


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


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenpairs of one validated hermitian X as its producer resolved them:
    ``values`` and the orthonormal columns ``vectors``, eigenvectors or Ritz
    vectors QY, the basis factored directions are probed in (``custom`` ones
    run the dense family), of any count: each resolve checks N.  ||X||_F,
    the ascending spacing, the relevance order, the pseudo-inverse mask and
    the eigen-residuals are each formed on first read and kept.  X is held
    as given, not copied, and read then; no array may be written to."""

    x: np.ndarray = field(repr=False)
    values: np.ndarray
    vectors: np.ndarray = field(repr=False)

    @cached_property
    def x_norm(self) -> float:
        """||X||_F."""
        return float(np.linalg.norm(self.x))

    @cached_property
    def spacing(self) -> tuple:
        """The order of ``values`` ascending, and the gaps between neighbours in it."""
        order = np.argsort(self.values, kind="stable")
        return order, np.diff(self.values[order])

    @cached_property
    def order(self) -> np.ndarray:
        """:func:`relevance_order` of ``values``."""
        return relevance_order(self.values)

    @cached_property
    def usable(self) -> np.ndarray:
        """|E| > PSEUDO_INVERSE_RTOL * ||X||_F: the pairs a pseudo-inverse keeps."""
        return np.abs(self.values) > PSEUDO_INVERSE_RTOL * max(self.x_norm, 1e-300)

    @cached_property
    def residuals(self) -> np.ndarray:
        """:func:`eigen_residuals` of every pair."""
        return eigen_residuals(self.x, self.values, self.vectors)

    def clusters(self, reach: float) -> list:
        """The indices of each run of two or more ascending values whose
        neighbour gaps are at most max(DEGENERACY_RTOL * ||X||_F, ``reach``):
        the eigenspaces that a perturbation of that reach mixes."""
        order, gaps = self.spacing
        apart = gaps > max(DEGENERACY_RTOL * self.x_norm, reach)
        if apart.all():
            return []
        return [idx for idx in np.split(order, np.flatnonzero(apart) + 1) if len(idx) > 1]

    def select(self, k: int) -> tuple:
        """The k most relevant pairs (:attr:`order`): (the indices of those
        above the pseudo-inverse threshold, the values of the others).
        Raises ValueError for a k outside [1, pairs resolved] or a used
        pair's residual above EIGEN_RESIDUAL_RTOL * ||X||_F (its probe would
        read a wrong slope), and NearZeroEigenvalue when no pair is used."""
        if not 1 <= k <= len(self.values):
            raise ValueError(f"k = {k} outside [1, {len(self.values)}], the eigenpairs resolved")
        order = self.order[:k]
        kept = self.usable[order]
        used = order[kept]
        if not used.size:
            raise NearZeroEigenvalue("every requested eigenvalue is below the pseudo-inverse threshold")
        worst = float(np.max(self.residuals[used]))
        if worst > EIGEN_RESIDUAL_RTOL * self.x_norm:
            raise ValueError(f"eigensource residual {worst:.3e} exceeds {EIGEN_RESIDUAL_RTOL:.0e} * ||X||_F; "
                             f"increase Lanczos steps")
        return used, self.values[order[~kept]].tolist()

    def require_whole_clusters(self, k: int, reach: float) -> None:
        """Raise ValueError, naming the nearest k below and above that do
        not, when the k most relevant pairs hold part of a cluster of
        :meth:`clusters` at ``reach``: the sum over them is then not
        defined by X, since it depends on which vectors of the cluster's
        eigenspace are taken."""
        reach = max(DEGENERACY_RTOL * self.x_norm, reach)
        rank = np.argsort(self.order)  # each pair's place in the relevance order
        inside = np.zeros(len(rank) + 1, dtype=bool)  # inside[c]: the first c pairs split a cluster
        for idx in self.clusters(reach):
            if self.usable[idx].any():  # a cluster the pseudo-inverse skips adds nothing, however it is cut
                inside[rank[idx].min() + 1:rank[idx].max() + 1] = True
        if inside[k]:
            valid = np.flatnonzero(~inside[1:]) + 1
            nearest = [*valid[valid < k][-1:], valid[valid > k][0]]
            raise ValueError(f"k = {k} ends inside a cluster of eigenvalues with gaps at most {reach:.3g}, so the "
                             f"sum over the first k is not defined by X; use k = {' or '.join(map(str, nearest))}")


def eig_hermitian(a) -> Spectrum:
    """Full eigendecomposition of a hermitian matrix, as a Spectrum.

    Ordering is deterministic: eigenvalues ascending, and each eigenvector's
    first component of magnitude above 1e-8 is made real and positive.
    """
    a = require_hermitian(a)
    values, vectors = np.linalg.eigh(a)
    return Spectrum(x=a, values=values, vectors=_fix_phases(vectors))


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
    (P, r) real and nonzero, one per rank-one term, all finite.

    Each rank-one term is one secular-equation solve (Golub 1973; Bunch,
    Nielsen and Sorensen 1978), applied in turn.  Eigenvalue k of problem p
    is returned as values[anchor[p, k]] + offset[p, k], held against the pole
    it was found next to, so every difference from the unperturbed values
    keeps the relative precision of the offsets rather than eps * max|values|.
    Returns (vectors (P, N, N), columns the eigenvectors; anchor; offset).
    Raises ValueError naming the shapes that do not fit, or for a zero
    weight, and NonFiniteInput naming the array that holds a NaN or inf.
    """
    values = np.asarray(values, dtype=float)
    factors = np.asarray(factors, dtype=complex)
    weights = np.asarray(weights, dtype=float)
    if values.ndim != 1 or factors.ndim != 3 or factors.shape[1] != len(values):
        raise ValueError(f"factors of shape {factors.shape} for values of shape {values.shape}: "
                         f"need (P, N, r) and (N,)")
    if weights.shape != (factors.shape[0], factors.shape[2]) or np.count_nonzero(weights) < weights.size:
        raise ValueError(f"weights of shape {weights.shape} for factors of shape {factors.shape}: "
                         f"need (P, r), every weight nonzero")
    for name, part in (("values", values), ("factors", factors), ("weights", weights)):
        bad = part.size - np.count_nonzero(np.isfinite(part))
        if bad:
            raise NonFiniteInput(f"{name} have {bad} non-finite entries (NaN or inf)")
    p_total, n = factors.shape[:2]
    anchor, offset, rows = np.tile(np.arange(n), (p_total, 1)), np.zeros((p_total, n)), np.arange(p_total)[:, None]
    vectors = None
    for column in range(factors.shape[2]):
        z = factors[:, :, column]
        if vectors is not None:
            z = np.einsum("pki,pk->pi", vectors.conj(), z)
        step, root, tau = _secular_rank_one(values, anchor, offset, z, weights[:, column])
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

    Five float arrays of P * N^2 entries are held at once: gaps, terms and
    dterms, and d_j - root_k and the re-origined gaps in the memory of the
    complex eigenvectors, which are formed last.
    """
    p_total, n = z.shape
    rows, idx = np.arange(p_total)[:, None], np.arange(n)
    sign = np.sign(rho)[:, None]  # rho < 0 solves -D + |rho| z z^dag
    base, off = values[anchor] * sign, offset * sign
    key = base + off
    part = key - base  # key + low = base + offset exactly, so the order is exact
    order = np.lexsort(((base - (key - part)) + (off - part), key), axis=-1)
    base, off = base[rows, order], off[rows, order]
    vectors = np.empty((p_total, n, n), dtype=complex)
    diff, moved = vectors.reshape(-1).view(float).reshape(2, p_total, n, n)
    gaps = np.subtract(base[:, None, :], base[:, :, None])  # d_j - d_i
    gaps += np.subtract(off[:, None, :], off[:, :, None], out=diff)
    mag = np.abs(z[rows, order])
    weight = np.abs(rho)[:, None] * mag * mag
    active = mag > SECULAR_DEFLATION * np.sqrt((mag * mag).sum(axis=1, keepdims=True))
    slot = idx  # the pole each deflated eigenvalue keeps

    def next_active():
        ahead = np.full((p_total, n + 1), n)
        np.copyto(ahead[:, :n], idx, where=active)
        nxt = np.minimum.accumulate(ahead[:, ::-1], axis=1)[:, -2::-1]
        last = nxt == n
        return nxt, last, gaps[rows, idx, nxt - last]

    nxt, last, width = next_active()
    tie = 8 * EPS * (weight.sum(axis=1, keepdims=True) + np.abs(offset).max(axis=1, keepdims=True))
    tied = active & ~last & (width <= tie)
    runs = []
    if np.count_nonzero(tied):
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
        nxt, last, width = next_active()
    # the last root lies below d_max + rho ||z||^2
    width = np.where(last, (weight * active).sum(axis=1, keepdims=True), width)
    half = width / 2
    # each root's rational model has two poles, relative to its origin: the
    # bracketing ones, or for the last root the active pole before it and its
    # own; they and the bracket [lo, hi] of its offset move with the origin
    behind = np.full((p_total, n + 1), -1)
    np.copyto(behind[:, 1:], idx, where=active)
    before = np.maximum.accumulate(behind, axis=1)[:, :n]
    frame = np.zeros((4, p_total, n))
    poles, lo, hi = frame[:2], frame[2], frame[3]
    np.copyto(poles[0], gaps[rows, idx, before], where=last & (before >= 0))
    np.copyto(poles[1], width, where=~last)
    hi[...] = width
    span = poles[0] + poles[1]
    # a deflated pole drops out of every sum: its column of gaps is +inf
    dead = np.nonzero(~active)
    gaps[dead[0], :, dead[1]] = np.inf

    # pole j at or below pole k, and above it: each side is its own masked
    # sum, so a small side keeps its relative precision next to a large one
    sides = np.empty((2, n, n))
    sides[0] = idx[:, None] >= idx
    np.subtract(1.0, sides[0], out=sides[1])
    terms, dterms = work = np.empty((2, p_total, n, n))
    diagonals = work.reshape(2, p_total, -1)[..., ::n + 1]  # each root's own-pole terms
    candidates, sums = np.empty((2, p_total, n)), np.empty((2, 2, p_total, n))
    (psi, phi), slopes = sums  # the sides' sums of terms, and of dterms
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        origin, delta = idx, gaps  # rows of the pole each root is held against
        # start from the one-pole estimate w_k / (1 + sum_{j != k} w_j / (d_j - d_k)), else mid-interval
        np.divide(weight[:, None, :], gaps, out=terms)
        diagonals[0] = 0.0
        tau = weight / (1.0 + terms.sum(axis=2))
        tau = np.where((tau > 0) & (tau < width), tau, half)
        todo = active.copy()
        for step in range(SECULAR_MAX_STEPS + 1):
            np.subtract(delta, tau[:, :, None], out=diff)
            if step == SECULAR_MAX_STEPS or step and not np.count_nonzero(todo):
                break  # every root is final, and diff is taken at it
            np.divide(weight[:, None, :], diff, out=terms)
            np.divide(terms, diff, out=dterms)
            np.einsum("tpkj,skj->tspk", work, sides, out=sums)
            f = 1.0 + psi + phi
            bound = 8.0 * (phi - psi) + 2.0
            # the last root's own pole is the model's right one
            down = diagonals[1] * last
            slopes[0] -= down
            slopes[1] += down
            unconverged = np.abs(f) > EPS * (bound + 3.0 * np.abs(tau) * (slopes[0] + slopes[1]))
            if step and not np.count_nonzero(todo & unconverged):
                break  # this step's update would leave every root where it is
            below = f < 0
            np.copyto(lo, tau, where=below)
            np.copyto(hi, tau, where=~below)
            # the model c + s / (left pole - x) + t / (right pole - x) matching f and f' at
            # tau (one of the poles is 0), solved for the new offset x itself, so a root
            # next to the origin keeps its relative precision
            apart = poles - tau
            scaled = apart * slopes
            s = apart * apart * slopes
            c = f - scaled[0] - scaled[1]
            a = c * span + s[0] + s[1]
            s *= poles[::-1]
            b = s[0] + s[1]
            q = (a + np.copysign(np.sqrt(np.abs(a * a - 4 * b * c)), a)) / 2
            # the model's root b / q if inside the bracket, else q / c, else bisection
            np.divide(b, q, out=candidates[0])
            np.divide(q, c, out=candidates[1])
            inside = (candidates > lo) & (candidates < hi)
            new = np.where(inside[0], candidates[0], candidates[1])
            todo &= unconverged & (new != tau)
            new = np.where(todo, np.where(inside[0] | inside[1], new, (lo + hi) / 2), tau)
            if step == 0:  # from here on, hold each root against its nearer pole
                upper = ~last & (new > half)
                origin = np.where(upper, nxt, idx)
                np.subtract(new, width, out=new, where=upper)
                np.subtract(frame, width, out=frame, where=upper)
                span = poles[0] + poles[1]
                delta = gaps.reshape(-1, n).take(origin + rows * n, axis=0, out=moved, mode="clip")
            tau = new
        # the Gu-Eisenstat z_hat_i^2 = |prod_k (d_i - root_k) / prod_{k != i} (d_i - d_k)|, a product
        # down each column of diff / gaps (d_k - d_i = -gaps[k, i] exactly), and d_i - root_k
        np.divide(diff, gaps, out=terms)
        diagonals[0] = diff.reshape(p_total, -1)[:, ::n + 1]
        terms[dead[0], dead[1], :] = 1.0
        z_hat = np.sqrt(np.abs(np.multiply.reduce(terms, axis=1)))
        vec = np.divide(z_hat[:, :, None], diff.transpose(0, 2, 1), out=dterms)
    # a deflated pole keeps its unit vector, and has no part in any other
    vec[dead[0], dead[1], :] = 0.0
    vec[dead[0], :, dead[1]] = 0.0
    vec[dead[0], dead[1], dead[1]] = 1.0
    vec /= np.sqrt(np.einsum("pik,pik->pk", vec, vec))[:, None, :]
    for p, members, reflect in runs:
        vec[p, members, :] = reflect @ vec[p, members, :]
    vectors[rows, order, :] = vec
    vectors *= np.exp(1j * np.arctan2(z.imag, z.real))[:, :, None]
    root = order[rows, np.where(active, origin, slot)]
    return vectors, root, np.where(active, sign * tau, 0.0)


def inverse(a) -> np.ndarray:
    """A^-1 from one LAPACK solve of A X = I, an LU with partial pivoting.
    Raises SingularMatrix when the LU meets an exact zero pivot, or unless
    ||A||_F ||A^-1||_F < 1 / (N PIVOT_RTOL), which a non-finite A^-1 fails.
    That refuses every A with a pivot |u_jj| <= PIVOT_RTOL ||A||_F: with PA
    = LU and |l_ij| <= 1, sigma_min(A) <= ||L||_2 sigma_min(U) <= N min
    |u_jj|, and sigma_min(A) >= 1 / ||A^-1||_F.  The norms are taken of A /
    max |a_ij| and A^-1 * max |a_ij|, so that neither over- nor underflows."""
    a = as_complex_matrix(a)
    try:
        inv = np.linalg.solve(a, np.eye(len(a), dtype=complex))
    except np.linalg.LinAlgError:
        raise SingularMatrix("LU met an exact zero pivot") from None
    scale = np.max(np.abs(a))
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite A^-1 gives an inf or NaN condition
        condition = float(np.linalg.norm(a / scale) * np.linalg.norm(inv * scale))
    if not condition < 1.0 / (len(a) * PIVOT_RTOL):  # negated, so that a NaN refuses
        raise SingularMatrix(f"||A||_F ||A^-1||_F = {condition:.3e} at least 1 / (N * {PIVOT_RTOL:.1e})")
    return inv


def orthonormalize_svd(block) -> np.ndarray:
    """Replace an N x b block by U V^dag from its SVD (orthonormal, same span)."""
    u, s, vh = np.linalg.svd(np.asarray(block, dtype=complex), full_matrices=False)
    if s[-1] <= RANK_RTOL * s[0]:
        raise RankDeficientBlock(
            f"singular value ratio {s[-1] / s[0]:.3e} below {RANK_RTOL:.1e}"
        )
    return u @ vh
