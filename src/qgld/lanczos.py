"""Randomized block Lanczos with full reorthogonalization.

Builds the three-term block recursion

    Psi_{p+1} B_{p+1} = X Psi_p - Psi_p A_p - Psi_{p-1} B_p^dag

with A_p = Psi_p^dag X Psi_p and the residual block R reorthogonalized against
the whole accumulated basis: one Gram-Schmidt pass, and a second only where
the DGKS criterion finds that the first one cancelled most of a column.  One
thin SVD R = U S V^dag gives B_{p+1} = V S V^dag (the hermitian square root
of R^dag R) and Psi_{p+1} = U V^dag = R B_{p+1}^-1.  Each step writes its
blocks into the block-tridiagonal S whose eigenpairs, lifted through the
basis, are the Ritz approximations used as probe input states.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import RESIDUAL_COLUMNS, Spectrum, eig_hermitian, orthonormalize_svd, require_hermitian

BREAKDOWN_RTOL = 1e-10
DGKS_ETA = 1 / np.sqrt(2)  # Daniel, Gragg, Kaufman & Stewart (1976)


@dataclass
class LanczosFactorization:
    """The recursion's two preallocated arrays, written in place: the basis
    blocks Psi_p as consecutive b-column slices of one column-major array,
    and S, with A_p (hermitian b x b) on its block diagonal, B_{p+1} below it
    and B_{p+1}^dag above.  ``breakdown``: an invariant subspace stopped the
    recursion before k steps."""

    block_size: int
    columns: np.ndarray  # N x (k*b); the first steps*b columns hold the basis
    s: np.ndarray  # (k*b) x (k*b); its leading (steps*b) square is S
    steps: int = 0
    breakdown: bool = False

    def basis(self) -> np.ndarray:
        """The N x (steps*b) basis, a view of ``columns`` (no copy)."""
        return self.columns[:, :self.steps * self.block_size]

    def tridiagonal(self) -> np.ndarray:
        """The (steps*b) square block-tridiagonal S, a view of ``s`` (no copy)."""
        return self.s[:self.steps * self.block_size, :self.steps * self.block_size]

    def orthonormality_defect(self) -> float:
        """||Q^dag Q - I||_F of the basis Q, from the tiles of RESIDUAL_COLUMNS
        square on and above the diagonal of the hermitian Gram matrix (each
        one above it counted twice), so that the largest temporary is one
        conjugated block of RESIDUAL_COLUMNS columns."""
        q = self.basis()
        width, total = q.shape[1], 0.0
        for start in range(0, width, RESIDUAL_COLUMNS):
            rows = q[:, start:start + RESIDUAL_COLUMNS].conj().T
            for col in range(start, width, RESIDUAL_COLUMNS):
                tile = rows @ q[:, col:col + RESIDUAL_COLUMNS]
                if col == start:
                    np.einsum("ii->i", tile)[...] -= 1.0
                total += (1.0 if col == start else 2.0) * float(np.vdot(tile, tile).real)
            del rows, tile  # before the next block's copy
        return float(np.sqrt(total))


@dataclass(frozen=True)
class LanczosStep:
    a_block: np.ndarray
    b_next: np.ndarray
    psi_next: np.ndarray | None  # None on breakdown


def rqbl_init(n: int, b: int, rng_seed: int) -> np.ndarray:
    """Random orthonormal N x b starting block (Gaussian entries, then U V^dag)."""
    if not 1 <= b <= n:
        raise ValueError(f"block size {b} outside [1, {n}]")
    rng = np.random.default_rng(rng_seed)
    block = rng.standard_normal((n, b)) + 1j * rng.standard_normal((n, b))
    return orthonormalize_svd(block)


def _project_out(block: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Classical Gram-Schmidt of ``block`` against ``basis``, with the second
    pass ("twice is enough") run only when the DGKS test asks for it: some
    column kept less than DGKS_ETA of its norm, so the first pass cancelled
    most of it and its rounding error is no longer small beside what is left."""
    def one_pass(r):
        # Psi^dag R as (R^dag Psi)^dag never conjugates the basis
        return r - basis @ (r.conj().T @ basis).conj().T

    before = np.linalg.norm(block, axis=0)
    block = one_pass(block)
    if np.any(np.linalg.norm(block, axis=0) < DGKS_ETA * before):
        block = one_pass(block)
    return block


def rqbl_step(x: np.ndarray, psi_p: np.ndarray, psi_prev: np.ndarray | None,
              b_p: np.ndarray | None, history: np.ndarray, breakdown_floor: float) -> LanczosStep:
    """One block recursion step on a complex X.

    ``history`` holds every basis block so far, psi_p included, concatenated;
    the residual is projected out of all of it (full reorthogonalization).
    Breakdown (smallest singular value of the residual under
    ``breakdown_floor``, which the factorization sets once to
    BREAKDOWN_RTOL * ||X||_F: an invariant subspace) is reported as no
    ``psi_next``, not raised.
    """
    work = x @ psi_p
    a_p = psi_p.conj().T @ work
    a_p = (a_p + a_p.conj().T) / 2
    r = work - psi_p @ a_p
    if psi_prev is not None and b_p is not None:
        r = r - psi_prev @ b_p.conj().T
    r = _project_out(r, history)

    u, sigma, vh = np.linalg.svd(r, full_matrices=False)
    b_next = (vh.conj().T * sigma) @ vh
    return LanczosStep(a_block=a_p, b_next=b_next, psi_next=None if sigma[-1] < breakdown_floor else u @ vh)


def assemble_and_solve(x: np.ndarray, fact: LanczosFactorization) -> Spectrum:
    """Diagonalize S and lift its eigenvectors through the basis, as the
    Ritz pairs of X in ``relevance_order``: |value| descending (most
    relevant first), and magnitudes equal within DEGENERACY_RTOL in
    ascending-value order.  The Spectrum forms their residuals against
    ``x`` only when they are read.

    The decomposition of S is dropped before the one lift, which goes
    straight into the final order: besides the factorization, about three
    N x (steps*b) complex arrays are alive at the peak, the eigensolve's
    own LAPACK workspace aside."""
    if fact.steps < 1:
        raise ValueError("factorization holds no blocks")
    dec = eig_hermitian(fact.tridiagonal())
    values, ritz = dec.values[dec.order], dec.vectors[:, dec.order]
    del dec
    vectors = fact.basis() @ ritz
    del ritz
    vectors /= np.linalg.norm(vectors, axis=0)
    return Spectrum(x=x, values=values, vectors=vectors)


def run_rqbl(x: np.ndarray, b: int, k: int | None, rng_seed: int) -> Spectrum:
    """Random init plus k recursion steps (early stop on breakdown), then the
    Ritz pairs of S."""
    x = np.asarray(x, dtype=complex)
    return assemble_and_solve(x, build_factorization(x, b, k, rng_seed))


def build_factorization(x: np.ndarray, b: int, k: int | None, rng_seed: int) -> LanczosFactorization:
    """The raw factorization behind run_rqbl, kept for inspection and dumps.
    Validates X (square, finite, hermitian), then the block size b in
    [1, N], then k*b in [1, N], before any step; k = None takes N // b steps."""
    x = require_hermitian(x)
    n = x.shape[0]
    start = rqbl_init(n, b, rng_seed)
    if k is None:
        k = n // b
    if not 1 <= k * b <= n:
        raise ValueError(f"k*b = {k * b} outside [1, {n}]")
    # one column-major basis; the blocks and every step's history are views of it
    basis = np.empty((n, k * b), dtype=complex, order="F")
    basis[:, :b] = start
    fact = LanczosFactorization(block_size=b, columns=basis, s=np.zeros((k * b, k * b), dtype=complex))
    floor = BREAKDOWN_RTOL * max(float(np.linalg.norm(x)), 1e-300)
    psi_prev, b_p = None, None
    for p in range(k):
        here, after = slice(p * b, (p + 1) * b), slice((p + 1) * b, (p + 2) * b)
        psi = basis[:, here]
        step = rqbl_step(x, psi, psi_prev, b_p, history=basis[:, :(p + 1) * b],
                         breakdown_floor=floor)
        fact.s[here, here], fact.steps = step.a_block, p + 1
        if step.psi_next is None or p + 1 == k:
            break
        fact.s[after, here], fact.s[here, after] = step.b_next, step.b_next.conj().T
        basis[:, after] = step.psi_next
        psi_prev, b_p = psi, step.b_next
    fact.breakdown = fact.steps < k
    return fact


def dump_factorization(fact: LanczosFactorization) -> dict:
    """JSON-ready nested-array dump of all blocks, sliced from S."""
    def arr(a):
        return {"re": np.asarray(a).real.tolist(), "im": np.asarray(a).imag.tolist()}

    s, b = fact.tridiagonal(), fact.block_size
    blocks = [slice(p * b, (p + 1) * b) for p in range(fact.steps)]
    return {
        "block_size": fact.block_size,
        "steps": fact.steps,
        "breakdown": fact.breakdown,
        "a_blocks": [arr(s[here, here]) for here in blocks],
        "b_blocks": [arr(s[after, here]) for here, after in zip(blocks, blocks[1:])],
        "basis_blocks": [arr(p) for p in np.hsplit(fact.basis(), fact.steps)],
    }
