"""Randomized block Lanczos with full reorthogonalization.

Builds the three-term block recursion

    Psi_{p+1} B_{p+1} = X Psi_p - Psi_p A_p - Psi_{p-1} B_p^dag

with A_p = Psi_p^dag X Psi_p and the residual block R reorthogonalized against
the whole accumulated basis: one Gram-Schmidt pass, and a second only where
the DGKS criterion finds that the first one cancelled most of a column.  One
thin SVD R = U S V^dag gives B_{p+1} = V S V^dag (the hermitian square root
of R^dag R) and Psi_{p+1} = U V^dag = R B_{p+1}^-1.  The blocks assemble
into the block-tridiagonal S whose eigenpairs, lifted through the basis, are
the Ritz approximations used as probe input states.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import eig_hermitian, orthonormalize_svd, relevance_order, require_hermitian

BREAKDOWN_RTOL = 1e-10
DGKS_ETA = 1 / np.sqrt(2)  # Daniel, Gragg, Kaufman & Stewart (1976)


@dataclass
class LanczosFactorization:
    """Accumulated blocks: A_p (hermitian b x b), B_p (b x b), basis blocks Psi_p.
    ``breakdown``: an invariant subspace stopped the recursion before k steps."""

    block_size: int
    a_blocks: list = field(default_factory=list)
    b_blocks: list = field(default_factory=list)
    basis_blocks: list = field(default_factory=list)
    breakdown: bool = False

    @property
    def steps(self) -> int:
        return len(self.a_blocks)

    def basis(self) -> np.ndarray:
        """All basis blocks concatenated into an N x (steps*b) matrix."""
        return np.hstack(self.basis_blocks)

    def orthonormality_defect(self) -> float:
        q = self.basis()
        return float(np.linalg.norm(q.conj().T @ q - np.eye(q.shape[1])))


@dataclass(frozen=True)
class RitzSolution:
    values: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray


@dataclass(frozen=True)
class LanczosStep:
    a_block: np.ndarray
    b_next: np.ndarray
    psi_next: np.ndarray | None
    breakdown: bool


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
    BREAKDOWN_RTOL * ||X||_F: an invariant subspace) is reported, not raised.
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
    if sigma[-1] < breakdown_floor:
        return LanczosStep(a_block=a_p, b_next=b_next, psi_next=None, breakdown=True)
    return LanczosStep(a_block=a_p, b_next=b_next, psi_next=u @ vh, breakdown=False)


def assemble_block_tridiagonal(fact: LanczosFactorization) -> np.ndarray:
    """Dense hermitian S with A_p on the diagonal and B_p on the sub-diagonal."""
    k, b = fact.steps, fact.block_size
    s = np.zeros((k * b, k * b), dtype=complex)
    for p, a in enumerate(fact.a_blocks):
        s[p * b:(p + 1) * b, p * b:(p + 1) * b] = a
    for p, bb in enumerate(fact.b_blocks):
        s[(p + 1) * b:(p + 2) * b, p * b:(p + 1) * b] = bb
        s[p * b:(p + 1) * b, (p + 1) * b:(p + 2) * b] = bb.conj().T
    return s


def assemble_and_solve(x: np.ndarray, fact: LanczosFactorization) -> RitzSolution:
    """Diagonalize S and lift its eigenvectors through the basis blocks, as
    Ritz pairs in ``relevance_order``: |value| descending (most relevant
    first), and magnitudes equal within DEGENERACY_RTOL in ascending-value order."""
    if fact.steps < 1:
        raise ValueError("factorization holds no blocks")
    s = assemble_block_tridiagonal(fact)
    dec = eig_hermitian(s)
    q = fact.basis()
    vectors = q @ dec.vectors
    vectors = vectors / np.linalg.norm(vectors, axis=0, keepdims=True)
    residuals = np.linalg.norm(x @ vectors - vectors * dec.values, axis=0)
    order = relevance_order(dec.values)
    return RitzSolution(values=dec.values[order], vectors=vectors[:, order], residuals=residuals[order])


def run_rqbl(x: np.ndarray, b: int, k: int, rng_seed: int) -> RitzSolution:
    """Random init plus k recursion steps (early stop on breakdown), then the
    Ritz pairs of S."""
    x = np.asarray(x, dtype=complex)
    return assemble_and_solve(x, build_factorization(x, b, k, rng_seed))


def build_factorization(x: np.ndarray, b: int, k: int, rng_seed: int) -> LanczosFactorization:
    """The raw factorization behind run_rqbl, kept for inspection and dumps.
    Validates X (square, finite, hermitian) before any step."""
    x = require_hermitian(x)
    n = x.shape[0]
    if not 1 <= k * b <= n:
        raise ValueError(f"k*b = {k * b} outside [1, {n}]")
    # one column-major basis; the blocks and every step's history are views of it
    basis = np.empty((n, k * b), dtype=complex, order="F")
    basis[:, :b] = rqbl_init(n, b, rng_seed)
    fact = LanczosFactorization(block_size=b)
    floor = BREAKDOWN_RTOL * max(float(np.linalg.norm(x)), 1e-300)
    psi_prev, b_p = None, None
    for p in range(k):
        psi = basis[:, p * b:(p + 1) * b]
        fact.basis_blocks.append(psi)
        step = rqbl_step(x, psi, psi_prev, b_p, history=basis[:, :(p + 1) * b],
                         breakdown_floor=floor)
        fact.a_blocks.append(step.a_block)
        if step.breakdown or p + 1 == k:
            break
        fact.b_blocks.append(step.b_next)
        basis[:, (p + 1) * b:(p + 2) * b] = step.psi_next
        psi_prev, b_p = psi, step.b_next
    fact.breakdown = fact.steps < k
    return fact


def dump_factorization(fact: LanczosFactorization) -> dict:
    """JSON-ready nested-array dump of all blocks."""
    def arr(a):
        return {"re": np.asarray(a).real.tolist(), "im": np.asarray(a).imag.tolist()}

    return {
        "block_size": fact.block_size,
        "steps": fact.steps,
        "breakdown": fact.breakdown,
        "a_blocks": [arr(a) for a in fact.a_blocks],
        "b_blocks": [arr(b) for b in fact.b_blocks],
        "basis_blocks": [arr(p) for p in fact.basis_blocks],
    }
