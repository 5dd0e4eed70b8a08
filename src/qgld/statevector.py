"""Controlled families of the probe circuit, kept as their spectral factors
and checked once when built, and their conditioned amplitudes.

A probe circuit prepares a column c in the system register, fans the m
deviation qubits out with Hadamards, applies member U(eps) of a controlled
family for deviation basis state eps, and reads the deviation register
conditioned on the system register returning to c.  That projection onto c
commutes with every deviation-register gate, so all the readout needs of a
family is the M amplitudes a_eps = <c|U(eps)|c> of each column, which
:meth:`ControlledFamily.amplitudes` returns as an (M, B) array for the B
columns of an (N, B) block, or (J, M, B) for a stack of J families.  The
gate-level two-register circuit they contract is the tests' reference.
"""
from __future__ import annotations

import numpy as np

from .errors import FamilySizeMismatch, NonUnitaryMember

NORM_ATOL = 1e-10
GRAM_BATCH = 1 << 14


def unitarity_defect(u, diagonal: bool = False):
    """||U^dag U - I||_F of one N x N matrix, or of each matrix of a (K, N, N)
    stack, taken GRAM_BATCH entries at a time, so that the conjugate and the
    Gram matrices it forms stay small beside the stack; with ``diagonal``,
    of each diag(d) of a (K, N) stack of diagonals, sqrt(sum_i (|d_i|^2 -
    1)^2), the same quantity."""
    if diagonal:
        return np.sqrt(np.sum((u.real ** 2 + u.imag ** 2 - 1.0) ** 2, axis=-1))
    if u.ndim == 2:
        return _gram_defect(u[None])[0]
    step = max(1, GRAM_BATCH // u[0].size)
    return np.concatenate([_gram_defect(u[start:start + step]) for start in range(0, len(u), step)])


def _gram_defect(u):
    gram = np.swapaxes(u, -1, -2).conj() @ u
    np.einsum("...ii->...i", gram)[...] -= 1.0
    parts = gram.reshape(len(gram), -1).view(float)  # real and imaginary parts, no copy
    return np.sqrt(np.einsum("ki,ki->k", parts, parts))


class ControlledFamily:
    """The members U(eps) = Q_eps diag(d_eps) Q_eps^dag of a controlled
    family, kept as their factors: the unit-modulus ``phases`` d (M, N), one
    row per slot, and the eigenvectors ``vectors`` Q (K, N, N) of the K
    ``slots`` listed, in slot order (all M when ``slots`` is None).  Every
    other slot is diagonal: its Q is the identity, and its member diag(d)
    is in the basis the circuit's columns are prepared in.

    A stack of J families on the same slots takes a leading axis: phases
    (J, M, N) and vectors (J, K, N, N).  Every probe of the stack is read in
    one pass, and ``len`` is still M, the members of each.

    No member is formed, so the check falls on the factors.  With delta =
    ||Q^dag Q - I||_F (0 on a diagonal slot) and eta = ||D^dag D - I||_F =
    sqrt(sum_q (|d_q|^2 - 1)^2), ||U^dag U - I||_F <= (2 + delta) delta +
    (1 + delta)^2 eta, since ||Q||_2^2 <= 1 + delta and ||D||_2^2 <= 1 + eta;
    each member of each probe must hold that bound within NORM_ATOL * N.
    The eigenvectors and the phases of the whole stack are checked once
    each, with one batched call of :func:`unitarity_defect`, when the family
    is built, and are then kept read-only, without a copy.
    """

    def __init__(self, phases, vectors=None, slots=None):
        if phases.ndim not in (2, 3) or 0 in phases.shape[:-1]:
            raise FamilySizeMismatch(f"phases of shape {phases.shape}: need (M, N) or a stack (J, M, N), M, J >= 1")
        lead, (m_dim, n_dim) = phases.shape[:-2], phases.shape[-2:]
        if vectors is None:
            vectors, slots = np.empty((*lead, 0, n_dim, n_dim), dtype=complex), ()
        slots = np.arange(m_dim) if slots is None else np.asarray(slots, dtype=int)
        if vectors.shape != (*lead, len(slots), n_dim, n_dim):
            raise FamilySizeMismatch(f"phases of shape {phases.shape} and vectors of shape {vectors.shape} "
                                     f"for {len(slots)} slots")
        gram = np.zeros(phases.shape[:-1])
        if len(slots):
            gram[..., slots] = unitarity_defect(vectors.reshape(-1, n_dim, n_dim)).reshape(*lead, len(slots))
        modulus = unitarity_defect(phases, diagonal=True)
        bounds = (2.0 + gram) * gram + (1.0 + gram) ** 2 * modulus
        bad = np.argwhere(~(bounds <= NORM_ATOL * n_dim))
        if bad.size:
            at = tuple(bad[0])
            probe = f"probe {at[0]} " if lead else ""
            raise NonUnitaryMember(f"{probe}member {at[-1]} unitarity defect up to {bounds[at]:.3e} (eigenvector "
                                   f"Gram defect {gram[at]:.3e}, phase modulus defect {modulus[at]:.3e})")
        for factor in (phases, vectors):
            factor.flags.writeable = False
        self.phases, self.vectors, self.slots = phases, vectors, slots
        diagonal = np.ones(m_dim, dtype=bool)
        diagonal[slots] = False
        self.diagonal_slots = np.flatnonzero(diagonal)

    def __len__(self) -> int:
        return self.phases.shape[-2]

    @property
    def dim(self) -> int:
        return self.phases.shape[-1]

    def amplitudes(self, columns: np.ndarray) -> np.ndarray:
        """a_eps = <c|U(eps)|c> = sum_q |(Q^dag c)_q|^2 d_q for every column c
        of ``columns`` (N, B), shape (M, B), or (J, M, B) for a stack; sum_q
        |c_q|^2 d_q on a diagonal slot.  When every column is a unit vector
        e_p, Q^dag c is row p of Q conjugated, gathered in O(N) per member
        and column."""
        b = columns.shape[1]
        rows = np.argmax(columns != 0, axis=0)
        unit = np.count_nonzero(columns) == b and np.all(columns[rows, np.arange(b)] == 1)
        out = np.empty((*self.phases.shape[:-1], b), dtype=complex)
        if self.diagonal_slots.size:
            picked = self.phases[..., self.diagonal_slots, :]
            out[..., self.diagonal_slots, :] = (picked[..., rows] if unit
                                                else picked @ (columns.real ** 2 + columns.imag ** 2))
        if self.slots.size:
            # conj(Q^dag c) = c^dag Q, in the (..., K, B, N) layout of the gathered rows
            projected = self.vectors[..., rows, :] if unit else columns.conj().T @ self.vectors
            weights = projected.real ** 2 + projected.imag ** 2
            out[..., self.slots, :] = np.einsum("...kbq,...kq->...kb", weights, self.phases[..., self.slots, :])
        return out
