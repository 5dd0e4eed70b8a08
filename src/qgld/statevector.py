"""Controlled families of the probe circuit, checked once when built, and
their conditioned amplitudes.

A probe circuit prepares a column c in the system register, fans the m
deviation qubits out with Hadamards, applies member U(eps) of a controlled
family for deviation basis state eps, and reads the deviation register
conditioned on the system register returning to c.  That projection onto c
commutes with every deviation-register gate, so all the readout needs of a
family is the M amplitudes a_eps = <c|U(eps)|c> of each column, which
:meth:`ControlledFamily.amplitudes` and :meth:`FactoredFamily.amplitudes`
return as an (M, B) array for the B columns of an (N, B) block.  The
gate-level two-register circuit they contract is the tests' reference.
"""
from __future__ import annotations

import numpy as np

from .errors import FamilySizeMismatch, NonUnitaryMember

NORM_ATOL = 1e-10


def unitarity_defect(u, diagonal: bool = False):
    """||U^dag U - I||_F of one N x N member, or of each member of a (K, N, N)
    stack; with ``diagonal``, of each member diag(d) of a (K, N) stack of
    diagonals, sqrt(sum_i (|d_i|^2 - 1)^2), the same quantity."""
    if diagonal:
        return np.sqrt(np.sum((u.real ** 2 + u.imag ** 2 - 1.0) ** 2, axis=-1))
    gram = np.swapaxes(u, -1, -2).conj() @ u
    np.einsum("...ii->...i", gram)[...] -= 1.0
    parts = gram.reshape(*gram.shape[:-2], -1).view(float)  # real and imaginary parts, no copy
    return np.sqrt(np.einsum("...i,...i->...", parts, parts))


class ControlledFamily(tuple):
    """The members U(eps) of a controlled family, each checked once, when the
    family is built, for shape and unitarity within NORM_ATOL * N.

    An immutable tuple of read-only members, so the check holds for the
    family's lifetime and circuits reading it need not repeat it.  Members
    passed in are copied first; building one from a ControlledFamily returns
    that family unchanged.  A family formed by a builder (:meth:`_adopt`) may
    mark ``identity_slots``: those members are the exact identity, neither
    checked nor applied.  It may also be ``diagonal``: each member is then
    the N entries of its diagonal, in the basis the circuit's columns are
    prepared in.
    """

    identity_slots = frozenset()
    diagonal = False

    def __new__(cls, members):
        if isinstance(members, ControlledFamily):
            return members
        members = [np.array(u, dtype=complex) for u in members]
        if not members:
            raise FamilySizeMismatch("family has no members")
        n_dim = len(members[0])
        for eps, u in enumerate(members):
            if u.shape != (n_dim, n_dim):
                raise FamilySizeMismatch(f"member {eps} has shape {u.shape}")
        return cls._adopt([u[None] for u in members])

    @classmethod
    def _adopt(cls, stacks, identity_slots=(), diagonal=False):
        """The family a builder has just formed, taken over without a copy:
        ``stacks`` of members (K, N, N), or with ``diagonal`` of their
        diagonals (K, N), in slot order with the ``identity_slots`` left out,
        each stack checked with one batched call of :func:`unitarity_defect`."""
        identity_slots = frozenset(identity_slots)
        size = len(identity_slots) + sum(len(stack) for stack in stacks)
        slots = [eps for eps in range(size) if eps not in identity_slots]
        n_dim = stacks[0].shape[-1]
        members = {}
        for stack in stacks:
            defects = unitarity_defect(stack, diagonal=True) if diagonal else unitarity_defect(stack)
            bad = np.flatnonzero(defects > NORM_ATOL * n_dim)
            if bad.size:
                raise NonUnitaryMember(f"member {slots[len(members) + bad[0]]} unitarity defect "
                                       f"{defects[bad[0]]:.3e}")
            stack.flags.writeable = False
            members.update(zip(slots[len(members):], stack))
        if identity_slots:
            identity = np.ones(n_dim, dtype=complex) if diagonal else np.eye(n_dim, dtype=complex)
            identity.flags.writeable = False
            members.update(dict.fromkeys(identity_slots, identity))
        family = super().__new__(cls, (members[eps] for eps in range(size)))
        family.identity_slots = identity_slots
        family.diagonal = diagonal
        return family

    @property
    def dim(self) -> int:
        return self[0].shape[-1]

    def amplitudes(self, columns: np.ndarray) -> np.ndarray:
        """a_eps = <c|U(eps)|c> for every column c of ``columns`` (N, B), shape
        (M, B): 1 on an identity slot, sum_i |c_i|^2 d_i for a diagonal
        member, c^dag (U c) for a dense one."""
        out = np.ones((len(self), columns.shape[1]), dtype=complex)
        weights = columns.real ** 2 + columns.imag ** 2 if self.diagonal else None
        bras = None if self.diagonal else columns.conj()
        for eps, u in enumerate(self):
            if eps in self.identity_slots:
                continue
            out[eps] = u @ weights if self.diagonal else np.einsum("nb,nb->b", bras, u @ columns)
        return out


class FactoredFamily:
    """A controlled family built in an eigenbasis, each member kept as its
    factors Q diag(left) Q^dag diag(right): ``vectors`` Q (K, N, N) and the
    unit-modulus phases ``left`` and ``right`` (K, N), one per slot of the M
    that is not in ``identity_slots``, in slot order.

    No member is formed, so the check falls on what is: with delta =
    ||Q^dag Q - I||_F, ||U^dag U - I||_F <= (1 + ||Q||_2^2) delta <=
    (2 + delta) delta, and each Q must hold (2 + delta) delta <= NORM_ATOL * N,
    which implies the member bound of :class:`ControlledFamily`.  The stack
    is checked with one batched call of :func:`unitarity_defect`, when the
    family is built, and the factors are then kept read-only, without a copy.
    """

    def __init__(self, vectors, left, right, identity_slots):
        self.identity_slots = frozenset(identity_slots)
        self.slots = [eps for eps in range(len(vectors) + len(self.identity_slots))
                      if eps not in self.identity_slots]
        gram = unitarity_defect(vectors)
        bounds = (2.0 + gram) * gram
        bad = np.flatnonzero(bounds > NORM_ATOL * vectors.shape[-1])
        if bad.size:
            raise NonUnitaryMember(f"member {self.slots[bad[0]]} unitarity defect up to {bounds[bad[0]]:.3e} "
                                   f"(eigenvector Gram defect {gram[bad[0]]:.3e})")
        for factor in (vectors, left, right):
            factor.flags.writeable = False
        self.vectors, self.left, self.right = vectors, left, right

    def __len__(self) -> int:
        return len(self.slots) + len(self.identity_slots)

    @property
    def dim(self) -> int:
        return self.vectors.shape[-1]

    def amplitudes(self, columns: np.ndarray) -> np.ndarray:
        """a_eps = <e_p|U(eps)|e_p> = right_p sum_q |Q_pq|^2 left_q for every
        unit column e_p of ``columns`` (N, B), shape (M, B): O(N) per member
        and column.  Any other column raises ValueError: the common right
        factor of an eigenbasis family leaves the readout unchanged only on
        eigenvectors."""
        rows = np.argmax(np.abs(columns), axis=0)
        if not np.array_equal(columns, np.eye(self.dim)[:, rows]):
            raise ValueError("an eigenbasis family reads unit columns e_p only")
        picked = self.vectors[:, rows, :]
        weights = picked.real ** 2 + picked.imag ** 2
        out = np.ones((len(self), columns.shape[1]), dtype=complex)
        out[self.slots] = np.einsum("kbq,kq->kb", weights, self.left) * self.right[:, rows]
        return out
