"""Dense statevector simulator for the two-register gradient probe circuits.

The state holds m deviation qubits and n system qubits for B independent
circuits side by side: the amplitudes form one (M, N, B) tensor, deviation
index first, one column per circuit, and every gate acts on all columns at
once.  Deviation qubits occupy the high-order bits, so within a column
amplitude eps*N + s addresses deviation basis state eps and system basis
state s, and each controlled family member is one N x N @ N x B product.
Inputs carry one column per circuit ((N, B) targets, (M, B) phases) and
every readout returns (M, B); a single circuit is the case B = 1.

Operations mutate the passed state in place and also return it, so they can
be chained; a state belongs to a single (batched) circuit execution.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    FamilySizeMismatch,
    IndexOutOfRange,
    NonUnitaryMember,
    NotInGroundRegister,
    UnnormalizedTarget,
)

NORM_ATOL = 1e-10
MAX_QUBITS = 26


def batch_capacity(m: int, n: int) -> int:
    """Most circuit columns whose M*N*B amplitudes fit the 2^MAX_QUBITS guard."""
    return 1 << (MAX_QUBITS - m - n)


@dataclass(frozen=True)
class RegisterLayout:
    """Qubit counts: m deviation qubits (M = 2^m), n system qubits (N = 2^n),
    and ``batch`` independent circuits held as columns."""

    m: int
    n: int
    batch: int = 1

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError("need at least one qubit in each register")
        if self.m + self.n > MAX_QUBITS:
            raise ValueError(f"m + n = {self.m + self.n} exceeds the {MAX_QUBITS}-qubit guard")
        if not 1 <= self.batch <= batch_capacity(self.m, self.n):
            raise ValueError(
                f"batch {self.batch} outside [1, {batch_capacity(self.m, self.n)}] "
                f"for the {MAX_QUBITS}-qubit amplitude guard"
            )

    @property
    def deviation_dim(self) -> int:
        return 1 << self.m

    @property
    def system_dim(self) -> int:
        return 1 << self.n


@dataclass
class StateVector:
    layout: RegisterLayout
    amplitudes: np.ndarray = field(repr=False)

    def as_tensor(self) -> np.ndarray:
        """View of the amplitudes as a (M, N, B) tensor, one column per circuit."""
        layout = self.layout
        return self.amplitudes.reshape(layout.deviation_dim, layout.system_dim, layout.batch)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def system_qubits_for_dim(dim: int) -> int:
    """Number of qubits for a dimension that must be a power of two."""
    n = int(dim).bit_length() - 1
    if dim < 2 or (1 << n) != dim:
        raise ValueError(f"dimension {dim} is not a power of two >= 2")
    return n


def init_basis(layout: RegisterLayout, index: int) -> StateVector:
    """State with amplitude 1 at the given joint basis index, in every column."""
    total = layout.deviation_dim * layout.system_dim
    if not 0 <= index < total:
        raise IndexOutOfRange(f"index {index} outside [0, {total})")
    state = StateVector(layout, np.zeros(total * layout.batch, dtype=complex))
    state.as_tensor()[divmod(index, layout.system_dim)] = 1.0
    return state


def prepare_system_state(state: StateVector, columns: np.ndarray) -> StateVector:
    """Load each column's target into its system register; requires the
    system register in |0...0>.

    ``columns`` has shape (N, B), one target per circuit column.
    """
    layout = state.layout
    columns = np.asarray(columns, dtype=complex)
    if columns.shape != (layout.system_dim, layout.batch):
        raise ValueError(
            f"target has shape {columns.shape}, expected {(layout.system_dim, layout.batch)}"
        )
    norms = np.linalg.norm(columns, axis=0)
    bad = np.flatnonzero(np.abs(norms - 1.0) > NORM_ATOL)
    if bad.size:
        raise UnnormalizedTarget(f"target column {bad[0]} norm {norms[bad[0]]:.12f} != 1")
    tensor = state.as_tensor()
    if np.linalg.norm(tensor[:, 1:, :]) > NORM_ATOL:
        raise NotInGroundRegister("system register carries weight outside |0...0>")
    # Gamma e_0 = v: each deviation row's ground amplitude spreads over its column
    np.multiply(tensor[:, :1, :], columns, out=tensor)
    return state


def hadamard_deviation_register(state: StateVector) -> StateVector:
    """H on every deviation qubit, system register untouched."""
    m = state.layout.m
    x = state.amplitudes.reshape((2,) * m + (-1,))
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for axis in range(m):
        a = x[(slice(None),) * axis + (0,)]
        b = x[(slice(None),) * axis + (1,)]
        hi = (a + b) * inv_sqrt2
        b[...] = (a - b) * inv_sqrt2
        a[...] = hi
    state.amplitudes = x.reshape(-1)
    return state


def unitarity_defect(u: np.ndarray):
    """||U^dag U - I||_F of one N x N member, or of each member of a (K, N, N) stack."""
    gram = np.swapaxes(u, -1, -2).conj() @ u
    np.einsum("...ii->...i", gram)[...] -= 1.0
    parts = gram.reshape(*gram.shape[:-2], -1).view(float)  # real and imaginary parts, no copy
    return np.sqrt(np.einsum("...i,...i->...", parts, parts))


class ControlledFamily(tuple):
    """The members U(eps) of a controlled family, each checked once, when the
    family is built, for shape and unitarity within NORM_ATOL * N.

    An immutable tuple of read-only members, so the check holds for the
    family's lifetime and circuits applying it need not repeat it.  Members
    passed in are copied first; building one from a ControlledFamily returns
    that family unchanged.  A family formed by a builder (:meth:`_adopt`) may
    mark ``identity_slots``: those members are the exact identity, neither
    checked nor applied.
    """

    identity_slots = frozenset()

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
    def _adopt(cls, stacks, identity_slots=()):
        """The family a builder has just formed, taken over without a copy:
        ``stacks`` of members (K, N, N) in slot order with the
        ``identity_slots`` left out, each stack checked with one batched
        U^dag U product."""
        identity_slots = frozenset(identity_slots)
        size = len(identity_slots) + sum(len(stack) for stack in stacks)
        slots = [eps for eps in range(size) if eps not in identity_slots]
        n_dim = stacks[0].shape[-1]
        members = {}
        for stack in stacks:
            defects = unitarity_defect(stack)
            bad = np.flatnonzero(defects > NORM_ATOL * n_dim)
            if bad.size:
                raise NonUnitaryMember(f"member {slots[len(members) + bad[0]]} unitarity defect "
                                       f"{defects[bad[0]]:.3e}")
            stack.flags.writeable = False
            members.update(zip(slots[len(members):], stack))
        if identity_slots:
            identity = np.eye(n_dim, dtype=complex)
            identity.flags.writeable = False
            members.update(dict.fromkeys(identity_slots, identity))
        family = super().__new__(cls, (members[eps] for eps in range(size)))
        family.identity_slots = identity_slots
        return family


def apply_controlled_family(state: StateVector, family) -> StateVector:
    """For each deviation basis index eps, multiply every column's system
    block by family[eps]; rows of the family's identity slots stay as they are.

    A ControlledFamily is applied as is; a raw sequence of members is checked
    first by wrapping it in one.
    """
    family = ControlledFamily(family)
    m_dim = state.layout.deviation_dim
    n_dim = state.layout.system_dim
    if len(family) != m_dim:
        raise FamilySizeMismatch(f"family has {len(family)} members, expected {m_dim}")
    if family[0].shape != (n_dim, n_dim):
        raise FamilySizeMismatch(f"members have shape {family[0].shape}, expected ({n_dim}, {n_dim})")
    tensor = state.as_tensor()
    for eps, u in enumerate(family):
        if eps not in family.identity_slots:
            tensor[eps] = u @ tensor[eps]
    return state


def phase_deviation_register(state: StateVector, phases: np.ndarray) -> StateVector:
    """Diagonal gate on the deviation register: amplitude row eps picks up
    phases[eps], with shape (M, B) (one diagonal per column).  With
    diag(1, -i) on one deviation qubit, the inverse QFT reads that qubit in
    the Y basis instead of the X basis."""
    layout = state.layout
    phases = np.asarray(phases, dtype=complex).reshape(layout.deviation_dim, 1, layout.batch)
    if np.max(np.abs(np.abs(phases) - 1.0)) > NORM_ATOL:
        raise ValueError("deviation phases must have unit modulus")
    state.as_tensor()[:] *= phases
    return state


def inverse_qft_deviation(state: StateVector) -> StateVector:
    """M-point inverse Fourier kernel exp(-2*pi*i*j*k/M)/sqrt(M) on the
    deviation register.  At M = 2 that is the Hadamard; larger registers go
    through np.fft."""
    m_dim = state.layout.deviation_dim
    if m_dim == 2:
        return hadamard_deviation_register(state)
    out = np.fft.fft(state.amplitudes.reshape(m_dim, -1), axis=0)
    out /= np.sqrt(m_dim)
    state.amplitudes = out.reshape(-1)
    return state


def conditional_deviation_distribution(state: StateVector, system_state: np.ndarray) -> np.ndarray:
    """Deviation distribution conditioned on the system register being in system_state.

    Equivalent to undoing the preparation of system_state and post-selecting
    the system register on |0...0>, renormalized.  ``system_state`` (N, B)
    carries one conditioning state per column, like the preparation target.
    Returns shape (M, B).
    """
    columns = np.asarray(system_state, dtype=complex)
    amps = np.einsum("msb,sb->mb", state.as_tensor(), columns.conj())
    probs = np.abs(amps) ** 2
    weight = np.sum(probs, axis=0)
    empty = np.flatnonzero(weight < 1e-30)
    if empty.size:
        raise NotInGroundRegister(
            f"conditioning state of column {empty[0]} has no overlap with the register"
        )
    return probs / weight

