import json
from dataclasses import dataclass, field

import numpy as np
import pytest

from qgld.errors import (
    FamilySizeMismatch,
    IndexOutOfRange,
    NonUnitaryMember,
    NotInGroundRegister,
    QgldError,
    UnnormalizedTarget,
)
from qgld.linalg import DEGENERACY_RTOL, eig_hermitian, require_hermitian
from qgld.statevector import NORM_ATOL, ControlledFamily, unitarity_defect

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)


def random_hermitian(rng, n, indefinite=False, min_eig=0.5, gap=0.15):
    """Seeded hermitian test matrix with guaranteed eigenvalue separation.

    Magnitudes are min_eig + gap*i + jitter with jitter < 0.7*gap, so every
    pairwise gap is at least 0.3*gap (and 2*min_eig across a sign flip).
    """
    gauss = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(gauss)
    values = min_eig + gap * np.arange(n) + rng.uniform(0.0, 0.7 * gap, size=n)
    if indefinite:
        values = values * rng.choice([-1.0, 1.0], size=n)
    return (q * values) @ q.conj().T


def random_state(rng, n):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def random_symmetric_decaying(rng, n, top=10.0, ratio=0.7):
    """Random real symmetric matrix with a geometrically decaying spectrum,
    the regime where extremal Krylov convergence is fast."""
    gauss = rng.standard_normal((n, n))
    q, _ = np.linalg.qr(gauss)
    values = top * ratio ** np.arange(n) * rng.choice([1.0, -1.0], size=n)
    x = (q * values) @ q.T
    return (x + x.T) / 2


def unitary_phase_exp(a, t: float) -> np.ndarray:
    """The product oracle for exp(i*t*A), hermitian A, or for each matrix of
    a (K, N, N) stack: V diag(exp(i t lambda)) V^dag from numpy's eigh,
    formed as a matrix."""
    values, vectors = np.linalg.eigh(a)
    return (vectors * np.exp(1j * t * values)[..., None, :]) @ np.swapaxes(vectors.conj(), -1, -2)


def series_phase_exp(a, t, terms=60):
    """Independent oracle for exp(i*t*A): direct power-series summation."""
    a = np.asarray(a, dtype=complex)
    out = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for k in range(1, terms):
        term = term @ (1j * t * a) / k
        out = out + term
    return out


def gram_schmidt(block):
    """Independent orthonormalization oracle (classical Gram-Schmidt)."""
    block = np.asarray(block, dtype=complex)
    cols = []
    for j in range(block.shape[1]):
        v = block[:, j].copy()
        for u in cols:
            v = v - u * (u.conj() @ v)
        cols.append(v / np.linalg.norm(v))
    return np.stack(cols, axis=1)


def preparation_unitary(v: np.ndarray) -> np.ndarray:
    """Unitary completion Gamma whose first column is v (Householder reflection).

    A phase-adjusted reflection maps e_0 exactly onto v; the remaining columns
    complete an orthonormal basis.  The reference for state preparation, which
    only ever acts on the ground state and so applies Gamma e_0 = v directly
    without building Gamma.
    """
    v = np.asarray(v, dtype=complex)
    n = v.shape[0]
    e0 = np.zeros(n, dtype=complex)
    e0[0] = 1.0
    phase = v[0] / abs(v[0]) if abs(v[0]) > 1e-14 else 1.0
    w = e0 - v / phase
    wn = np.linalg.norm(w)
    if wn < 1e-14:
        return np.eye(n, dtype=complex) * phase
    refl = np.eye(n, dtype=complex) - 2.0 * np.outer(w, w.conj()) / wn**2
    return phase * refl


# ---------------------------------------------------------------------------
# The reference circuit: a dense statevector simulator of the two-register
# probe circuit, gate by gate, that the program's contracted readout
# (qgld.qgpe.probe_distributions) is compared against.
#
# The state holds m deviation qubits and n system qubits for B independent
# circuits side by side: the amplitudes form one (M, N, B) tensor, deviation
# index first, one column per circuit, and every gate acts on all columns at
# once.  Deviation qubits occupy the high-order bits, so within a column
# amplitude eps*N + s addresses deviation basis state eps and system basis
# state s.  Operations mutate the passed state in place and also return it.

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


def init_basis(layout: RegisterLayout, index: int) -> StateVector:
    """State with amplitude 1 at the given joint basis index, in every column."""
    total = layout.deviation_dim * layout.system_dim
    if not 0 <= index < total:
        raise IndexOutOfRange(f"index {index} outside [0, {total})")
    state = StateVector(layout, np.zeros(total * layout.batch, dtype=complex))
    state.as_tensor()[divmod(index, layout.system_dim)] = 1.0
    return state


def prepare_system_state(state: StateVector, columns: np.ndarray) -> StateVector:
    """Load each column's target (N, B) into its system register; requires
    the system register in |0...0>."""
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


def family_members(family) -> list:
    """The N x N members of a ControlledFamily, Q diag(d) Q^dag on its slots
    with eigenvectors and diag(d) on its diagonal slots, formed as products."""
    members = [np.diag(d) for d in family.phases]
    for slot, q in zip(family.slots, family.vectors):
        members[slot] = (q * family.phases[slot]) @ q.conj().T
    return members


def unstacked(stack, j: int = 0) -> ControlledFamily:
    """Probe j of a stacked ControlledFamily as a family of its own, on the
    same factors (checked again)."""
    return ControlledFamily(stack.phases[j], stack.vectors[j], stack.slots)


def checked_members(members) -> list:
    """A raw sequence of N x N members, copied, each checked for its shape
    and for ||U^dag U - I||_F <= NORM_ATOL * N; raises FamilySizeMismatch or
    NonUnitaryMember naming the first member that fails."""
    members = [np.array(u, dtype=complex) for u in members]
    if not members:
        raise FamilySizeMismatch("family has no members")
    n_dim = len(members[0])
    for eps, u in enumerate(members):
        if u.shape != (n_dim, n_dim):
            raise FamilySizeMismatch(f"member {eps} has shape {u.shape}")
        if unitarity_defect(u) > NORM_ATOL * n_dim:
            raise NonUnitaryMember(f"member {eps} unitarity defect {unitarity_defect(u):.3e}")
    return members


def apply_controlled_family(state: StateVector, family) -> StateVector:
    """For each deviation basis index eps, multiply every column's system
    block by member eps: of a ControlledFamily, formed by
    :func:`family_members`, or of a raw sequence, checked first by
    :func:`checked_members`."""
    members = family_members(family) if isinstance(family, ControlledFamily) else checked_members(family)
    m_dim = state.layout.deviation_dim
    n_dim = state.layout.system_dim
    if len(members) != m_dim:
        raise FamilySizeMismatch(f"family has {len(members)} members, expected {m_dim}")
    if members[0].shape != (n_dim, n_dim):
        raise FamilySizeMismatch(f"members have shape {members[0].shape}, expected {(n_dim, n_dim)}")
    tensor = state.as_tensor()
    for eps, u in enumerate(members):
        tensor[eps] = u @ tensor[eps]
    return state


def phase_deviation_register(state: StateVector, phases: np.ndarray) -> StateVector:
    """Diagonal gate on the deviation register: amplitude row eps picks up
    phases[eps], with shape (M,) (one diagonal for every column) or (M, B)
    (one diagonal per column)."""
    layout = state.layout
    phases = np.asarray(phases, dtype=complex)
    if phases.shape not in ((layout.deviation_dim,), (layout.deviation_dim, layout.batch)):
        raise ValueError(f"deviation phases of shape {phases.shape}")
    phases = phases.reshape(layout.deviation_dim, 1, -1)
    if np.max(np.abs(np.abs(phases) - 1.0)) > NORM_ATOL:
        raise ValueError("deviation phases must have unit modulus")
    state.as_tensor()[:] *= phases
    return state


def inverse_qft_deviation(state: StateVector) -> StateVector:
    """M-point inverse Fourier kernel exp(-2*pi*i*j*k/M)/sqrt(M) on the
    deviation register: the Hadamard at M = 2, np.fft above."""
    m_dim = state.layout.deviation_dim
    if m_dim == 2:
        return hadamard_deviation_register(state)
    out = np.fft.fft(state.amplitudes.reshape(m_dim, -1), axis=0)
    out /= np.sqrt(m_dim)
    state.amplitudes = out.reshape(-1)
    return state


def conditional_deviation_distribution(state: StateVector, system_state: np.ndarray) -> np.ndarray:
    """Deviation distribution (M, B) conditioned on the system register being
    in the column of ``system_state`` (N, B), renormalized."""
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


def forward_qft_deviation(state):
    """Forward QFT on the deviation register; exists only for round-trip tests."""
    m_dim = state.layout.deviation_dim
    rows = state.amplitudes.reshape(m_dim, -1)
    state.amplitudes = (np.fft.ifft(rows, axis=0) * np.sqrt(m_dim)).reshape(-1)
    return state


def deviation_distribution(state):
    """Marginal probabilities of the deviation register, shape (M, B): the
    reference readout for gate tests, which need no conditioning state."""
    return np.sum(np.abs(state.as_tensor()) ** 2, axis=1)


def reference_distributions(family, columns, deviation_phases=None) -> np.ndarray:
    """The probe circuit of ``qgld.qgpe.probe_distributions`` gate by gate:
    basis init, preparation of each column, Hadamard fan-out, the controlled
    family (a ControlledFamily's members formed by :func:`family_members`,
    or a raw sequence of members), the optional deviation phases, inverse
    QFT and the readout conditioned on the prepared column, in chunks of at
    most ``batch_capacity`` columns.  The m deviation qubits are those of
    the family's 2^m members, and the phases are (M,) or (M, B)."""
    if isinstance(family, ControlledFamily):
        family = family_members(family)
    columns = np.asarray(columns, dtype=complex)
    m, n = len(family).bit_length() - 1, columns.shape[0].bit_length() - 1
    chunk = batch_capacity(m, n)
    distributions = []
    for start in range(0, columns.shape[1], chunk):
        block = columns[:, start:start + chunk]
        state = init_basis(RegisterLayout(m=m, n=n, batch=block.shape[1]), 0)
        prepare_system_state(state, block)
        hadamard_deviation_register(state)
        apply_controlled_family(state, family)
        if deviation_phases is not None:
            phases = np.asarray(deviation_phases)
            phase_deviation_register(state, phases if phases.ndim == 1 else phases[:, start:start + chunk])
        inverse_qft_deviation(state)
        distributions.append(conditional_deviation_distribution(state, block))
    return np.concatenate(distributions, axis=1)


CENTRAL_DIFFERENCE_STEP = 1e-5


class DegenerateEigenvalue(QgldError):
    """Eigenvalue gap too small for a well-defined directional derivative."""


def _eigenvalue_gap(values: np.ndarray, p: int) -> float:
    gaps = []
    if p > 0:
        gaps.append(abs(values[p] - values[p - 1]))
    if p < len(values) - 1:
        gaps.append(abs(values[p + 1] - values[p]))
    return min(gaps) if gaps else np.inf


def hellmann_feynman_derivative(dec, delta: np.ndarray, p: int, a_norm: float) -> float:
    """<p|Delta|p>, the slope of the p-th eigenvalue of ``dec`` (a Spectrum)
    along the hermitian ``delta``, read from an existing eigendecomposition
    of A (``a_norm`` = ||A||_F).  Raises DegenerateEigenvalue when the
    eigenvalue's gap is at most DEGENERACY_RTOL * ||A||_F."""
    gap = _eigenvalue_gap(dec.values, p)
    if gap <= DEGENERACY_RTOL * max(a_norm, 1e-300):
        raise DegenerateEigenvalue(f"gap at index {p} is {gap:.3e}, at most {DEGENERACY_RTOL:.1e} * ||A||_F")
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


def matrix_dict(a) -> dict:
    """The matrix JSON object {"dim", "re", "im"} that the CLI reads."""
    a = np.asarray(a, dtype=complex)
    return {"dim": a.shape[0], "re": a.real.tolist(), "im": a.imag.tolist()}


def write_matrix(path, a) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(matrix_dict(a), fh, sort_keys=True)


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)
