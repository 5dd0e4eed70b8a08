"""Gradient probe circuits: perturbation directions, controlled evolution
families, and readout of eigenvalue gradients from the deviation register.

Conventions.  A deviation register of m qubits (M = 2^m) indexes perturbation
strengths s(eps), either the unshifted window s = L*eps/M or the centered
window s = (L/M)*(eps - M/2).  Each controlled family member is

    U(eps) = exp(i * t * (X + s(eps) * Delta)),   t = M/(W*L).

With the unshifted window the eps-dependent phase is exp(i*eps*grad/W), so
for m = 1 the gradient magnitude is 2*arccos(sqrt(p0))*W, and for m >= 2 the
inverse QFT peaks at bin j = M*grad/(2*pi*W).  The paper's main-text
convention, with 2*pi inside the exponent, t = 2*pi*M/(W'*L), is this one at
W = W'/(2*pi): the time step, the bin decode and the m = 1 decode all agree.

:func:`evolution_family` builds the family of a ``custom`` matrix from the
eigendecompositions of X + s(eps) Delta, and :func:`eigenbasis_families`
those of factored directions in one window, in the basis of the resolved
pairs of X, as fixed-size stacks from the secular equation; both keep each
member as its factors Q diag(exp(i t lambda)) Q^dag.  A factored direction
stores no N x N matrix: each read of it forms one.
:func:`probe_distributions` reads any of them, in a basis of any size (the
power-of-two check is on X), from the amplitudes <c|U(eps)|c> of each column c.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import statevector as sv
from .errors import (
    FamilySizeMismatch,
    FlatDistribution,
    IndexOutOfRange,
    NonFiniteInput,
    NotInGroundRegister,
    ProbabilityOutOfRange,
    UnnormalizedPhi,
    UnnormalizedTarget,
)
from .linalg import low_rank_update_eigh, require_hermitian

DELTA_KINDS = ("element", "all_ones", "outer", "custom")
SHIFTS = ("unshifted", "centered")
EIGENBASIS_BATCH = 1 << 14
FAMILY_ENTRIES = 1 << 23  # M * N^2 per family; see _require_family_size
# One eigenvector's readout is a Fejer kernel: its peak bin holds at least
# 1 / (M^2 sin^2(pi / 2M)) > 4 / pi^2 ~ 0.405 (slope midway between two bins),
# which at M = 4 is below 2/M, so the flat bar stays under it.
FLAT_PEAK_FLOOR = 0.4


@dataclass(frozen=True, eq=False)
class PerturbationDirection:
    """Hermitian direction Delta selecting which entries of X are differentiated.

    ``PerturbationDirection(matrix)`` checks the matrix (NonHermitianInput)
    and keeps it symmetrized as a ``custom`` direction whose ``norm`` =
    ||Delta||_2 is its largest singular value.  The other kinds, their exact
    norms and the low-rank ``factors`` F (N, r) and ``signs`` (r,) of +-1
    with Delta = F diag(signs) F^dag (None for a matrix alone) are set only
    by :func:`build_delta` and :meth:`from_factors`, so no field can
    disagree with the matrix.  A direction with factors stores no matrix:
    each read of ``matrix`` forms it, read-only, by its builder's formula
    (:func:`_factored_matrix`).  The eigenbasis probes read only the
    factors, and every other reader reads the matrix once per call.

    A direction is a value: it keeps read-only copies of a ``custom``
    matrix and of ``factors``, so a write to the caller's arrays leaves it
    unchanged and a write to its own raises ValueError.  Directions compare
    and hash by identity.
    """

    matrix: np.ndarray = field(repr=False)
    kind: str = field(init=False)
    norm: float = field(init=False)
    factors: np.ndarray | None = field(init=False, repr=False)
    signs: tuple | None = field(init=False)

    def __post_init__(self):
        mat = require_hermitian(self.matrix)
        self._set("custom", (mat + mat.conj().T) / 2)

    @classmethod
    def _exact(cls, kind: str, norm: float, factors, signs) -> "PerturbationDirection":
        """A direction whose builder knows its kind, exact norm and factors;
        its matrix is formed on each read."""
        delta = object.__new__(cls)
        delta._set(kind, None, norm, factors, signs)
        return delta

    def _set(self, kind, matrix, norm=None, factors=None, signs=None) -> None:
        """Set every field once (``matrix`` None: formed on each read);
        ``norm`` None takes the SVD of the matrix."""
        fields = {"kind": kind, "matrix": matrix, "factors": factors, "signs": signs}
        for name in ("matrix", "factors"):
            if fields[name] is not None:
                fields[name] = np.array(fields[name])  # a copy, so no caller array is aliased or frozen
                fields[name].flags.writeable = False
        if matrix is None:
            del fields["matrix"]
        fields["norm"] = float(np.linalg.norm(fields["matrix"], ord=2)) if norm is None else norm
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __getattr__(self, name):
        # reached only for an attribute not set: the matrix of a factored direction, formed on each read
        if name != "matrix" or self.__dict__.get("factors") is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        return _factored_matrix(self)

    @classmethod
    def from_factors(cls, factors, signs) -> "PerturbationDirection":
        """The ``custom`` direction F diag(signs) F^dag, with ||Delta||_2 read
        from the r x r matrix diag(signs) F^dag F, which has its nonzero
        eigenvalues.  Raises ValueError unless F is (N, r) and ``signs`` are r
        values of +-1, and NonFiniteInput for a non-finite entry of F."""
        factors = np.asarray(factors, dtype=complex)
        signs = tuple(float(v) for v in signs)
        if factors.ndim != 2 or not signs or len(signs) != factors.shape[1] or any(abs(v) != 1.0 for v in signs):
            raise ValueError(f"factors of shape {factors.shape} with signs {signs} of shape ({len(signs)},): "
                             f"need (N, r) factors, r >= 1, and r signs of +-1")
        if not np.isfinite(factors).all():
            raise NonFiniteInput(f"factors have {np.count_nonzero(~np.isfinite(factors))} non-finite entries")
        norm = float(np.max(np.abs(np.linalg.eigvals(np.array(signs)[:, None] * (factors.conj().T @ factors)))))
        return cls._exact("custom", norm, factors, signs)

    @property
    def dim(self) -> int:
        return (self.matrix if self.factors is None else self.factors).shape[0]


def _factored_matrix(delta: PerturbationDirection) -> np.ndarray:
    """The read-only N x N matrix of a direction with factors, by its
    builder's formula: ones at (i, j) and (j, i) for an element, i and j the
    nonzero rows of its first factor, every entry 1 for all-ones, phi
    phi^dag for outer(phi), and F diag(signs) F^dag, symmetrized, from
    :meth:`PerturbationDirection.from_factors`."""
    n = delta.dim
    if delta.kind == "element":
        rows = np.flatnonzero(delta.factors[:, 0])  # (i, j) ascending, or (i,) on the diagonal
        mat = np.zeros((n, n), dtype=complex)
        mat[rows, rows[::-1]] = 1.0
    elif delta.kind == "all_ones":
        mat = np.ones((n, n), dtype=complex)
    elif delta.kind == "outer":
        mat = np.outer(delta.factors[:, 0], delta.factors[:, 0].conj())
    else:
        mat = (delta.factors * delta.signs) @ delta.factors.conj().T
        mat = (mat + mat.conj().T) / 2
    mat.flags.writeable = False
    return mat


def build_delta(kind: str, n: int, i: int | None = None, j: int | None = None,
                phi: np.ndarray | None = None, matrix=None) -> PerturbationDirection:
    """Construct a perturbation direction of the given kind.

    element   -- ones at (i, j) and (j, i), zero-based; a single 1 when i == j
    all_ones  -- every entry 1
    outer     -- conj(phi_i) * phi_j from a normalized weight vector phi
    custom    -- any hermitian matrix

    All but ``custom`` are hermitian bit for bit as built and carry their
    spectral norm (``element``: eigenvalues +-1, or a single 1; ``all_ones``:
    N; ``outer``: ||phi||^2) and their factors: e_i for a diagonal element,
    (e_i +- e_j)/sqrt(2) with signs +-1 otherwise, the all-ones vector, and
    phi.  A ``custom`` matrix is symmetrized.
    """
    signs = (1.0,)
    if kind == "element":
        if i is None or j is None:
            raise ValueError("element direction needs indices i and j")
        if not (0 <= i < n and 0 <= j < n):
            raise IndexOutOfRange(f"indices ({i}, {j}) outside [0, {n})")
        norm = 1.0
        factors = np.zeros((n, 1 if i == j else 2), dtype=complex)
        if i == j:
            factors[i, 0] = 1.0
        else:
            factors[[i, j, i, j], [0, 0, 1, 1]] = np.array([1.0, 1.0, 1.0, -1.0]) / np.sqrt(2.0)
            signs = (1.0, -1.0)
    elif kind == "all_ones":
        norm = float(n)
        factors = np.ones((n, 1), dtype=complex)
    elif kind == "outer":
        if phi is None:
            raise ValueError("outer direction needs the weight vector phi")
        phi = require_unit_weight_vector(phi, n)
        norm = float(np.vdot(phi, phi).real)
        factors = phi[:, None]
    elif kind == "custom":
        if matrix is None:
            raise ValueError("custom direction needs a matrix")
        mat = np.asarray(matrix, dtype=complex)  # checked and symmetrized by the direction
        if mat.shape != (n, n):
            raise ValueError(f"matrix has shape {mat.shape}, expected ({n}, {n})")
        return PerturbationDirection(mat)
    else:
        raise ValueError(f"unknown direction kind {kind!r}; choose from {DELTA_KINDS}")
    return PerturbationDirection._exact(kind, norm, factors, signs)


def require_weight_vector(phi, n: int) -> np.ndarray:
    """phi as a complex vector of length n with finite entries, not all zero."""
    phi = np.asarray(phi, dtype=complex)
    if phi.shape != (n,):
        raise ValueError(f"phi has shape {phi.shape}, expected ({n},)")
    if not np.isfinite(phi).all():
        bad = np.flatnonzero(~np.isfinite(phi))
        raise NonFiniteInput(
            f"weight vector phi has {len(bad)} non-finite entries (NaN or inf), first at {bad[0]}: {phi[bad[0]]}"
        )
    if not np.any(phi):
        raise UnnormalizedPhi("weight vector phi is zero")
    return phi


def require_unit_weight_vector(phi, n: int) -> np.ndarray:
    """phi as :func:`require_weight_vector` gives it, with ||phi|| = 1 within
    1e-10; raises UnnormalizedPhi otherwise."""
    phi = require_weight_vector(phi, n)
    if abs(np.linalg.norm(phi) - 1.0) > 1e-10:
        raise UnnormalizedPhi(f"phi norm {np.linalg.norm(phi):.12f} != 1")
    return phi


@dataclass(frozen=True)
class GradientEncoding:
    """Probe parameters: linearization length L in (0, 1e-2], finite gradient
    scale W > 0, an integer m in [1, 12] of deviation qubits and the
    deviation window."""

    L: float = 1e-6
    W: float = 1.0
    m: int = 1
    shift: str = "unshifted"

    def __post_init__(self):
        if not 0.0 < self.L <= 1e-2:
            raise ValueError(f"L = {self.L} outside (0, 1e-2]")
        if not (np.isfinite(self.W) and self.W > 0.0):  # negated, so that a NaN W fails here
            raise ValueError(f"W = {self.W} must be finite and positive")
        if not isinstance(self.m, (int, np.integer)) or not 1 <= self.m <= 12:
            raise ValueError(f"m = {self.m!r} must be an integer in [1, 12]")
        if self.shift not in SHIFTS:
            raise ValueError(f"shift must be one of {SHIFTS}")

    @property
    def deviation_dim(self) -> int:
        return 1 << self.m

    def offsets(self) -> np.ndarray:
        """Perturbation strengths s(eps) for eps = 0..M-1."""
        eps = np.arange(self.deviation_dim, dtype=float)
        if self.shift == "centered":
            eps = eps - self.deviation_dim / 2
        return self.L * eps / self.deviation_dim

    def time_step(self) -> float:
        return self.deviation_dim / (self.W * self.L)

    def readout_range(self) -> float:
        """Largest |gradient| the window reads without aliasing: pi*W at m = 1
        or in the centered window, 2*pi*W in the unshifted window at m >= 2."""
        return (2.0 if self.m >= 2 and self.shift == "unshifted" else 1.0) * np.pi * self.W

    def bin_to_gradient(self, j):
        """Map an inverse-QFT bin index, or each of an array of them, to a gradient value."""
        m_dim = self.deviation_dim
        if self.shift == "centered":
            j = np.where(j >= m_dim / 2, j - m_dim, j)
        return j * 2 * np.pi * self.W / m_dim


def suggest_gradient_bound(delta: PerturbationDirection) -> float:
    """A safe W: twice the spectral norm of Delta, so |grad|/W <= 1/2 < pi."""
    return 2.0 * delta.norm


def require_register_dimension(n: int) -> None:
    """Raise ValueError unless ``n`` is a power of two >= 2, the dimension of a system register of qubits."""
    if n < 2 or n & (n - 1):
        raise ValueError(f"dimension {n} is not a power of two >= 2")


def _require_family_size(enc: GradientEncoding, n: int) -> None:
    """Raise ValueError, before any eigendecomposition or secular solve, when
    a family of ``enc`` on dimension ``n`` would hold more than FAMILY_ENTRIES
    = M * N^2 eigenvector entries.  At the limit, 2^23, the eigenvectors
    take 128 MB, 16 bytes per complex entry.  A dense family adds little
    beside them, since its eighs and its check work a chunk at a time (about
    20 bytes per entry in all); an eigenbasis family's secular solve holds
    five float arrays of M * N^2 entries at once, two of them in the memory
    of the eigenvectors it returns (a peak of about 44 bytes per entry for a
    rank-one direction and 60 for rank two, about 0.5 GB at the limit)."""
    entries = enc.deviation_dim * n * n
    if entries > FAMILY_ENTRIES:
        raise ValueError(f"a family at m = {enc.m}, N = {n} holds M * N^2 = {entries} eigenvector entries, "
                         f"beyond the budget of {FAMILY_ENTRIES}; lower m")


def evolution_family(x, delta: PerturbationDirection, enc: GradientEncoding) -> sv.ControlledFamily:
    """The M controlled members exp(i * t * (X + s(eps) * Delta)), kept as
    the eigenvectors and the phases exp(i t lambda) of their stacked
    eigendecompositions, at most EIGENBASIS_BATCH // N^2 members a stack."""
    x, matrix = require_hermitian(x), delta.matrix
    if matrix.shape != x.shape:
        raise ValueError(f"direction shape {matrix.shape} != matrix shape {x.shape}")
    _require_family_size(enc, len(x))
    offsets = enc.offsets()
    values = np.empty((len(offsets), len(x)))
    vectors = np.empty((len(offsets), *x.shape), dtype=complex)
    chunk = max(1, EIGENBASIS_BATCH // x.size)
    for start in range(0, len(offsets), chunk):
        part = slice(start, start + chunk)
        values[part], vectors[part] = np.linalg.eigh(x + offsets[part, None, None] * matrix)
    return sv.ControlledFamily(np.exp(1j * enc.time_step() * values), vectors)


def eigenbasis_families(values, signs, couplings, enc: GradientEncoding):
    """Controlled families of the window ``enc`` in the basis V of the
    resolved pairs of X (any count: each resolve checks N), with
    diag(values) for V^dag X V, one for each coupling C = V^dag F of the
    (P, N, r) ``couplings`` of factored directions Delta = F diag(signs)
    F^dag (``custom`` ones run :func:`evolution_family`), yielded as (rows,
    stack): a slice of ``couplings`` and the ControlledFamily stack of its
    probes.

    Member eps is exp(i t (Lambda + s C diag(signs) C^dag)).  Its s = 0
    member is the diagonal slot exp(i t Lambda), formed once; the K slots of
    nonzero s come from :func:`low_rank_update_eigh`, one solve per chunk of
    max(1, EIGENBASIS_BATCH // (K N^2)) probes, and stay factored as
    Q diag(d) Q^dag.  With eigenvalue k held as values[anchor_k] + offset_k,
    d = exp(i t Lambda)[anchor] exp(i t offset): N exponentials per member.
    Every member shares the one exp(i t Lambda), and a phase common to a
    column's M amplitudes leaves its readout unchanged, so in the term of
    each anchor's own amplitude exp(i t lambda_b) drops out and the decoded
    phase stays t offset at full relative precision.  The family size is
    checked before the first solve.
    """
    values = np.asarray(values, dtype=float)
    couplings = np.asarray(couplings, dtype=complex)
    n = len(values)
    _require_family_size(enc, n)
    offsets, t = enc.offsets(), enc.time_step()
    slots = np.flatnonzero(offsets)
    bare = np.exp(1j * t * values)
    weights = np.outer(offsets[slots], signs)
    chunk = max(1, EIGENBASIS_BATCH // (len(slots) * n * n))
    for start in range(0, len(couplings), chunk):
        rows = slice(start, start + chunk)
        part = couplings[rows]
        vectors, anchor, offset = low_rank_update_eigh(values, np.repeat(part, len(slots), axis=0),
                                                       np.tile(weights, (len(part), 1)))
        phases = np.empty((len(part), enc.deviation_dim, n), dtype=complex)
        phases[:] = bare
        phases[:, slots] = (bare[anchor] * np.exp(1j * t * offset)).reshape(len(part), len(slots), n)
        yield rows, sv.ControlledFamily(phases, vectors.reshape(len(part), len(slots), n, n), slots)


def _column(flat: int, shape) -> str:
    """Where the flat index ``flat`` of a (B,) or stacked (J, B) array lies."""
    *probe, column = np.unravel_index(flat, shape)
    return f"probe {probe[0]} column {column}" if probe else f"column {column}"


def _amplitude_readout(p0: np.ndarray, p1: np.ndarray, w: float) -> np.ndarray:
    """2*arccos(sqrt(p0))*W for every column, after checking all columns at
    once: each probability in [0, 1] (to 1e-12), each pair summing to one
    (to 1e-8), and the arccos and arcsin extractions agreeing (to 1e-8 *
    max(1, W)).  Raises ProbabilityOutOfRange naming the first failing
    column (and its probe, in a stack)."""
    # negated, so that a NaN fails here, before any sqrt sees it
    bad = np.flatnonzero(~((p0 >= 0.0) & (p0 <= 1.0 + 1e-12) & (p1 >= 0.0) & (p1 <= 1.0 + 1e-12)))
    if bad.size:
        raise ProbabilityOutOfRange(f"{_column(bad[0], p0.shape)}: p0 = {p0.flat[bad[0]]}, p1 = {p1.flat[bad[0]]}")
    total = p0 + p1
    bad = np.flatnonzero(np.abs(total - 1.0) > 1e-8)
    if bad.size:
        raise ProbabilityOutOfRange(f"{_column(bad[0], p0.shape)}: p0 + p1 = {total.flat[bad[0]]} != 1")
    from_p0 = 2.0 * np.arccos(np.minimum(1.0, np.sqrt(p0))) * w
    from_p1 = 2.0 * np.arcsin(np.minimum(1.0, np.sqrt(p1))) * w
    bad = np.flatnonzero(np.abs(from_p0 - from_p1) > 1e-8 * max(1.0, w))
    if bad.size:
        raise ProbabilityOutOfRange(f"{_column(bad[0], p0.shape)}: arccos/arcsin extractions disagree: "
                                    f"{from_p0.flat[bad[0]]} vs {from_p1.flat[bad[0]]}")
    return from_p0


def readout_gradients(distributions: np.ndarray, enc: GradientEncoding) -> np.ndarray:
    """Gradient of each column of (M, B) deviation distributions, or of each
    probe's columns of a stacked (J, M, B): the m = 1 amplitude readout with
    its range and arccos/arcsin checks, or at m >= 2 the peak bin, raising
    FlatDistribution for a column whose peak is below min(2/M,
    FLAT_PEAK_FLOOR) (no bin stands out, so the argmax is noise)."""
    distributions = np.asarray(distributions, dtype=float)
    if enc.m == 1:
        return _amplitude_readout(distributions[..., 0, :], distributions[..., 1, :], enc.W)
    floor = min(2.0 / enc.deviation_dim, FLAT_PEAK_FLOOR)
    peaks = np.max(distributions, axis=-2)
    flat = np.flatnonzero(peaks < floor)
    if flat.size:
        raise FlatDistribution(f"{_column(flat[0], peaks.shape)}: max probability {peaks.flat[flat[0]]:.3e} "
                               f"below {floor:.3e}")
    return enc.bin_to_gradient(np.argmax(distributions, axis=-2))


def probe_distributions(family, columns: np.ndarray, *, deviation_phases: np.ndarray | None = None) -> np.ndarray:
    """Deviation distributions (M, B) of the probe circuit, run on every
    column of ``columns`` (N, B) as an independent circuit, M = len(family);
    (J, M, B) for a stack of J families, each on every column.  N may be
    any count of Ritz pairs: each resolve, eigenvalue_gradient_probes and
    kernel_fit check the N of X, where it enters.

    The circuit prepares each column c, fans the deviations out with
    Hadamards, applies the controlled ``family``, the optional deviation
    phases phi, one per deviation state, (M,), per probe of a stack, (J, M),
    or per column as well, the shape of the distributions, and the inverse
    QFT, and reads the deviation register conditioned on the system register
    returning to c, which suppresses the contamination from the small
    eigenvector tilt at finite L.  That projection commutes with every
    deviation-register gate, so bin j reads |sum_eps exp(-2 pi i j eps / M)
    phi_eps a_eps|^2 / M^2, normalized, from the amplitudes a_eps =
    <c|U(eps)|c>.  Raises FamilySizeMismatch unless M is a power of two >= 2
    and the members have dimension N, ValueError for phases off unit modulus
    or those shapes, UnnormalizedTarget for a column off unit norm and
    NotInGroundRegister for one with no conditioned weight.
    """
    columns = np.asarray(columns, dtype=complex)
    n_dim, m_dim = columns.shape[0], len(family)
    if m_dim < 2 or m_dim & (m_dim - 1) or family.dim != n_dim:
        raise FamilySizeMismatch(f"family of {m_dim} members of dimension {family.dim} on columns of dimension "
                                 f"{n_dim}; the deviation register needs 2^m >= 2 members of dimension {n_dim}")
    norms = np.linalg.norm(columns, axis=0)
    bad = np.flatnonzero(np.abs(norms - 1.0) > sv.NORM_ATOL)
    if bad.size:
        raise UnnormalizedTarget(f"target column {bad[0]} norm {norms[bad[0]]:.12f} != 1")
    amplitudes = family.amplitudes(columns)
    if deviation_phases is not None:
        phases = np.asarray(deviation_phases, dtype=complex)
        shapes = {(m_dim,), family.phases.shape[:-1], amplitudes.shape}
        if phases.shape not in shapes or np.max(np.abs(np.abs(phases) - 1.0)) > sv.NORM_ATOL:
            raise ValueError(f"deviation phases must have unit modulus and shape "
                             f"{' or '.join(str(shape) for shape in sorted(shapes, key=len))}, not {phases.shape}")
        amplitudes *= phases if phases.shape == amplitudes.shape else phases[..., None]
    # the M = 2 inverse QFT is the Hadamard, which spares loading numpy.fft (0.4 MB resident);
    # 1/M = 1/sqrt(M) from the fan-out times 1/sqrt(M) from the inverse QFT, exact for M = 2^m
    if m_dim == 2:
        spectrum = np.stack([amplitudes[..., 0, :] + amplitudes[..., 1, :],
                             amplitudes[..., 0, :] - amplitudes[..., 1, :]], axis=-2)
    else:
        spectrum = np.fft.fft(amplitudes, axis=-2)
    probs = np.abs(spectrum / m_dim) ** 2
    weight = np.sum(probs, axis=-2)
    empty = np.flatnonzero(weight < 1e-30)
    if empty.size:
        raise NotInGroundRegister(f"conditioning state of {_column(empty[0], weight.shape)} has no overlap with the "
                                  f"register")
    return probs / weight[..., None, :]
