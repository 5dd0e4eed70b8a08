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

:func:`eigenbasis_families` builds the same family in the eigenbasis of X,
each member right-multiplied by the common exp(-i t Lambda), for directions
that carry low-rank factors; :func:`evolution_family` builds it densely.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import statevector as sv
from .errors import (
    FlatDistribution,
    IndexOutOfRange,
    NonFiniteInput,
    ProbabilityOutOfRange,
    UnnormalizedPhi,
)
from .linalg import low_rank_update_eigh, require_hermitian, unitary_phase_exp

DELTA_KINDS = ("element", "all_ones", "outer", "custom")
SHIFTS = ("unshifted", "centered")
EIGENBASIS_BATCH = 1 << 14
# One eigenvector's readout is a Fejer kernel: its peak bin holds at least
# 1 / (M^2 sin^2(pi / 2M)) > 4 / pi^2 ~ 0.405 (slope midway between two bins),
# which at M = 4 is below 2/M, so the flat bar stays under it.
FLAT_PEAK_FLOOR = 0.4


@dataclass(frozen=True)
class PerturbationDirection:
    """Hermitian direction Delta selecting which entries of X are differentiated.

    ``exact_norm`` is ||Delta||_2 where the construction fixes it (see
    :func:`build_delta`); without it :meth:`spectral_norm` takes the SVD, once.
    Low-rank directions also carry ``factors`` F (N, r) and ``signs`` (r,) of
    +-1 with Delta = F diag(signs) F^dag; full-rank ``custom`` ones carry None.
    """

    kind: str
    matrix: np.ndarray = field(repr=False)
    exact_norm: float | None = None
    factors: np.ndarray | None = field(default=None, repr=False)
    signs: tuple | None = None

    @classmethod
    def from_factors(cls, factors, signs) -> "PerturbationDirection":
        """The ``custom`` direction F diag(signs) F^dag, with ||Delta||_2 read
        from the r x r matrix diag(signs) F^dag F, which has its nonzero
        eigenvalues."""
        factors = np.asarray(factors, dtype=complex)
        signs = tuple(float(v) for v in signs)
        mat = (factors * signs) @ factors.conj().T
        norm = float(np.max(np.abs(np.linalg.eigvals(np.array(signs)[:, None] * (factors.conj().T @ factors)))))
        return cls(kind="custom", matrix=(mat + mat.conj().T) / 2, exact_norm=norm, factors=factors, signs=signs)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def spectral_norm(self) -> float:
        """||Delta||_2, the largest singular value."""
        if self.exact_norm is not None:
            return self.exact_norm
        return self._svd_norm

    @cached_property
    def _svd_norm(self) -> float:
        return float(np.linalg.norm(self.matrix, ord=2))


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
        mat = np.zeros((n, n), dtype=complex)
        mat[i, j] = 1.0
        mat[j, i] = 1.0
        norm = 1.0
        factors = np.zeros((n, 1 if i == j else 2), dtype=complex)
        if i == j:
            factors[i, 0] = 1.0
        else:
            factors[[i, j, i, j], [0, 0, 1, 1]] = np.array([1.0, 1.0, 1.0, -1.0]) / np.sqrt(2.0)
            signs = (1.0, -1.0)
    elif kind == "all_ones":
        mat = np.ones((n, n), dtype=complex)
        norm = float(n)
        factors = np.ones((n, 1), dtype=complex)
    elif kind == "outer":
        if phi is None:
            raise ValueError("outer direction needs the weight vector phi")
        phi = require_weight_vector(phi, n)
        if abs(np.linalg.norm(phi) - 1.0) > 1e-10:
            raise UnnormalizedPhi(f"phi norm {np.linalg.norm(phi):.12f} != 1")
        mat = np.outer(phi, phi.conj())
        norm = float(np.vdot(phi, phi).real)
        factors = phi[:, None]
    elif kind == "custom":
        if matrix is None:
            raise ValueError("custom direction needs a matrix")
        mat = require_hermitian(matrix)
        if mat.shape != (n, n):
            raise ValueError(f"matrix has shape {mat.shape}, expected ({n}, {n})")
        mat = (mat + mat.conj().T) / 2
        norm, factors, signs = None, None, None
    else:
        raise ValueError(f"unknown direction kind {kind!r}; choose from {DELTA_KINDS}")
    return PerturbationDirection(kind=kind, matrix=mat, exact_norm=norm, factors=factors, signs=signs)


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


@dataclass(frozen=True)
class GradientEncoding:
    """Probe parameters: linearization length L, gradient scale W, m deviation
    qubits and deviation window."""

    L: float = 1e-6
    W: float = 1.0
    m: int = 1
    shift: str = "unshifted"

    def __post_init__(self):
        if not 0.0 < self.L <= 1e-2:
            raise ValueError(f"L = {self.L} outside (0, 1e-2]")
        if self.W <= 0.0:
            raise ValueError("W must be positive")
        if not 1 <= self.m <= 12:
            raise ValueError(f"m = {self.m} outside [1, 12]")
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

    def bin_to_gradient(self, j: int) -> float:
        """Map an inverse-QFT bin index to a gradient value."""
        m_dim = self.deviation_dim
        if self.shift == "centered" and j >= m_dim / 2:
            j = j - m_dim
        return j * 2 * np.pi * self.W / m_dim


def suggest_gradient_bound(delta: PerturbationDirection) -> float:
    """A safe W: twice the spectral norm of Delta, so |grad|/W <= 1/2 < pi."""
    return 2.0 * delta.spectral_norm()


def evolution_family(x, delta: PerturbationDirection, enc: GradientEncoding) -> sv.ControlledFamily:
    """The M controlled members exp(i * t * (X + s(eps) * Delta)), from
    stacked eigendecompositions of at most EIGENBASIS_BATCH // N^2 members
    each, every stack checked once."""
    x = require_hermitian(x)
    if delta.matrix.shape != x.shape:
        raise ValueError(f"direction shape {delta.matrix.shape} != matrix shape {x.shape}")
    t = enc.time_step()
    offsets = enc.offsets()
    chunk = max(1, EIGENBASIS_BATCH // x.size)
    return sv.ControlledFamily._adopt([
        unitary_phase_exp(x + offsets[start:start + chunk, None, None] * delta.matrix, t)
        for start in range(0, len(offsets), chunk)
    ])


def eigenbasis_families(values, signs, probes):
    """Controlled families in the eigenbasis of X = V diag(values) V^dag, one
    per (coupling C, encoding, identity shift c) of ``probes``, where C =
    V^dag F for a direction Delta = F diag(signs) F^dag; yielded in order.

    Member eps is exp(i t (Lambda + s (C diag(signs) C^dag + c I))) exp(-i t
    Lambda).  The right factor is the same for every member, so it changes
    no conditional readout, and it makes the s = 0 member the identity, which
    the family marks as an identity slot.  The other members come from
    :func:`low_rank_update_eigh`, batched over consecutive probes up to
    EIGENBASIS_BATCH entries of N x N work arrays (see :func:`_solved_members`).
    """
    values = np.asarray(values, dtype=float)
    n = len(values)
    jobs = [[(eps, s) for eps, s in enumerate(enc.offsets()) if s] for _, enc, _ in probes]
    start = 0
    while start < len(probes):
        stop, size = start + 1, len(jobs[start])
        while stop < len(probes) and (size + len(jobs[stop])) * n * n <= EIGENBASIS_BATCH:
            size += len(jobs[stop])
            stop += 1
        batch = [(j, eps, s) for j in range(start, stop) for eps, s in jobs[j]]
        members = _solved_members(values, signs, probes, batch)
        done = 0
        for j in range(start, stop):
            solved = {eps for eps, _ in jobs[j]}
            identity = [eps for eps in range(probes[j][1].deviation_dim) if eps not in solved]
            yield sv.ControlledFamily._adopt([members[done:done + len(solved)]], identity)
            done += len(solved)
        start = stop


def _solved_members(values, signs, probes, batch) -> np.ndarray:
    """Members (P, N, N) for the (probe, eps, s != 0) of ``batch``, in order,
    from one low-rank update solve.

    With eigenvalue k held as values[anchor_k] + offset_k and E = exp(i t
    Lambda), member eps is Q diag(E[anchor] exp(i t (offset + s c))) Q^dag
    diag(conj(E)): 2N exponentials per member.  On each anchor's own
    diagonal entry E_b conj(E_b) is real to one rounding, so the phase the
    readout decodes stays t (offset + s c) at full relative precision.
    """
    vectors, anchor, offset = low_rank_update_eigh(
        values, np.stack([probes[j][0] for j, _, _ in batch]), signs, [s for _, _, s in batch])
    times = np.array([probes[j][1].time_step() for j, _, _ in batch])[:, None]
    shifts = np.array([s * probes[j][2] for j, _, s in batch])[:, None]
    bare = np.exp(1j * times * values)
    right = vectors.transpose(0, 2, 1) * bare[:, None, :]  # conjugated below: Q^dag diag(conj(E))
    vectors *= (np.take_along_axis(bare, anchor, axis=1) * np.exp(1j * times * (offset + shifts)))[:, None, :]
    return vectors @ np.conjugate(right, out=right)


@dataclass(frozen=True)
class QgpeOutcome:
    """Readout of one gradient probe circuit."""

    distribution: np.ndarray
    peak_index: int
    peak_gradient: float
    amplitude_gradient: float | None
    eigenresidual: float


def extract_gradient_m1(p0: float, p1: float, w: float = 1.0) -> float:
    """Gradient magnitude from the two-outcome distribution: 2*arccos(sqrt(p0))*W,
    the one-column case of :func:`readout_gradients`."""
    return float(_amplitude_readout(np.array([p0], dtype=float), np.array([p1], dtype=float), w)[0])


def _amplitude_readout(p0: np.ndarray, p1: np.ndarray, w: float) -> np.ndarray:
    """2*arccos(sqrt(p0))*W for every column, after checking all columns at
    once: each probability in [0, 1] (to 1e-12), each pair summing to one
    (to 1e-8), and the arccos and arcsin extractions agreeing (to 1e-8 *
    max(1, W)).  Raises ProbabilityOutOfRange naming the first failing column."""
    # negated, so that a NaN fails here, before any sqrt sees it
    bad = np.flatnonzero(~((p0 >= 0.0) & (p0 <= 1.0 + 1e-12) & (p1 >= 0.0) & (p1 <= 1.0 + 1e-12)))
    if bad.size:
        raise ProbabilityOutOfRange(f"column {bad[0]}: p0 = {p0[bad[0]]}, p1 = {p1[bad[0]]}")
    total = p0 + p1
    bad = np.flatnonzero(np.abs(total - 1.0) > 1e-8)
    if bad.size:
        raise ProbabilityOutOfRange(f"column {bad[0]}: p0 + p1 = {total[bad[0]]} != 1")
    from_p0 = 2.0 * np.arccos(np.minimum(1.0, np.sqrt(p0))) * w
    from_p1 = 2.0 * np.arcsin(np.minimum(1.0, np.sqrt(p1))) * w
    bad = np.flatnonzero(np.abs(from_p0 - from_p1) > 1e-8 * max(1.0, w))
    if bad.size:
        raise ProbabilityOutOfRange(
            f"column {bad[0]}: arccos/arcsin extractions disagree: {from_p0[bad[0]]} vs {from_p1[bad[0]]}"
        )
    return from_p0


def readout_gradients(distributions: np.ndarray, enc: GradientEncoding) -> np.ndarray:
    """Gradient of each column of (M, B) deviation distributions: the m = 1
    amplitude readout with its range and arccos/arcsin checks, or at m >= 2
    the peak bin, raising FlatDistribution for a column whose peak is below
    min(2/M, FLAT_PEAK_FLOOR) (no bin stands out, so the argmax is noise)."""
    distributions = np.asarray(distributions, dtype=float)
    if enc.m == 1:
        return _amplitude_readout(distributions[0], distributions[1], enc.W)
    floor = min(2.0 / enc.deviation_dim, FLAT_PEAK_FLOOR)
    peaks = np.max(distributions, axis=0)
    flat = np.flatnonzero(peaks < floor)
    if flat.size:
        raise FlatDistribution(f"column {flat[0]}: max probability {peaks[flat[0]]:.3e} below {floor:.3e}")
    return np.array([enc.bin_to_gradient(int(j)) for j in np.argmax(distributions, axis=0)])


def probe_distributions(family, columns: np.ndarray, m: int, project_back: bool = False,
                        deviation_phases: np.ndarray | None = None) -> np.ndarray:
    """Deviation distributions (M, B) of the probe circuit, run on every
    column of ``columns`` (N, B) as an independent circuit.

    Sequence: basis init, preparation of each column, Hadamard fan-out of the
    deviations, the controlled ``family`` (checked once here if it is a raw
    member list), optional per-column ``deviation_phases`` (M, B), inverse
    QFT, and the marginal readout, or with ``project_back`` the readout
    conditioned on the system register returning to the prepared column.
    Columns run in chunks of at most ``batch_capacity(m, n)``, so every
    amplitude tensor stays within the 2^MAX_QUBITS guard.
    """
    family = sv.ControlledFamily(family)
    columns = np.asarray(columns, dtype=complex)
    n = sv.system_qubits_for_dim(columns.shape[0])
    chunk = sv.batch_capacity(m, n)
    distributions = []
    for start in range(0, columns.shape[1], chunk):
        block = columns[:, start:start + chunk]
        state = sv.init_basis(sv.RegisterLayout(m=m, n=n, batch=block.shape[1]), 0)
        sv.prepare_system_state(state, block)
        sv.hadamard_deviation_register(state)
        sv.apply_controlled_family(state, family)
        if deviation_phases is not None:
            sv.phase_deviation_register(state, deviation_phases[:, start:start + chunk])
        sv.inverse_qft_deviation(state)
        if project_back:
            distributions.append(sv.conditional_deviation_distribution(state, block))
        else:
            distributions.append(sv.deviation_distribution(state))
    return np.concatenate(distributions, axis=1)


def qgpe_run_batch(x, columns: np.ndarray, delta: PerturbationDirection, enc: GradientEncoding,
                   family=None, project_back: bool = False) -> list[QgpeOutcome]:
    """Run the full probe circuit on each (intended) eigenvector column of
    ``columns`` (N, B), all columns as one batched circuit.

    With ``project_back`` the readout undoes the eigenstate preparation and
    conditions the deviation register on the system returning to |0...0>,
    which suppresses contamination from the small eigenvector tilt at finite
    L.  A precomputed ``family`` (a ControlledFamily, or a raw member list,
    which is checked once) may be passed to amortize the matrix exponentials
    across runs that share (x, delta, enc).

    The inputs need not be exact eigenvectors; each outcome's
    ``eigenresidual`` reports ||X p - (p^dag X p) p|| so callers can detect
    drift.  For m = 1 every column passes through :func:`readout_gradients`'
    range and arccos/arcsin checks.
    """
    x = require_hermitian(x)
    columns = np.asarray(columns, dtype=complex)
    if family is None:
        family = evolution_family(x, delta, enc)
    distributions = probe_distributions(family, columns, enc.m, project_back=project_back)

    work = x @ columns
    rayleigh = np.einsum("sb,sb->b", columns.conj(), work)
    eigenresiduals = np.linalg.norm(work - rayleigh * columns, axis=0)

    amplitudes = readout_gradients(distributions, enc).tolist() if enc.m == 1 else [None] * columns.shape[1]
    return [
        QgpeOutcome(
            distribution=distributions[:, b],
            peak_index=int(peak_index),
            peak_gradient=enc.bin_to_gradient(int(peak_index)),
            amplitude_gradient=amplitudes[b],
            eigenresidual=float(eigenresiduals[b]),
        )
        for b, peak_index in enumerate(np.argmax(distributions, axis=0))
    ]


def qgpe_run(x, p_state: np.ndarray, delta: PerturbationDirection, enc: GradientEncoding,
             family=None, project_back: bool = False) -> QgpeOutcome:
    """The probe circuit on a single (intended) eigenvector p_state: the
    one-column case of :func:`qgpe_run_batch`."""
    columns = np.asarray(p_state, dtype=complex)[:, None]
    return qgpe_run_batch(x, columns, delta, enc, family=family, project_back=project_back)[0]
