"""Inverse expectation values assembled from eigenvalue-gradient probes.

The directional derivative of log det X along Delta is tr(X^-1 Delta):
summing the per-eigenvalue derivatives weighted by 1/E_p gives, at full rank,
the matrix element of X^-1 selected by the perturbation direction.  This
module runs one probe circuit per eigenpair (per-eigenvector pipeline), all
of them as the columns of one batched circuit per deviation window, or a
single run on an equal superposition of eigenvectors with the perturbation
rescaled by 1/E_p per eigenstate (superposition pipeline, whose controlled
family is diagonal in the eigenbasis of X and built there), and cross-checks
both against the direct classical evaluation.  Low-rank directions are
probed in the basis of the resolved pairs, families from the secular equation.

Sign handling: the single-deviation-qubit readout yields |gradient| only, so
probes that can go negative (general directions, such as single entries on
indefinite matrices) are run with an identity shift c, the deviation-register
phase exp(i t s(eps) c) that c*I would add to member eps.  It adds exactly c
to every slope, keeps every probe phase positive, and is subtracted after
readout.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass, replace

import numpy as np

from . import statevector as sv
from .errors import AliasedReadout, NearZeroEigenvalue, RoundingFloor
from .linalg import EIGEN_RESIDUAL_RTOL, PSEUDO_INVERSE_RTOL  # noqa: F401 (the Spectrum's, importable here)
from .linalg import Spectrum, as_complex_matrix, eig_hermitian, eigen_residuals, inverse
from .qgpe import (
    GradientEncoding,
    PerturbationDirection,
    _require_family_size,
    build_delta,
    eigenbasis_families,
    evolution_family,
    probe_distributions,
    readout_gradients,
    require_register_dimension,
    require_unit_weight_vector,
)
from .lanczos import run_rqbl

SUPERPOSITION_ZOOM = 1e4
ROUNDING_RTOL = 1e-4  # a probe's rounding floor against its slope bound; see _require_readable


# ---------------------------------------------------------------------------
# eigenpair sources: each one's resolve validates the matrix it is given, its
# shape and entries and its power-of-two dimension before the eigensolve

@dataclass(frozen=True)
class DenseSource:
    """All eigenpairs from the dense solver."""

    def resolve(self, x: np.ndarray) -> Spectrum:
        x = as_complex_matrix(x)
        require_register_dimension(len(x))
        return eig_hermitian(x)  # which checks that x is hermitian


@dataclass(frozen=True)
class RqblSource:
    """Ritz pairs from the randomized block Lanczos run."""

    b: int
    seed: int
    steps: int | None = None

    def resolve(self, x: np.ndarray) -> Spectrum:
        x = as_complex_matrix(x)
        require_register_dimension(len(x))
        # hermiticity, b and the steps (None: N // b) are validated by build_factorization, before any step
        return run_rqbl(x, self.b, self.steps, self.seed)


# ---------------------------------------------------------------------------
# request / report types

@dataclass(frozen=True)
class InverseExpectationRequest:
    """Inputs of the per-eigenvector pipeline, as given: the call checks them, before any circuit runs."""

    x: np.ndarray
    phi: np.ndarray
    k: int
    enc: GradientEncoding = GradientEncoding()
    eigensource: DenseSource | RqblSource = DenseSource()


@dataclass(frozen=True, eq=False)
class InverseExpectationReport:
    """One L's read: E_p, deltaE_p and residuals of the used pairs (|E| descending), read-only, and the total."""

    eigenvalues: np.ndarray
    slopes: np.ndarray
    residuals: np.ndarray
    total: float
    classical_reference: float | None
    skipped: tuple = ()

    def to_dict(self) -> dict:
        return {
            "contributions": [{"E_p": e, "deltaE_p": s, "Yp": s / e}
                              for e, s in zip(self.eigenvalues.tolist(), self.slopes.tolist())],
            "total": self.total,
            "classical_reference": self.classical_reference,
            "residuals": self.residuals.tolist(),
            "skipped_eigenvalues": list(self.skipped),
        }


# ---------------------------------------------------------------------------
# probes

def _require_readable(bound: float, encodings, x_norm: float | None = None) -> None:
    """Raise, before any circuit runs, when a window cannot read slopes up to
    ``bound`` = ||Delta||_2 + |c|: AliasedReadout beyond its readout range,
    and RoundingFloor when rounding alone costs a slope more than
    ROUNDING_RTOL * ``bound``.  At m = 1, p0 = cos^2(phase / 2) rounds to 1
    below a phase of sqrt(2 eps): a floor of sqrt(2 eps) W.  A dense family
    (``x_norm`` = ||X||_F given) adds s Delta to X, so its phases t lambda,
    t = M / (W L), carry the eigensolver's rounding, which the read scales
    by W: a floor of M eps ||X||_F / L.  ||X||_F, since that rounding grows
    with N: at 1.05 times the floor with ||X||_2, a dense element (0, 1)
    total on random-spd:N:1 read 1.2e-4, 4.0e-4 and 6.7e-4 off at N = 64,
    128 and 256.  The tolerance is relative since slopes scale with Delta; at
    a bound of 1 it is the 1e-4 accuracy asked of totals and log-det entries,
    and it admits W up to 4700 * bound.  A zero direction reads exactly 0
    (every member is the s = 0 one), so it has no floor."""
    eps, tol = float(np.finfo(float).eps), ROUNDING_RTOL * bound
    for enc in encodings:
        if bound > enc.readout_range():
            scale = enc.readout_range() / enc.W
            raise AliasedReadout(
                f"slopes up to ||Delta||_2 + |c| = {bound:.4g} exceed the {enc.shift} window's readout "
                f"range {enc.readout_range():.4g} at W = {enc.W:g}, m = {enc.m}; use W >= {bound / scale:.4g}"
            )
        floor = np.sqrt(2.0 * eps) * enc.W if enc.m == 1 else 0.0
        if 0.0 < tol < floor:
            raise RoundingFloor(f"W = {enc.W:g} puts the m = 1 read's rounding floor sqrt(2 eps) W = {floor:.3g} "
                                f"above {ROUNDING_RTOL:g} * (||Delta||_2 + |c|) = {tol:.3g}; "
                                f"use W <= {enc.W * tol / floor:.4g}")
        floor = enc.deviation_dim * eps * x_norm / enc.L if x_norm is not None else 0.0
        if 0.0 < tol < floor:
            raise RoundingFloor(f"L = {enc.L:g} puts the dense family's rounding floor M eps ||X||_F / L = "
                                f"{floor:.3g} above {ROUNDING_RTOL:g} * (||Delta||_2 + |c|) = {tol:.3g}; "
                                f"use L >= {enc.L * floor / tol:.4g}")


def _read_slopes(family, columns: np.ndarray, enc: GradientEncoding, identity_shift) -> np.ndarray:
    """Shifted slopes of the prepared ``columns`` in the window ``enc``, (B,)
    for one family or (J, B) for a stack of J, read in one pass: one probe
    circuit per column, conditioned on the prepared column, with the
    identity shift c (one per probe of a stack) applied as the deviation
    phase exp(i t s(eps) c) that c*I puts on state eps.  The caller averages
    the windows and subtracts c."""
    shift = np.asarray(identity_shift, dtype=float)
    phases = np.exp(1j * enc.time_step() * enc.offsets() * shift[..., None])
    return readout_gradients(probe_distributions(family, columns, deviation_phases=phases), enc)


# The last probe oracle built: direction -> (encoding, copy of X, family), at most one entry,
# released with its direction, so a caller that keeps many directions holds one family.
_oracle = weakref.WeakKeyDictionary()


def _probe_family(x, delta: PerturbationDirection, enc: GradientEncoding) -> sv.ControlledFamily:
    """The dense family exp(i t (X + s Delta)) of ``enc``'s window.

    The last one built is reused when the call is along the same direction
    (which cannot change), in an equal encoding, and on an X bitwise equal
    to the copy it was built from and validated on (a caller may change X in
    place): the family was checked when it was built, and its factors are
    read-only.  Otherwise it is released before the build, so that two are
    never alive at once (in one thread; concurrent callers may hold more,
    but never read one built from other inputs).
    """
    x = np.array(x, dtype=complex)  # a copy: the build validates it, and later calls compare against it
    held = _oracle.get(delta)
    if held is not None and held[0] == enc and held[1].shape == x.shape and held[1].tobytes() == x.tobytes():
        return held[2]
    del held
    _oracle.clear()
    family = evolution_family(x, delta, enc)
    _oracle[delta] = (enc, x, family)
    return family


def eigenvalue_gradient_probes(x, vectors, delta: PerturbationDirection, enc: GradientEncoding,
                               identity_shift: float = 0.0) -> np.ndarray:
    """Probed directional eigenvalue derivatives, one per eigenvector column
    of ``vectors`` (N, B), from one batched circuit over the dense family
    exp(i t (X + s Delta)).

    Runs the circuits with the deviation register conditioned back on the
    prepared eigenvectors.  ``identity_shift`` c probes Delta + c*I and
    subtracts c, recovering the sign of slopes in [-c, c].  Raises
    AliasedReadout when ||Delta||_2 + |c| exceeds the window's readout
    range, and RoundingFloor when W or L puts its rounding floor above
    ROUNDING_RTOL of that bound (L's once X is validated).  Consecutive calls
    on the same X, direction and encoding build the family once (see
    :func:`_probe_family`).
    """
    require_register_dimension(len(vectors))
    bound = delta.norm + abs(identity_shift)
    _require_readable(bound, (enc,))
    family = _probe_family(x, delta, enc)  # which validates x
    _require_readable(bound, (enc,), float(np.linalg.norm(x)))  # ||X||_F >= ||X||_2
    return _read_slopes(family, np.asarray(vectors, dtype=complex), enc, identity_shift) - identity_shift


def eigenvalue_gradient_probe(x, p_vec, delta: PerturbationDirection, enc: GradientEncoding,
                              identity_shift: float = 0.0) -> float:
    """Probed directional eigenvalue derivative for one eigenvector: the
    one-column case of :func:`eigenvalue_gradient_probes`."""
    columns = np.asarray(p_vec, dtype=complex)[:, None]
    return float(eigenvalue_gradient_probes(x, columns, delta, enc, identity_shift=identity_shift)[0])


def adapt_degenerate_eigenvectors(spectrum: Spectrum, delta: PerturbationDirection,
                                  l_value: float) -> tuple[np.ndarray, np.ndarray]:
    """Rotate eigenvector clusters so Delta is diagonal inside each degenerate
    (or nearly degenerate at the probe scale) eigenspace.

    Within a cluster whose internal gaps are below the perturbation reach
    4 L ||Delta||_2 (:meth:`Spectrum.clusters`), the perturbed eigenvectors
    re-sort along Delta's internal eigendirections, so probing an unadapted
    basis vector reads a phase mixture.  Standard degenerate perturbation
    theory: diagonalizing the restriction of Delta fixes the basis the
    probes need.  Returns the rotated vectors and their residuals,
    recomputed for rotated columns only, in copies; with no cluster it
    returns the spectrum's own ``vectors`` and ``residuals``, so callers
    must not write to what it returns.
    """
    clusters = spectrum.clusters(4.0 * l_value * delta.norm)
    if not clusters:
        return spectrum.vectors, spectrum.residuals
    vectors, residuals, matrix = spectrum.vectors.copy(), spectrum.residuals.copy(), delta.matrix
    for idx in clusters:
        basis = vectors[:, idx]
        restricted = basis.conj().T @ matrix @ basis
        _, rot = np.linalg.eigh((restricted + restricted.conj().T) / 2)
        vectors[:, idx] = basis @ rot
        residuals[idx] = eigen_residuals(spectrum.x, spectrum.values[idx], vectors[:, idx])
    return vectors, residuals


def _probe_pairs(spectrum: Spectrum, probes, pairs, windows: int = 1, k: int | None = None):
    """The one probe pass: per (direction, encoding) of ``probes``, adapts
    degenerate clusters and reads the slopes of the pairs at the indices
    ``pairs``, unshifted for outer(phi) (slopes |<p|phi>|^2 >= 0), shifted
    by ||Delta||_2 otherwise, averaged over the encoding's window and, at 2
    ``windows``, the other one.  Every direction, readout range, rounding
    floor, family size and, given ``k``, cut (no cluster of the adaptation
    split by k) is checked before any family is built.  Returns the
    (probes, pairs) slopes deltaE_p and adapted residuals.

    The direction alone picks the family: ``custom`` matrices run the dense
    family exp(i t (X + s Delta)); factors F run :func:`eigenbasis_families`
    of Theta = diag(values) and U^dag F, one call per signs pattern and
    window, in the basis U of the adapted pairs (any count: each resolve
    checks N), whose first-order read is exactly <u_p|Delta|u_p>.  At m = 1
    a slope is within L ||Delta||_2 (1 + eta)^2 ||Delta||_2 (1 + W L / g_p)
    / g_p + 4 sqrt(2 eps) W of it, eta = ||U^dag U - I||_2 and g_p the gap
    from E_p to the values outside its cluster.  Theta stands in for U^dag X U, off
    by D = U^dag R + (U^dag U - I) Theta, R the residual columns, which could
    move a read about 2 (1 + eta) ||Delta||_2 ||D||_2 / g_p more.
    """
    x, values = spectrum.x, spectrum.values
    # one pass checks, adapts and keeps what the circuits need; they all run after it
    shifts, residuals, dense = [], [], []  # dense: per custom probe, (index, windows, probed columns, direction)
    in_eigenbasis = {}  # (signs, window) -> [(probe index, window index, coupling U^dag F)]
    for j, (delta, enc) in enumerate(probes):
        if not isinstance(delta, PerturbationDirection):
            raise TypeError(f"direction {j} is a {type(delta).__name__}, not a PerturbationDirection; "
                            f"wrap a hermitian matrix as build_delta(\"custom\", n, matrix=...)")
        if delta.dim != len(x):
            raise ValueError(f"direction {j} has dimension {delta.dim}, expected {len(x)}")
        shift = 0.0 if delta.kind == "outer" else delta.norm
        encodings = (enc, replace(enc, shift="centered" if enc.shift == "unshifted" else "unshifted"))[:windows]
        _require_readable(delta.norm + shift, encodings, spectrum.x_norm if delta.factors is None else None)
        for window in encodings:
            _require_family_size(window, len(x) if delta.factors is None else len(values))
        if k is not None:
            spectrum.require_whole_clusters(k, 4.0 * enc.L * delta.norm)
        adapted, adapted_residuals = adapt_degenerate_eigenvectors(spectrum, delta, enc.L)
        residuals.append(adapted_residuals[pairs])
        shifts.append(shift)
        if delta.factors is None:
            dense.append((j, encodings, adapted[:, pairs], delta))
        else:
            coupling = (delta.factors.conj().T @ adapted).conj().T
            for w, window in enumerate(encodings):
                in_eigenbasis.setdefault((delta.signs, window), []).append((j, w, coupling))
        del adapted  # only the probed columns or the couplings outlive the pass

    # each slope is its windows' mean read less the shift
    shifts = np.array(shifts)
    reads = np.empty((len(shifts), windows, len(pairs)))
    for j, encodings, probed, delta in dense:
        for w, window in enumerate(encodings):
            reads[j, w] = _read_slopes(evolution_family(x, delta, window), probed, window, shifts[j])
    columns = np.eye(len(values), dtype=complex)[:, pairs]
    for (signs, window), members in in_eigenbasis.items():
        rows, w, couplings = zip(*members)
        rows, w = np.array(rows), np.array(w)
        for part, family in eigenbasis_families(values, signs, couplings, window):
            reads[rows[part], w[part]] = _read_slopes(family, columns, window, shifts[rows[part]])
    slopes = reads.mean(axis=1) - shifts[:, None]
    return slopes, np.reshape(residuals, slopes.shape)


def _probe_relevant_eigenpairs(spectrum: Spectrum, probes, k: int, symmetric: bool = False):
    """The log-det core on the one resolve of X of a public query: the k
    most relevant pairs (:meth:`Spectrum.select`: rank, pseudo-inverse mask
    and residuals), their :func:`_probe_pairs` pass, in both windows when
    ``symmetric``, and their sum.  Returns the used eigenvalues (|E|
    descending), the skipped ones (a list), the slopes and residuals of the
    pass, and the totals sum_p deltaE_p / E_p as a running sum in |E| order."""
    used, skipped = spectrum.select(k)
    slopes, residuals = _probe_pairs(spectrum, probes, used, 2 if symmetric else 1, k)
    # + 0.0: a sum from 0.0, as a loop would give it, so a zero total is never -0.0
    totals = np.cumsum(slopes / spectrum.values[used], axis=1)[:, -1] + 0.0
    return spectrum.values[used], skipped, slopes, residuals, totals


def qgld_expectation_sweep(request: InverseExpectationRequest, l_values,
                           with_classical_reference: bool = False) -> list[InverseExpectationReport]:
    """Per-eigenvector pipeline at each linearization length of ``l_values``
    (``request.enc`` with L replaced), one report per value, from one
    validation, one eigenpair resolve and at most one classical reference.

    Only the degenerate-cluster adaptation and the probe families depend on
    L, so each report equals the single-L :func:`qgld_expectation` run bit for
    bit.  The outer-product direction makes every deltaE_p = |<p|phi>|^2 >= 0,
    so the magnitude readout is already signed; eigenvalue signs enter through
    the classical 1/E_p weights.
    """
    encodings = [replace(request.enc, L=float(l_value)) for l_value in l_values]

    def probes():  # read after the core checks X and k, so phi is checked (and named) on X's dimension
        outer = build_delta("outer", len(request.x), phi=request.phi)
        yield from ((outer, enc) for enc in encodings)

    values, skipped, slopes, residuals, totals = _probe_relevant_eigenpairs(
        request.eigensource.resolve(request.x), probes(), request.k)
    reference = classical_reference_expectation(request.x, request.phi) if with_classical_reference else None
    for array in (values, slopes, residuals):
        array.flags.writeable = False  # so that no report can alter another's rows
    return [InverseExpectationReport(values, row, row_residuals, total, reference, tuple(skipped))
            for row, row_residuals, total in zip(slopes, residuals, totals.tolist())]


def qgld_expectation(request: InverseExpectationRequest,
                     with_classical_reference: bool = False) -> InverseExpectationReport:
    """Per-eigenvector pipeline, sum_p deltaE_p / E_p along the outer-product
    direction of phi: the one-L case of :func:`qgld_expectation_sweep`."""
    return qgld_expectation_sweep(request, [request.enc.L], with_classical_reference)[0]


def logdet_directional_derivatives(x, deltas, k: int, enc: GradientEncoding = GradientEncoding(),
                                   eigensource: DenseSource | RqblSource = DenseSource(),
                                   symmetric: bool = False) -> list[float]:
    """Directional derivatives d/ds log det(X + s*Delta) at s = 0 along each
    PerturbationDirection of the iterable ``deltas`` (whose factors let a
    dense resolve probe it in the eigenbasis), read as sum_p deltaE_p / E_p
    over the k most relevant eigenpairs of one eigendecomposition.  At k = N
    and L -> 0 each converges to tr(X^-1 Delta).  Raises TypeError for a
    direction that is not a PerturbationDirection (wrap a hermitian matrix
    with ``build_delta("custom", ...)``)."""
    probes = ((delta, enc) for delta in deltas)
    return _probe_relevant_eigenpairs(eigensource.resolve(x), probes, k, symmetric)[4].tolist()


def logdet_gradient_entry(x, i: int, j: int, k: int, enc: GradientEncoding = GradientEncoding(),
                          eigensource: DenseSource | RqblSource = DenseSource()) -> float:
    """Entry of the log-determinant gradient: the directional derivative along
    ones at (i, j) and (j, i), zero-based.  At k = N and L -> 0 this converges
    to (X^-1)_ij + (X^-1)_ji for i != j and (X^-1)_ii on the diagonal."""
    delta = build_delta("element", as_complex_matrix(x).shape[0], i=i, j=j)
    return logdet_directional_derivatives(x, [delta], k, enc, eigensource)[0]


def classical_reference_expectation(x, phi) -> float:
    """Ground truth <phi| X^-1 |phi> through the LU inverse."""
    phi = np.asarray(phi, dtype=complex)
    value = complex(phi.conj() @ inverse(x) @ phi)  # inverse validates x
    if abs(value.imag) > 1e-10 * max(1.0, abs(value.real)):
        raise ValueError(f"expectation has imaginary part {value.imag:.3e}")
    return float(value.real)


# ---------------------------------------------------------------------------
# superposition pipeline

def _signed_phases(family: sv.ControlledFamily, columns: np.ndarray) -> np.ndarray:
    """Signed phase of each column's conditional deviation-register amplitude.

    Runs the single-deviation-qubit circuit on every column twice, in one
    batch: once as-is and once with a quarter-wave phase diag(1, -i) on the
    deviation qubit (its X- and Y-basis readings), both conditioned on the
    system register returning to the prepared column.  atan2 of the two
    population differences recovers the signed phase without the arccos sign
    loss.
    """
    b = columns.shape[1]
    phases = np.ones((2, 2 * b), dtype=complex)
    phases[1, b:] = -1j
    dist = probe_distributions(family, np.concatenate([columns, columns], axis=1), deviation_phases=phases)
    quadratures = dist[0] - dist[1]
    return np.arctan2(quadratures[b:], quadratures[:b])


def _scaled_phase_family(weights: np.ndarray, w_run: float) -> sv.ControlledFamily:
    """Family Sum_p |p><p| exp(i t s(eps) weight_p) in the eigenbasis of X,
    two diagonal slots: each member is its N phases.  Conjugated by the
    eigenvectors V it equals exp(i t (X + s V diag(weights) V^dag)) exp(-i t X),
    whose bare eigenphases exp(i t E_p) cancel exactly, so they are never formed.
    The s = 0 member is ones(N), the identity."""
    enc = GradientEncoding(L=1e-6, W=w_run, m=1)
    phases = np.exp(1j * enc.time_step() * enc.offsets()[1] * weights)
    return sv.ControlledFamily(np.stack([np.ones(len(weights), dtype=complex), phases]))


def _superposition_weights(x, phi):
    """One resolve of X with the per-eigenstate derivative weights
    <p|outer(phi)|p>, raw and divided by E_p, both zero on eigenvalues under
    the pseudo-inverse threshold.  Raises UnnormalizedPhi unless ||phi|| = 1
    within 1e-10, the bound of the outer-product direction."""
    spectrum = DenseSource().resolve(x)
    phi = require_unit_weight_vector(phi, len(spectrum.values))
    overlaps = np.abs(spectrum.vectors.conj().T @ phi) ** 2
    usable = spectrum.usable
    if not np.any(usable):
        raise NearZeroEigenvalue("all eigenvalues below the pseudo-inverse threshold")
    raw = np.where(usable, overlaps, 0.0)
    return spectrum, raw, np.divide(raw, spectrum.values, out=np.zeros_like(raw), where=usable)


def _superposition_family(weights: np.ndarray) -> tuple:
    """The family of one superposition read and its probe scale w = max(1,
    SUPERPOSITION_ZOOM * max |w_p|).  Its phase is about max |w_p| / w, so its
    rounding (about 2 eps) puts a floor of N * w * 2 eps in the total: a
    relative 2e4 * N * eps of max |w_p|."""
    w_run = max(1.0, SUPERPOSITION_ZOOM * float(np.max(np.abs(weights))))
    return _scaled_phase_family(weights, w_run), w_run


def sigma_qgld_expectation(x, phi) -> float:
    """Superposition pipeline: a single probe on the equal superposition of all
    eigenvectors, with the perturbation rescaled per eigenstate by 1/E_p.

    The circuit runs in the eigenbasis of X, where the equal superposition
    is the uniform column and each family member is diagonal: eigenstate p
    picks up only the phase eps * weight_p / w that the perturbed evolution
    composed with the inverse evolution exp(-i t X) would leave.  The
    conditioned readout <c|U|c> does not depend on the basis.  The probe
    scale w of :func:`_superposition_family` sits far above max |weight|,
    pushing every phase into the regime where the coherent average of the
    per-eigenstate phases equals their mean; N * w * phase then returns
    sum_p deltaE_p / E_p directly.
    """
    spectrum, _, weights = _superposition_weights(x, phi)
    n = len(spectrum.values)
    family, w_run = _superposition_family(weights)
    # V^dag psi for psi = sum_p |p> / sqrt(N): the uniform column of the eigenbasis
    uniform = np.full((n, 1), 1.0 / np.sqrt(n), dtype=complex)
    phase = float(_signed_phases(family, uniform)[0])
    return float(n * w_run * phase)


def sampled_qgld(x, phi, n_samples: int, rng_seed: int) -> tuple[float, float]:
    """Superposition pipeline averaged over random orthonormal starting states.

    Samples are the columns of random orthonormal (QR) batches, each batch
    rotated once into the eigenbasis of X, where the families are diagonal,
    and run as the columns of one batched circuit per family.  Each sample runs
    two probes on a random state |r>: one with the 1/E_p-rescaled weights
    and one with the raw weights.  Their ratio is a self-normalized estimate
    of <Y> (the raw weights integrate to tr of the outer direction, which is
    1), so a full orthonormal batch averages exactly and the identity matrix
    gives 1.0 per sample.  Returns (mean, sample
    standard deviation); convergence over few samples is not promised.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    spectrum, raw, scaled = _superposition_weights(x, phi)
    n = len(spectrum.values)
    family_num, w_num = _superposition_family(scaled)
    family_den, w_den = _superposition_family(raw)

    rng = np.random.default_rng(rng_seed)
    estimates = []
    for start in range(0, n_samples, n):
        gauss = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        q, _ = np.linalg.qr(gauss)
        batch = spectrum.vectors.conj().T @ q[:, :min(n, n_samples - start)]  # in the eigenbasis
        numer = n * w_num * _signed_phases(family_num, batch)
        denom = n * w_den * _signed_phases(family_den, batch)
        for num, den in zip(numer.tolist(), denom.tolist()):
            estimates.append(num / den if abs(den) > 1e-12 else 0.0)
    estimates = np.asarray(estimates)
    spread = float(np.std(estimates, ddof=1)) if n_samples > 1 else 0.0
    return float(np.mean(estimates)), spread
