"""Inverse expectation values assembled from eigenvalue-gradient probes.

The directional derivative of log det X along Delta is tr(X^-1 Delta):
summing the per-eigenvalue derivatives weighted by 1/E_p gives, at full rank,
the matrix element of X^-1 selected by the perturbation direction.  This
module runs one probe circuit per eigenpair (per-eigenvector pipeline), all
of them as the columns of one batched circuit per deviation window, or a
single run on an equal superposition of eigenvectors with the perturbation
rescaled by 1/E_p per eigenstate (superposition pipeline, whose controlled
family is diagonal in the eigenbasis of X and built there), and cross-checks
both against the direct classical evaluation.  With the dense eigenpair
source, the per-eigenvector circuits of a low-rank direction also run in the
eigenbasis of X, their families from the secular equation.

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
from .linalg import (
    as_complex_matrix,
    eig_hermitian,
    eigen_residuals,
    inverse,
    relevance_order,
    require_hermitian,
)
from .qgpe import (
    GradientEncoding,
    PerturbationDirection,
    build_delta,
    eigenbasis_families,
    evolution_family,
    probe_distributions,
    readout_gradients,
    require_unit_weight_vector,
)
from .lanczos import run_rqbl

PSEUDO_INVERSE_RTOL = 1e-10
EIGEN_RESIDUAL_RTOL = 1e-6
SUPERPOSITION_ZOOM = 1e4
SUPERPOSITION_ATOL = 2e-4  # the superposition total's promised accuracy


# ---------------------------------------------------------------------------
# eigenpair sources: each one's resolve validates the matrix it is given

@dataclass(frozen=True)
class DenseSource:
    """All eigenpairs from the dense solver."""

    def resolve(self, x: np.ndarray):
        dec = eig_hermitian(x)  # which validates x
        return dec.values, dec.vectors, eigen_residuals(x, dec.values, dec.vectors)


@dataclass(frozen=True)
class RqblSource:
    """Ritz pairs from the randomized block Lanczos run."""

    b: int
    seed: int
    steps: int | None = None

    def resolve(self, x: np.ndarray):
        # x, b and the steps (None: N // b) are validated by build_factorization, before any step
        sol = run_rqbl(x, self.b, self.steps, self.seed)
        return sol.values, sol.vectors, sol.residuals


# ---------------------------------------------------------------------------
# request / report types

@dataclass(frozen=True)
class InverseExpectationRequest:
    x: np.ndarray
    phi: np.ndarray
    k: int
    enc: GradientEncoding = GradientEncoding()
    eigensource: DenseSource | RqblSource = DenseSource()

    def __post_init__(self):
        x = require_hermitian(self.x)
        if not 1 <= self.k <= x.shape[0]:
            raise ValueError(f"k = {self.k} outside [1, {x.shape[0]}]")
        require_unit_weight_vector(self.phi, x.shape[0])


@dataclass(frozen=True)
class EigenContribution:
    """One eigenvalue's share: raw probed gradient and its 1/E_p weighted value."""

    eigenvalue: float
    delta_e: float
    value: float


@dataclass(frozen=True)
class InverseExpectationReport:
    contributions: tuple
    total: float
    classical_reference: float | None
    residuals: tuple
    skipped: tuple = ()

    def to_dict(self) -> dict:
        return {
            "contributions": [
                {"E_p": c.eigenvalue, "deltaE_p": c.delta_e, "Yp": c.value}
                for c in self.contributions
            ],
            "total": self.total,
            "classical_reference": self.classical_reference,
            "residuals": list(self.residuals),
            "skipped_eigenvalues": list(self.skipped),
        }


# ---------------------------------------------------------------------------
# probes

def _windows(enc: GradientEncoding, symmetric: bool) -> tuple[GradientEncoding, ...]:
    """``enc``, and with ``symmetric`` the same encoding in the other window."""
    if not symmetric:
        return (enc,)
    return enc, replace(enc, shift="centered" if enc.shift == "unshifted" else "unshifted")


def _require_readout_range(bound: float, encodings) -> None:
    """Raise AliasedReadout, before any circuit runs, when ``bound`` on the
    probed |slope| (||Delta||_2 + |c|) exceeds a window's readout range."""
    for enc in encodings:
        if bound > enc.readout_range():
            scale = enc.readout_range() / enc.W
            raise AliasedReadout(
                f"slopes up to ||Delta||_2 + |c| = {bound:.4g} exceed the {enc.shift} window's readout "
                f"range {enc.readout_range():.4g} at W = {enc.W:g}, m = {enc.m}; use W >= {bound / scale:.4g}"
            )


def _read_slopes(families, columns: np.ndarray, encodings, identity_shift: float) -> np.ndarray:
    """Slopes of the prepared ``columns``, one probe circuit per column and
    window, read conditioned on the prepared column and averaged over the
    windows.  The identity shift c is the phase exp(i t s(eps) c) that c*I
    puts on deviation state eps; it is subtracted after readout."""
    grads = []
    for family, enc in zip(families, encodings):
        shift_phases = np.exp(1j * enc.time_step() * enc.offsets() * identity_shift)
        grads.append(readout_gradients(probe_distributions(family, columns, deviation_phases=shift_phases), enc))
    return np.mean(grads, axis=0) - identity_shift


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
    range.  Consecutive calls on the same X, direction and encoding build
    the family once (see :func:`_probe_family`).
    """
    _require_readout_range(delta.spectral_norm() + abs(identity_shift), (enc,))
    family = _probe_family(x, delta, enc)
    return _read_slopes([family], np.asarray(vectors, dtype=complex), (enc,), identity_shift)


def eigenvalue_gradient_probe(x, p_vec, delta: PerturbationDirection, enc: GradientEncoding,
                              identity_shift: float = 0.0) -> float:
    """Probed directional eigenvalue derivative for one eigenvector: the
    one-column case of :func:`eigenvalue_gradient_probes`."""
    columns = np.asarray(p_vec, dtype=complex)[:, None]
    return float(eigenvalue_gradient_probes(x, columns, delta, enc, identity_shift=identity_shift)[0])


def adapt_degenerate_eigenvectors(x, values: np.ndarray, vectors: np.ndarray, residuals: np.ndarray,
                                  delta_matrix: np.ndarray, l_value: float,
                                  delta_norm: float) -> tuple[np.ndarray, np.ndarray]:
    """Rotate eigenvector clusters so Delta is diagonal inside each degenerate
    (or nearly degenerate at the probe scale) eigenspace.

    Within a cluster whose internal gaps are below the perturbation reach
    ~L*||Delta||_2 (``delta_norm``), the perturbed eigenvectors re-sort along
    Delta's internal eigendirections, so probing an unadapted basis vector
    reads a phase mixture.  Standard degenerate perturbation theory:
    diagonalizing the restriction of Delta fixes the basis the probes need.
    Returns rotated vectors and residuals, recomputed for rotated columns only.
    """
    tol = max(1e-8 * float(np.linalg.norm(x)), 4.0 * l_value * delta_norm)
    vectors, residuals = vectors.copy(), np.array(residuals, dtype=float)
    order = np.argsort(values, kind="stable")
    start = 0
    sorted_values = values[order]
    while start < len(order):
        stop = start + 1
        while stop < len(order) and sorted_values[stop] - sorted_values[stop - 1] <= tol:
            stop += 1
        if stop - start > 1:
            idx = order[start:stop]
            basis = vectors[:, idx]
            restricted = basis.conj().T @ delta_matrix @ basis
            _, rot = np.linalg.eigh((restricted + restricted.conj().T) / 2)
            vectors[:, idx] = basis @ rot
            residuals[idx] = eigen_residuals(x, values[idx], vectors[:, idx])
        start = stop
    return vectors, residuals


def _relevant_eigenpairs(x, k: int, eigensource):
    """Eigenpairs and their residuals from ``eigensource``, the indices of the
    k most relevant (``relevance_order``) and the eigenvalues skipped under
    the pseudo-inverse threshold.  Raises when k is outside [1, pairs
    resolved], and when a used pair's eigen-residual exceeds
    EIGEN_RESIDUAL_RTOL * ||X||_F, since its probe would read a wrong slope."""
    values, vectors, residuals = eigensource.resolve(x)
    if not 1 <= k <= len(values):
        raise ValueError(f"k = {k} outside [1, {len(values)}], the eigenpairs resolved")
    x_norm = float(np.linalg.norm(x))
    order = relevance_order(values)[:k]
    threshold = PSEUDO_INVERSE_RTOL * max(x_norm, 1e-300)
    used = [int(i) for i in order if abs(values[i]) > threshold]
    skipped = [float(values[i]) for i in order if abs(values[i]) <= threshold]
    if not used:
        raise NearZeroEigenvalue("every requested eigenvalue is below the pseudo-inverse threshold")
    bad = [i for i in used if residuals[i] > EIGEN_RESIDUAL_RTOL * x_norm]
    if bad:
        raise ValueError(
            f"eigensource residual {max(residuals[i] for i in bad):.3e} exceeds "
            f"{EIGEN_RESIDUAL_RTOL:.0e} * ||X||_F; increase Lanczos steps"
        )
    return values, vectors, residuals, used, skipped


def _probe_relevant_eigenpairs(x, probes, k: int, eigensource, symmetric: bool = False):
    """The one resolve-then-probe path of the log-det queries: validates X
    (in the eigenpair source's resolve) and resolves its k most relevant
    eigenpairs once, then per (direction, encoding) pair of ``probes`` adapts
    degenerate clusters and probes the used pairs, unshifted for outer(phi)
    (slopes |<p|phi>|^2 >= 0) and shifted by ||Delta||_2 otherwise.  Every
    readout range is checked before any circuit runs.  Returns the used
    eigenvalues (|E| descending), the skipped ones and, per pair, (slopes,
    adapted residuals, sum_p deltaE_p / E_p summed in |E| order).

    With a DenseSource, a direction that carries factors is probed in the
    eigenbasis V of the resolve: each used eigenvector is a unit column, and
    the families are :func:`eigenbasis_families` of Lambda = diag(values)
    and the couplings V^dag F, built for all such probes in one batch per
    signs pattern.  Inside an adapted cluster V^dag X V is replaced by
    diag(values); the dropped part is at most the cluster's width, below
    the adaptation tolerance.  Full-rank directions, and Ritz pairs of an
    RqblSource (no full eigenbasis), run the dense family on the adapted
    vectors.
    """
    x = np.asarray(x, dtype=complex)  # validated by the resolve, before any other use
    values, vectors, resolved_residuals, used, skipped = _relevant_eigenpairs(x, k, eigensource)
    used_values = [float(values[i]) for i in used]
    # one pass checks, adapts and keeps what the circuits need; they all run after it
    plans, dense, residuals = [], [], []  # per probe: (windows, shift), dense-family job or None
    in_eigenbasis = {}  # signs -> [(probe index, coupling V^dag F)]
    for j, (delta, enc) in enumerate(probes):
        norm = delta.spectral_norm()
        shift = 0.0 if delta.kind == "outer" else norm
        encodings = _windows(enc, symmetric)
        _require_readout_range(norm + shift, encodings)
        plans.append((encodings, shift))
        adapted, adapted_residuals = adapt_degenerate_eigenvectors(x, values, vectors, resolved_residuals,
                                                                   delta.matrix, enc.L, norm)
        residuals.append([float(adapted_residuals[i]) for i in used])
        if delta.factors is not None and isinstance(eigensource, DenseSource):
            in_eigenbasis.setdefault(delta.signs, []).append((j, (delta.factors.conj().T @ adapted).conj().T))
            dense.append(None)
        else:
            dense.append((adapted[:, used], delta))
        del adapted  # only the used columns or the couplings outlive the pass

    slopes = [None if job is None else
              _read_slopes([evolution_family(x, job[1], enc_w) for enc_w in encodings], job[0], encodings, shift)
              for job, (encodings, shift) in zip(dense, plans)]
    columns = np.eye(len(values), dtype=complex)[:, used]
    for signs, couplings in in_eigenbasis.items():
        families = eigenbasis_families(values, signs, [(coupling, enc_w)
                                                       for j, coupling in couplings for enc_w in plans[j][0]])
        for j, _ in couplings:
            encodings, shift = plans[j]
            slopes[j] = _read_slopes([next(families) for _ in encodings], columns, encodings, shift)

    probed = []
    for slope, residual in zip(slopes, residuals):
        total = 0.0
        for value, s in zip(used_values, slope.tolist()):
            total += s / value
        probed.append((slope.tolist(), residual, total))
    return used_values, skipped, probed


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
    phi = np.asarray(request.phi, dtype=complex)
    outer = build_delta("outer", len(phi), phi=phi)
    encodings = [replace(request.enc, L=float(l_value)) for l_value in l_values]
    values, skipped, probed = _probe_relevant_eigenpairs(
        request.x, [(outer, enc) for enc in encodings], request.k, request.eigensource)
    reference = classical_reference_expectation(request.x, phi) if with_classical_reference else None
    return [
        InverseExpectationReport(
            contributions=tuple(EigenContribution(eigenvalue=e, delta_e=s, value=s / e)
                                for e, s in zip(values, slopes)),
            total=total,
            classical_reference=reference,
            residuals=tuple(residuals),
            skipped=tuple(skipped),
        )
        for slopes, residuals, total in probed
    ]


def qgld_expectation(request: InverseExpectationRequest,
                     with_classical_reference: bool = False) -> InverseExpectationReport:
    """Per-eigenvector pipeline: one probe per relevant eigenpair with the
    outer-product direction of phi, accumulated as sum_p deltaE_p / E_p; the
    one-L case of :func:`qgld_expectation_sweep`."""
    return qgld_expectation_sweep(request, [request.enc.L], with_classical_reference)[0]


def logdet_directional_derivatives(x, deltas, k: int, enc: GradientEncoding = GradientEncoding(),
                                   eigensource: DenseSource | RqblSource = DenseSource(),
                                   symmetric: bool = False) -> list[float]:
    """Directional derivatives d/ds log det(X + s*Delta) at s = 0 along each
    direction of the iterable ``deltas`` (hermitian matrices, or
    PerturbationDirections, whose factors let a dense resolve probe them in
    the eigenbasis), taken one at a time, read as sum_p deltaE_p / E_p over
    the k most relevant eigenpairs of one eigendecomposition.  At k = N and
    L -> 0 each converges to tr(X^-1 Delta)."""
    n = as_complex_matrix(x).shape[0]

    def direction(delta):
        if not isinstance(delta, PerturbationDirection):
            return build_delta("custom", n, matrix=delta)
        if delta.dim != n:
            raise ValueError(f"direction has dimension {delta.dim}, expected {n}")
        return delta

    probes = ((direction(delta), enc) for delta in deltas)
    return [total for _, _, total in _probe_relevant_eigenpairs(x, probes, k, eigensource, symmetric)[2]]


def logdet_gradient_entry(x, i: int, j: int, k: int, enc: GradientEncoding = GradientEncoding(),
                          eigensource: DenseSource | RqblSource = DenseSource()) -> float:
    """Entry of the log-determinant gradient: the directional derivative along
    ones at (i, j) and (j, i), zero-based.  At k = N and L -> 0 this converges
    to (X^-1)_ij + (X^-1)_ji for i != j and (X^-1)_ii on the diagonal."""
    delta = build_delta("element", as_complex_matrix(x).shape[0], i=i, j=j)
    return logdet_directional_derivatives(x, [delta], k, enc, eigensource)[0]


def classical_reference_expectation(x, phi) -> float:
    """Ground truth <phi| X^-1 |phi> through the LU inverse."""
    x = np.asarray(x, dtype=complex)
    phi = np.asarray(phi, dtype=complex)
    value = complex(phi.conj() @ inverse(x) @ phi)
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
    """One eigendecomposition of X with the per-eigenstate derivative weights
    <p|outer(phi)|p>, raw and divided by E_p, both zero on eigenvalues under
    the pseudo-inverse threshold.  Raises UnnormalizedPhi unless ||phi|| = 1
    within 1e-10, the bound of the outer-product direction."""
    dec = eig_hermitian(x)
    phi = require_unit_weight_vector(phi, dec.dim)
    overlaps = np.abs(dec.vectors.conj().T @ phi) ** 2
    threshold = PSEUDO_INVERSE_RTOL * max(float(np.linalg.norm(x)), 1e-300)
    usable = np.abs(dec.values) > threshold
    if not np.any(usable):
        raise NearZeroEigenvalue("all eigenvalues below the pseudo-inverse threshold")
    raw = np.where(usable, overlaps, 0.0)
    scaled = raw.copy()
    scaled[usable] = overlaps[usable] / dec.values[usable]
    return dec, raw, scaled


def _probe_scales(enc: GradientEncoding, n: int, *weights) -> list[float]:
    """The probe scale max(W, SUPERPOSITION_ZOOM * max |w_p|) of each
    superposition read, one per weight vector of ``weights``, on N = ``n``
    eigenstates.  A read's phase is about max |w_p| / scale, so its rounding
    (about 2 eps) puts a floor of N * scale * 2 eps in the total; at the
    zoom scale that floor is a relative 2e4 * N * eps of max |w_p|.  Raises
    RoundingFloor, before any circuit runs, when W sets a scale whose floor
    exceeds SUPERPOSITION_ATOL, naming the largest W that meets it."""
    eps = float(np.finfo(float).eps)
    zooms = [SUPERPOSITION_ZOOM * float(np.max(np.abs(w))) for w in weights]
    w_max = min(max(zoom, SUPERPOSITION_ATOL / (2.0 * eps * n)) for zoom in zooms)
    if enc.W > w_max:
        raise RoundingFloor(f"W = {enc.W:g} puts the superposition readout's rounding floor N * W * 2 eps = "
                            f"{2.0 * eps * n * enc.W:.3g} above {SUPERPOSITION_ATOL:g}; use W <= {w_max:.4g}")
    return [max(enc.W, zoom) for zoom in zooms]


def sigma_qgld_expectation(x, phi, enc: GradientEncoding = GradientEncoding()) -> float:
    """Superposition pipeline: a single probe on the equal superposition of all
    eigenvectors, with the perturbation rescaled per eigenstate by 1/E_p.

    The circuit runs in the eigenbasis of X, where the equal superposition
    is the uniform column and each family member is diagonal: eigenstate p
    picks up only the phase eps * weight_p / W that the perturbed evolution
    composed with the inverse evolution exp(-i t X) would leave.  The
    conditioned readout <c|U|c> does not depend on the basis.  The probe
    scale W is raised far above max |weight| (factor SUPERPOSITION_ZOOM),
    pushing every phase into the regime where the coherent average of the
    per-eigenstate phases equals their mean; N * W * phase then returns
    sum_p deltaE_p / E_p directly.
    """
    dec, _, weights = _superposition_weights(x, phi)
    if float(np.max(np.abs(weights))) == 0.0:
        return 0.0
    [w_run] = _probe_scales(enc, dec.dim, weights)
    family = _scaled_phase_family(weights, w_run)
    # V^dag psi for psi = sum_p |p> / sqrt(N): the uniform column of the eigenbasis
    uniform = np.full((dec.dim, 1), 1.0 / np.sqrt(dec.dim), dtype=complex)
    phase = float(_signed_phases(family, uniform)[0])
    return float(dec.dim * w_run * phase)


def sampled_qgld(x, phi, n_samples: int, rng_seed: int,
                 enc: GradientEncoding = GradientEncoding()) -> tuple[float, float]:
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
    dec, raw, scaled = _superposition_weights(x, phi)
    n = dec.dim
    w_num, w_den = _probe_scales(enc, n, scaled, raw)
    family_num = _scaled_phase_family(scaled, w_num)
    family_den = _scaled_phase_family(raw, w_den)

    rng = np.random.default_rng(rng_seed)
    estimates = []
    for start in range(0, n_samples, n):
        gauss = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        q, _ = np.linalg.qr(gauss)
        batch = dec.vectors.conj().T @ q[:, :min(n, n_samples - start)]  # in the eigenbasis
        numer = n * w_num * _signed_phases(family_num, batch)
        denom = n * w_den * _signed_phases(family_den, batch)
        for num, den in zip(numer.tolist(), denom.tolist()):
            estimates.append(num / den if abs(den) > 1e-12 else 0.0)
    estimates = np.asarray(estimates)
    spread = float(np.std(estimates, ddof=1)) if n_samples > 1 else 0.0
    return float(np.mean(estimates)), spread
