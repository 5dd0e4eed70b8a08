import json

import numpy as np
import pytest

from qgld.linalg import DEGENERACY_RTOL, eig_hermitian, hellmann_feynman_derivative, require_hermitian

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


CENTRAL_DIFFERENCE_STEP = 1e-5


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
