import numpy as np
import pytest

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


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)
