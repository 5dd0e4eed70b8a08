import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qgld
from qgld import (
    InverseExpectationRequest,
    NonFiniteInput,
    NonHermitianInput,
    RankDeficientBlock,
    SingularMatrix,
    eig_hermitian,
    inverse,
    low_rank_update_eigh,
    orthonormalize_svd,
    qgld_expectation,
    relevance_order,
)
from qgld.linalg import (
    HERMITICITY_RTOL,
    PIVOT_RTOL,
    RESIDUAL_COLUMNS,
    SECULAR_DEFLATION,
    _fix_phases,
    as_complex_matrix,
    eigen_residuals,
    require_hermitian,
)
from qgld.qgpe import build_delta
from conftest import (
    DegenerateEigenvalue,
    HADAMARD,
    SIGMA_X,
    SIGMA_Z,
    degenerate_directional_derivatives,
    directional_eigen_derivative,
    gram_schmidt,
    random_hermitian,
    series_phase_exp,
    unitary_phase_exp,
)


class TestEigHermitian:
    def test_sigma_x_spectrum(self):
        dec = eig_hermitian(SIGMA_X)
        np.testing.assert_allclose(dec.values, [-1.0, 1.0], atol=1e-14)
        minus = np.array([1, -1]) / np.sqrt(2)
        plus = np.array([1, 1]) / np.sqrt(2)
        np.testing.assert_allclose(dec.vectors[:, 0], minus, atol=1e-14)
        np.testing.assert_allclose(dec.vectors[:, 1], plus, atol=1e-14)

    def test_identity(self):
        dec = eig_hermitian(np.eye(4))
        np.testing.assert_allclose(dec.values, np.ones(4), atol=1e-14)

    def test_hadamard_eigenvector(self):
        dec = eig_hermitian(HADAMARD)
        np.testing.assert_allclose(dec.values, [-1.0, 1.0], atol=1e-14)
        h_plus = np.array([np.cos(np.pi / 8), np.sin(np.pi / 8)])
        np.testing.assert_allclose(dec.vectors[:, 1], h_plus, atol=1e-12)

    def test_invariants_random(self, rng):
        for n in (2, 5, 16):
            a = random_hermitian(rng, n, indefinite=True)
            dec = eig_hermitian(a)
            residual = np.linalg.norm(a @ dec.vectors - dec.vectors * dec.values)
            assert residual <= 1e-10 * np.linalg.norm(a)
            gram = dec.vectors.conj().T @ dec.vectors
            assert np.max(np.abs(gram - np.eye(n))) <= 1e-12
            assert np.all(np.diff(dec.values) >= 0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianInput):
            eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_residuals_in_column_blocks_match_one_product(self, rng):
        # trial pairs, not eigenpairs, so every residual is O(1) and a block
        # boundary that dropped or shifted a column would show
        n = 2 * RESIDUAL_COLUMNS + 3
        a = random_hermitian(rng, n, indefinite=True)
        vectors = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        values = rng.standard_normal(n)
        np.testing.assert_allclose(eigen_residuals(a, values, vectors),
                                   np.linalg.norm(a @ vectors - vectors * values, axis=0), rtol=1e-12)

    def test_phase_fix_matches_column_loop(self, rng):
        # complex pivots may round differently in the last bit between the
        # scalar and the array division, hence the eps-sized tolerance
        def column_loop(vectors):
            out = vectors.copy()
            for k in range(out.shape[1]):
                pivot = out[np.argmax(np.abs(out[:, k]) > 1e-8), k]
                if abs(pivot) > 0:
                    out[:, k] *= abs(pivot) / pivot
            return out

        cases = [np.array([[0.0, 1j, 0.0], [0.0, 0.0, -2.0], [0.0, 1.0, 1e-9j]])]
        for n in (2, 5, 16):
            a = random_hermitian(rng, n, indefinite=True)
            block = np.zeros((n + 1, n + 1), dtype=complex)
            block[0, 0] = 7.0  # every other column's pivot lies below the first row
            block[1:, 1:] = a
            q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            paired = (q * np.repeat(np.arange(1.0, n), 2)[:n]) @ q.conj().T
            for x in (a, block, np.diag(rng.integers(0, 3, n)).astype(complex), (paired + paired.conj().T) / 2):
                cases.append(np.linalg.eigh(x)[1])
        for vectors in cases:
            np.testing.assert_allclose(_fix_phases(vectors), column_loop(vectors),
                                       rtol=0, atol=4 * np.finfo(float).eps)


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_rejected_at_entry(self, bad):
        a = np.eye(4, dtype=complex)
        a[1, 2] = bad
        with pytest.raises(NonFiniteInput, match=r"1 non-finite entries.*\(1, 2\)"):
            as_complex_matrix(a)
        with pytest.raises(NonFiniteInput):
            eig_hermitian(a)

    def test_pipeline_rejects_nan_matrix(self):
        x = np.diag([2.0, np.nan]).astype(complex)
        with pytest.raises(NonFiniteInput):
            qgld_expectation(InverseExpectationRequest(x=x, phi=np.array([1.0, 0.0]), k=2))


class TestRequireHermitian:
    @pytest.mark.parametrize("n", [2, 63, 64, 65, 200])
    def test_tiles_read_the_dense_maxima(self, rng, n):
        # the largest entry sits in a middle diagonal tile and the one defect in the lower-left one:
        # the verdict at the exact bound, and the message of a random matrix, are the dense formula's
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a = (g + g.conj().T) / 2  # hermitian bit for bit
        a[n // 2, n // 2], a[0, n - 1], a[n - 1, 0] = 100.0, 0.0, HERMITICITY_RTOL * 100.0
        assert require_hermitian(a) is a
        a[n - 1, 0] = np.nextafter(a[n - 1, 0].real, np.inf)
        message = f"hermiticity defect {a[n - 1, 0].real:.3e} exceeds 1.0e-12 * 1.000e+02"
        with pytest.raises(NonHermitianInput) as raised:
            require_hermitian(a)
        assert str(raised.value) == message
        defect, scale = np.max(np.abs(g - g.conj().T)), np.max(np.abs(g))
        with pytest.raises(NonHermitianInput) as raised:
            require_hermitian(g)
        assert str(raised.value) == f"hermiticity defect {defect:.3e} exceeds {HERMITICITY_RTOL:.1e} * {scale:.3e}"

    def test_transient_under_a_quarter_of_a_full_array(self, rng):
        # the conjugated transpose, the difference and their moduli peaked at 2.13 N x N complex
        n = 256
        a = random_hermitian(rng, n).astype(complex)
        tracemalloc.start()
        try:
            require_hermitian(a)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * n * n * np.dtype(complex).itemsize


class TestUnitaryPhaseExp:
    def test_sigma_z_pi(self):
        np.testing.assert_allclose(unitary_phase_exp(SIGMA_Z, np.pi), -np.eye(2), atol=1e-12)

    def test_identity_case(self):
        np.testing.assert_allclose(
            unitary_phase_exp(np.eye(3), 0.7), np.exp(0.7j) * np.eye(3), atol=1e-12
        )

    def test_sigma_x_quarter_turn_vs_series(self):
        got = unitary_phase_exp(SIGMA_X, np.pi / 2)
        np.testing.assert_allclose(got, 1j * SIGMA_X, atol=1e-12)
        np.testing.assert_allclose(got, series_phase_exp(SIGMA_X, np.pi / 2), atol=1e-12)

    def test_group_property(self, rng):
        a = random_hermitian(rng, 6)
        s, t = 0.31, -1.7
        lhs = unitary_phase_exp(a, s + t)
        rhs = unitary_phase_exp(a, s) @ unitary_phase_exp(a, t)
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * 6

    def test_unitarity(self, rng):
        a = random_hermitian(rng, 8, indefinite=True)
        u = unitary_phase_exp(a, 2.3)
        assert np.linalg.norm(u.conj().T @ u - np.eye(8)) <= 1e-10 * 8


class TestLowRankUpdateEigh:
    EPS = np.finfo(float).eps

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 40), rank=st.sampled_from([1, 2]), scale=st.sampled_from([1e-9, 1e-6, 0.3, 5.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_eigensystems_match_dense(self, n, rank, scale, seed):
        rng = np.random.default_rng(seed)
        values = rng.uniform(-5.0, 5.0, n)
        factors = rng.standard_normal((3, n, rank)) + 1j * rng.standard_normal((3, n, rank))
        signs = (1.0, -1.0)[:rank]
        strengths = scale * np.array([1.0, -1.0, 0.5])
        vectors, anchor, offset = low_rank_update_eigh(values, factors, np.outer(strengths, signs))
        for p in range(3):
            a = np.diag(values) + strengths[p] * (factors[p] * signs) @ factors[p].conj().T
            lam = values[anchor[p]] + offset[p]
            # the input's scale: a cancelling sum can leave ||a|| far smaller
            size = np.max(np.abs(values)) + abs(strengths[p]) * np.linalg.norm(factors[p], ord=2) ** 2
            residual = np.linalg.norm(a @ vectors[p] - vectors[p] * lam, axis=0)
            assert np.max(residual) <= 64 * n * self.EPS * size
            assert np.linalg.norm(vectors[p].conj().T @ vectors[p] - np.eye(n)) <= 64 * n * self.EPS
            assert np.max(np.abs(np.sort(lam) - np.linalg.eigvalsh(a))) <= 64 * n * self.EPS * size

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 24), rank=st.integers(1, 3), problems=st.integers(2, 4),
           seed=st.integers(0, 2**32 - 1))
    def test_one_call_over_mixed_weights_is_each_problem_alone(self, n, rank, problems, seed):
        # every rank-one term of every problem carries its own sign and strength
        rng = np.random.default_rng(seed)
        values = rng.uniform(-5.0, 5.0, n)
        factors = rng.standard_normal((problems, n, rank)) + 1j * rng.standard_normal((problems, n, rank))
        scales = rng.choice([1e-9, 1e-6, 0.3, 5.0], size=(problems, 1))
        weights = scales * rng.choice([1.0, -1.0], size=(problems, rank)) * rng.uniform(0.5, 1.0, (problems, rank))
        batched = low_rank_update_eigh(values, factors, weights)
        for p in range(problems):
            alone = low_rank_update_eigh(values, factors[p:p + 1], weights[p:p + 1])
            for got, want in zip(batched, alone):
                np.testing.assert_array_equal(got[p], want[0])
            vectors, anchor, offset = (part[p] for part in batched)
            a = np.diag(values) + (factors[p] * weights[p]) @ factors[p].conj().T
            lam = values[anchor] + offset
            size = np.max(np.abs(values)) + np.max(np.abs(weights[p])) * np.linalg.norm(factors[p], ord=2) ** 2
            residual = np.linalg.norm(a @ vectors - vectors * lam, axis=0)
            assert np.max(residual) <= 64 * n * self.EPS * size
            assert np.linalg.norm(vectors.conj().T @ vectors - np.eye(n)) <= 64 * n * self.EPS
            assert np.max(np.abs(np.sort(lam) - np.linalg.eigvalsh(a))) <= 64 * n * self.EPS * size

    @settings(max_examples=60, deadline=None)
    @given(n=st.one_of(st.sampled_from([1, 2]), st.integers(3, 20)), problems=st.integers(1, 3),
           seed=st.integers(0, 2**32 - 1))
    def test_tied_runs_deflated_components_and_signs_at_every_level(self, n, problems, seed):
        # runs of 2 to 4 equal poles, components at 0 and about the deflation
        # threshold, weights of either sign, and three terms, so that the second
        # and third solves start from nonzero offsets
        rng = np.random.default_rng(seed)
        runs = rng.integers(1, 5, size=n)
        values = rng.permutation(np.repeat(rng.uniform(-5.0, 5.0, n), runs)[:n])
        factors = rng.standard_normal((problems, n, 3)) + 1j * rng.standard_normal((problems, n, 3))
        near = SECULAR_DEFLATION * rng.uniform(0.5, 2.0, factors.shape) * np.linalg.norm(factors, axis=1,
                                                                                         keepdims=True)
        draw = rng.random(factors.shape)
        factors = np.where(draw < 0.2, 0.0, np.where(draw < 0.35, near * np.exp(6.3j * draw), factors))
        scales = rng.choice([1e-9, 1e-6, 0.3, 5.0], size=(problems, 1))
        weights = scales * rng.choice([1.0, -1.0], size=(problems, 3)) * rng.uniform(0.5, 1.0, (problems, 3))
        vectors, anchor, offset = low_rank_update_eigh(values, factors, weights)
        for p in range(problems):
            a = np.diag(values) + (factors[p] * weights[p]) @ factors[p].conj().T
            lam = values[anchor[p]] + offset[p]
            size = np.max(np.abs(values)) + np.max(np.abs(weights[p])) * np.linalg.norm(factors[p], ord=2) ** 2
            residual = np.linalg.norm(a @ vectors[p] - vectors[p] * lam, axis=0)
            assert np.max(residual) <= 64 * n * self.EPS * size
            assert np.linalg.norm(vectors[p].conj().T @ vectors[p] - np.eye(n)) <= 64 * n * self.EPS
            assert np.max(np.abs(np.sort(lam) - np.linalg.eigvalsh(a))) <= 64 * n * self.EPS * size

    @pytest.mark.parametrize("name, entry", [("values", np.nan), ("factors", np.inf), ("weights", np.nan),
                                             ("weights", np.inf)])
    def test_non_finite_input_is_named(self, name, entry):
        # unchecked, each flows into NaN offsets or vectors without an error
        arrays = {"values": np.arange(3.0), "factors": np.ones((1, 3, 1), complex), "weights": np.ones((1, 1))}
        arrays[name].flat[0] = entry
        with pytest.raises(NonFiniteInput, match=f"^{name} have 1 non-finite"):
            low_rank_update_eigh(**arrays)

    def test_factor_length_must_match_values(self):
        with pytest.raises(ValueError, match=r"factors of shape \(1, 4, 2\) for values of shape \(3,\)"):
            low_rank_update_eigh(np.arange(3.0), np.ones((1, 4, 2)), np.ones((1, 2)))

    @pytest.mark.parametrize("i, j", [(0, 1), (2, 6)])
    def test_ties_and_zero_components_deflate_exactly(self, i, j):
        # element directions on repeated values: within the tied run (0, 1) the
        # pair splits to 1 +- s, across runs (2, 6) it is a plain rank-two
        # update; every untouched pole keeps its value exactly
        values = np.array([1.0, 1.0, 1.0, 2.0, 2.0, 3.0, 4.0, 4.0])
        s = 1e-6
        delta = build_delta("element", 8, i=i, j=j)
        vectors, anchor, offset = low_rank_update_eigh(values, delta.factors[None], s * np.array([delta.signs]))
        lam = values[anchor[0]] + offset[0]
        a = np.diag(values) + s * delta.matrix
        np.testing.assert_allclose(a @ vectors[0], vectors[0] * lam, rtol=0, atol=1e-15)
        assert np.sum(offset[0] != 0.0) == 2
        if (i, j) == (0, 1):
            np.testing.assert_allclose(np.sort(offset[0][offset[0] != 0.0]), [-s, s], rtol=1e-12)
        np.testing.assert_allclose(np.sort(lam), np.linalg.eigvalsh(a), rtol=0, atol=1e-15)

    def test_offsets_keep_relative_precision(self, rng):
        # poles near 1e3, strength 1e-9: the offsets are ~1e-11, where a dense
        # eigh's absolute error eps * 2e3 would be 4% of them
        n = 16
        values = 1e3 + 10.0 * np.arange(n) + rng.uniform(0.0, 1.0, n)
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        z /= np.linalg.norm(z)
        rho = 1e-9
        _, anchor, offset = low_rank_update_eigh(values, z[None, :, None], [[rho]])
        assert np.array_equal(anchor[0], np.arange(n))
        weights = np.abs(z) ** 2
        gaps = values[:, None] - values[None, :]
        np.fill_diagonal(gaps, np.inf)
        # second-order perturbation theory; the third-order term is ~1e-20 relative
        want = rho * weights + rho**2 * weights * np.sum(weights[None, :] / gaps, axis=1)
        np.testing.assert_allclose(offset[0], want, rtol=1e-12, atol=0)


class TestInverse:
    def test_pauli_involutions(self):
        np.testing.assert_allclose(inverse(SIGMA_X), SIGMA_X, atol=1e-12)
        np.testing.assert_allclose(inverse(SIGMA_Z), SIGMA_Z, atol=1e-12)

    def test_diag(self):
        np.testing.assert_allclose(inverse(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]), atol=1e-14)

    def test_residual(self, rng):
        for n in (3, 9, 17):
            a = random_hermitian(rng, n, indefinite=True)
            assert np.linalg.norm(a @ inverse(a) - np.eye(n)) <= 1e-9 * n

    def test_singular_raises(self):
        with pytest.raises(SingularMatrix):
            inverse(np.ones((3, 3)))

    @pytest.mark.parametrize("entry", [np.inf, np.nan])
    def test_non_finite_inverse_raises(self, entry, monkeypatch):
        # a solve that returns no finite inverse is refused by the negated condition test
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: np.full_like(b, entry))
        with pytest.raises(SingularMatrix):
            inverse(np.eye(2))

    @pytest.mark.parametrize("scale", [1e-160, 1e160])
    def test_condition_test_is_scale_free(self, rng, scale):
        # ||A||_F alone would underflow or overflow at these scales
        a = random_hermitian(rng, 9, indefinite=True)
        np.testing.assert_allclose(inverse(scale * a) * scale, inverse(a), rtol=0, atol=1e-12)

    def test_one_factorization_per_call(self, rng, monkeypatch):
        matrices = [random_hermitian(rng, n, indefinite=True) for n in (1, 9, 70)]
        calls = []
        solve = np.linalg.solve

        def counting_solve(*args):
            calls.append("solve")
            return solve(*args)

        def refused(name):
            def call(*args, **kwargs):
                calls.append(name)
                raise AssertionError(f"np.linalg.{name} was called")
            return call

        monkeypatch.setattr(np.linalg, "solve", counting_solve)
        for name in ("inv", "det", "slogdet", "lstsq", "pinv", "cond", "matrix_rank",
                     "cholesky", "qr", "svd", "eig", "eigh", "eigvals", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, refused(name))
        for a in matrices:
            inverse(a)
        assert calls == ["solve"] * len(matrices)

    @pytest.mark.parametrize("scipy_state", ["installed", "unimportable"])
    def test_program_runs_without_scipy(self, scipy_state):
        # a fresh interpreter: this test process may hold scipy, which the test extra installs
        script = (
            "import contextlib, io, sys\n"
            + ("sys.modules['scipy'] = None\n" if scipy_state == "unimportable" else "")
            + "import numpy as np\n"
            "import qgld, qgld.cli\n"
            "x = np.array([[2.0, 1.0j], [-1.0j, 3.0]])\n"
            "print(round(float(qgld.inverse(x)[0, 0].real), 12))\n"
            "for argv in (['qgld', '--matrix', 'random-spd:8:1', '--phi', 'uniform', '--sweep-L', '1e-3,1e-4'],\n"
            "             ['kernel-demo']):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert qgld.cli.main(argv) == 0, argv\n"
            "loaded = [name for name, module in sys.modules.items()\n"
            "          if module is not None and name.split('.')[0] == 'scipy']\n"
            "assert not loaded, loaded\n"
        )
        env = dict(os.environ)
        src = str(Path(qgld.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "0.6\n"


class TestLuFactorization:
    """The singularity test of the inverse oracle, against the pivots of its LAPACK LU."""

    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_singular_boundary(self, rng, factor):
        n = 40
        # a row-permuted upper-triangular matrix factors exactly (every multiplier is 0), so its
        # smallest pivot is known exactly: at half of PIVOT_RTOL * ||A||_F, which the pivot test
        # refused, the condition test refuses it too
        u = np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        u[35, 35] = 0.0
        u[35, 35] = 0.5 * PIVOT_RTOL * np.linalg.norm(u) * np.exp(0.3j)
        with pytest.raises(SingularMatrix):
            inverse(u[rng.permutation(n)])
        # a unitary-conjugated diagonal with ||A||_F ||A^-1||_F at factor / (N PIVOT_RTOL)
        values = np.ones(n)
        values[-1] = np.sqrt(n - 1) * n * PIVOT_RTOL / factor
        condition = np.linalg.norm(values) * np.linalg.norm(1.0 / values)
        assert condition * n * PIVOT_RTOL == pytest.approx(factor, rel=1e-6)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        a = (q * values) @ q.conj().T
        if factor > 1:
            with pytest.raises(SingularMatrix):
                inverse(a)
            return
        assert np.isfinite(inverse(a)).all()


class TestRelevanceOrder:
    def test_magnitude_descending_near_ties_ascending(self):
        values = [-3.0, -1.0, 0.5, 1.0 + 1e-15, 3.0 - 1e-15, 2.0]
        np.testing.assert_array_equal(relevance_order(values), [0, 4, 5, 1, 3, 2])

    def test_stable_magnitude_sort_without_ties(self, rng):
        values = np.sort(rng.standard_normal(64))
        np.testing.assert_array_equal(relevance_order(values), np.argsort(-np.abs(values), kind="stable"))


class TestOrthonormalizeSvd:
    def test_idempotent_on_orthonormal(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3)))
        got = orthonormalize_svd(q)
        assert np.linalg.norm(got - q) <= 1e-12

    def test_single_column(self, rng):
        v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        got = orthonormalize_svd(v[:, None])
        np.testing.assert_allclose(got[:, 0], v / np.linalg.norm(v), atol=1e-12)

    def test_span_preserved_vs_gram_schmidt(self, rng):
        block = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
        got = orthonormalize_svd(block)
        gram = got.conj().T @ got
        assert np.max(np.abs(gram - np.eye(2))) <= 1e-12
        reference = gram_schmidt(block)
        proj_got = got @ got.conj().T
        proj_ref = reference @ reference.conj().T
        assert np.linalg.norm(proj_got - proj_ref) <= 1e-10

    def test_rank_deficient_raises(self):
        block = np.ones((4, 2), dtype=complex)
        with pytest.raises(RankDeficientBlock):
            orthonormalize_svd(block)


class TestDirectionalDerivative:
    def test_reference_values(self):
        zero_proj = np.diag([1.0, 0.0]).astype(complex)
        assert directional_eigen_derivative(SIGMA_X, SIGMA_X, 1) == pytest.approx(1.0, abs=1e-12)
        assert directional_eigen_derivative(SIGMA_X, zero_proj, 1) == pytest.approx(0.5, abs=1e-12)
        assert directional_eigen_derivative(HADAMARD, SIGMA_X, 1) == pytest.approx(
            1.0 / np.sqrt(2.0), abs=1e-12
        )
        assert directional_eigen_derivative(SIGMA_Z, SIGMA_X, 1) == pytest.approx(0.0, abs=1e-12)

    def test_modes_agree(self, rng):
        for _ in range(100):
            n = int(rng.choice([2, 4, 8, 16]))
            a = random_hermitian(rng, n, indefinite=True)
            delta = random_hermitian(rng, n, indefinite=True, min_eig=0.0)
            delta = delta / np.linalg.norm(delta, ord=2)
            p = int(rng.integers(0, n))
            hf = directional_eigen_derivative(a, delta, p, mode="hellmann_feynman")
            fd = directional_eigen_derivative(a, delta, p, mode="central_difference")
            assert abs(hf - fd) <= 1e-6

    def test_degenerate_raises_and_fallback(self):
        a = np.eye(2)
        with pytest.raises(DegenerateEigenvalue):
            directional_eigen_derivative(a, SIGMA_X, 0)
        derivs = degenerate_directional_derivatives(a, SIGMA_X, 0)
        np.testing.assert_allclose(derivs, [-1.0, 1.0], atol=1e-12)

    def test_full_rank_inverse_identity(self, rng):
        # sum over p of dE_p/E_p with the symmetric single-entry direction
        # recovers inv_ij + inv_ji off the diagonal and inv_ii on it
        for n in (2, 4, 8):
            a = random_hermitian(rng, n).real
            a = (a + a.T) / 2
            inv = np.linalg.inv(a)
            dec_values = np.linalg.eigvalsh(a)
            for i, j in [(0, 0), (0, n - 1), (n // 2, n - 1)]:
                delta = np.zeros((n, n))
                delta[i, j] += 1.0
                delta[j, i] += 0.0 if i == j else 1.0
                total = sum(
                    directional_eigen_derivative(a, delta, p) / dec_values[p]
                    for p in range(n)
                )
                want = inv[i, i] if i == j else inv[i, j] + inv[j, i]
                assert abs(total - want) <= 1e-8
