import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgld import assemble_and_solve, build_factorization, run_rqbl
from qgld.cli import random_spd
from qgld.lanczos import _project_out
from conftest import SIGMA_X, SIGMA_Z, random_hermitian, random_symmetric_decaying


class TestInit:
    """The start block, read as the basis of a one-step factorization."""

    def test_single_column_is_unit(self):
        psi = build_factorization(random_spd(4, 1), 1, 1, rng_seed=3).basis()
        assert psi.shape == (4, 1)
        assert abs(np.linalg.norm(psi) - 1.0) <= 1e-12

    def test_block_orthonormal(self):
        psi = build_factorization(random_spd(8, 1), 2, 1, rng_seed=3).basis()
        gram = psi.conj().T @ psi
        assert np.max(np.abs(gram - np.eye(2))) <= 1e-12

    def test_deterministic(self):
        x = random_spd(8, 1)
        np.testing.assert_array_equal(build_factorization(x, 2, 1, 7).basis(), build_factorization(x, 2, 1, 7).basis())


class TestStep:
    def test_invariant_subspace_breakdown(self):
        # two distinct eigenvalues, each at least twice: the block Krylov space of two columns has
        # dimension 4, so b = 2 breaks down after 2 of 4 steps, with X's values in S
        x = np.diag([3.0, 3.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]).astype(complex)
        fact = build_factorization(x, b=2, k=4, rng_seed=3)
        assert fact.breakdown
        assert fact.steps == 2
        np.testing.assert_allclose(np.linalg.eigvalsh(fact.tridiagonal()), [1.0, 1.0, 3.0, 3.0], atol=1e-12)

    def test_sigma_x_hand_recursion(self):
        # from the start vector psi_0 = (u, v): A_0 = 2 Re(conj(u) v), B_1 = sqrt(1 - A_0^2),
        # psi_1 = (sigma_x psi_0 - A_0 psi_0) / B_1 and A_1 = -A_0, so S has eigenvalues -1, +1
        fact = build_factorization(SIGMA_X, b=1, k=2, rng_seed=3)
        psi_0, psi_1 = fact.basis().T
        a_0 = 2 * (psi_0[0].conj() * psi_0[1]).real
        b_1 = np.sqrt(1 - a_0**2)
        s = fact.tridiagonal()
        np.testing.assert_allclose(s, [[a_0, b_1], [b_1, -a_0]], atol=1e-12)
        np.testing.assert_allclose(psi_1, (SIGMA_X @ psi_0 - a_0 * psi_0) / b_1, atol=1e-12)
        np.testing.assert_allclose(np.linalg.eigvalsh(s), [-1.0, 1.0], atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 32),
        b=st.integers(1, 4),
        k=st.integers(2, 32),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_one_svd_step_contract(self, n, b, k, seed):
        # at every step p of a factorization, Psi_{p+1} B_{p+1} is the residual
        # X Psi_p - Psi_p A_p - Psi_{p-1} B_p^dag projected out of Psi_0 .. Psi_p
        b = min(b, n)
        rng = np.random.default_rng(seed)
        x = random_hermitian(rng, n, indefinite=True)
        fact = build_factorization(x, b, min(k, n // b), rng_seed=seed)
        q, s = fact.basis(), fact.tridiagonal()
        for p in range(fact.steps - 1):
            before, here, after = (slice(i * b, (i + 1) * b) for i in (p - 1, p, p + 1))
            history, psi, b_next = q[:, :(p + 1) * b], q[:, after], s[after, here]
            residual = x @ q[:, here] - q[:, here] @ s[here, here]
            if p:
                residual -= q[:, before] @ s[before, here]
            residual -= history @ (history.conj().T @ residual)
            assert np.max(np.abs(psi @ b_next - residual)) <= 1e-12
            assert np.array_equal(s[here, after], b_next.conj().T)
            assert np.max(np.abs(b_next - b_next.conj().T)) <= 1e-12
            assert np.min(np.linalg.eigvalsh((b_next + b_next.conj().T) / 2)) >= -1e-12
            assert np.max(np.abs(psi.conj().T @ psi - np.eye(b))) <= 1e-12
            assert np.max(np.abs(history.conj().T @ psi)) <= 1e-12

    def test_a_blocks_recomputable(self, rng):
        x = rng.standard_normal((10, 10))
        x = (x + x.T) / 2
        fact = build_factorization(x, b=2, k=4, rng_seed=6)
        a_blocks = [fact.tridiagonal()[2 * p:2 * p + 2, 2 * p:2 * p + 2] for p in range(fact.steps)]
        for a_block, psi in zip(a_blocks, np.hsplit(fact.basis(), fact.steps)):
            recomputed = psi.conj().T @ x @ psi
            assert np.max(np.abs(a_block - recomputed)) <= 1e-10

    def test_block_tridiagonal_structure(self, rng):
        x = rng.standard_normal((12, 12))
        x = (x + x.T) / 2
        fact = build_factorization(x, b=2, k=4, rng_seed=6)
        s = fact.tridiagonal()
        assert np.max(np.abs(s - s.conj().T)) <= 1e-12
        # blocks beyond the first off-diagonal stay exactly zero
        assert np.max(np.abs(s[4:, :2])) == 0.0
        assert np.max(np.abs(s[:2, 4:])) == 0.0

    def test_orthogonality_contract(self, rng):
        x = rng.standard_normal((12, 12))
        x = (x + x.T) / 2
        fact = build_factorization(x, b=2, k=5, rng_seed=1)
        blocks = np.hsplit(fact.basis(), fact.steps)
        for later in range(1, len(blocks)):
            for earlier in range(later):
                overlap = np.max(np.abs(blocks[later].conj().T @ blocks[earlier]))
                assert overlap <= 1e-10


class TestProjectOut:
    @pytest.mark.parametrize("b", [1, 3])
    def test_second_pass_when_first_cancels_most(self, rng, b):
        # a block almost inside span(basis): one classical Gram-Schmidt pass
        # leaves components ~eps * ||c|| against a remainder ~1e-9 * ||c||, so
        # the DGKS test has to run the second pass
        n = 64
        basis = np.linalg.qr(rng.standard_normal((n, 20)) + 1j * rng.standard_normal((n, 20)))[0]
        c = rng.standard_normal((20, b)) + 1j * rng.standard_normal((20, b))
        noise = rng.standard_normal((n, b)) + 1j * rng.standard_normal((n, b))
        out = _project_out(basis @ c + 1e-9 * noise, basis)
        eps = np.finfo(float).eps
        assert np.linalg.norm(basis.conj().T @ out) <= 10 * eps * np.linalg.norm(out)


class TestBreakdown:
    def test_exhausting_the_dimension_is_not_breakdown(self):
        fact = build_factorization(random_spd(8, 5), b=2, k=4, rng_seed=0)
        assert fact.steps == 4
        assert not fact.breakdown

    def test_invariant_subspace_stops_early(self):
        # two distinct eigenvalues: the Krylov space of any vector has dimension 2
        x = np.diag([5.0, 5.0, 2.0, 2.0]).astype(complex)
        fact = build_factorization(x, b=1, k=4, rng_seed=3)
        assert fact.breakdown
        assert fact.steps == 2 < 4
        sol = assemble_and_solve(x, fact)
        np.testing.assert_allclose(np.sort(sol.values), [2.0, 5.0], atol=1e-10)


class TestBuildFactorization:
    def test_default_steps_fill_the_dimension(self):
        fact = build_factorization(random_spd(8, 5), b=3, k=None, rng_seed=0)
        assert fact.steps == 2
        assert fact.basis().shape == (8, 6)

    @pytest.mark.parametrize("k", [None, 1])
    def test_block_size_beyond_dimension_is_named(self, k):
        # read "k*b = 0 outside [1, 8]" (k = N // b) or "k*b = 16 outside [1, 8]"
        with pytest.raises(ValueError, match=r"block size 16 outside \[1, 8\]"):
            build_factorization(random_spd(8, 5), b=16, k=k, rng_seed=0)

    def test_basis_is_the_factorization_array(self):
        fact = build_factorization(random_spd(16, 5), b=2, k=4, rng_seed=0)
        basis = fact.basis()
        assert np.shares_memory(basis, fact.columns)
        assert basis.flags.f_contiguous
        assert fact.tridiagonal().shape == (8, 8) and np.shares_memory(fact.tridiagonal(), fact.s)


class TestWorkingSet:
    @pytest.mark.parametrize("n", [128, 256])
    @pytest.mark.parametrize("b", [1, 4])
    def test_ritz_solve_holds_under_four_full_arrays(self, n, b):
        # an hstack copy of the basis, S alive through the lift, an unpermuted
        # lift with two reordered copies and three full-size residual
        # temporaries peaked at 6.1-6.5 N x N complex arrays
        x = random_spd(n, 3)
        fact = build_factorization(x, b, None, rng_seed=5)
        tracemalloc.start()
        try:
            assemble_and_solve(x, fact)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * n * n * np.dtype(complex).itemsize


class TestOrthonormalityDefect:
    @pytest.mark.parametrize("n, b, k", [(8, 1, None), (96, 3, 20), (256, 2, None)])
    def test_matches_the_dense_formula(self, n, b, k):
        fact = build_factorization(random_spd(n, 3), b, k, rng_seed=5)
        q = fact.basis()
        want = np.linalg.norm(q.conj().T @ q - np.eye(q.shape[1]))
        assert abs(fact.orthonormality_defect() - want) <= 1e-14
        # a basis off orthonormality reads its defect too
        fact.columns[:, 0] *= 1.5
        want = np.linalg.norm(q.conj().T @ q - np.eye(q.shape[1]))
        assert abs(fact.orthonormality_defect() - want) <= 1e-14 * want

    def test_transient_under_half_a_full_array(self):
        # the conjugated copy, the Gram matrix, the identity and their difference peaked at 2.0 N x N
        n = 256
        fact = build_factorization(random_spd(n, 3), 2, None, rng_seed=5)
        tracemalloc.start()
        try:
            fact.orthonormality_defect()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * n * n * np.dtype(complex).itemsize


class TestAssembleAndSolve:
    def test_full_block_is_exact(self, rng):
        x = rng.standard_normal((6, 6))
        x = (x + x.T) / 2
        fact = build_factorization(x, b=6, k=1, rng_seed=0)
        sol = assemble_and_solve(x, fact)
        np.testing.assert_allclose(np.sort(sol.values), np.linalg.eigvalsh(x), atol=1e-10)

    def test_sigma_x_chain(self):
        # hand oracle: S = [[0, 1], [1, 0]] with Ritz values -1, +1
        fact = build_factorization(SIGMA_X, b=1, k=2, rng_seed=5)
        s = fact.tridiagonal()
        # the diagonal depends on the start vector; S is sigma_x conjugated by
        # a unitary, so its trace vanishes
        assert abs(np.trace(s)) <= 1e-10
        sol = assemble_and_solve(SIGMA_X, fact)
        np.testing.assert_allclose(np.sort(sol.values), [-1.0, 1.0], atol=1e-10)

    def test_extremal_ritz_value_64(self, rng):
        x = random_symmetric_decaying(rng, 64)
        fact = build_factorization(x, b=2, k=12, rng_seed=11)
        sol = assemble_and_solve(x, fact)
        dense = np.linalg.eigvalsh(x)
        extremal = sol.values[np.argmax(np.abs(sol.values))]
        target = dense[np.argmax(np.abs(dense))]
        assert abs(extremal - target) <= 1e-8

    def test_residuals_reported(self, rng):
        x = rng.standard_normal((16, 16))
        x = (x + x.T) / 2
        sol = run_rqbl(x, b=2, k=3, rng_seed=2)
        for value, vec, res in zip(sol.values, sol.vectors.T, sol.residuals):
            assert np.linalg.norm(x @ vec - value * vec) == pytest.approx(res, abs=1e-12)


class TestRunRqbl:
    def test_sigma_z_both_values(self):
        sol = run_rqbl(SIGMA_Z, b=1, k=2, rng_seed=9)
        np.testing.assert_allclose(np.sort(sol.values), [-1.0, 1.0], atol=1e-10)
        # |lambda| ordering with a tie: stable order from the ascending solve
        assert abs(abs(sol.values[0]) - 1.0) <= 1e-10

    def test_dominant_value_diag(self):
        # two Krylov vectors pin the dominant value at the generic rate;
        # exhausting the space pins it exactly
        x = np.diag([10.0, 1.0, 0.1, 0.01]).astype(complex)
        coarse = run_rqbl(x, b=1, k=2, rng_seed=4)
        assert abs(coarse.values[0] - 10.0) <= 1e-2
        exact = run_rqbl(x, b=1, k=4, rng_seed=4)
        assert abs(exact.values[0] - 10.0) <= 1e-9

    def test_deterministic(self, rng):
        x = rng.standard_normal((10, 10))
        x = (x + x.T) / 2
        first = run_rqbl(x, b=2, k=4, rng_seed=21)
        second = run_rqbl(x, b=2, k=4, rng_seed=21)
        np.testing.assert_array_equal(first.values, second.values)
        np.testing.assert_array_equal(first.vectors, second.vectors)

    def test_rejects_oversized_subspace(self):
        with pytest.raises(ValueError):
            run_rqbl(np.eye(4), b=2, k=3, rng_seed=0)

    def test_spectrum_containment(self, rng):
        x = rng.standard_normal((32, 32))
        x = (x + x.T) / 2
        dense = np.linalg.eigvalsh(x)
        sol = run_rqbl(x, b=2, k=8, rng_seed=13)
        assert np.all(sol.values >= dense[0] - 1e-8)
        assert np.all(sol.values <= dense[-1] + 1e-8)

    def test_global_orthonormality_every_step(self, rng):
        x = rng.standard_normal((40, 40))
        x = (x + x.T) / 2
        for k in (2, 5, 10):
            fact = build_factorization(x, b=2, k=k, rng_seed=17)
            assert fact.orthonormality_defect() <= 1e-8

    def test_geometric_spectrum_convergence(self):
        # eigenvalues 2^-i: top Ritz error non-increasing in k, tiny by k*b = 16
        rng = np.random.default_rng(6)
        gauss = rng.standard_normal((128, 128))
        q, _ = np.linalg.qr(gauss)
        values = 2.0 ** (-np.arange(128, dtype=float))
        x = (q * values) @ q.T
        x = (x + x.T) / 2
        errors = []
        for k in range(1, 9):
            sol = run_rqbl(x, b=2, k=k, rng_seed=30)
            errors.append(abs(sol.values[0] - 1.0))
        for earlier, later in zip(errors, errors[1:]):
            assert later <= earlier + 1e-12
        assert errors[7] < 1e-8
