import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgld import (
    assemble_and_solve,
    assemble_block_tridiagonal,
    build_factorization,
    rqbl_init,
    rqbl_step,
    run_rqbl,
)
from qgld.cli import random_spd
from qgld.lanczos import BREAKDOWN_RTOL, _project_out
from conftest import SIGMA_X, SIGMA_Z, random_hermitian, random_symmetric_decaying


class TestInit:
    def test_single_column_is_unit(self):
        psi = rqbl_init(4, 1, rng_seed=3)
        assert psi.shape == (4, 1)
        assert abs(np.linalg.norm(psi) - 1.0) <= 1e-12

    def test_block_orthonormal(self):
        psi = rqbl_init(8, 2, rng_seed=3)
        gram = psi.conj().T @ psi
        assert np.max(np.abs(gram - np.eye(2))) <= 1e-12

    def test_deterministic(self):
        np.testing.assert_array_equal(rqbl_init(8, 2, 7), rqbl_init(8, 2, 7))


class TestStep:
    def test_invariant_subspace_breakdown(self):
        x = np.diag([3.0, 1.0, 0.5, 0.2]).astype(complex)
        psi0 = np.eye(4, dtype=complex)[:, :2]
        step = rqbl_step(x, psi0, None, None, history=psi0,
                         breakdown_floor=BREAKDOWN_RTOL * np.linalg.norm(x))
        assert step.breakdown
        np.testing.assert_allclose(step.a_block, np.diag([3.0, 1.0]), atol=1e-12)
        assert step.psi_next is None

    def test_sigma_x_hand_recursion(self):
        psi0 = np.array([[1.0], [0.0]], dtype=complex)
        step = rqbl_step(SIGMA_X, psi0, None, None, history=psi0,
                         breakdown_floor=BREAKDOWN_RTOL * np.linalg.norm(SIGMA_X))
        assert step.a_block[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert step.b_next[0, 0] == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(step.psi_next, [[0.0], [1.0]], atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 32),
        b=st.integers(1, 4),
        depth=st.integers(0, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_one_svd_step_contract(self, n, b, depth, seed):
        # psi_p is the last of depth + 1 orthonormal blocks in the history;
        # at least one block of dimension stays free for psi_next
        depth = min(depth, n // b - 2)
        if depth < 0:
            b, depth = 1, 0
        rng = np.random.default_rng(seed)
        x = random_hermitian(rng, n, indefinite=True)
        gauss = rng.standard_normal((n, (depth + 1) * b)) + 1j * rng.standard_normal((n, (depth + 1) * b))
        history, _ = np.linalg.qr(gauss)
        psi_p = history[:, depth * b:]
        psi_prev = history[:, (depth - 1) * b:depth * b] if depth else None
        b_p = random_hermitian(rng, b) if depth else None
        step = rqbl_step(x, psi_p, psi_prev, b_p, history=history,
                         breakdown_floor=BREAKDOWN_RTOL * np.linalg.norm(x))

        residual = x @ psi_p - psi_p @ step.a_block
        if depth:
            residual -= psi_prev @ b_p.conj().T
        residual -= history @ (history.conj().T @ residual)
        if step.breakdown:
            assert step.psi_next is None
            return
        psi, b_next = step.psi_next, step.b_next
        assert np.max(np.abs(psi @ b_next - residual)) <= 1e-12
        assert np.max(np.abs(b_next - b_next.conj().T)) <= 1e-12
        assert np.min(np.linalg.eigvalsh((b_next + b_next.conj().T) / 2)) >= -1e-12
        assert np.max(np.abs(psi.conj().T @ psi - np.eye(b))) <= 1e-12
        assert np.max(np.abs(history.conj().T @ psi)) <= 1e-12

    def test_a_blocks_recomputable(self, rng):
        x = rng.standard_normal((10, 10))
        x = (x + x.T) / 2
        fact = build_factorization(x, b=2, k=4, rng_seed=6)
        for a_block, psi in zip(fact.a_blocks, fact.basis_blocks):
            recomputed = psi.conj().T @ x @ psi
            assert np.max(np.abs(a_block - recomputed)) <= 1e-10

    def test_block_tridiagonal_structure(self, rng):
        x = rng.standard_normal((12, 12))
        x = (x + x.T) / 2
        fact = build_factorization(x, b=2, k=4, rng_seed=6)
        s = assemble_block_tridiagonal(fact)
        assert np.max(np.abs(s - s.conj().T)) <= 1e-12
        # blocks beyond the first off-diagonal stay exactly zero
        assert np.max(np.abs(s[4:, :2])) == 0.0
        assert np.max(np.abs(s[:2, 4:])) == 0.0

    def test_orthogonality_contract(self, rng):
        x = rng.standard_normal((12, 12))
        x = (x + x.T) / 2
        fact = build_factorization(x, b=2, k=5, rng_seed=1)
        blocks = fact.basis_blocks
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
        s = assemble_block_tridiagonal(fact)
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
