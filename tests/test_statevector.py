"""The gate-level reference circuit of tests/conftest.py, gate by gate, and
the ControlledFamily it applies."""
import numpy as np
import pytest

from qgld import (
    FamilySizeMismatch,
    IndexOutOfRange,
    NonUnitaryMember,
    NotInGroundRegister,
    UnnormalizedTarget,
)
from qgld.statevector import ControlledFamily
from conftest import (
    SIGMA_X,
    RegisterLayout,
    StateVector,
    apply_controlled_family,
    checked_members,
    conditional_deviation_distribution,
    deviation_distribution,
    forward_qft_deviation,
    hadamard_deviation_register,
    init_basis,
    inverse_qft_deviation,
    preparation_unitary,
    prepare_system_state,
    random_state,
    unitary_phase_exp,
)


class TestLayoutAndInit:
    def test_basis_m1_n1(self):
        state = init_basis(RegisterLayout(1, 1), 0)
        np.testing.assert_allclose(state.amplitudes, [1, 0, 0, 0], atol=1e-15)

    def test_basis_m2_n1(self):
        state = init_basis(RegisterLayout(2, 1), 3)
        want = np.zeros(8)
        want[3] = 1.0
        np.testing.assert_allclose(state.amplitudes, want, atol=1e-15)

    def test_norm_one(self):
        assert init_basis(RegisterLayout(2, 2), 7).norm() == pytest.approx(1.0)

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            init_basis(RegisterLayout(1, 1), 4)

    def test_layout_guards(self):
        with pytest.raises(ValueError):
            RegisterLayout(0, 1)
        with pytest.raises(ValueError):
            RegisterLayout(14, 14)


class TestPreparation:
    def test_plus_state(self):
        state = init_basis(RegisterLayout(1, 1), 0)
        prepare_system_state(state, (np.array([1, 1]) / np.sqrt(2))[:, None])
        np.testing.assert_allclose(
            state.as_tensor()[0, :, 0], [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-12
        )

    def test_ground_identity(self):
        state = init_basis(RegisterLayout(1, 2), 0)
        before = state.amplitudes.copy()
        prepare_system_state(state, np.array([1.0, 0, 0, 0])[:, None])
        np.testing.assert_allclose(state.amplitudes, before, atol=1e-12)

    def test_matches_ry_rotation(self):
        # target (cos pi/8, sin pi/8) equals Ry(pi/4) acting on |0>
        theta = np.pi / 4
        ry = np.array(
            [[np.cos(theta / 2), -np.sin(theta / 2)], [np.sin(theta / 2), np.cos(theta / 2)]]
        )
        state = init_basis(RegisterLayout(1, 1), 0)
        prepare_system_state(state, np.array([np.cos(np.pi / 8), np.sin(np.pi / 8)])[:, None])
        np.testing.assert_allclose(state.as_tensor()[0, :, 0], ry @ [1, 0], atol=1e-12)

    def test_deviation_register_untouched(self, rng):
        state = init_basis(RegisterLayout(2, 2), 0)
        hadamard_deviation_register(state)
        weights = state.as_tensor()[:, 0, 0].copy()
        v = random_state(rng, 4)
        prepare_system_state(state, v[:, None])
        for eps in range(4):
            np.testing.assert_allclose(state.as_tensor()[eps, :, 0], weights[eps] * v, atol=1e-12)

    def test_rejects_occupied_register(self):
        state = init_basis(RegisterLayout(1, 1), 1)
        with pytest.raises(NotInGroundRegister):
            prepare_system_state(state, np.array([0.0, 1.0])[:, None])

    def test_rejects_unnormalized(self):
        state = init_basis(RegisterLayout(1, 1), 0)
        with pytest.raises(UnnormalizedTarget):
            prepare_system_state(state, np.array([1.0, 1.0])[:, None])

    def test_completion_unitary(self, rng):
        for n in (2, 4, 8):
            v = random_state(rng, n)
            gamma = preparation_unitary(v)
            assert np.linalg.norm(gamma.conj().T @ gamma - np.eye(n)) <= 1e-10 * n
            np.testing.assert_allclose(gamma[:, 0], v, atol=1e-12)


class TestHadamard:
    def test_m1(self, rng):
        state = init_basis(RegisterLayout(1, 1), 0)
        v = random_state(rng, 2)
        prepare_system_state(state, v[:, None])
        hadamard_deviation_register(state)
        mat = state.as_tensor()[:, :, 0]
        np.testing.assert_allclose(mat[0], v / np.sqrt(2), atol=1e-12)
        np.testing.assert_allclose(mat[1], v / np.sqrt(2), atol=1e-12)

    def test_involution(self, rng):
        state = init_basis(RegisterLayout(3, 1), 5)
        before = state.amplitudes.copy()
        hadamard_deviation_register(hadamard_deviation_register(state))
        assert np.max(np.abs(state.amplitudes - before)) <= 1e-12

    def test_m3_uniform(self):
        state = init_basis(RegisterLayout(3, 1), 0)
        hadamard_deviation_register(state)
        np.testing.assert_allclose(state.as_tensor()[:, 0, 0], np.full(8, 1 / np.sqrt(8)), atol=1e-12)


class TestControlledFamily:
    def test_identity_family(self, rng):
        state = init_basis(RegisterLayout(2, 1), 0)
        hadamard_deviation_register(state)
        before = state.amplitudes.copy()
        apply_controlled_family(state, [np.eye(2)] * 4)
        np.testing.assert_allclose(state.amplitudes, before, atol=1e-14)

    def test_cnot_case(self):
        state = init_basis(RegisterLayout(1, 1), 2)  # |1>|0>
        apply_controlled_family(state, [np.eye(2), SIGMA_X])
        want = np.zeros(4)
        want[3] = 1.0  # |1>|1>
        np.testing.assert_allclose(state.amplitudes, want, atol=1e-14)

    def test_relative_phase_vs_direct(self, rng):
        # oracle: direct four-amplitude computation
        phi = 0.8121
        v = random_state(rng, 2)
        state = init_basis(RegisterLayout(1, 1), 0)
        prepare_system_state(state, v[:, None])
        hadamard_deviation_register(state)
        apply_controlled_family(state, [np.eye(2), np.exp(1j * phi) * np.eye(2)])
        direct = np.concatenate([v / np.sqrt(2), np.exp(1j * phi) * v / np.sqrt(2)])
        np.testing.assert_allclose(state.amplitudes, direct, atol=1e-12)

    def test_common_member_equals_tensor_action(self, rng):
        for m, n in ((1, 2), (2, 2), (3, 1)):
            layout = RegisterLayout(m, n)
            u = unitary_phase_exp(
                np.diag(rng.standard_normal(layout.system_dim)).astype(complex), 1.3
            )
            state = init_basis(layout, 0)
            hadamard_deviation_register(state)
            psi = random_state(rng, layout.system_dim)
            prepare_system_state(state, psi[:, None])
            reference = np.kron(np.eye(layout.deviation_dim), u) @ state.amplitudes
            apply_controlled_family(state, [u] * layout.deviation_dim)
            np.testing.assert_allclose(state.amplitudes, reference, atol=1e-12)

    def test_family_size_mismatch(self):
        state = init_basis(RegisterLayout(2, 1), 0)
        with pytest.raises(FamilySizeMismatch):
            apply_controlled_family(state, [np.eye(2)] * 3)

    def test_non_unitary_member(self):
        state = init_basis(RegisterLayout(1, 1), 0)
        with pytest.raises(NonUnitaryMember):
            apply_controlled_family(state, [np.eye(2), 2.0 * np.eye(2)])

    def test_identity_slot_rows_left_bit_identical(self, rng):
        # slot 1 is the diagonal slot ones(8), the identity member; slots 0, 2, 3 carry eigenvectors
        layout = RegisterLayout(2, 3, batch=5)
        vectors = np.stack([np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))[0]
                            for _ in range(3)])
        phases = np.exp(1j * rng.standard_normal((4, 8)))
        phases[1] = 1.0
        family = ControlledFamily(phases, vectors, [0, 2, 3])
        state = StateVector(layout, rng.standard_normal(4 * 8 * 5) + 1j * rng.standard_normal(4 * 8 * 5))
        before = state.as_tensor().copy()
        apply_controlled_family(state, family)
        after = state.as_tensor()
        np.testing.assert_array_equal(after[1], before[1])
        for eps, q in zip((0, 2, 3), vectors):
            np.testing.assert_array_equal(after[eps], ((q * phases[eps]) @ q.conj().T) @ before[eps])

    def test_adopted_members_read_only_without_copy(self, rng):
        vectors = np.linalg.qr(rng.standard_normal((1, 4, 4)) + 1j * rng.standard_normal((1, 4, 4)))[0]
        phases = np.exp(1j * rng.standard_normal((2, 4)))
        family = ControlledFamily(phases, vectors, [1])
        assert np.shares_memory(family.vectors, vectors) and np.shares_memory(family.phases, phases)
        for factor in (family.vectors, family.phases):
            with pytest.raises(ValueError):
                factor[0, 0] = 2.0

    def test_stacked_check_names_the_member(self):
        good = np.eye(2, dtype=complex)
        # slot 0 is diagonal, so the stack holds slots 1 to 4
        with pytest.raises(NonUnitaryMember, match="member 4 "):
            ControlledFamily(np.ones((5, 2), dtype=complex), np.stack([good, good, good, 2.0 * good]), [1, 2, 3, 4])
        phases = np.ones((4, 2), dtype=complex)
        phases[2] = 2.0
        with pytest.raises(NonUnitaryMember, match="member 2 "):
            ControlledFamily(phases)
        with pytest.raises(NonUnitaryMember, match="member 2 "):
            checked_members([good, good, 2.0 * good, good])
        # a stack of three probes' families, checked at once: the message names the probe too
        stacked = np.ones((3, 2, 2), dtype=complex)
        stacked[2, 1, 0] = 1.0 + 1e-6
        with pytest.raises(NonUnitaryMember, match="probe 2 member 1 "):
            ControlledFamily(stacked, np.stack([np.stack([good])] * 3), [1])
        with pytest.raises(NonUnitaryMember, match="probe 1 member 1 "):
            ControlledFamily(np.ones((3, 2, 2), dtype=complex), np.array([[good], [2.0 * good], [good]]), [1])


class TestInverseQft:
    def test_uniform_to_dc(self):
        state = init_basis(RegisterLayout(3, 1), 0)
        hadamard_deviation_register(state)
        inverse_qft_deviation(state)
        dist = deviation_distribution(state)[:, 0]
        assert dist[0] == pytest.approx(1.0, abs=1e-12)

    def test_synthetic_phase_hits_bin(self, rng):
        # oracle: direct DFT summation of the synthetic phase ramp
        m = 3
        m_dim = 8
        j0 = 5
        state = init_basis(RegisterLayout(m, 1), 0)
        mat = state.as_tensor()[:, :, 0]
        eps = np.arange(m_dim)
        mat[:, 0] = np.exp(2j * np.pi * eps * j0 / m_dim) / np.sqrt(m_dim)
        kernel = np.exp(-2j * np.pi * np.outer(eps, eps) / m_dim) / np.sqrt(m_dim)
        direct = kernel @ mat[:, 0]
        inverse_qft_deviation(state)
        np.testing.assert_allclose(state.as_tensor()[:, 0, 0], direct, atol=1e-12)
        dist = deviation_distribution(state)[:, 0]
        assert dist[j0] == pytest.approx(1.0, abs=1e-12)

    def test_m1_minus_state(self):
        state = init_basis(RegisterLayout(1, 1), 0)
        mat = state.as_tensor()[:, :, 0]
        mat[:, 0] = [1 / np.sqrt(2), -1 / np.sqrt(2)]
        inverse_qft_deviation(state)
        assert deviation_distribution(state)[1, 0] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("batch", [1, 5])
    def test_equals_normalized_fft(self, rng, m, batch):
        layout = RegisterLayout(m, 2, batch=batch)
        size = layout.deviation_dim * layout.system_dim * batch
        state = StateVector(layout, rng.standard_normal(size) + 1j * rng.standard_normal(size))
        want = np.fft.fft(state.amplitudes.reshape(layout.deviation_dim, -1), axis=0)
        want /= np.sqrt(layout.deviation_dim)
        inverse_qft_deviation(state)
        np.testing.assert_array_equal(state.amplitudes.reshape(layout.deviation_dim, -1), want)

    def test_round_trip(self, rng):
        layout = RegisterLayout(4, 2)
        state = init_basis(layout, 0)
        state.amplitudes = random_state(rng, 64)
        before = state.amplitudes.copy()
        inverse_qft_deviation(forward_qft_deviation(state))
        assert np.max(np.abs(state.amplitudes - before)) <= 1e-10


class TestDistributionAndSampling:
    def test_product_state_indicator(self, rng):
        state = init_basis(RegisterLayout(2, 2), 0)
        v = random_state(rng, 4)
        prepare_system_state(state, v[:, None])
        mat = state.as_tensor()[:, :, 0]
        mat[2] = mat[0]
        mat[0] = 0.0
        state.amplitudes /= state.norm()
        dist = deviation_distribution(state)[:, 0]
        np.testing.assert_allclose(dist, [0, 0, 1, 0], atol=1e-12)

    def test_uniform(self):
        state = init_basis(RegisterLayout(2, 1), 0)
        hadamard_deviation_register(state)
        np.testing.assert_allclose(deviation_distribution(state)[:, 0], np.full(4, 0.25), atol=1e-12)

    def test_bell_like(self):
        # (|0>|0> + |1>|1>)/sqrt(2): direct amplitude summation gives (1/2, 1/2)
        state = init_basis(RegisterLayout(1, 1), 0)
        state.amplitudes = np.array([1, 0, 0, 1]) / np.sqrt(2)
        np.testing.assert_allclose(deviation_distribution(state)[:, 0], [0.5, 0.5], atol=1e-12)

    def test_conditional_distribution(self):
        state = init_basis(RegisterLayout(1, 1), 0)
        state.amplitudes = np.array([1, 0, 0, 1]) / np.sqrt(2)
        dist = conditional_deviation_distribution(state, np.array([[1.0], [0.0]]))[:, 0]
        np.testing.assert_allclose(dist, [1.0, 0.0], atol=1e-12)


class TestNormPreservation:
    def test_gates_preserve_norm(self, rng):
        layout = RegisterLayout(2, 2)
        state = init_basis(layout, 0)
        prepare_system_state(state, random_state(rng, 4)[:, None])
        assert abs(state.norm() - 1.0) <= 1e-10
        hadamard_deviation_register(state)
        assert abs(state.norm() - 1.0) <= 1e-10
        family = [
            unitary_phase_exp(np.diag(rng.standard_normal(4)).astype(complex), 0.9)
            for _ in range(4)
        ]
        apply_controlled_family(state, family)
        assert abs(state.norm() - 1.0) <= 1e-10
        inverse_qft_deviation(state)
        assert abs(state.norm() - 1.0) <= 1e-10


class TestClosedFormCircuit:
    def test_m1_n1_closed_form(self, rng):
        # for a commuting direction the two-branch amplitudes have the exact
        # closed form c0 = (e^{i t l(0)} + e^{i t l(s1)})/2 per system component
        from qgld import GradientEncoding, build_delta, evolution_family

        for _ in range(5):
            x = random_hermitian_1q(rng)
            enc = GradientEncoding(L=1e-6, W=1.0, m=1)
            delta = build_delta("custom", 2, matrix=x)
            values = np.linalg.eigvalsh(x)
            vectors = np.linalg.eigh(x)[1]
            p_state = vectors[:, 1]
            state = init_basis(RegisterLayout(1, 1), 0)
            prepare_system_state(state, p_state[:, None])
            hadamard_deviation_register(state)
            apply_controlled_family(state, evolution_family(x, delta, enc))
            inverse_qft_deviation(state)
            t = enc.time_step()
            s1 = enc.offsets()[1]
            lam = values[1]
            phase0 = np.exp(1j * t * lam)
            phase1 = np.exp(1j * t * (lam + s1 * lam))
            c0 = (phase0 + phase1) / 2
            c1 = (phase0 - phase1) / 2
            want = np.concatenate([c0 * p_state, c1 * p_state])
            np.testing.assert_allclose(state.amplitudes, want, atol=1e-10)


def random_hermitian_1q(rng):
    a, b, c = rng.standard_normal(3)
    re, im = rng.standard_normal(2)
    return np.array([[a, re + 1j * im], [re - 1j * im, b + c]], dtype=complex)
