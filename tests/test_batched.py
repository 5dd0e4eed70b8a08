"""The contracted probe readout against the gate-level reference circuit and
per-column single-state circuits, and the validate-once contract of the
controlled families."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conftest
import qgld.expectation
import qgld.qgpe
import qgld.statevector as sv
from qgld import (
    ControlledFamily,
    FamilySizeMismatch,
    GradientEncoding,
    NonUnitaryMember,
    NotInGroundRegister,
    PerturbationDirection,
    UnnormalizedTarget,
    build_delta,
    eig_hermitian,
    eigenbasis_families,
    eigenvalue_gradient_probe,
    eigenvalue_gradient_probes,
    evolution_family,
    logdet_directional_derivatives,
    probe_distributions,
)
from conftest import (
    SIGMA_X,
    RegisterLayout,
    apply_controlled_family,
    family_members,
    init_basis,
    preparation_unitary,
    random_hermitian,
    random_state,
    reference_distributions,
)


def single_circuit_distribution(family, v):
    """One probe circuit on one state, as dense matrices: Householder
    preparation, uniform deviation fan-out, block-diagonal controlled family,
    explicit inverse-DFT matrix, then the readout conditioned on v."""
    m_dim, n_dim = len(family), len(v)
    system = preparation_unitary(v)[:, 0]
    state = np.kron(np.full(m_dim, 1 / np.sqrt(m_dim)), system)
    controlled = np.zeros((m_dim * n_dim, m_dim * n_dim), dtype=complex)
    for eps, u in enumerate(family):
        controlled[eps * n_dim:(eps + 1) * n_dim, eps * n_dim:(eps + 1) * n_dim] = u
    k = np.arange(m_dim)
    dft = np.exp(-2j * np.pi * np.outer(k, k) / m_dim) / np.sqrt(m_dim)
    mat = (np.kron(dft, np.eye(n_dim)) @ controlled @ state).reshape(m_dim, n_dim)
    probs = np.abs(mat @ v.conj()) ** 2
    return probs / probs.sum()


class TestBatchedAgainstSingleCircuit:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.sampled_from([2, 4, 8, 16]),
        m=st.sampled_from([1, 2, 3]),
        shift=st.sampled_from(["unshifted", "centered"]),
        identity_shift=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_distributions_match_per_column_circuit(self, n, m, shift, identity_shift, seed):
        rng = np.random.default_rng(seed)
        x = random_hermitian(rng, n, indefinite=True)
        i, j = (int(v) for v in rng.integers(0, n, size=2))
        delta = build_delta("element", n, i=i, j=j)
        if identity_shift:
            delta = PerturbationDirection("custom", delta.matrix + np.eye(n))
        enc = GradientEncoding(L=1e-5, W=4.0, m=m, shift=shift)
        vectors = eig_hermitian(x).vectors
        family = evolution_family(x, delta, enc)
        distributions = probe_distributions(family, vectors, enc.m)
        for p, distribution in enumerate(distributions.T):
            want = single_circuit_distribution(family, vectors[:, p])
            np.testing.assert_allclose(distribution, want, rtol=0, atol=1e-12)
            single = probe_distributions(family, vectors[:, [p]], enc.m)[:, 0]
            np.testing.assert_allclose(single, distribution, rtol=0, atol=1e-12)
            assert np.argmax(single) == np.argmax(distribution)

    @pytest.mark.parametrize("symmetric", [False, True])
    def test_probes_match_one_column_probes(self, rng, symmetric):
        x = random_hermitian(rng, 8, indefinite=True)
        delta = build_delta("element", 8, i=1, j=6)
        enc = GradientEncoding(L=1e-5)
        vectors = eig_hermitian(x).vectors
        batched = eigenvalue_gradient_probes(x, vectors, delta, enc, identity_shift=1.0,
                                             symmetric=symmetric)
        for p in range(8):
            single = eigenvalue_gradient_probe(x, vectors[:, p], delta, enc, identity_shift=1.0,
                                               symmetric=symmetric)
            assert abs(batched[p] - single) <= 1e-12

    def test_chunked_columns_match_one_chunk(self, rng, monkeypatch):
        # the reference circuit run in chunks reads what the contracted readout reads in one pass
        x = random_hermitian(rng, 8)
        enc = GradientEncoding(L=1e-5, m=2)
        vectors = eig_hermitian(x).vectors
        family = evolution_family(x, build_delta("all_ones", 8), enc)
        whole = probe_distributions(family, vectors, enc.m)
        # a 6-qubit guard leaves room for 2 columns of M*N = 32 amplitudes
        monkeypatch.setattr(conftest, "MAX_QUBITS", 6)
        assert conftest.batch_capacity(2, 3) == 2
        chunked = reference_distributions(family, vectors, enc.m)
        np.testing.assert_allclose(chunked, whole, rtol=0, atol=1e-12)

    def test_layout_rejects_batch_beyond_guard(self):
        with pytest.raises(ValueError):
            RegisterLayout(1, 1, batch=conftest.batch_capacity(1, 1) + 1)
        with pytest.raises(ValueError):
            RegisterLayout(1, 1, batch=0)


def _family(kind, x, enc, rng):
    """A controlled family of ``kind`` for ``enc`` and the columns it is read
    on: eigenbasis (unit columns), dense or diagonal (random states)."""
    n = len(x)
    if kind == "eigenbasis":
        dec = eig_hermitian(x)
        if rng.integers(2):
            delta, c = build_delta("outer", n, phi=random_state(rng, n)), 0.0
        else:
            i, j = (int(v) for v in rng.integers(0, n, size=2))
            delta, c = build_delta("element", n, i=i, j=j), 1.0
        [family] = eigenbasis_families(dec.values, delta.signs, [(dec.vectors.conj().T @ delta.factors, enc, c)])
        return family, np.eye(n, dtype=complex)[:, rng.permutation(n)[:5]]
    columns = np.stack([random_state(rng, n) for _ in range(3)], axis=1)
    if kind == "dense":
        i, j = (int(v) for v in rng.integers(0, n, size=2))
        return evolution_family(x, build_delta("element", n, i=i, j=j), enc), columns
    # the superposition families' diag exp(i t s(eps) w), its s = 0 member an identity slot
    offsets = list(enc.offsets())
    zero = offsets.index(0.0)
    del offsets[zero]
    phases = np.exp(1j * enc.time_step() * np.array(offsets)[:, None] * rng.standard_normal(n) / 4)
    return ControlledFamily._adopt([phases], [zero], diagonal=True), columns


class TestContractedAgainstReferenceCircuit:
    @settings(max_examples=80, deadline=None)
    @given(
        n_qubits=st.integers(1, 6),
        m=st.sampled_from([1, 2, 3]),
        shift=st.sampled_from(["unshifted", "centered"]),
        kind=st.sampled_from(["eigenbasis", "dense", "diagonal"]),
        quarter_wave=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_distributions_equal_reference(self, n_qubits, m, shift, kind, quarter_wave, seed):
        # with quarter_wave, diag(1, -i) on the lowest deviation qubit, as the
        # superposition pipelines' Y-basis reading applies at m = 1
        rng = np.random.default_rng(seed)
        x = random_hermitian(rng, 1 << n_qubits, indefinite=True)
        enc = GradientEncoding(L=1e-5, W=4.0, m=m, shift=shift)
        family, columns = _family(kind, x, enc, rng)
        phases = None
        if quarter_wave:
            phases = np.repeat(np.where(np.arange(enc.deviation_dim) % 2, -1j, 1.0)[:, None], columns.shape[1], axis=1)
        got = probe_distributions(family, columns, m, phases)
        want = reference_distributions(family, columns, m, phases)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)


class TestContractedChecks:
    def test_unnormalized_column(self):
        with pytest.raises(UnnormalizedTarget, match="target column 1"):
            probe_distributions([np.eye(2), SIGMA_X], np.array([[1.0, 1.0], [0.0, 1.0]]), 1)

    def test_phases_off_unit_modulus(self):
        with pytest.raises(ValueError, match="unit modulus"):
            probe_distributions([np.eye(2), SIGMA_X], np.eye(2), 1, np.array([[1.0, 1.0], [0.5, 1.0]]))

    def test_column_without_conditioned_weight(self):
        # <e_0|sigma_x|e_0> = 0 on every member
        with pytest.raises(NotInGroundRegister, match="column 0"):
            probe_distributions([SIGMA_X, SIGMA_X], np.eye(2)[:, [0]], 1)

    def test_family_size_and_dimension(self):
        with pytest.raises(FamilySizeMismatch, match="3 members"):
            probe_distributions([np.eye(2)] * 3, np.eye(2), 2)
        with pytest.raises(FamilySizeMismatch, match="dimension 2, expected 2 of dimension 4"):
            probe_distributions([np.eye(2)] * 2, np.eye(4), 1)

    def test_eigenbasis_family_reads_unit_columns_only(self, rng):
        family, _ = _family("eigenbasis", random_hermitian(rng, 4), GradientEncoding(L=1e-5), rng)
        probe_distributions(family, np.eye(4), 1)
        with pytest.raises(ValueError, match="unit columns"):
            probe_distributions(family, random_state(rng, 4)[:, None], 1)


class TestFactoredFamilyCheck:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 32), scale=st.floats(1e-9, 1e-1), seed=st.integers(0, 2**32 - 1))
    def test_gram_defect_bounds_member_defect(self, n, scale, seed):
        # U = Q D Q^dag R with D, R diagonal unitaries: ||U^dag U - I||_F <= (2 + delta) delta,
        # delta = ||Q^dag Q - I||_F, up to the rounding of forming and checking U
        rng = np.random.default_rng(seed)
        gauss = rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))
        q = np.linalg.qr(gauss[0])[0] + scale * gauss[1]
        left, right = np.exp(2j * np.pi * rng.uniform(size=(2, n)))
        member = (q * left) @ (q.conj().T * right)
        delta = sv.unitarity_defect(q)
        assert sv.unitarity_defect(member) <= (2.0 + delta) * delta + 8 * n * np.finfo(float).eps

    @pytest.mark.parametrize("stretch,passes", [(6e-11, True), (8e-11, False)])
    def test_bound_crossing(self, stretch, passes):
        # Q = (1 + e) I at N = 8: delta = (2e + e^2) sqrt(8), and (2 + delta) delta crosses
        # NORM_ATOL * 8 = 8e-10 between e = 6e-11 (6.8e-10) and e = 8e-11 (9.1e-10)
        vectors = (1.0 + stretch) * np.eye(8, dtype=complex)[None]
        phases = np.ones((1, 8), dtype=complex)
        if passes:
            family = sv.FactoredFamily(vectors, phases, phases, [0])
            assert np.shares_memory(family.vectors, vectors)
            with pytest.raises(ValueError):
                family.vectors[0, 0, 0] = 2.0
        else:
            with pytest.raises(NonUnitaryMember, match="member 1 "):
                sv.FactoredFamily(vectors, phases, phases, [0])

    def test_defect_across_the_bound_names_the_slot_before_any_readout(self, rng, monkeypatch):
        # m = 2 unshifted: slot 0 is the identity, slots 1, 2, 3 are solved; Q of slot 2 grows by
        # 1e-9, a Gram defect of 2e-9 sqrt(8), whose bound crosses NORM_ATOL * 8 = 8e-10
        real_solve, readouts = qgld.qgpe.low_rank_update_eigh, []

        def stretched(*args):
            vectors, anchor, offset = real_solve(*args)
            vectors[1] *= 1.0 + 1e-9
            return vectors, anchor, offset

        monkeypatch.setattr(qgld.qgpe, "low_rank_update_eigh", stretched)
        monkeypatch.setattr(qgld.expectation, "probe_distributions", lambda *args: readouts.append(1))
        with pytest.raises(NonUnitaryMember, match="member 2 unitarity defect up to 1.1"):
            logdet_directional_derivatives(random_hermitian(rng, 8), [build_delta("element", 8, i=1, j=5)], 8,
                                           GradientEncoding(m=2))
        assert readouts == []


class TestValidateOnce:
    # a dense per-eigenvector call builds its families in the eigenbasis: per
    # window the s = 0 member, an identity slot that is neither checked nor
    # applied, and one secular member, checked once
    @pytest.mark.parametrize("symmetric,members", [(False, 2), (True, 4)])
    def test_unitarity_checked_once_per_member(self, rng, monkeypatch, symmetric, members):
        checks, built, dense = [], [], []
        real_defect, real_families = sv.unitarity_defect, qgld.expectation.eigenbasis_families

        def counting_defect(u):
            checks.append(1)
            return real_defect(u)

        def counting_families(*args):
            families = list(real_families(*args))
            built.extend(families)
            return iter(families)

        monkeypatch.setattr(sv, "unitarity_defect", counting_defect)
        monkeypatch.setattr(qgld.expectation, "eigenbasis_families", counting_families)
        monkeypatch.setattr(qgld.expectation, "evolution_family", lambda *args: dense.append(1))
        x = random_hermitian(rng, 16)
        # the qgld expectation of phi, through its core so that both windows can run
        outer = build_delta("outer", 16, phi=random_state(rng, 16))
        logdet_directional_derivatives(x, [outer], 16, symmetric=symmetric)
        assert sum(len(family) for family in built) == members
        assert len(checks) == members // 2
        for family in built:
            [slot] = family.identity_slots
            np.testing.assert_array_equal(family_members(family)[slot], np.eye(16))
        assert dense == []

    def test_non_unitary_member_rejected_at_build(self):
        with pytest.raises(NonUnitaryMember):
            ControlledFamily((np.eye(2), 2.0 * np.eye(2)))

    def test_raw_list_checked_by_apply(self):
        state = init_basis(RegisterLayout(1, 1), 0)
        with pytest.raises(NonUnitaryMember):
            apply_controlled_family(state, [np.eye(2), 2.0 * np.eye(2)])

    def test_raw_list_checked_by_probe_distributions(self):
        v = eig_hermitian(SIGMA_X).vectors[:, [1]]
        with pytest.raises(NonUnitaryMember):
            probe_distributions([np.eye(2), 2.0 * np.eye(2)], v, 1)

    def test_members_are_read_only_copies(self):
        member = np.eye(2, dtype=complex)
        family = ControlledFamily((np.eye(2), member))
        member[0, 0] = 2.0
        np.testing.assert_array_equal(family[1], np.eye(2))
        with pytest.raises(ValueError):
            family[1][0, 0] = 2.0
        evolved = evolution_family(SIGMA_X, build_delta("custom", 2, matrix=SIGMA_X),
                                   GradientEncoding())
        with pytest.raises(ValueError):
            evolved[0][:] = 0.0
