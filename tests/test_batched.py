"""The batched probe engine against per-column single-state circuits, and the
validate-once contract of ControlledFamily."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qgld.expectation
import qgld.qgpe
import qgld.statevector as sv
from qgld import (
    ControlledFamily,
    GradientEncoding,
    NonUnitaryMember,
    PerturbationDirection,
    RegisterLayout,
    apply_controlled_family,
    build_delta,
    eig_hermitian,
    eigenvalue_gradient_probe,
    eigenvalue_gradient_probes,
    evolution_family,
    init_basis,
    logdet_directional_derivatives,
    probe_distributions,
)
from conftest import SIGMA_X, preparation_unitary, random_hermitian, random_state


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
        x = random_hermitian(rng, 8)
        enc = GradientEncoding(L=1e-5, m=2)
        vectors = eig_hermitian(x).vectors
        family = evolution_family(x, build_delta("all_ones", 8), enc)
        whole = probe_distributions(family, vectors, enc.m)
        # a 6-qubit guard leaves room for 2 columns of M*N = 32 amplitudes
        monkeypatch.setattr(sv, "MAX_QUBITS", 6)
        assert sv.batch_capacity(2, 3) == 2
        chunked = probe_distributions(family, vectors, enc.m)
        np.testing.assert_allclose(chunked, whole, rtol=0, atol=1e-12)

    def test_layout_rejects_batch_beyond_guard(self):
        with pytest.raises(ValueError):
            RegisterLayout(1, 1, batch=sv.batch_capacity(1, 1) + 1)
        with pytest.raises(ValueError):
            RegisterLayout(1, 1, batch=0)


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
            np.testing.assert_array_equal(family[slot], np.eye(16))
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
