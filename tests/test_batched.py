"""The contracted probe readout against the gate-level reference circuit and
per-column single-state circuits, and the validate-once contract of the
controlled families."""
import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import conftest
import qgld.expectation
import qgld.qgpe
import qgld.statevector as sv
from qgld import (
    ControlledFamily,
    DenseSource,
    FamilySizeMismatch,
    GradientEncoding,
    AliasedReadout,
    NonHermitianInput,
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
    HADAMARD,
    SIGMA_X,
    RegisterLayout,
    apply_controlled_family,
    checked_members,
    family_members,
    init_basis,
    preparation_unitary,
    random_hermitian,
    random_state,
    reference_distributions,
    unstacked,
)


def single_circuit_distribution(family, v):
    """One probe circuit on one state, as dense matrices: Householder
    preparation, uniform deviation fan-out, block-diagonal controlled family,
    explicit inverse-DFT matrix, then the readout conditioned on v."""
    m_dim, n_dim = len(family), len(v)
    system = preparation_unitary(v)[:, 0]
    state = np.kron(np.full(m_dim, 1 / np.sqrt(m_dim)), system)
    controlled = np.zeros((m_dim * n_dim, m_dim * n_dim), dtype=complex)
    for eps, u in enumerate(family_members(family)):
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
            delta = PerturbationDirection(delta.matrix + np.eye(n))
        enc = GradientEncoding(L=1e-5, W=4.0, m=m, shift=shift)
        vectors = eig_hermitian(x).vectors
        family = evolution_family(x, delta, enc)
        distributions = probe_distributions(family, vectors)
        for p, distribution in enumerate(distributions.T):
            want = single_circuit_distribution(family, vectors[:, p])
            np.testing.assert_allclose(distribution, want, rtol=0, atol=1e-12)
            single = probe_distributions(family, vectors[:, [p]])[:, 0]
            np.testing.assert_allclose(single, distribution, rtol=0, atol=1e-12)
            assert np.argmax(single) == np.argmax(distribution)

    def test_probes_match_one_column_probes(self, rng):
        # each one-column probe runs along a new direction, so it builds its own family
        x = random_hermitian(rng, 8, indefinite=True)
        enc = GradientEncoding(L=1e-5)
        vectors = eig_hermitian(x).vectors
        batched = eigenvalue_gradient_probes(x, vectors, build_delta("element", 8, i=1, j=6), enc,
                                             identity_shift=1.0)
        for p in range(8):
            single = eigenvalue_gradient_probe(x, vectors[:, p], build_delta("element", 8, i=1, j=6), enc,
                                               identity_shift=1.0)
            assert abs(batched[p] - single) <= 1e-12

    def test_chunked_columns_match_one_chunk(self, rng, monkeypatch):
        # the reference circuit run in chunks reads what the contracted readout reads in one pass
        x = random_hermitian(rng, 8)
        enc = GradientEncoding(L=1e-5, m=2)
        vectors = eig_hermitian(x).vectors
        family = evolution_family(x, build_delta("all_ones", 8), enc)
        whole = probe_distributions(family, vectors)
        # a 6-qubit guard leaves room for 2 columns of M*N = 32 amplitudes
        monkeypatch.setattr(conftest, "MAX_QUBITS", 6)
        assert conftest.batch_capacity(2, 3) == 2
        chunked = reference_distributions(family, vectors)
        np.testing.assert_allclose(chunked, whole, rtol=0, atol=1e-12)

    def test_layout_rejects_batch_beyond_guard(self):
        with pytest.raises(ValueError):
            RegisterLayout(1, 1, batch=conftest.batch_capacity(1, 1) + 1)
        with pytest.raises(ValueError):
            RegisterLayout(1, 1, batch=0)


def _family(builder, x, enc, rng):
    """A controlled family from ``builder`` and the norm ||Delta||_2 of its
    direction: the dense evolution family of an element direction, an
    eigenbasis family of a rank-one (outer or all-ones) or rank-two (element
    or signed pair) direction, or the superposition pipelines' scaled-phase
    family, whose direction V diag(weights) V^dag has norm max |weights|."""
    n = len(x)
    if builder == "scaled-phase":
        weights = rng.standard_normal(n) / 4
        return qgld.expectation._scaled_phase_family(weights, enc.W), float(np.max(np.abs(weights)))
    if builder == "dense":
        i, j = (int(v) for v in rng.integers(0, n, size=2))
        delta = build_delta("element", n, i=i, j=j)
        return evolution_family(x, delta, enc), delta.norm
    if builder == "eigenbasis-1":
        delta = build_delta("outer", n, phi=random_state(rng, n)) if rng.integers(2) else build_delta("all_ones", n)
    elif rng.integers(2):
        i, j = rng.choice(n, size=2, replace=False)
        delta = build_delta("element", n, i=int(i), j=int(j))
    else:
        e, f = np.eye(n)[int(rng.integers(0, n))], random_state(rng, n)
        delta = PerturbationDirection.from_factors(np.stack([e + f, e - f], axis=1) / 2, (1.0, -1.0))
    dec = eig_hermitian(x)
    [(_, stack)] = eigenbasis_families(dec.values, delta.signs, [dec.vectors.conj().T @ delta.factors], enc)
    return unstacked(stack), delta.norm


def count_builds(monkeypatch) -> list:
    """The dense families the probe functions build from here on, one entry each."""
    builds, build = [], qgld.expectation.evolution_family

    def counting(*args, **kwargs):
        builds.append(1)
        return build(*args, **kwargs)

    monkeypatch.setattr(qgld.expectation, "evolution_family", counting)
    return builds


def fresh(delta: PerturbationDirection) -> PerturbationDirection:
    """Another direction with ``delta``'s matrix, along which nothing is held."""
    return PerturbationDirection(delta.matrix)


def count_checks(monkeypatch) -> list:
    """The hermiticity checks the probe functions run from here on, one entry each."""
    checks, check = [], qgld.linalg.require_hermitian
    monkeypatch.setattr(qgld.qgpe, "require_hermitian", lambda a: checks.append(1) or check(a))
    return checks


class TestProbeOracleReuse:
    def test_one_column_loop_builds_one_family(self, rng, monkeypatch):
        # many_small's probe: 32 one-column m = 4 centered probes on one (X, Delta, encoding)
        x = random_hermitian(rng, 32, indefinite=True)
        delta = build_delta("element", 32, i=3, j=17)
        enc = GradientEncoding(m=4, shift="centered", W=2.0)
        vectors = eig_hermitian(x).vectors
        batched = eigenvalue_gradient_probes(x, vectors, fresh(delta), enc, identity_shift=1.0)
        builds, checks = count_builds(monkeypatch), count_checks(monkeypatch)
        singles = [eigenvalue_gradient_probe(x, vectors[:, p], delta, enc, identity_shift=1.0) for p in range(32)]
        assert len(builds) == 1
        assert len(checks) == 1  # the build's: X bitwise equal to the copy it validated needs no other
        np.testing.assert_array_equal(singles, batched)

    @pytest.mark.parametrize("change", ["x in place", "encoding", "direction"])
    def test_rebuilt_after_a_change(self, rng, monkeypatch, change):
        x = random_hermitian(rng, 8, indefinite=True)
        vectors = eig_hermitian(x).vectors
        delta, enc = build_delta("element", 8, i=1, j=6), GradientEncoding(L=1e-5)
        builds = count_builds(monkeypatch)
        eigenvalue_gradient_probes(x, vectors, delta, enc, identity_shift=1.0)
        if change == "x in place":
            x[2, 5] += 1e-3
            x[5, 2] += 1e-3
        elif change == "encoding":
            enc = replace(enc, W=2.0)
        else:
            delta = build_delta("element", 8, i=0, j=3)
        got = eigenvalue_gradient_probes(x, vectors, delta, enc, identity_shift=1.0)
        assert len(builds) == 2
        want = eigenvalue_gradient_probes(x.copy(), vectors, fresh(delta), enc, identity_shift=1.0)
        np.testing.assert_array_equal(got, want)

    def test_a_direction_cannot_change_in_place(self, rng, monkeypatch):
        # writing 50 into element:1,6 once left its carried norm and factors stale, so the
        # readout-range check passed a probe that aliased; the write now raises, and the held
        # family still fits its direction
        x = random_hermitian(rng, 8, indefinite=True)
        vectors = eig_hermitian(x).vectors
        delta, enc = build_delta("element", 8, i=1, j=6), GradientEncoding(L=1e-5)
        builds = count_builds(monkeypatch)
        want = eigenvalue_gradient_probes(x, vectors, delta, enc, identity_shift=1.0)
        with pytest.raises(ValueError, match="read-only"):
            delta.matrix[1, 6] = delta.matrix[6, 1] = 50.0
        with pytest.raises(ValueError, match="read-only"):
            delta.factors[1, 0] = 50.0
        np.testing.assert_array_equal(eigenvalue_gradient_probes(x, vectors, delta, enc, identity_shift=1.0), want)
        assert len(builds) == 1

    def test_one_direction_holds_families_until_released(self, rng):
        x = random_hermitian(rng, 8)
        vectors = eig_hermitian(x).vectors
        first, second = build_delta("element", 8, i=1, j=6), build_delta("all_ones", 8)
        eigenvalue_gradient_probes(x, vectors, first, GradientEncoding(L=1e-5), identity_shift=1.0)
        assert list(qgld.expectation._oracle) == [first]
        eigenvalue_gradient_probes(x, vectors, second, GradientEncoding(L=1e-5, W=16.0), identity_shift=8.0)
        assert list(qgld.expectation._oracle) == [second]
        family = weakref.ref(qgld.expectation._oracle[second][-1])
        del second
        gc.collect()
        assert family() is None
        assert len(qgld.expectation._oracle) == 0

    def test_a_failed_call_leaves_no_family_to_misread(self, rng, monkeypatch):
        x = random_hermitian(rng, 8, indefinite=True)
        vectors = eig_hermitian(x).vectors
        delta, enc = build_delta("element", 8, i=1, j=6), GradientEncoding(L=1e-5)
        want = eigenvalue_gradient_probes(x, vectors, fresh(delta), enc, identity_shift=1.0)
        builds = count_builds(monkeypatch)
        eigenvalue_gradient_probes(x, vectors, delta, enc, identity_shift=1.0)
        # raised before any family is touched: the held one still fits its inputs, and is reused
        with pytest.raises(AliasedReadout):
            eigenvalue_gradient_probes(x, vectors, delta, replace(enc, W=0.25), identity_shift=1.0)
        np.testing.assert_array_equal(eigenvalue_gradient_probes(x, vectors, delta, enc, identity_shift=1.0), want)
        assert len(builds) == 1
        # the column checks still run on a reused family
        with pytest.raises(UnnormalizedTarget):
            eigenvalue_gradient_probes(x, 2 * vectors, delta, enc, identity_shift=1.0)
        # a non-hermitian X releases the held family and holds none
        entry = x[0, 1]
        x[0, 1] += 1.0
        with pytest.raises(NonHermitianInput):
            eigenvalue_gradient_probes(x, vectors, delta, enc, identity_shift=1.0)
        assert len(qgld.expectation._oracle) == 0
        with pytest.raises(NonHermitianInput):
            eigenvalue_gradient_probes(x, vectors, delta, enc, identity_shift=1.0)
        x[0, 1] = entry
        np.testing.assert_array_equal(eigenvalue_gradient_probes(x, vectors, delta, enc, identity_shift=1.0), want)
        assert len(builds) == 4


class TestContractedAgainstReferenceCircuit:
    @settings(max_examples=120, deadline=None)
    @given(
        n_qubits=st.integers(1, 6),
        m=st.sampled_from([1, 2, 3]),
        shift=st.sampled_from(["unshifted", "centered"]),
        builder=st.sampled_from(["dense", "eigenbasis-1", "eigenbasis-2", "scaled-phase"]),
        identity_shift=st.booleans(),
        unit_columns=st.booleans(),
        quarter_wave=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    # two draws whose random columns have a small conditioning weight w (4.0e-5 in the first): off by
    # 2.15e-14 and 1.58e-14, against the fixed atol of 1e-14 this test once had
    @example(n_qubits=4, m=1, shift="unshifted", builder="dense", identity_shift=False, unit_columns=False,
             quarter_wave=False, seed=1060962)
    @example(n_qubits=5, m=1, shift="unshifted", builder="eigenbasis-2", identity_shift=False, unit_columns=False,
             quarter_wave=False, seed=5444)
    def test_distributions_equal_reference(self, n_qubits, m, shift, builder, identity_shift, unit_columns,
                                           quarter_wave, seed):
        # every builder's family read by the contracted readout, on unit or random columns, equals
        # the gate-level circuit on its formed members; the scaled-phase family has one deviation
        # qubit.  With identity_shift, both carry the deviation phases exp(i t s(eps) c) of the
        # identity shift c = ||Delta||_2, one per deviation state.  With quarter_wave, the columns
        # run twice, the second time with diag(1, -i) on the lowest deviation qubit as well, as the
        # superposition pipelines' signed-phase reading does at m = 1
        rng = np.random.default_rng(seed)
        n = 1 << n_qubits
        if builder == "scaled-phase":
            m = 1
        x = random_hermitian(rng, n, indefinite=True)
        enc = GradientEncoding(L=1e-5, W=4.0, m=m, shift=shift)
        family, norm = _family(builder, x, enc, rng)
        if unit_columns:
            columns = np.eye(n, dtype=complex)[:, rng.permutation(n)[:5]]
        else:
            columns = np.stack([random_state(rng, n) for _ in range(3)], axis=1)
        phases = None
        if identity_shift:
            phases = np.exp(1j * enc.time_step() * enc.offsets() * norm)
            assert np.max(np.abs(np.angle(phases))) > 0.0
        if quarter_wave:
            b = columns.shape[1]
            columns = np.concatenate([columns, columns], axis=1)
            quarter = np.ones((enc.deviation_dim, 2 * b), dtype=complex)
            quarter[1::2, b:] = -1j
            phases = quarter if phases is None else quarter * phases[:, None]
        got = probe_distributions(family, columns, deviation_phases=phases)
        want = reference_distributions(family, columns, phases)
        # Each distribution is normalized by its column's conditioning weight w = sum_eps |a_eps|^2 / M
        # (Parseval, with |phi_eps| = 1), so p ~ |a|^2 / w and an amplitude rounding da moves p by about
        # da / sqrt(w): the bound is 1e-14 / sqrt(w) per column, 1e-14 at w ~ 1 (eigenvector columns).
        weight = np.sum(np.abs(family.amplitudes(columns)) ** 2, axis=0) / len(family)
        assert np.all(np.abs(got - want) <= 1e-14 / np.sqrt(weight))


class TestStackedRead:
    @settings(max_examples=40, deadline=None)
    @given(
        n_qubits=st.integers(1, 4),
        symmetric=st.booleans(),
        probes=st.lists(st.tuples(st.sampled_from(["element", "outer", "factors", "custom"]),
                                  st.sampled_from([1e-5, 1e-6]), st.sampled_from([1, 2, 3]),
                                  st.sampled_from(["unshifted", "centered"])), min_size=1, max_size=6),
        budget=st.integers(1, 24),
        seed=st.integers(0, 2**32 - 1),
    )
    # the element and factored directions read the same two m = 1 windows in opposite order, so each
    # of those stacks holds both, one at window index 0 and one at 1; the outer direction's m = 2
    # windows take one probe a stack, and the custom matrix runs a dense family per window
    @example(n_qubits=3, symmetric=True, probes=[("element", 1e-5, 1, "unshifted"), ("outer", 1e-5, 2, "centered"),
                                                 ("factors", 1e-5, 1, "centered"), ("custom", 1e-6, 2, "unshifted")],
             budget=3, seed=7)
    def test_stack_reads_each_probe_alone(self, n_qubits, symmetric, probes, budget, seed):
        # the directions of one call, each in an encoding of its own, are read from one stack per
        # chunk of a (signs, window) group, of at most max(1, budget // K) probes of K solved
        # members, and from a dense family per window for a custom matrix; their slopes, adapted
        # residuals and totals equal those of each direction read alone bit for bit.  Element,
        # factored and custom directions read with the identity shift ||Delta||_2, outer ones without
        rng = np.random.default_rng(seed)
        n = 1 << n_qubits
        x = random_hermitian(rng, n, indefinite=True)
        pairs = []
        for kind, l_value, m, shift in probes:
            if kind == "element":
                i, j = (int(v) for v in rng.integers(0, n, size=2))
                delta = build_delta("element", n, i=i, j=j)
            elif kind == "outer":
                delta = build_delta("outer", n, phi=random_state(rng, n))
            elif kind == "factors":  # the kernel weight's (e_i f^T + f e_i^T) / 2
                e, f = np.eye(n)[int(rng.integers(0, n))], random_state(rng, n)
                delta = PerturbationDirection.from_factors(np.stack([e + f, e - f], axis=1) / 2, (1.0, -1.0))
            else:
                matrix = random_hermitian(rng, n)
                delta = build_delta("custom", n, matrix=matrix / np.linalg.norm(matrix, ord=2))
            pairs.append((delta, GradientEncoding(L=l_value, W=4.0, m=m, shift=shift)))

        def read(probes):
            return qgld.expectation._probe_relevant_eigenpairs(DenseSource().resolve(x), probes, n, symmetric)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(qgld.qgpe, "EIGENBASIS_BATCH", budget * n * n)
            _, _, slopes, residuals, totals = read(pairs)
        for row, pair in enumerate(pairs):
            _, _, alone, alone_residuals, alone_total = read([pair])
            np.testing.assert_array_equal(slopes[row], alone[0])
            np.testing.assert_array_equal(residuals[row], alone_residuals[0])
            assert totals[row] == alone_total[0]


# sigma_x = H diag(1, -1) H, kept as its factors
SIGMA_X_FACTORS = (np.array([1.0, -1.0], dtype=complex), HADAMARD)


def _sigma_x_family(slots):
    """The family of ``slots`` members, the identity (a diagonal slot) where
    the flag is False and sigma_x where it is True."""
    phases = np.array([SIGMA_X_FACTORS[0] if flag else np.ones(2) for flag in slots], dtype=complex)
    picked = [eps for eps, flag in enumerate(slots) if flag]
    return ControlledFamily(phases, np.stack([SIGMA_X_FACTORS[1]] * len(picked)), picked)


class TestContractedChecks:
    def test_unnormalized_column(self):
        with pytest.raises(UnnormalizedTarget, match="target column 1"):
            probe_distributions(_sigma_x_family([False, True]), np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_phases_off_unit_modulus(self):
        with pytest.raises(ValueError, match="unit modulus"):
            probe_distributions(_sigma_x_family([False, True]), np.eye(2),
                                deviation_phases=np.array([[1.0, 1.0], [0.5, 1.0]]))

    def test_column_without_conditioned_weight(self):
        # <e_0|sigma_x|e_0> = 0 on every member
        with pytest.raises(NotInGroundRegister, match="column 0"):
            probe_distributions(_sigma_x_family([True, True]), np.eye(2)[:, [0]])

    def test_family_size_and_dimension(self):
        # M is read from the family: a power of two >= 2, on members of the columns' dimension
        for members in (1, 3):
            with pytest.raises(FamilySizeMismatch, match=f"family of {members} members of dimension 2 on columns"):
                probe_distributions(ControlledFamily(np.ones((members, 2), dtype=complex)), np.eye(2))
        with pytest.raises(FamilySizeMismatch, match="2 members of dimension 2 on columns of dimension 4"):
            probe_distributions(ControlledFamily(np.ones((2, 2), dtype=complex)), np.eye(4))

    def test_positional_m_refused(self):
        # the deviation phases are keyword-only, so a register size passed where m once stood is refused
        with pytest.raises(TypeError):
            probe_distributions(_sigma_x_family([False, True]), np.eye(2), 1)

    def test_phases_of_another_shape(self):
        # one phase per deviation state, (M,), or per state and column, (M, B); nothing else
        family = _sigma_x_family([False, True])
        np.testing.assert_array_equal(probe_distributions(family, np.eye(2), deviation_phases=np.ones(2)),
                                      probe_distributions(family, np.eye(2), deviation_phases=np.ones((2, 2))))
        for shape in ((4,), (2, 1), (2, 3), (4, 2)):
            with pytest.raises(ValueError, match=rf"not \({shape[0]},"):
                probe_distributions(family, np.eye(2), deviation_phases=np.ones(shape))


class TestFactoredFamilyCheck:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 32), scale=st.floats(1e-9, 1e-1), wobble=st.sampled_from([0.0, 1e-9, 1e-5, 1e-1]),
           seed=st.integers(0, 2**32 - 1))
    def test_gram_defect_bounds_member_defect(self, n, scale, wobble, seed):
        # U = Q D Q^dag with D diagonal: ||U^dag U - I||_F <= (2 + delta) delta + (1 + delta)^2 eta,
        # delta = ||Q^dag Q - I||_F and eta = ||D^dag D - I||_F, up to the rounding of forming and
        # checking U
        rng = np.random.default_rng(seed)
        gauss = rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))
        q = np.linalg.qr(gauss[0])[0] + scale * gauss[1]
        d = np.exp(2j * np.pi * rng.uniform(size=n)) * (1.0 + wobble * rng.standard_normal(n))
        member = (q * d) @ q.conj().T
        delta = sv.unitarity_defect(q)
        eta = sv.unitarity_defect(d, diagonal=True)
        bound = (2.0 + delta) * delta + (1.0 + delta) ** 2 * eta
        assert sv.unitarity_defect(member) <= bound + 8 * n * np.finfo(float).eps

    @pytest.mark.parametrize("stretch,passes", [(6e-11, True), (8e-11, False)])
    def test_bound_crossing(self, stretch, passes):
        # through delta alone: Q = (1 + e) I at N = 8, delta = (2e + e^2) sqrt(8), and
        # (2 + delta) delta crosses NORM_ATOL * 8 = 8e-10 between e = 6e-11 (6.8e-10) and
        # e = 8e-11 (9.1e-10)
        vectors = (1.0 + stretch) * np.eye(8, dtype=complex)[None]
        phases = np.ones((2, 8), dtype=complex)
        if passes:
            ControlledFamily(phases, vectors, [1])
        else:
            with pytest.raises(NonUnitaryMember, match="member 1 "):
                ControlledFamily(phases, vectors, [1])

    @pytest.mark.parametrize("stretch,passes", [(1.2e-10, True), (1.6e-10, False)])
    def test_bound_crossing_through_phases(self, stretch, passes):
        # through eta alone: d = 1 + e on the diagonal slot 1 at N = 8, eta = (2e + e^2) sqrt(8),
        # which crosses NORM_ATOL * 8 = 8e-10 between e = 1.2e-10 (6.8e-10) and e = 1.6e-10 (9.1e-10)
        phases = np.ones((2, 8), dtype=complex)
        phases[1] += stretch
        vectors = np.eye(8, dtype=complex)[None]
        if passes:
            ControlledFamily(phases, vectors, [0])
        else:
            with pytest.raises(NonUnitaryMember, match="member 1 "):
                ControlledFamily(phases, vectors, [0])

    def test_defect_across_the_bound_names_the_slot_before_any_readout(self, rng, monkeypatch):
        # m = 2 unshifted: slot 0 is diagonal, slots 1, 2, 3 are solved; Q of slot 2 grows by
        # 1e-9, a Gram defect of 2e-9 sqrt(8), whose bound crosses NORM_ATOL * 8 = 8e-10
        real_solve, readouts = qgld.qgpe.low_rank_update_eigh, []

        def stretched(*args):
            vectors, anchor, offset = real_solve(*args)
            vectors[1] *= 1.0 + 1e-9
            return vectors, anchor, offset

        monkeypatch.setattr(qgld.qgpe, "low_rank_update_eigh", stretched)
        monkeypatch.setattr(qgld.expectation, "probe_distributions", lambda *args, **kwargs: readouts.append(1))
        with pytest.raises(NonUnitaryMember, match="member 2 unitarity defect up to 1.1"):
            logdet_directional_derivatives(random_hermitian(rng, 8), [build_delta("element", 8, i=1, j=5)], 8,
                                           GradientEncoding(m=2))
        assert readouts == []

    def test_phase_defect_across_the_bound_names_the_slot_before_any_readout(self, rng, monkeypatch):
        # as above, with the phases of slot 2 grown by 1e-9 instead, eta = 2e-9 sqrt(8): its offset
        # takes the imaginary part -ln(1 + 1e-9) / t, so that exp(i t offset) grows by 1 + 1e-9
        real_solve, readouts = qgld.qgpe.low_rank_update_eigh, []
        t = GradientEncoding(m=2).time_step()

        def stretched(*args):
            vectors, anchor, offset = real_solve(*args)
            offset = offset.astype(complex)
            offset[1] -= 1j * np.log1p(1e-9) / t
            return vectors, anchor, offset

        monkeypatch.setattr(qgld.qgpe, "low_rank_update_eigh", stretched)
        monkeypatch.setattr(qgld.expectation, "probe_distributions", lambda *args, **kwargs: readouts.append(1))
        with pytest.raises(NonUnitaryMember, match="member 2 unitarity defect up to 5.6"):
            logdet_directional_derivatives(random_hermitian(rng, 8), [build_delta("element", 8, i=1, j=5)], 8,
                                           GradientEncoding(m=2))
        assert readouts == []


class TestValidateOnce:
    # per-eigenvector reads along three directions build their families in the eigenbasis, one
    # stack of three per window: per probe the s = 0 member, a diagonal slot, and one secular
    # member, so ``members`` per direction in all; each stack checks all its eigenvectors with
    # one call and all its phases with another
    @pytest.mark.parametrize("symmetric,members", [(False, 2), (True, 4)])
    def test_unitarity_checked_once_per_member(self, rng, monkeypatch, symmetric, members):
        stacks = members // 2
        checks, built, dense = [], [], []
        real_defect, real_families = sv.unitarity_defect, qgld.expectation.eigenbasis_families

        def counting_defect(u, diagonal=False):
            checks.append((len(u), diagonal))
            return real_defect(u, diagonal)

        def counting_families(*args):
            families = list(real_families(*args))
            built.extend(family for _, family in families)
            return iter(families)

        monkeypatch.setattr(sv, "unitarity_defect", counting_defect)
        monkeypatch.setattr(qgld.expectation, "eigenbasis_families", counting_families)
        monkeypatch.setattr(qgld.expectation, "evolution_family", lambda *args: dense.append(1))
        x = random_hermitian(rng, 16)
        # the qgld expectations of three phi, through the core so that both windows can run
        outers = [build_delta("outer", 16, phi=random_state(rng, 16)) for _ in range(3)]
        logdet_directional_derivatives(x, outers, 16, symmetric=symmetric)
        assert [family.phases.shape for family in built] == [(3, 2, 16)] * stacks
        assert [len(family) for family in built] == [2] * stacks
        assert checks == [(3, False), (3, True)] * stacks
        bare = np.exp(1j * GradientEncoding().time_step() * eig_hermitian(x).values)
        for family in built:
            [slot] = family.diagonal_slots
            for phases in family.phases:
                np.testing.assert_array_equal(phases[slot], bare)
        assert dense == []

    def test_non_unitary_member_rejected_at_build(self):
        with pytest.raises(NonUnitaryMember):
            ControlledFamily(np.array([[1.0, 1.0], [2.0, 2.0]], dtype=complex))

    def test_raw_list_checked_by_apply(self):
        state = init_basis(RegisterLayout(1, 1), 0)
        with pytest.raises(NonUnitaryMember):
            apply_controlled_family(state, [np.eye(2), 2.0 * np.eye(2)])

    def test_members_are_read_only_copies(self):
        # the reference circuit copies a raw member list; a family's factors are read-only
        member = np.eye(2, dtype=complex)
        members = checked_members((np.eye(2), member))
        member[0, 0] = 2.0
        np.testing.assert_array_equal(members[1], np.eye(2))
        evolved = evolution_family(SIGMA_X, build_delta("custom", 2, matrix=SIGMA_X), GradientEncoding())
        for factor in (evolved.phases, evolved.vectors):
            with pytest.raises(ValueError):
                factor[0] = 0.0
