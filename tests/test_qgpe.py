import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgld import (
    FlatDistribution,
    GradientEncoding,
    IndexOutOfRange,
    NonFiniteInput,
    NonHermitianInput,
    PerturbationDirection,
    ProbabilityOutOfRange,
    UnnormalizedPhi,
    build_delta,
    eig_hermitian,
    eigenbasis_families,
    eigenvalue_gradient_probes,
    evolution_family,
    logdet_directional_derivatives,
    low_rank_update_eigh,
    suggest_gradient_bound,
)
import qgld.cli
import qgld.expectation
import qgld.qgpe
from qgld.cli import random_spd
import qgld.statevector as sv
from qgld.qgpe import probe_distributions, readout_gradients
from conftest import (
    HADAMARD,
    SIGMA_X,
    SIGMA_Z,
    RegisterLayout,
    apply_controlled_family,
    deviation_distribution,
    directional_eigen_derivative,
    family_members,
    hadamard_deviation_register,
    init_basis,
    inverse_qft_deviation,
    random_hermitian,
    random_state,
    unitary_phase_exp,
    unstacked,
)


class TestBuildDelta:
    def test_element_offdiag(self):
        np.testing.assert_allclose(build_delta("element", 2, i=0, j=1).matrix, SIGMA_X, atol=1e-15)

    def test_element_diag(self):
        got = build_delta("element", 3, i=1, j=1).matrix
        want = np.zeros((3, 3))
        want[1, 1] = 1.0
        np.testing.assert_allclose(got, want, atol=1e-15)

    def test_all_ones(self):
        np.testing.assert_allclose(build_delta("all_ones", 2).matrix, np.ones((2, 2)), atol=1e-15)

    def test_outer(self):
        phi = np.array([1.0, 1.0]) / np.sqrt(2)
        np.testing.assert_allclose(
            build_delta("outer", 2, phi=phi).matrix, np.full((2, 2), 0.5), atol=1e-15
        )

    def test_outer_is_hermitian(self, rng):
        phi = random_state(rng, 4)
        mat = build_delta("outer", 4, phi=phi).matrix
        assert np.max(np.abs(mat - mat.conj().T)) <= 1e-14

    def test_index_error(self):
        with pytest.raises(IndexOutOfRange):
            build_delta("element", 2, i=0, j=2)

    def test_unnormalized_phi(self):
        with pytest.raises(UnnormalizedPhi):
            build_delta("outer", 2, phi=np.array([1.0, 1.0]))

    # n <= 16: the SVD reference's own rounding grows with n (about 10 eps for
    # the uniform phi at n = 128), while the carried norms do not
    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 16), data=st.data())
    def test_carried_norm_matches_svd(self, n, data):
        i = data.draw(st.integers(0, n - 1))
        j = data.draw(st.integers(0, n - 1))
        parts = data.draw(st.lists(st.floats(-1e3, 1e3), min_size=2 * n, max_size=2 * n))
        phi = np.asarray(parts[:n]) + 1j * np.asarray(parts[n:])
        if np.linalg.norm(phi) < 1e-6:
            phi = np.ones(n, dtype=complex)
        phi = phi / np.linalg.norm(phi)
        for delta in (build_delta("element", n, i=i, j=j), build_delta("outer", n, phi=phi)):
            assert delta.norm is not None
            svd = float(np.linalg.norm(delta.matrix, ord=2))
            assert abs(delta.norm - svd) <= 4 * np.finfo(float).eps

    def test_other_kinds_take_the_svd(self, rng):
        # custom is the one kind whose norm is its SVD
        x = random_hermitian(rng, 4, indefinite=True)
        delta = build_delta("custom", 4, matrix=x)
        assert delta.factors is None
        assert delta.norm == float(np.linalg.norm(delta.matrix, ord=2))

    @pytest.mark.parametrize("n", [1, 2, 5, 16])
    def test_low_rank_kinds_carry_factors_and_norm(self, rng, n):
        phi, f = random_state(rng, n), random_state(rng, n).real
        e = np.eye(n)[n - 1]
        for delta in (build_delta("all_ones", n), build_delta("element", n, i=0, j=n - 1),
                      build_delta("element", n, i=n - 1, j=n - 1), build_delta("outer", n, phi=phi),
                      PerturbationDirection.from_factors(np.stack([e + f, e - f], axis=1) / 2, (1.0, -1.0))):
            rebuilt = (delta.factors * delta.signs) @ delta.factors.conj().T
            np.testing.assert_allclose(rebuilt, delta.matrix, rtol=0, atol=8 * n * np.finfo(float).eps)
            svd = float(np.linalg.norm(delta.matrix, ord=2))
            assert abs(delta.norm - svd) <= 8 * n * np.finfo(float).eps * svd

    def test_a_direction_without_factors_checks_its_matrix(self, rng):
        # D[0, 1] = 1 alone was accepted, and the log-det core then read -8.1e-16 along it on
        # random_spd(4, 1), where tr(X^-1 D) = 0.0071 - 0.110i
        d = np.zeros((4, 4))
        d[0, 1] = 1.0
        with pytest.raises(NonHermitianInput, match="hermiticity defect"):
            PerturbationDirection(d)
        with pytest.raises(NonFiniteInput):
            PerturbationDirection(np.full((2, 2), np.nan))
        # within the tolerance the matrix is kept symmetrized
        near = random_hermitian(rng, 4, indefinite=True) + 1e-15 * rng.standard_normal((4, 4))
        delta = PerturbationDirection(near)
        np.testing.assert_array_equal(delta.matrix, delta.matrix.conj().T)
        np.testing.assert_array_equal(delta.matrix, build_delta("custom", 4, matrix=near).matrix)

    def test_directions_are_read_only_values(self, rng):
        # outer once kept a view of the caller's phi, from_factors of its factors and a direct
        # construction its matrix, and any of them could be written in place under the norm and
        # factors the direction carried; == raised on the arrays
        phi, matrix = random_state(rng, 4), random_hermitian(rng, 4, indefinite=True).astype(complex)
        factors = np.stack([random_state(rng, 4), random_state(rng, 4)], axis=1)
        directions = [build_delta("outer", 4, phi=phi), PerturbationDirection.from_factors(factors, (1.0, -1.0)),
                      PerturbationDirection(matrix), build_delta("element", 4, i=1, j=2)]
        built = [(d.matrix.copy(), d.factors.copy() if d.factors is not None else None) for d in directions]
        phi[:], matrix[:], factors[:] = 0.0, 0.0, 0.0
        for delta, (want_matrix, want_factors) in zip(directions, built):
            np.testing.assert_array_equal(delta.matrix, want_matrix)
            with pytest.raises(ValueError, match="read-only"):
                delta.matrix[0, 0] = 1.0
            if want_factors is not None:
                np.testing.assert_array_equal(delta.factors, want_factors)
                with pytest.raises(ValueError, match="read-only"):
                    delta.factors[0, 0] = 1.0
        assert directions[3] == directions[3] and directions[3] != build_delta("element", 4, i=1, j=2)
        assert len({*directions, *directions}) == 4

    def test_factored_matrix_formed_on_each_read(self, rng):
        # 2080 element directions at N = 64 once held 136 MB of matrices that the eigenbasis probes
        # never read: a direction with factors stores none, and each read forms it by its kind's
        # formula, read-only; a custom matrix is kept as given
        n, phi = 8, random_state(rng, 8)
        e, f = np.eye(n)[2], random_state(rng, n)
        factors = np.stack([e + f, e - f], axis=1) / 2
        element = np.zeros((n, n), dtype=complex)
        element[1, 5] = element[5, 1] = 1.0
        diagonal = np.zeros((n, n), dtype=complex)
        diagonal[3, 3] = 1.0
        pair = (factors * (1.0, -1.0)) @ factors.conj().T
        cases = [(build_delta("element", n, i=1, j=5), element), (build_delta("element", n, i=5, j=1), element),
                 (build_delta("element", n, i=3, j=3), diagonal),
                 (build_delta("all_ones", n), np.ones((n, n), dtype=complex)),
                 (build_delta("outer", n, phi=phi), np.outer(phi, phi.conj())),
                 (PerturbationDirection.from_factors(factors, (1.0, -1.0)), (pair + pair.conj().T) / 2)]
        x = random_spd(n, 1)
        logdet_directional_derivatives(x, [delta for delta, _ in cases], n, GradientEncoding(W=4.0 * n))
        for delta, want in cases:
            assert "matrix" not in vars(delta) and delta.dim == n
            for _ in range(3):
                formed = delta.matrix
                np.testing.assert_array_equal(formed, want)
                assert not formed.flags.writeable
                assert "matrix" not in vars(delta)
        assert "matrix" in vars(build_delta("custom", n, matrix=element))

    def test_factored_matrix_formed_once_per_reading_call(self, capsys, monkeypatch):
        # every reader takes the matrix once per call: the adaptation over all its clusters, the
        # dense family over all its chunks, and the gradient command for its oracle column
        formed, form = [], qgld.qgpe._factored_matrix

        def counting(delta):
            formed.append(delta.kind)
            return form(delta)

        monkeypatch.setattr(qgld.qgpe, "_factored_matrix", counting)
        q, _ = np.linalg.qr(random_spd(8, 2))
        spectrum = eig_hermitian((q * [1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0, 5.0]) @ q.conj().T)
        delta = build_delta("element", 8, i=0, j=3)
        assert len(spectrum.clusters(4e-6)) == 3
        for calls in (1, 2):
            qgld.expectation.adapt_degenerate_eigenvectors(spectrum, delta, 1e-6)
            assert len(formed) == calls
        formed.clear()
        x, enc = random_spd(64, 1), GradientEncoding(m=3)  # 8 members in chunks of EIGENBASIS_BATCH // N^2 = 4
        for calls in (1, 2):
            evolution_family(x, build_delta("all_ones", 64), enc)
            assert len(formed) == calls
        for argv in (("--delta", "element:1,4"), ("--delta", "all-ones", "--W", "20"),
                     ("--phi", "uniform", "--delta", "outer")):
            formed.clear()
            assert qgld.cli.main(["gradient", "--matrix", "random-spd:8:3", *argv]) == 0
            assert len(formed) == 1
        capsys.readouterr()

    def test_a_matrix_is_all_a_caller_gives(self, rng):
        # a kind, a norm or factors given beside the matrix were taken on trust, and on
        # random_spd(4, 1) at k = N the log-det core read each wrong at exit 0: "outer" with
        # diag(1, -1, 0, 0) 0.904 for tr(X^-1 Delta) = 0.111 (no shift for a signed slope), and D
        # with a norm of 0.5 for its 10.5 read 5.36, and with factors e_0 their own 0.843, for -6.75
        x, o = random_spd(4, 1), np.diag([1.0, -1.0, 0.0, 0.0])
        g = np.random.default_rng(0).standard_normal((4, 4))
        d = 3 * (g + g.T)
        for args in (("outer", o), ("custom", d, 0.5), ("custom", d, 1.0, np.eye(4)[:, :1], (1.0,))):
            with pytest.raises(TypeError):
                PerturbationDirection(*args)
        with pytest.raises(TypeError):
            PerturbationDirection(matrix=o, kind="outer")
        inv = np.linalg.inv(x)
        for matrix, w in ((o, 1.0), (d, 8.0)):
            delta = PerturbationDirection(matrix)
            assert (delta.kind, delta.factors, delta.signs) == ("custom", None, None)
            assert delta.norm == float(np.linalg.norm(delta.matrix, ord=2))
            [got] = logdet_directional_derivatives(x, [delta], 4, GradientEncoding(W=w))
            assert abs(got - np.trace(inv @ matrix)) <= 1e-4
        # what the builders set agrees with the matrix
        e, f = np.eye(4)[3], random_state(rng, 4).real
        built = {"all_ones": build_delta("all_ones", 4), "element": build_delta("element", 4, i=0, j=3),
                 "outer": build_delta("outer", 4, phi=random_state(rng, 4)),
                 "custom": PerturbationDirection.from_factors(np.stack([e + f, e - f], axis=1) / 2, (1.0, -1.0))}
        for kind, delta in built.items():
            assert delta.kind == kind
            rebuilt = (delta.factors * delta.signs) @ delta.factors.conj().T
            np.testing.assert_allclose(rebuilt, delta.matrix, rtol=0, atol=32 * np.finfo(float).eps)
            svd = float(np.linalg.norm(delta.matrix, ord=2))
            assert abs(delta.norm - svd) <= 32 * np.finfo(float).eps * svd


class TestFromFactors:
    @pytest.mark.parametrize("factors, signs", [
        (np.ones((8, 2)), (1.0,)),  # two columns, one sign: broadcast into a wrong direction
        (np.ones((8, 1)), (1.0, -1.0)),
        (np.ones(8), (1.0,)),
        (np.ones((8, 0)), ()),
        (np.ones((8, 2)), (1.0, 0.5)),
        (np.ones((8, 1)), (np.nan,)),
    ])
    def test_shapes_and_signs(self, factors, signs):
        with pytest.raises(ValueError, match=rf"factors of shape \({factors.shape[0]},"):
            PerturbationDirection.from_factors(factors, signs)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_factors(self, bad):
        # NaN factors failed inside LAPACK with "Array must not contain infs or NaNs"
        factors = np.ones((8, 2))
        factors[3, 1] = bad
        with pytest.raises(NonFiniteInput, match="1 non-finite"):
            PerturbationDirection.from_factors(factors, (1.0, -1.0))


class TestEncoding:
    def test_validation(self):
        with pytest.raises(ValueError):
            GradientEncoding(L=0.5)
        with pytest.raises(ValueError):
            GradientEncoding(W=0.0)
        with pytest.raises(ValueError):
            GradientEncoding(m=0)
        with pytest.raises(ValueError):
            GradientEncoding(shift="sideways")

    @pytest.mark.parametrize("w", [np.inf, -np.inf, np.nan, 0.0, -1.0])
    def test_w_finite_and_positive(self, w):
        # an infinite W read NaN gradients at exit 0, and a NaN W passed the W <= 0 test
        with pytest.raises(ValueError, match=f"W = {w} must be finite and positive"):
            GradientEncoding(W=w)

    @pytest.mark.parametrize("m", [1.5, 2.0, "2", None])
    def test_m_an_integer(self, m):
        # m = 1.5 passed the range test and failed later in 1 << m
        with pytest.raises(ValueError, match="must be an integer in"):
            GradientEncoding(m=m)
        assert GradientEncoding(m=np.int64(2)).deviation_dim == 4

    def test_offsets(self):
        enc = GradientEncoding(L=1e-4, m=2)
        np.testing.assert_allclose(enc.offsets(), [0, 0.25e-4, 0.5e-4, 0.75e-4], atol=1e-20)
        centered = GradientEncoding(L=1e-4, m=2, shift="centered")
        np.testing.assert_allclose(
            centered.offsets(), [-0.5e-4, -0.25e-4, 0, 0.25e-4], atol=1e-20
        )

    def test_time_step(self):
        enc = GradientEncoding(L=1e-6, W=2.0, m=1)
        assert enc.time_step() == pytest.approx(2 / (2.0 * 1e-6))
        # the 2*pi-in-the-exponent convention at W is the canonical one at W/(2*pi)
        with_2pi = GradientEncoding(L=1e-6, W=2.0 / (2 * np.pi), m=1)
        assert with_2pi.time_step() == pytest.approx(2 * np.pi * 2 / (2.0 * 1e-6))

    def test_bin_decode(self):
        enc = GradientEncoding(m=3, W=1.0)
        assert enc.bin_to_gradient(0) == 0.0
        assert enc.bin_to_gradient(2) == pytest.approx(2 * 2 * np.pi / 8)
        centered = GradientEncoding(m=3, W=1.0, shift="centered")
        assert centered.bin_to_gradient(7) == pytest.approx(-2 * np.pi / 8)

    def test_suggested_bound(self):
        delta = build_delta("element", 2, i=0, j=1)
        assert suggest_gradient_bound(delta) == pytest.approx(2.0)


def _unreachable(*args, **kwargs):
    raise AssertionError("a family beyond the size budget reached its eigendecomposition")


class TestFamilySize:
    # m = 12 at N = 512: M * N^2 = 2^30 eigenvector entries, 17 GB of complex
    # eigenvectors; each builder refuses before any eigh or secular solve
    MESSAGE = r"m = 12, N = 512 holds M \* N\^2 = 1073741824 eigenvector entries, beyond the budget of 8388608"

    def test_dense_family_refused_before_any_eigh(self, monkeypatch):
        x = np.diag(np.arange(1.0, 513.0)).astype(complex)
        monkeypatch.setattr(np.linalg, "eigh", _unreachable)
        with pytest.raises(ValueError, match=self.MESSAGE):
            evolution_family(x, build_delta("element", 512, i=0, j=1), GradientEncoding(m=12))

    def test_eigenbasis_families_refused_before_any_solve(self, monkeypatch):
        monkeypatch.setattr(qgld.qgpe, "low_rank_update_eigh", _unreachable)
        coupling = np.full((1, 512, 1), 1.0 / np.sqrt(512), dtype=complex)
        families = eigenbasis_families(np.arange(1.0, 513.0), (1.0,), coupling, GradientEncoding(m=12))
        with pytest.raises(ValueError, match=self.MESSAGE):
            next(families)

    def test_core_refuses_every_window_before_any_solve(self, monkeypatch):
        # an outer probe at m = 1 fits and would be solved first, in its own signs group; the
        # element probe's m = 12 window (2^12 * 64^2 = 2^24 entries) is refused before that solve
        monkeypatch.setattr(qgld.qgpe, "low_rank_update_eigh", _unreachable)
        spectrum = qgld.expectation.DenseSource().resolve(random_spd(64, 1))
        probes = [(build_delta("outer", 64, phi=np.full(64, 0.125)), GradientEncoding(m=1)),
                  (build_delta("element", 64, i=0, j=1), GradientEncoding(m=12))]
        with pytest.raises(ValueError, match=r"m = 12, N = 64 holds M \* N\^2 = 16777216 eigenvector entries"):
            qgld.expectation._probe_relevant_eigenpairs(spectrum, probes, 64)

    def test_budget_edge(self):
        qgld.qgpe._require_family_size(GradientEncoding(m=11), 64)  # 2^11 * 64^2 = 2^23 entries
        with pytest.raises(ValueError, match="m = 12, N = 64"):
            qgld.qgpe._require_family_size(GradientEncoding(m=12), 64)


class TestEvolutionFamily:
    def test_first_member_unshifted(self, rng):
        x = random_hermitian(rng, 4)
        enc = GradientEncoding(L=1e-5, m=2)
        family = evolution_family(x, build_delta("all_ones", 4), enc)
        np.testing.assert_allclose(family_members(family)[0], unitary_phase_exp(x, enc.time_step()), atol=1e-10)

    def test_zero_direction_members_identical(self, rng):
        x = random_hermitian(rng, 2)
        delta = build_delta("custom", 2, matrix=np.zeros((2, 2)))
        members = family_members(evolution_family(x, delta, GradientEncoding(m=2)))
        for member in members[1:]:
            np.testing.assert_allclose(member, members[0], atol=1e-12)

    def test_sigma_x_closed_form_member(self):
        # second member is exp(i theta sigma_x) with theta = (2/L)(1 + L/2);
        # 2x2 closed form: cos(theta) I + i sin(theta) sigma_x
        enc = GradientEncoding(L=1e-6, W=1.0, m=1)
        family = evolution_family(SIGMA_X, build_delta("custom", 2, matrix=SIGMA_X), enc)
        theta = (2 / enc.L) * (1 + enc.L / 2)
        want = np.cos(theta) * np.eye(2) + 1j * np.sin(theta) * SIGMA_X
        np.testing.assert_allclose(family_members(family)[1], want, atol=1e-9)

    def test_members_unitary(self, rng):
        x = random_hermitian(rng, 4, indefinite=True)
        family = evolution_family(x, build_delta("element", 4, i=0, j=2), GradientEncoding(m=2))
        for member in family_members(family):
            assert np.linalg.norm(member.conj().T @ member - np.eye(4)) <= 1e-10 * 4


TABLE_ROWS = [
    ("X", 1, 1.0),
    ("X", 0, 1.0),
    ("proj0", 1, 0.500000),
    ("proj0", 0, 0.499999),
    ("proj1", 1, 0.500000),
    ("proj1", 0, 0.499999),
    ("I", 1, 1.0),
    ("I", 0, 1.0),
]


def _direction(tag):
    if tag == "X":
        return build_delta("custom", 2, matrix=SIGMA_X)
    if tag == "proj0":
        return build_delta("element", 2, i=0, j=0)
    if tag == "proj1":
        return build_delta("element", 2, i=1, j=1)
    return build_delta("custom", 2, matrix=np.eye(2, dtype=complex))


class TestQgpeRun:
    # the probe circuit on single eigenvectors, read conditioned on each
    @pytest.mark.parametrize("tag,which,want", TABLE_ROWS)
    def test_single_qubit_reference_rows(self, tag, which, want):
        dec = eig_hermitian(SIGMA_X)
        [grad] = eigenvalue_gradient_probes(SIGMA_X, dec.vectors[:, [which]], _direction(tag), GradientEncoding())
        assert grad == pytest.approx(want, abs=1e-5)

    def test_hadamard_gradient(self):
        dec = eig_hermitian(HADAMARD)
        delta = build_delta("custom", 2, matrix=SIGMA_X)
        for which in (0, 1):
            [grad] = eigenvalue_gradient_probes(HADAMARD, dec.vectors[:, [which]], delta, GradientEncoding())
            assert abs(grad - 1 / np.sqrt(2)) <= 1e-6

    def test_sigma_z_zero_gradient(self):
        dec = eig_hermitian(SIGMA_Z)
        delta = build_delta("custom", 2, matrix=SIGMA_X)
        [grad] = eigenvalue_gradient_probes(SIGMA_Z, dec.vectors[:, [1]], delta, GradientEncoding())
        assert abs(grad) <= 1e-6


def amplitude_readout(p0, p1, w=1.0):
    """The m = 1 readout of one column (p0, p1) at gradient scale w."""
    return readout_gradients(np.array([[p0], [p1]]), GradientEncoding(W=w))[0]


class TestExtractM1:
    def test_endpoints(self):
        assert amplitude_readout(1.0, 0.0) == pytest.approx(0.0, abs=1e-12)
        assert amplitude_readout(0.0, 1.0) == pytest.approx(np.pi, abs=1e-12)

    def test_inverts_formula(self):
        p0 = np.cos(0.25) ** 2
        assert amplitude_readout(p0, 1 - p0) == pytest.approx(0.5, abs=1e-12)

    def test_scales_with_w(self):
        p0 = np.cos(0.25) ** 2
        assert amplitude_readout(p0, 1 - p0, w=3.0) == pytest.approx(1.5, abs=1e-12)

    def test_probability_errors(self):
        with pytest.raises(ProbabilityOutOfRange):
            amplitude_readout(0.7, 0.7)
        with pytest.raises(ProbabilityOutOfRange):
            amplitude_readout(-0.1, 1.1)

    def test_columns_checked_at_once_naming_the_first_failure(self):
        enc = GradientEncoding()
        p0 = np.cos(0.25) ** 2
        good = [p0, 1 - p0]
        cases = [
            ([good, [-0.1, 1.1], good, [np.nan, 0.5]], "column 1: p0 = -0.1"),
            ([good, good, [np.nan, 0.5]], "column 2: p0 = nan"),
            ([good, good, good, [0.7, 0.7]], "column 3: p0 \\+ p1"),
        ]
        for columns, message in cases:
            with pytest.raises(ProbabilityOutOfRange, match=message):
                readout_gradients(np.array(columns).T, enc)
        np.testing.assert_allclose(readout_gradients(np.array([good] * 3).T, enc), 0.5, atol=1e-12)
        # a stack's (J, M, B) distributions are checked at once too, naming the probe and the column
        stacked = np.stack([np.array([good] * 3).T, np.array([good, [-0.1, 1.1], good]).T])
        with pytest.raises(ProbabilityOutOfRange, match="probe 1 column 1: p0 = -0.1"):
            readout_gradients(stacked, enc)


class TestExtractPeak:
    def test_indicator_at_zero(self):
        dist = np.zeros(8)
        dist[0] = 1.0
        assert readout_gradients(dist[:, None], GradientEncoding(m=3))[0] == 0.0

    def test_synthetic_on_bin_phase(self):
        # family of pure deviation phases e^{i eps g / W} with g on bin j0;
        # the direct DFT oracle puts all weight on j0
        m = 3
        m_dim = 8
        j0 = 3
        enc = GradientEncoding(m=m, W=1.0)
        g = enc.bin_to_gradient(j0)
        state = init_basis(RegisterLayout(m, 1), 0)
        hadamard_deviation_register(state)
        family = [np.exp(1j * eps * g / enc.W) * np.eye(2) for eps in range(m_dim)]
        apply_controlled_family(state, family)
        inverse_qft_deviation(state)
        dist = deviation_distribution(state)[:, 0]
        eps = np.arange(m_dim)
        oracle = np.abs(
            np.exp(-2j * np.pi * np.outer(eps, eps) / m_dim) @ np.exp(1j * eps * g) / m_dim
        ) ** 2
        np.testing.assert_allclose(dist, oracle, atol=1e-12)
        assert readout_gradients(dist[:, None], enc)[0] == pytest.approx(g, abs=1e-12)

    def test_uniform_is_flat(self):
        with pytest.raises(FlatDistribution):
            readout_gradients(np.full((8, 1), 1 / 8), GradientEncoding(m=3))

    def test_mixed_column_is_flat(self):
        # a column mixing three eigenvectors whose slopes 0, pi/2 and pi sit
        # in three different bins: each bin holds 1/3 < 2/M, and the argmax
        # would read one of them as if it were the column's slope
        x = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
        delta = build_delta("custom", 4, matrix=np.diag([0.0, np.pi / 2, np.pi, 0.0]))
        column = np.array([1.0, 1.0, 1.0, 0.0], dtype=complex) / np.sqrt(3.0)
        with pytest.raises(FlatDistribution, match="column 0"):
            eigenvalue_gradient_probes(x, column[:, None], delta, GradientEncoding(L=1e-6, m=2))
        # each eigenvector alone reads its bin
        slopes = eigenvalue_gradient_probes(x, np.eye(4, dtype=complex)[:, :3], delta, GradientEncoding(L=1e-6, m=2))
        np.testing.assert_allclose(slopes, [0.0, np.pi / 2, np.pi], atol=1e-12)

    def test_mid_bin_eigenvector_reads_a_neighbouring_bin(self):
        # at M = 4 a slope midway between bins 0 and pi/2 puts only
        # 1 / (16 sin^2(pi/8)) ~ 0.427 < 2/M on each: a single eigenvector, so
        # not flat, and it reads one of the two bins within half a bin
        x = np.diag([1.0, 2.0]).astype(complex)
        delta = build_delta("custom", 2, matrix=np.diag([np.pi / 4, 0.0]))
        enc = GradientEncoding(L=1e-6, W=1.0, m=2)
        columns = np.eye(2, dtype=complex)
        distributions = probe_distributions(evolution_family(x, delta, enc), columns)
        assert np.max(distributions[:, 0]) == pytest.approx(1 / (16 * np.sin(np.pi / 8) ** 2), abs=1e-6)
        slopes = eigenvalue_gradient_probes(x, columns, delta, enc)
        assert min(abs(slopes[0]), abs(slopes[0] - np.pi / 2)) <= 1e-5
        assert slopes[1] == pytest.approx(0.0, abs=1e-12)

    def test_centered_negative_gradient(self):
        m = 4
        m_dim = 16
        enc = GradientEncoding(m=m, W=1.0, shift="centered")
        g = -3 * 2 * np.pi / m_dim
        state = init_basis(RegisterLayout(m, 1), 0)
        hadamard_deviation_register(state)
        family = [np.exp(1j * eps * g) * np.eye(2) for eps in range(m_dim)]
        apply_controlled_family(state, family)
        inverse_qft_deviation(state)
        got = readout_gradients(deviation_distribution(state), enc)[0]
        assert got == pytest.approx(g, abs=1e-12)


class TestOracleEquivalence:
    def test_amplitude_matches_derivative_oracle(self, rng):
        for _ in range(8):
            n = int(rng.choice([2, 4, 8]))
            x = random_hermitian(rng, n, indefinite=True)
            delta_mat = random_hermitian(rng, n, indefinite=True, min_eig=0.0)
            delta_mat = delta_mat / np.linalg.norm(delta_mat, ord=2)
            delta = build_delta("custom", n, matrix=delta_mat)
            dec = eig_hermitian(x)
            p = int(rng.integers(0, n))
            enc = GradientEncoding(L=1e-4)
            [grad] = eigenvalue_gradient_probes(x, dec.vectors[:, [p]], delta, enc)
            oracle = directional_eigen_derivative(x, delta_mat, p)
            assert abs(grad - abs(oracle)) <= 5 * enc.L * n

    def test_error_linear_in_l(self, rng):
        instances = []
        for _ in range(6):
            n = int(rng.choice([2, 4]))
            x = random_hermitian(rng, n, indefinite=True)
            delta_mat = random_hermitian(rng, n, indefinite=True, min_eig=0.0)
            delta_mat = delta_mat / np.linalg.norm(delta_mat, ord=2)
            dec = eig_hermitian(x)
            instances.append((x, delta_mat, dec.vectors[:, [0]], 0))
        mean_errors = []
        for l_value in (1e-2, 1e-3, 1e-4):
            errs = []
            for x, delta_mat, vec, p in instances:
                [grad] = eigenvalue_gradient_probes(
                    x, vec, build_delta("custom", x.shape[0], matrix=delta_mat), GradientEncoding(L=l_value))
                oracle = directional_eigen_derivative(x, delta_mat, p)
                errs.append(abs(grad - abs(oracle)))
            mean_errors.append(np.mean(errs))
        assert 5 <= mean_errors[0] / mean_errors[1] <= 20
        assert 5 <= mean_errors[1] / mean_errors[2] <= 20

    def test_peak_matches_within_quantization(self, rng):
        n = 4
        x = random_hermitian(rng, n, indefinite=True)
        delta_mat = random_hermitian(rng, n, indefinite=True, min_eig=0.0)
        delta_mat = delta_mat / np.linalg.norm(delta_mat, ord=2)
        delta = build_delta("custom", n, matrix=delta_mat)
        dec = eig_hermitian(x)
        enc = GradientEncoding(L=1e-6, W=1.0, m=7, shift="centered")
        [grad] = eigenvalue_gradient_probes(x, dec.vectors[:, [2]], delta, enc)
        oracle = directional_eigen_derivative(x, delta_mat, 2)
        quantization = np.pi * enc.W / enc.deviation_dim
        assert abs(grad - oracle) <= quantization


class TestMainTextConvention:
    def test_prefactor_amplitude_extraction(self):
        # with the 2*pi inside the evolution operator the m=1 phase is
        # 2*pi*grad/W; W=4 keeps it below pi and the decoded gradient agrees.
        # That convention at W is the canonical encoding at W/(2*pi).
        dec = eig_hermitian(SIGMA_X)
        enc = GradientEncoding(L=1e-6, W=4.0 / (2 * np.pi), m=1)
        delta = build_delta("custom", 2, matrix=SIGMA_X)
        [grad] = eigenvalue_gradient_probes(SIGMA_X, dec.vectors[:, [1]], delta, enc)
        assert grad == pytest.approx(1.0, abs=1e-5)

    def test_prefactor_peak_decode(self):
        m = 3
        m_dim = 8
        j0 = 2
        w_main = 1.0
        enc = GradientEncoding(m=m, W=w_main / (2 * np.pi))
        g = enc.bin_to_gradient(j0)
        assert g == pytest.approx(j0 * w_main / m_dim)
        state = init_basis(RegisterLayout(m, 1), 0)
        hadamard_deviation_register(state)
        family = [np.exp(2j * np.pi * eps * g / w_main) * np.eye(2) for eps in range(m_dim)]
        apply_controlled_family(state, family)
        inverse_qft_deviation(state)
        got = readout_gradients(deviation_distribution(state), enc)[0]
        assert got == pytest.approx(g, abs=1e-12)


class TestPhaseProperties:
    def test_global_phase_insensitivity(self, rng):
        x = random_hermitian(rng, 4)
        delta = build_delta("all_ones", 4)
        enc = GradientEncoding(L=1e-5, m=2)
        dec = eig_hermitian(x)
        family = evolution_family(x, delta, enc)
        base = probe_distributions(family, dec.vectors[:, [1]])
        shifted = sv.ControlledFamily(np.exp(0.737j) * family.phases, family.vectors)
        rotated = probe_distributions(shifted, dec.vectors[:, [1]])
        assert np.max(np.abs(base - rotated)) <= 1e-12

    def test_m1_sign_blindness(self):
        g = 0.83
        for sign in (1.0, -1.0):
            state = init_basis(RegisterLayout(1, 1), 0)
            hadamard_deviation_register(state)
            apply_controlled_family(state, [np.eye(2), np.exp(sign * 1j * g) * np.eye(2)])
            inverse_qft_deviation(state)
            dist = deviation_distribution(state)[:, 0]
            if sign > 0:
                reference = dist
        np.testing.assert_allclose(dist, reference, atol=1e-14)
        assert amplitude_readout(dist[0], dist[1]) == pytest.approx(g, abs=1e-12)

    def test_m1_closed_form_consistency(self):
        # exact simulator probabilities |c0|^2 = cos^2(phase/2) invert to the
        # phase within 1e-10
        for phase in (0.1, 0.5, 1.3, 2.9):
            p0 = np.cos(phase / 2) ** 2
            assert amplitude_readout(p0, 1 - p0) == pytest.approx(phase, abs=1e-10)


class TestEigenbasisFamily:
    # Well-separated spectra (every gap >= 0.045).  The dense members carry
    # the absolute eigh rounding eps * ||X|| times t = M / (W L) in every
    # phase, the floor M * eps * ||X|| / (W L) per entry; summed over the N
    # eigenpairs of one entry that is at most N times the floor, and the bound
    # allows 16 N.  The s = 0 member of an eigenbasis family is the diagonal
    # slot exp(i t Lambda).  Neither builder takes the identity shift c: the
    # probe applies it as the deviation phase exp(i t s c), and that phase
    # times member eps is the evolution under X + s (Delta + c I).
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from([2, 4, 8, 16, 32]),
        kind=st.sampled_from(["outer", "element", "signed_pair"]),
        builder=st.sampled_from(["eigenbasis", "dense"]),
        shifted=st.booleans(),
        shift=st.sampled_from(["unshifted", "centered"]),
        m=st.sampled_from([1, 2]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_dense_members(self, n, kind, builder, shifted, shift, m, seed):
        rng = np.random.default_rng(seed)
        x = random_hermitian(rng, n, indefinite=True)
        if kind == "outer":
            delta = build_delta("outer", n, phi=random_state(rng, n))
        elif kind == "element":
            i, j = (int(v) for v in rng.integers(0, n, size=2))
            delta = build_delta("element", n, i=i, j=j)
        else:  # the kernel weight's (e_i f^T + f e_i^T) / 2
            e, f = np.eye(n)[int(rng.integers(0, n))], random_state(rng, n)
            delta = PerturbationDirection.from_factors(np.stack([e + f, e - f], axis=1) / 2, (1.0, -1.0))
        c = delta.norm if shifted else 0.0
        enc = GradientEncoding(L=1e-5, W=4.0, m=m, shift=shift)
        dec = eig_hermitian(x)
        t = enc.time_step()
        # the eigenbasis family's members are in the eigenbasis of X; the dense family's are not
        basis = dec.vectors if builder == "eigenbasis" else np.eye(n)
        if builder == "eigenbasis":
            [(_, stack)] = eigenbasis_families(dec.values, delta.signs, [dec.vectors.conj().T @ delta.factors], enc)
            family = unstacked(stack)
            zero = list(enc.offsets()).index(0.0)
            assert zero not in family.slots
            np.testing.assert_array_equal(family.phases[zero], np.exp(1j * t * dec.values))
        else:
            family = evolution_family(x, delta, enc)
        bound = 16 * n * t * np.finfo(float).eps * np.linalg.norm(x, ord=2)
        for member, s in zip(family_members(family), enc.offsets()):
            want = basis.conj().T @ unitary_phase_exp(x + s * (delta.matrix + c * np.eye(n)), t) @ basis
            assert np.max(np.abs(np.exp(1j * t * s * c) * member - want)) <= bound

    def test_phase_keeps_relative_precision_at_large_t(self, rng):
        # poles near 1e3, strength s = 1e-9 and t = 1e7: each amplitude
        # <e_p|U(1)|e_p>, relative to the s = 0 member's exp(i t lambda_p),
        # carries the phase t offset_p of the eigenvalue held against pole p,
        # although t * lambda ~ 1e10 rad; with the identity shift c as the
        # deviation phase exp(i t s c), the engine reads t (offset_p + s c)
        n = 16
        values = 1e3 + 0.37 * np.arange(n) + rng.uniform(0.0, 0.1, n)
        coupling = random_state(rng, n)[:, None]
        enc = GradientEncoding(L=2e-9, W=100.0, m=1)
        t = enc.time_step()
        assert t == pytest.approx(1e7)
        s, c = enc.offsets()[1], 0.5
        [(_, stack)] = eigenbasis_families(values, (1.0,), [coupling], enc)
        family = unstacked(stack)
        _, anchor, offset = low_rank_update_eigh(values, coupling[None], [[s]])
        assert sorted(anchor[0]) == list(range(n))
        want = np.empty(n)
        want[anchor[0]] = t * offset[0]
        amplitudes = family.amplitudes(np.eye(n, dtype=complex))
        got = np.angle(amplitudes[1] * amplitudes[0].conj())
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12
        # the two quadratures of the shifted probe, as the superposition pipelines read them:
        # p0 - p1 is cos(phase) as it stands and sin(phase) behind diag(1, -i)
        phases = np.repeat(np.exp(1j * t * enc.offsets() * c)[:, None], 2 * n, axis=1)
        phases[1, n:] *= -1j
        dist = probe_distributions(family, np.eye(n, dtype=complex)[:, np.r_[:n, :n]], deviation_phases=phases)
        quadratures = dist[0] - dist[1]
        got = np.arctan2(quadratures[n:], quadratures[:n])
        assert np.max(np.abs(got - (want + t * s * c)) / np.abs(want + t * s * c)) <= 1e-12


class TestDenseFamily:
    @pytest.mark.parametrize("m", [1, 3])
    def test_stacked_members_match_one_exponential_each(self, rng, monkeypatch, m):
        # a budget of 3 members per stack splits M = 8 into stacks of 3, 3, 2
        n = 8
        x = random_hermitian(rng, n, indefinite=True)
        delta = build_delta("outer", n, phi=random_state(rng, n))
        enc = GradientEncoding(L=1e-5, W=4.0, m=m, shift="centered")
        stacks, checks = [], []
        real_eigh, real_defect = np.linalg.eigh, sv.unitarity_defect
        monkeypatch.setattr(qgld.qgpe, "EIGENBASIS_BATCH", 3 * n * n)
        monkeypatch.setattr(np.linalg, "eigh", lambda a: stacks.append(len(a)) or real_eigh(a))
        monkeypatch.setattr(sv, "unitarity_defect",
                            lambda u, diagonal=False: checks.append((len(u), diagonal)) or real_defect(u, diagonal))
        family = evolution_family(x, delta, enc)
        assert stacks == ([2] if m == 1 else [3, 3, 2])
        # one check of the whole eigenvector stack and one of the phases
        assert checks == [(len(family), False), (len(family), True)]
        for member, s in zip(family_members(family), enc.offsets()):
            want = unitary_phase_exp(x + s * delta.matrix, enc.time_step())
            np.testing.assert_allclose(member, want, rtol=0, atol=1e-14)
