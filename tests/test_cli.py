import csv
import io
import itertools
import json
import re
from pathlib import Path

import numpy as np
import pytest

import qgld.cli
import qgld.expectation
import qgld.linalg
import qgld.qgpe
from qgld import GradientEncoding, InverseExpectationRequest, qgld_expectation, qgld_expectation_sweep
from qgld.cli import build_parser, main, random_spd
from qgld.io import render_csv
from conftest import write_matrix


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    header, *rows = csv.reader(io.StringIO(text))
    return header, rows


def unreachable_dense_family(*args):
    raise AssertionError("a dense family was built")


TABLE1_STDOUT = """\
matrix,delta,eigenstate,L,m,gradient
sigma-x,X,+,1e-06,1,1
sigma-x,X,-,1e-06,1,1
sigma-x,|0><0|,+,1e-06,1,0.500000062
sigma-x,|0><0|,-,1e-06,1,0.499999937
sigma-x,|1><1|,+,1e-06,1,0.500000062
sigma-x,|1><1|,-,1e-06,1,0.499999937
sigma-x,I,+,1e-06,1,1
sigma-x,I,-,1e-06,1,1
hadamard,X,H+,1e-06,1,0.707106906
"""


class TestReproduceTable1:
    def test_stdout_is_pinned(self, capsys):
        assert run_cli(capsys, "reproduce-table1") == (0, TABLE1_STDOUT, "")

    def test_emits_all_rows_within_tolerance(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce-table1")
        assert code == 0
        header, rows = parse_csv(out)
        assert header[-1] == "gradient"
        assert len(rows) == 9
        printed = {
            ("X", "+"): 0.999999, ("X", "-"): 0.999999,
            ("|0><0|", "+"): 0.500000, ("|0><0|", "-"): 0.499999,
            ("|1><1|", "+"): 0.500000, ("|1><1|", "-"): 0.499999,
            ("I", "+"): 0.999999, ("I", "-"): 1.000000,
        }
        for row in rows[:8]:
            want = printed[(row[1], row[2])]
            assert abs(float(row[-1]) - want) <= 1e-5
        assert rows[8][0] == "hadamard"
        assert abs(float(rows[8][-1]) - 0.70710691) <= 1e-6

    def test_one_family_per_distinct_direction(self, capsys, monkeypatch):
        # four sigma-x directions, each probing both eigenstates, and one Hadamard row
        built = []
        family = qgld.expectation.evolution_family

        def counting(*args):
            built.append(1)
            return family(*args)

        monkeypatch.setattr(qgld.expectation, "evolution_family", counting)
        code, _, _ = run_cli(capsys, "reproduce-table1")
        assert code == 0
        assert len(built) == 5


class TestGradient:
    def test_custom_stdout_is_pinned(self, capsys):
        # a custom direction runs the dense family with the shift ||Delta||_2, and its rows do not move
        want = ("p,E_p,delta_kind,L,m,gradient_quantum,gradient_oracle,abs_error\n"
                "0,-1,matrix,1e-06,1,-1,-1,2.22044605e-16\n"
                "1,1,matrix,1e-06,1,1,1,2.32830866e-10\n")
        assert run_cli(capsys, "gradient", "--matrix", "sigma-x", "--delta", "matrix") == (0, want, "")

    def test_table_row_config(self, capsys):
        code, out, _ = run_cli(capsys, "gradient", "--matrix", "sigma-x", "--delta", "matrix")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["p", "E_p", "delta_kind", "L", "m",
                          "gradient_quantum", "gradient_oracle", "abs_error"]
        by_value = {float(r[1]): r for r in rows}
        assert abs(float(by_value[1.0][5]) - 0.999999) <= 1e-5
        assert abs(float(by_value[-1.0][5]) - (-1.0)) <= 1e-5  # signed probe
        assert float(by_value[1.0][7]) <= 1e-5

    def test_identity_direction_on_minus_state(self, capsys):
        code, out, _ = run_cli(capsys, "gradient", "--matrix", "sigma-x", "--delta", "identity")
        assert code == 0
        _, rows = parse_csv(out)
        for row in rows:
            assert abs(float(row[5]) - 1.0) <= 1e-5

    @pytest.mark.parametrize("argv", [
        ("gradient", "--matrix", "sigma-x"),
        ("qgld", "--matrix", "random-spd:8:1", "--phi", "uniform", "--mode", "sigma"),
        ("qgld", "--matrix", "random-spd:8:1", "--phi", "uniform"),
        ("kernel-demo", "--format", "json"),
    ])
    @pytest.mark.parametrize("w", ["inf", "nan", "-inf"])
    def test_non_finite_w_exits_2(self, capsys, argv, w):
        # W = inf printed NaN gradients, totals and alphas at exit 0
        code, out, err = run_cli(capsys, *argv, f"--W={w}")
        assert code == 2
        assert out == ""
        assert f"W = {w} must be finite and positive" in err

    @pytest.mark.parametrize("k", ["-1", "9"])
    def test_k_out_of_range_exits_2(self, capsys, k):
        code, out, err = run_cli(capsys, "gradient", "--matrix", "random-spd:8:3",
                                 "--delta", "element:1,5", "--k", k)
        assert code == 2
        assert out == ""
        assert "--k" in err

    def test_element_rows_read_as_csv(self, capsys):
        # the delta_kind field element:0,1 was written unquoted: 9 fields under an 8-field header
        code, out, _ = run_cli(capsys, "gradient", "--matrix", "random-spd:8:3", "--delta", "element:0,1")
        assert code == 0
        header, rows = parse_csv(out)
        assert len(header) == 8 and len(rows) == 8
        assert all(len(row) == 8 and row[2] == "element:0,1" for row in rows)
        assert all(abs(float(row[5]) - float(row[6])) <= 1e-5 for row in rows)

    @pytest.mark.parametrize("k, rows", [("0", 8), ("3", 3), ("8", 8)])
    def test_k_selects_rows(self, capsys, k, rows):
        code, out, _ = run_cli(capsys, "gradient", "--matrix", "random-spd:8:3",
                               "--delta", "element:1,5", "--k", k)
        assert code == 0
        assert len(parse_csv(out)[1]) == rows

    @pytest.mark.parametrize("flag, spec, form", [
        ("--delta", "element:1", "element:i,j"),
        ("--delta", "element:a,b", "element:i,j"),
        ("--matrix", "identity:x", "identity:N"),
        ("--matrix", "random-spd:4", "random-spd:N:SEED"),
    ])
    def test_malformed_spec_names_flag_and_form(self, capsys, flag, spec, form):
        code, out, err = run_cli(capsys, "gradient", flag, spec)
        assert code == 2
        assert out == ""
        assert err == f"error: {flag} {spec!r}: expected {form}\n"

    def test_missing_matrix_file(self, capsys):
        code, _, err = run_cli(capsys, "gradient", "--matrix", "/nonexistent/matrix.json")
        assert code == 2
        assert err

    def test_oracle_reads_the_one_eigendecomposition(self, capsys, monkeypatch):
        # LAPACK eigh runs once, for the resolve: the element direction is probed in its
        # eigenbasis, and the Hellmann-Feynman oracle re-diagonalizes nothing
        resolved, lapack = [], []
        eig, eigh = qgld.linalg.eig_hermitian, np.linalg.eigh

        def counting(*args, **kwargs):
            resolved.append(1)
            return eig(*args, **kwargs)

        def counting_lapack(a, *args, **kwargs):
            lapack.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        for module in (qgld.linalg, qgld.cli, qgld.expectation):
            monkeypatch.setattr(module, "eig_hermitian", counting)
        monkeypatch.setattr(np.linalg, "eigh", counting_lapack)
        monkeypatch.setattr(qgld.expectation, "evolution_family", unreachable_dense_family)
        code, out, _ = run_cli(capsys, "gradient", "--matrix", "random-spd:8:3",
                               "--delta", "element:1,4", "--k", "0")
        assert code == 0
        assert len(parse_csv(out)[1]) == 8
        assert len(resolved) == 1
        assert lapack == [(8, 8)]

    @pytest.mark.parametrize("argv", [("--delta", "element:0,5"), ("--delta", "all-ones", "--W", "20"),
                                      ("--phi", "uniform", "--delta", "outer")])
    def test_factored_directions_skip_the_dense_family(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(qgld.expectation, "evolution_family", unreachable_dense_family)
        code, out, err = run_cli(capsys, "gradient", "--matrix", "random-spd:8:3", *argv)
        assert (code, err) == (0, "")
        _, rows = parse_csv(out)
        assert len(rows) == 8 and all(float(row[7]) <= 1e-5 for row in rows)

    def test_large_n_reads_below_the_dense_rounding_floor(self, capsys):
        # the dense family refused L = 1e-9 at N = 256 (exit 3, "rounding floor M eps ||X||_F / L");
        # the eigenbasis family has no such floor
        code, out, err = run_cli(capsys, "gradient", "--matrix", "random-spd:256:1", "--delta", "element:0,1",
                                 "--L", "1e-9")
        assert (code, err) == (0, "")
        _, rows = parse_csv(out)
        quantum, oracle = (np.array([float(row[column]) for row in rows]) for column in (5, 6))
        assert len(rows) == 256
        np.testing.assert_allclose(quantum, oracle, rtol=0, atol=1e-9)

    def test_k_splitting_a_cluster_still_reads(self, capsys):
        # no sum is taken, so no cut is checked: --k 1 on identity:4 reads one adapted pair
        code, out, err = run_cli(capsys, "gradient", "--matrix", "identity:4", "--delta", "element:0,1", "--k", "1")
        assert (code, err) == (0, "")
        [[p, e_p, _, _, _, quantum, oracle, _]] = parse_csv(out)[1]
        assert (p, e_p, oracle) == ("0", "1", "-1")
        assert abs(float(quantum) + 1.0) <= 1e-6

    def test_zero_eigenvalue_is_read(self, capsys, tmp_path):
        # no pseudo-inverse mask: a zero eigenvalue's slope is defined, and it is printed
        path = str(tmp_path / "x.json")
        write_matrix(path, np.diag([0.0, 1.0, 2.0, 3.0]))
        code, out, err = run_cli(capsys, "gradient", "--matrix", path, "--delta", "element:0,0")
        assert (code, err) == (0, "")
        _, rows = parse_csv(out)
        assert [row[1] for row in rows] == ["3", "2", "1", "0"]
        quantum, oracle = (np.array([float(row[column]) for row in rows]) for column in (5, 6))
        np.testing.assert_array_equal(oracle, [0.0, 0.0, 0.0, 1.0])
        np.testing.assert_allclose(quantum, oracle, rtol=0, atol=1e-6)

    @pytest.mark.parametrize("coupling", [None, 0.0, 1e-9], ids=["identity", "diag-1123", "diag-1123-coupled"])
    def test_degenerate_pairs_are_read_adapted(self, capsys, tmp_path, coupling):
        # each degenerate cluster is rotated to diagonalize Delta inside it before it is probed, so a
        # degenerate pair reads the eigenvalues of Delta's restriction, as the oracle column does
        matrix, want = "identity:4", [-1.0, 0.0, 0.0, 1.0]
        if coupling is not None:  # diag(1, 1, 2, 3), its pair coupled by (0, 1): rows by |E| descending
            x = np.diag([1.0, 1.0, 2.0, 3.0])
            x[0, 1] = x[1, 0] = coupling
            matrix, want = str(tmp_path / "x.json"), [0.0, 0.0, -1.0, 1.0]
            write_matrix(matrix, x)
        code, out, err = run_cli(capsys, "gradient", "--matrix", matrix, "--delta", "element:0,1")
        assert (code, err) == (0, "")
        _, rows = parse_csv(out)
        quantum, oracle = (np.array([float(row[column]) for row in rows]) for column in (5, 6))
        np.testing.assert_allclose(oracle, want, rtol=0, atol=1e-8)
        np.testing.assert_allclose(quantum, oracle, rtol=0, atol=1e-6)

    def test_dimension_not_a_power_of_two_exits_2_before_any_eigendecomposition(self, capsys, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("an eigendecomposition ran")

        monkeypatch.setattr(np.linalg, "eigh", unreachable)
        code, out, err = run_cli(capsys, "gradient", "--matrix", "random-spd:12:1", "--delta", "element:0,1")
        assert (code, out) == (2, "")
        assert "dimension 12 is not a power of two" in err

    # the element delta ignored --phi uniform at exit 0, and failed on a --phi file it never read
    @pytest.mark.parametrize("phi", ["uniform", "nope.json"])
    def test_phi_needs_outer_delta(self, capsys, phi):
        code, out, err = run_cli(capsys, "gradient", "--matrix", "random-spd:4:1", "--phi", phi,
                                 "--delta", "element:0,1")
        assert code == 2
        assert out == ""
        assert err == "error: --phi applies only with --delta outer\n"

    def test_phi_with_outer_delta(self, capsys):
        code, out, _ = run_cli(capsys, "gradient", "--matrix", "random-spd:4:1", "--phi", "uniform",
                               "--delta", "outer")
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 4 and all(row[2] == "outer" and float(row[7]) <= 1e-5 for row in rows)

    def test_outer_delta_without_phi_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "gradient", "--matrix", "random-spd:4:1", "--delta", "outer")
        assert (code, out, err) == (2, "", "error: outer direction needs --phi\n")

    def test_unknown_delta_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "gradient", "--matrix", "random-spd:4:1", "--delta", "diagonal")
        assert (code, out, err) == (2, "", "error: unknown delta source 'diagonal'\n")


class TestFamilySize:
    # m = 12 at N = 512 would hold 2^30 eigenvector entries (17 GB); each command exits 2
    # before its family's stacked eigh or secular solve is reached
    @pytest.mark.parametrize("argv", [("gradient", "--delta", "element:0,1"), ("qgld",)])
    def test_family_beyond_the_budget_exits_2(self, capsys, monkeypatch, argv):
        real_eigh = np.linalg.eigh

        def eigh_of_one_matrix(a):
            assert np.ndim(a) == 2, "a family's stacked eigh was reached"
            return real_eigh(a)

        def unreachable(*args):
            raise AssertionError("a family's secular solve was reached")

        monkeypatch.setattr(np.linalg, "eigh", eigh_of_one_matrix)
        monkeypatch.setattr(qgld.qgpe, "low_rank_update_eigh", unreachable)
        code, out, err = run_cli(capsys, *argv, "--matrix", "random-spd:512:1", "--m", "12")
        assert (code, out) == (2, "")
        assert "a family at m = 12, N = 512" in err and "budget of 8388608" in err


class TestQgldCommand:
    def test_dimension_not_a_power_of_two_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "qgld", "--matrix", "random-spd:12:1", "--phi", "uniform")
        assert code == 2
        assert out == ""
        assert "dimension 12 is not a power of two" in err

    def test_sigma_z_uniform(self, capsys):
        code, out, _ = run_cli(capsys, "qgld", "--matrix", "sigma-z", "--phi", "uniform")
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["total"]) <= 2e-6

    def test_identity_preset(self, capsys):
        for preset, n in (("identity:4", 4), ("identity", 2)):
            code, out, _ = run_cli(capsys, "qgld", "--matrix", preset, "--phi", "uniform")
            assert code == 0
            payload = json.loads(out)
            assert len(payload["contributions"]) == n
            assert payload["total"] == pytest.approx(1.0, abs=1e-6)

    def test_basis0_phi_reads_the_first_diagonal_entry_of_the_inverse(self, capsys):
        code, out, _ = run_cli(capsys, "qgld", "--matrix", "random-spd:4:1", "--phi", "basis0")
        assert code == 0
        payload = json.loads(out)
        want = np.linalg.inv(random_spd(4, 1))[0, 0].real
        assert payload["classical_reference"] == pytest.approx(want, abs=1e-12)
        assert payload["total"] == pytest.approx(want, abs=1e-6)

    def test_phi_file_is_normalized(self, capsys, tmp_path):
        # weights (2, 2, 2, 2) normalize to exactly the uniform vector
        path = tmp_path / "phi.json"
        path.write_text(json.dumps({"re": [2.0, 2.0, 2.0, 2.0]}))
        from_file = run_cli(capsys, "qgld", "--matrix", "random-spd:4:1", "--phi", str(path))
        assert from_file[0] == 0
        assert from_file == run_cli(capsys, "qgld", "--matrix", "random-spd:4:1", "--phi", "uniform")

    def test_sigma_mode(self, capsys):
        code, out, _ = run_cli(capsys, "qgld", "--matrix", "sigma-z", "--phi", "uniform",
                               "--mode", "sigma")
        payload = json.loads(out)
        assert code == 0
        assert abs(payload["total"]) <= 2e-6

    def test_sampled_mode(self, capsys):
        code, out, _ = run_cli(capsys, "qgld", "--matrix", "identity:4", "--phi", "uniform",
                               "--mode", "sampled", "--shots", "8", "--seed", "3")
        payload = json.loads(out)
        assert code == 0
        assert payload["estimate"] == pytest.approx(1.0, abs=1e-10)

    def test_sampled_mode_without_shots_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "qgld", "--matrix", "identity:4", "--phi", "uniform",
                                 "--mode", "sampled", "--shots", "0")
        assert (code, out) == (2, "")
        assert "n_samples must be >= 1" in err

    def test_sigma_mode_on_a_zero_matrix_exits_3(self, capsys, tmp_path):
        path = tmp_path / "zero.json"
        write_matrix(path, np.zeros((2, 2)))
        code, out, err = run_cli(capsys, "qgld", "--matrix", str(path), "--phi", "uniform", "--mode", "sigma")
        assert (code, out) == (3, "")
        assert err == "numerical failure: all eigenvalues below the pseudo-inverse threshold\n"

    def test_l_sweep_monotone(self, capsys):
        code, out, _ = run_cli(capsys, "qgld", "--matrix", "random-spd:4:7", "--phi", "uniform",
                               "--sweep-L", "1e-2,1e-3,1e-4")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["L", "total", "classical_reference", "abs_error"]
        errors = [float(r[3]) for r in rows]
        assert errors[0] > errors[1] > errors[2]

    def test_l_sweep_resolves_and_inverts_once(self, capsys, monkeypatch):
        l_values = [1e-3, 1e-4, 1e-5, 1e-6]
        x = random_spd(8, 3)
        phi = np.ones(8, dtype=complex) / np.sqrt(8)
        single = [qgld_expectation(InverseExpectationRequest(x=x, phi=phi, k=8, enc=GradientEncoding(L=l_value)),
                                   with_classical_reference=True)
                  for l_value in l_values]
        resolves, inverses = [], []
        resolve, inverse = qgld.expectation.DenseSource.resolve, qgld.expectation.inverse

        def counting_resolve(self, *args):
            resolves.append(1)
            return resolve(self, *args)

        def counting_inverse(*args, **kwargs):
            inverses.append(1)
            return inverse(*args, **kwargs)

        monkeypatch.setattr(qgld.expectation.DenseSource, "resolve", counting_resolve)
        monkeypatch.setattr(qgld.expectation, "inverse", counting_inverse)
        code, out, _ = run_cli(capsys, "qgld", "--matrix", "random-spd:8:3", "--phi", "uniform",
                               "--sweep-L", ",".join(f"{v:g}" for v in l_values))
        assert code == 0
        assert (len(resolves), len(inverses)) == (1, 1)
        want = render_csv(["L", "total", "classical_reference", "abs_error"],
                          [[l_value, r.total, r.classical_reference, abs(r.total - r.classical_reference)]
                           for l_value, r in zip(l_values, single)])
        assert out == want
        request = InverseExpectationRequest(x=x, phi=phi, k=8)
        swept = qgld_expectation_sweep(request, l_values, with_classical_reference=True)
        assert [r.to_dict() for r in swept] == [r.to_dict() for r in single]

    @pytest.mark.parametrize("mode", ["sigma", "sampled"])
    # --L and --m were echoed into the JSON while L = 1e-6, m = 1 ran; --W = 5 was echoed beside
    # the W = 1 total, since these modes take their probe scale from their weights
    @pytest.mark.parametrize("flag, value", [("--k", "99"), ("--b", "4"), ("--lanczos-steps", "3"),
                                             ("--sweep-L", "1e-4"), ("--L", "1e-3"), ("--m", "3"),
                                             ("--W", "2")])
    def test_superposition_modes_reject_per_eigenvector_flags(self, capsys, mode, flag, value):
        code, out, err = run_cli(capsys, "qgld", "--matrix", "random-spd:4:1", "--phi", "uniform",
                                 "--mode", mode, flag, value)
        assert code == 2
        assert out == ""
        assert flag in err

    # '' printed the single-L report at exit 0; the others printed float()'s
    # "could not convert string to float" without naming the flag
    @pytest.mark.parametrize("spec", ["", "1e-3,abc", ",", "1e-3,"])
    def test_malformed_sweep_exits_2(self, capsys, spec):
        code, out, err = run_cli(capsys, "qgld", "--matrix", "random-spd:4:1", "--phi", "uniform",
                                 "--sweep-L", spec)
        assert code == 2
        assert out == ""
        assert f"--sweep-L {spec!r}: expected comma-separated L values" in err

    # --L 0.5 failed on a value no row uses; --L 1e-3 was dropped silently
    @pytest.mark.parametrize("l_value", ["0.5", "1e-3"])
    def test_sweep_rejects_l(self, capsys, l_value):
        code, out, err = run_cli(capsys, "qgld", "--matrix", "random-spd:4:1", "--phi", "uniform",
                                 "--L", l_value, "--sweep-L", "1e-4")
        assert code == 2
        assert out == ""
        assert "--L applies only" in err

    # both exited 0 with wrong numbers: abs_error 2.86, and 0.335 against 0.925
    @pytest.mark.parametrize("argv", [
        ("gradient", "--matrix", "sigma-z", "--delta", "all-ones", "--W", "0.1"),
        ("qgld", "--matrix", "random-spd:4:1", "--phi", "uniform", "--W", "0.05"),
    ])
    def test_aliased_readout_exits_3(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert out == ""
        assert "readout range" in err

    # both exited 0: W = 1e300 printed -1 for the +1 eigenvector (the m = 1 read's floor sqrt(2 eps) W),
    # and L = 1e-300 printed -2.2e-16 for both eigenvectors (the dense family's floor M eps ||X||_F / L)
    @pytest.mark.parametrize("flag,value,hint", [("--W", "1e300", "use W <= 9491"),
                                                 ("--L", "1e-300", "use L >= 3.14e-12")])
    def test_probe_rounding_floor_exits_3(self, capsys, flag, value, hint):
        code, out, err = run_cli(capsys, "gradient", "--matrix", "sigma-x", flag, value)
        assert code == 3
        assert out == ""
        assert f"{flag[2:]} = {float(value):g} puts" in err and hint in err

    def test_probe_rounding_floor_admits_the_named_values(self, capsys):
        for flag, value in (("--W", "9400"), ("--L", "3.2e-12")):
            code, out, _ = run_cli(capsys, "gradient", "--matrix", "sigma-x", flag, value)
            assert code == 0
            _, rows = parse_csv(out)
            assert [abs(float(row[5]) - float(row[6])) <= 2e-4 for row in rows] == [True, True]

    # exited 0 printing 0.1031348 against 0.1033027 while the Ritz pairs ran the dense family, whose floor
    # was taken with ||X||_2, then exited 3 at its floor M eps ||X||_F / L once that was taken with ||X||_F;
    # probed in their own basis they have no such floor, and read the LU reference
    def test_lanczos_sourced_read_below_the_dense_floor(self, capsys):
        code, out, _ = run_cli(capsys, "qgld", "--matrix", "random-spd:128:1", "--phi", "uniform", "--b", "4",
                               "--seed", "1", "--L", "2.4e-10")
        assert code == 0
        payload = json.loads(out)
        reference = float(np.sum(np.linalg.inv(random_spd(128, 1)).real)) / 128  # <phi| X^-1 |phi>, phi uniform
        assert abs(payload["classical_reference"] - reference) <= 1e-12
        assert abs(payload["total"] - reference) <= 1e-4

    # printed 0.451714 and 0.305737 at exit 0: the Krylov space holds one vector of each degenerate
    # eigenspace, three Ritz pairs in all, and the dense family read each as a mixture of the phases
    # that Delta splits its eigenspace into
    @pytest.mark.parametrize("seed,want", [(0, 0.450461), (1, 0.304710)])
    def test_lanczos_read_of_a_degenerate_matrix(self, capsys, tmp_path, seed, want):
        path = tmp_path / "diag.json"
        write_matrix(path, np.diag([1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 3.0, 3.0]))
        code, out, _ = run_cli(capsys, "qgld", "--matrix", str(path), "--phi", "uniform", "--b", "1", "--k", "3",
                               "--seed", str(seed))
        assert code == 0
        assert abs(json.loads(out)["total"] - want) <= 1e-4

    def test_k_inside_a_cluster_exits_2(self, capsys, tmp_path):
        # printed 0.1875 at exit 0: the rank-3 sum over diag(1, 1, 2, 4) is anything in [0.1875, 0.6875]
        path = tmp_path / "diag.json"
        write_matrix(path, np.diag([1.0, 1.0, 2.0, 4.0]))
        code, out, err = run_cli(capsys, "qgld", "--matrix", str(path), "--phi", "uniform", "--k", "3")
        assert code == 2
        assert out == ""
        assert "k = 3 ends inside a cluster" in err and "use k = 2 or 4" in err

    def test_singular_matrix_exit_code(self, capsys, tmp_path):
        path = tmp_path / "singular.json"
        write_matrix(path, np.ones((2, 2)))
        code, _, err = run_cli(capsys, "qgld", "--matrix", str(path), "--phi", "uniform")
        assert code == 3
        assert "numerical" in err


class TestMalformedJson:
    # the first three exited 2 naming neither file nor field: "'dim'", "'re'" and numpy's
    # "operands could not be broadcast together with shapes (4,) (2,)"; the last three
    # loaded through int() and ran at exit 0; a dim far beyond 're' exited 1 on a MemoryError,
    # asking for dim x dim zeros as 'im'
    @pytest.mark.parametrize("flag, content, field", [
        ("--matrix", {"re": [[2, 0], [0, 3]]}, "'dim'"),
        ("--phi", {"im": [0, 0, 0, 0]}, "'re'"),
        ("--phi", {"re": [1, 2, 3, 4], "im": [0, 0]}, "'im' has shape (2,)"),
        ("--matrix", {"dim": 2.9, "re": [[2, 0], [0, 3]]}, "'dim' is 2.9"),
        ("--matrix", {"dim": "2", "re": [[2, 0], [0, 3]]}, "'dim' is '2'"),
        ("--matrix", {"dim": True, "re": [[2, 0], [0, 3]]}, "'dim' is True"),
        ("--matrix", {"dim": 10**6, "re": [[2, 0], [0, 3]]}, "'re' has shape (2, 2), expected (1000000, 1000000)"),
    ], ids=["matrix-without-dim", "phi-without-re", "phi-im-shape", "dim-fraction", "dim-string", "dim-bool",
            "dim-beyond-re"])
    def test_names_file_and_field(self, capsys, tmp_path, flag, content, field):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(content))
        argv = {"--matrix": ("--matrix", str(path), "--phi", "uniform"),
                "--phi": ("--matrix", "random-spd:4:1", "--phi", str(path))}[flag]
        code, out, err = run_cli(capsys, "qgld", *argv)
        assert code == 2
        assert out == ""
        assert str(path) in err and field in err


class TestNonFiniteInput:
    # lanczos exited 2 with numpy's "SVD did not converge"
    @pytest.mark.parametrize("command", [("qgld", "--phi", "uniform"),
                                         ("gradient", "--delta", "all-ones"), ("lanczos",)])
    def test_nan_matrix_exits_2(self, capsys, tmp_path, command):
        path = tmp_path / "nan.json"
        write_matrix(path, np.array([[1.0, np.nan], [np.nan, 2.0]]))
        code, out, err = run_cli(capsys, command[0], "--matrix", str(path), *command[1:])
        assert code == 2
        assert out == ""
        assert "2 non-finite entries" in err

    @pytest.mark.parametrize("mode", [(), ("--mode", "sigma"), ("--mode", "sampled"),
                                      ("--sweep-L", "1e-3,1e-4")])
    @pytest.mark.parametrize("weights, message", [([np.nan, 0.5, 0.5, 0.5], "non-finite"),
                                                  ([0.0, 0.0, 0.0, 0.0], "zero")])
    def test_bad_phi_exits_2(self, capsys, tmp_path, mode, weights, message):
        path = tmp_path / "phi.json"
        path.write_text(json.dumps({"re": weights}))
        code, out, err = run_cli(capsys, "qgld", "--matrix", "random-spd:4:1",
                                 "--phi", str(path), *mode)
        assert code == 2
        assert out == ""
        assert "phi" in err and message in err


class TestLanczosCommand:
    def test_ritz_output(self, capsys):
        code, out, _ = run_cli(capsys, "lanczos", "--matrix", "sigma-z", "--b", "1", "--k", "2")
        assert code == 0
        payload = json.loads(out)
        assert sorted(payload["ritz_values"]) == pytest.approx([-1.0, 1.0], abs=1e-10)
        assert payload["orthonormality_defect"] <= 1e-8

    def test_block_dump(self, capsys):
        code, out, _ = run_cli(capsys, "lanczos", "--matrix", "random-spd:8:5", "--b", "2",
                               "--k", "3", "--dump-blocks")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["factorization"]["a_blocks"]) == 3
        assert len(payload["factorization"]["b_blocks"]) == 2

    @pytest.mark.parametrize("b", ["2", "3"])
    def test_full_run_is_not_breakdown(self, capsys, b):
        code, out, _ = run_cli(capsys, "lanczos", "--matrix", "random-spd:8:5", "--b", b)
        assert code == 0
        assert json.loads(out)["breakdown"] is False

    def test_non_hermitian_matrix_exits_2(self, capsys, tmp_path):
        # exited 0 printing Ritz values with residuals up to 0.93
        path = tmp_path / "m.json"
        write_matrix(path, np.array([[1.0, 1.0], [0.0, 2.0]]))
        code, out, err = run_cli(capsys, "lanczos", "--matrix", str(path))
        assert code == 2
        assert out == ""
        assert "hermiticity defect 1.000e+00" in err

    @pytest.mark.parametrize("seed", range(10))
    def test_tied_magnitudes_print_ascending(self, capsys, seed):
        # sigma-x's Ritz values +-1 differ in magnitude only by rounding
        code, out, _ = run_cli(capsys, "lanczos", "--matrix", "sigma-x", "--seed", str(seed))
        assert code == 0
        values = json.loads(out)["ritz_values"]
        assert values == sorted(values)


class TestBlockSizeAndSeed:
    @pytest.mark.parametrize("argv", [("lanczos",), ("qgld", "--phi", "uniform")])
    def test_block_size_beyond_dimension_is_named(self, capsys, argv):
        # both read "k*b = 0 outside [1, 8]"
        code, out, err = run_cli(capsys, argv[0], "--matrix", "random-spd:8:1", *argv[1:], "--b", "16")
        assert code == 2
        assert out == ""
        assert "block size 16 outside [1, 8]" in err

    @pytest.mark.parametrize("argv", [("lanczos",), ("qgld", "--phi", "uniform", "--b", "2"),
                                      ("qgld", "--phi", "uniform", "--mode", "sampled")])
    def test_negative_seed_names_the_flag(self, capsys, argv):
        # each read numpy's "expected non-negative integer", naming no flag
        code, out, err = run_cli(capsys, argv[0], "--matrix", "random-spd:8:1", *argv[1:], "--seed", "-1")
        assert code == 2
        assert out == ""
        assert "argument --seed: '-1': expected a non-negative integer" in err


class TestDeterminism:
    def test_byte_identical_reruns(self, capsys):
        configs = [
            ("gradient", "--matrix", "hadamard", "--delta", "element:0,1"),
            ("qgld", "--matrix", "random-spd:4:11", "--phi", "uniform", "--seed", "2"),
            ("lanczos", "--matrix", "random-spd:8:5", "--b", "2", "--k", "4", "--seed", "2"),
        ]
        for argv in configs:
            _, first, _ = run_cli(capsys, *argv)
            _, second, _ = run_cli(capsys, *argv)
            assert first == second
        sweep = ("qgld", "--matrix", "random-spd:4:7", "--phi", "uniform",
                 "--sweep-L", "1e-2,1e-3,1e-4")
        _, first, _ = run_cli(capsys, *sweep)
        _, second, _ = run_cli(capsys, *sweep)
        assert first == second


# the flags each subcommand's handler reads, besides --out
READS = {
    "gradient": {"--matrix", "--phi", "--delta", "--L", "--W", "--m", "--k"},
    "reproduce-table1": set(),
    "qgld": {"--matrix", "--phi", "--L", "--W", "--m", "--k", "--b", "--lanczos-steps", "--seed", "--shots",
             "--mode", "--sweep-L"},
    "lanczos": {"--matrix", "--b", "--k", "--seed", "--dump-blocks"},
    "kernel-demo": {"--L", "--W", "--m", "--k", "--format"},
}
# every flag that all five subcommands used to accept, with a value each would take
SHARED = {"--matrix": "sigma-z", "--phi": "uniform", "--L": "1e-3", "--W": "2", "--m": "2", "--k": "1",
          "--b": "1", "--lanczos-steps": "1", "--seed": "3", "--shots": "8", "--format": "json"}


def parser_flags() -> dict:
    """Each subcommand's option strings, in the order build_parser() adds them, without -h."""
    [sub] = [a for a in build_parser()._actions if a.dest == "command"]
    return {name: [s for a in p._actions if a.dest != "help" for s in a.option_strings]
            for name, p in sub.choices.items()}


class TestFlagLists:
    def test_option_slots(self):
        slots = {name: sorted(flags) for name, flags in parser_flags().items()}
        assert slots == {name: sorted(flags | {"--out"}) for name, flags in READS.items()}
        assert sum(map(len, slots.values())) == 34

    def test_readme_table_matches_parser(self):
        # each row of README's "| subcommand | flags |" table: the name, then its first code span, in any order
        lines = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8").splitlines()
        start = lines.index("| subcommand | flags |") + 2
        rows = {}
        for line in itertools.takewhile(lambda text: text.startswith("|"), lines[start:]):
            name, flags = line.strip("|").split("|")[:2]
            spans = re.findall(r"`([^`]*)`", flags)
            rows[name.strip().strip("`")] = sorted(spans[0].split() if flags.strip() != "none" else [])
        assert rows == {name: sorted(set(flags) - {"--out"}) for name, flags in parser_flags().items()}

    @pytest.mark.parametrize("command, flag", [(c, f) for c in READS for f in SHARED if f not in READS[c]])
    def test_unread_flag_exits_2(self, capsys, command, flag):
        code, out, err = run_cli(capsys, command, flag, SHARED[flag])
        assert code == 2
        assert out == ""
        assert flag in err

    @pytest.mark.parametrize("mode", [(), ("--mode", "sigma")])
    def test_shots_outside_sampled_exits_2(self, capsys, mode):
        code, out, err = run_cli(capsys, "qgld", "--matrix", "random-spd:4:1", "--phi", "uniform",
                                 *mode, "--shots", "8")
        assert code == 2
        assert out == ""
        assert "--shots" in err

    def test_lanczos_steps_needs_b(self, capsys):
        argv = ("qgld", "--matrix", "random-spd:4:1", "--phi", "uniform", "--lanczos-steps", "2")
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "--lanczos-steps" in err
        code, out, _ = run_cli(capsys, *argv, "--b", "2")
        assert code == 0
        assert json.loads(out)["total"] == pytest.approx(json.loads(out)["classical_reference"], abs=1e-4)


class TestOutputFile:
    def test_out_flag_writes_file(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code, out, _ = run_cli(capsys, "reproduce-table1", "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("matrix,delta,eigenstate")

    def test_kernel_demo_rejects_negative_k(self, capsys):
        code, out, err = run_cli(capsys, "kernel-demo", "--k", "-1")
        assert code == 2
        assert out == ""
        assert "k = -1" in err

    def test_kernel_demo_json(self, capsys):
        code, out, _ = run_cli(capsys, "kernel-demo", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["max_alpha_diff"] <= 1e-3
        assert payload["holdout_max_err_classical"] < 1e-2

    def test_kernel_demo_csv_is_the_default(self, capsys):
        code, out, _ = run_cli(capsys, "kernel-demo")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["i", "x", "target", "alpha_classical", "alpha_qgld", "alpha_absdiff"]
        table = np.array(rows, dtype=float)
        np.testing.assert_array_equal(table[:, 0], np.arange(16))
        np.testing.assert_allclose(table[:, 1], np.linspace(0.0, 2 * np.pi, 16), rtol=1e-8)
        assert np.max(table[:, 5]) <= 1e-3
        payload = json.loads(run_cli(capsys, "kernel-demo", "--format", "json")[1])
        np.testing.assert_allclose(table[:, 3], payload["alpha_classical"], rtol=1e-8)
        np.testing.assert_allclose(table[:, 4], payload["alpha_qgld"], rtol=1e-8)
