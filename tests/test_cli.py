import json

import numpy as np
import pytest

import qgld.cli
import qgld.expectation
import qgld.linalg
from qgld import GradientEncoding, InverseExpectationRequest, qgld_expectation, qgld_expectation_sweep
from qgld.cli import build_parser, main, random_spd
from qgld.io import render_csv
from conftest import write_matrix


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


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

    @pytest.mark.parametrize("k", ["-1", "9"])
    def test_k_out_of_range_exits_2(self, capsys, k):
        code, out, err = run_cli(capsys, "gradient", "--matrix", "random-spd:8:3",
                                 "--delta", "element:1,5", "--k", k)
        assert code == 2
        assert out == ""
        assert "--k" in err

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
        # LAPACK eigh runs twice: the resolve, and one stacked call for the 2
        # members of the m = 1 family; the Hellmann-Feynman oracle
        # re-diagonalizes nothing
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
        code, out, _ = run_cli(capsys, "gradient", "--matrix", "random-spd:8:3",
                               "--delta", "element:1,4", "--k", "0")
        assert code == 0
        assert len(parse_csv(out)[1]) == 8
        assert len(resolved) == 1
        assert lapack == [(8, 8), (2, 8, 8)]

    def test_degenerate_oracle_exits_3(self, capsys):
        code, out, err = run_cli(capsys, "gradient", "--matrix", "identity:4", "--delta", "element:0,1")
        assert code == 3
        assert out == ""
        assert "gap at index" in err


class TestQgldCommand:
    def test_sigma_z_uniform(self, capsys):
        code, out, _ = run_cli(capsys, "qgld", "--matrix", "sigma-z", "--phi", "uniform")
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["total"]) <= 2e-6

    def test_identity_preset(self, capsys):
        code, out, _ = run_cli(capsys, "qgld", "--matrix", "identity:4", "--phi", "uniform")
        assert code == 0
        payload = json.loads(out)
        assert payload["total"] == pytest.approx(1.0, abs=1e-6)

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
        assert qgld_expectation_sweep(request, l_values, with_classical_reference=True) == single

    @pytest.mark.parametrize("mode", ["sigma", "sampled"])
    # --L and --m were echoed into the JSON while L = 1e-6, m = 1 ran
    @pytest.mark.parametrize("flag, value", [("--k", "99"), ("--b", "4"), ("--lanczos-steps", "3"),
                                             ("--sweep-L", "1e-4"), ("--L", "1e-3"), ("--m", "3")])
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

    def test_singular_matrix_exit_code(self, capsys, tmp_path):
        path = tmp_path / "singular.json"
        write_matrix(path, np.ones((2, 2)))
        code, _, err = run_cli(capsys, "qgld", "--matrix", str(path), "--phi", "uniform")
        assert code == 3
        assert "numerical" in err


class TestMalformedJson:
    # each exited 2 naming neither file nor field: "'dim'", "'re'" and numpy's
    # "operands could not be broadcast together with shapes (4,) (2,)"
    @pytest.mark.parametrize("flag, content, field", [
        ("--matrix", {"re": [[2, 0], [0, 3]]}, "'dim'"),
        ("--phi", {"im": [0, 0, 0, 0]}, "'re'"),
        ("--phi", {"re": [1, 2, 3, 4], "im": [0, 0]}, "'im' has shape (2,)"),
    ], ids=["matrix-without-dim", "phi-without-re", "phi-im-shape"])
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


class TestFlagLists:
    def test_option_slots(self):
        [sub] = [a for a in build_parser()._actions if a.dest == "command"]
        slots = {name: sorted(s for a in p._actions if a.dest != "help" for s in a.option_strings)
                 for name, p in sub.choices.items()}
        assert slots == {name: sorted(flags | {"--out"}) for name, flags in READS.items()}
        assert sum(map(len, slots.values())) == 34

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
