"""Batch command-line front end.

Subcommands: gradient, reproduce-table1, qgld, lanczos, kernel-demo, each
taking only the flags its handler reads (COMMANDS).  Matrices come from JSON
files ({"dim", "re", "im"}) or built-in presets (sigma-x, sigma-z, hadamard,
identity[:N], random-spd:N:SEED).  Identical configuration and seeds produce
byte-identical output.  Exit codes: 0 on success, 2 on validation or I/O
failure (an unread flag included), 3 on numerical failure.
"""
from __future__ import annotations

import argparse
import json
import re
import sys

import numpy as np

from . import io as qio
from .errors import (
    AliasedReadout,
    FlatDistribution,
    IllConditioned,
    NearZeroEigenvalue,
    QgldError,
    RoundingFloor,
    SingularMatrix,
)
from .expectation import (
    DenseSource,
    InverseExpectationRequest,
    RqblSource,
    _probe_pairs,
    adapt_degenerate_eigenvectors,
    classical_reference_expectation,
    eigenvalue_gradient_probes,
    qgld_expectation,
    qgld_expectation_sweep,
    sampled_qgld,
    sigma_qgld_expectation,
)
from .kernel import kernel_fit, kernel_predict
from .lanczos import assemble_and_solve, build_factorization, dump_factorization
from .linalg import eig_hermitian
from .qgpe import GradientEncoding, PerturbationDirection, build_delta, require_weight_vector

NUMERIC_ERRORS = (
    AliasedReadout,
    SingularMatrix,
    NearZeroEigenvalue,
    FlatDistribution,
    IllConditioned,
    RoundingFloor,
)

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)


def random_spd(n: int, seed: int) -> np.ndarray:
    """Seeded SPD test matrix with guaranteed eigenvalue separation."""
    rng = np.random.default_rng(seed)
    gauss = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(gauss)
    values = 0.5 + 0.4 * np.arange(n) + rng.uniform(0.0, 0.25, size=n)
    return (q * values) @ q.conj().T


def _spec_integers(flag: str, source: str, form: str, pattern: str) -> list[int]:
    """The integer fields of the spec ``source`` matching ``pattern``, or a
    ValueError naming ``flag`` and the expected ``form``."""
    match = re.fullmatch(pattern, source)
    if match is None:
        raise ValueError(f"{flag} {source!r}: expected {form}")
    return [int(v) for v in match.groups()]


def resolve_matrix(source: str) -> np.ndarray:
    if source == "sigma-x":
        return SIGMA_X.copy()
    if source == "sigma-z":
        return SIGMA_Z.copy()
    if source == "hadamard":
        return HADAMARD.copy()
    if source == "identity":
        return np.eye(2, dtype=complex)
    if source.startswith("identity:"):
        [n] = _spec_integers("--matrix", source, "identity:N", r"identity:(\d+)")
        return np.eye(n, dtype=complex)
    if source.startswith("random-spd:"):
        n, seed = _spec_integers("--matrix", source, "random-spd:N:SEED", r"random-spd:(\d+):(\d+)")
        return random_spd(n, seed)
    return qio.load_matrix(source)


def resolve_phi(source: str, n: int) -> np.ndarray:
    if source == "uniform":
        return np.ones(n, dtype=complex) / np.sqrt(n)
    if source == "basis0":
        phi = np.zeros(n, dtype=complex)
        phi[0] = 1.0
        return phi
    phi = require_weight_vector(qio.load_vector(source), n)
    return phi / np.linalg.norm(phi)


def resolve_delta(source: str, x: np.ndarray, phi: np.ndarray | None) -> PerturbationDirection:
    n = x.shape[0]
    if source.startswith("element:"):
        i, j = _spec_integers("--delta", source, "element:i,j", r"element:(-?\d+),(-?\d+)")
        return build_delta("element", n, i=i, j=j)
    if source == "all-ones":
        return build_delta("all_ones", n)
    if source == "outer":
        if phi is None:
            raise ValueError("outer direction needs --phi")
        return build_delta("outer", n, phi=phi)
    if source == "identity":
        return build_delta("custom", n, matrix=np.eye(n, dtype=complex))
    if source == "matrix":
        return build_delta("custom", n, matrix=x)
    raise ValueError(f"unknown delta source {source!r}")


def encoding_from_args(args) -> GradientEncoding:
    return GradientEncoding(L=args.L, W=args.W, m=args.m)


# ---------------------------------------------------------------------------
# subcommands

def cmd_gradient(args) -> str:
    x = resolve_matrix(args.matrix)
    phi = resolve_phi(args.phi, x.shape[0]) if args.phi else None
    delta = resolve_delta(args.delta, x, phi)
    enc = encoding_from_args(args)
    n = x.shape[0]
    if not 0 <= args.k <= n:
        raise ValueError(f"--k {args.k} outside [0, {n}] (0 = all)")
    spectrum = DenseSource().resolve(x)
    selected = spectrum.order[:args.k or n]
    [grads], _ = _probe_pairs(spectrum, [(delta, enc)], selected)
    # the oracle <p|Delta|p> reads the vectors the probes read: in a degenerate cluster, those diagonalizing Delta
    vectors = adapt_degenerate_eigenvectors(spectrum, delta, enc.L)[0][:, selected]
    oracles = np.einsum("ip,ip->p", vectors.conj(), delta.matrix @ vectors).real
    rows = [[p, spectrum.values[p], args.delta, enc.L, enc.m, grad, oracle, abs(grad - oracle)]
            for p, grad, oracle in zip(selected.tolist(), grads.tolist(), oracles.tolist())]
    return qio.render_csv(
        ["p", "E_p", "delta_kind", "L", "m", "gradient_quantum", "gradient_oracle", "abs_error"],
        rows,
    )


def cmd_reproduce_table1(args) -> str:
    enc = GradientEncoding(L=1e-6, W=1.0, m=1)
    dec = eig_hermitian(SIGMA_X)  # column 1 is |+>, column 0 is |->
    along_x = build_delta("custom", 2, matrix=SIGMA_X)
    directions = [
        ("X", along_x),
        ("|0><0|", build_delta("element", 2, i=0, j=0)),
        ("|1><1|", build_delta("element", 2, i=1, j=1)),
        ("I", build_delta("custom", 2, matrix=np.eye(2, dtype=complex))),
    ]
    rows = []
    for name, delta in directions:
        grads = eigenvalue_gradient_probes(SIGMA_X, dec.vectors[:, [1, 0]], delta, enc).tolist()
        rows += [["sigma-x", name, label, enc.L, enc.m, grad] for label, grad in zip("+-", grads)]
    [grad] = eigenvalue_gradient_probes(HADAMARD, eig_hermitian(HADAMARD).vectors[:, [1]], along_x, enc).tolist()
    rows.append(["hadamard", "X", "H+", enc.L, enc.m, grad])
    return qio.render_csv(["matrix", "delta", "eigenstate", "L", "m", "gradient"], rows)


def cmd_qgld(args) -> str:
    x = resolve_matrix(args.matrix)
    phi = resolve_phi(args.phi or "uniform", x.shape[0])
    enc = encoding_from_args(args)
    k = args.k if args.k else x.shape[0]

    if args.mode == "per-eigenvector":
        source = RqblSource(b=args.b, seed=args.seed, steps=args.lanczos_steps) if args.b else DenseSource()
        request = InverseExpectationRequest(x=x, phi=phi, k=k, enc=enc, eigensource=source)
        if args.sweep_L is not None:
            try:
                l_values = [float(v) for v in args.sweep_L.split(",")]
            except ValueError:
                raise ValueError(f"--sweep-L {args.sweep_L!r}: expected comma-separated L values") from None
            reports = qgld_expectation_sweep(request, l_values, with_classical_reference=True)
            rows = [[l_value, report.total, report.classical_reference,
                     abs(report.total - report.classical_reference)]
                    for l_value, report in zip(l_values, reports)]
            return qio.render_csv(["L", "total", "classical_reference", "abs_error"], rows)
        payload = qgld_expectation(request, with_classical_reference=True).to_dict()
    elif args.mode == "sigma":
        total = sigma_qgld_expectation(x, phi)
        payload = {
            "mode": "sigma",
            "total": total,
            "classical_reference": classical_reference_expectation(x, phi),
        }
    else:  # sampled
        estimate, spread = sampled_qgld(x, phi, args.shots, args.seed)
        payload = {
            "mode": "sampled",
            "n_samples": args.shots,
            "seed": args.seed,
            "estimate": estimate,
            "spread": spread,
            "classical_reference": classical_reference_expectation(x, phi),
        }
    payload["L"] = enc.L
    payload["W"] = enc.W
    payload["m"] = enc.m
    payload["k"] = k
    return qio.render_json(payload)


def cmd_lanczos(args) -> str:
    x = resolve_matrix(args.matrix)
    fact = build_factorization(x, args.b or 1, args.k or None, args.seed)
    sol = assemble_and_solve(x, fact)
    payload = {
        "ritz_values": sol.values.tolist(),
        "residuals": sol.residuals.tolist(),
        "orthonormality_defect": fact.orthonormality_defect(),
        "breakdown": fact.breakdown,
        "steps": fact.steps,
    }
    if args.dump_blocks:
        payload["factorization"] = dump_factorization(fact)
    return qio.render_json(payload)


def cmd_kernel_demo(args) -> str:
    points = np.linspace(0.0, 2 * np.pi, 16)
    targets = np.sin(points)
    sigma, ridge = 1.0, 1e-6
    enc = encoding_from_args(args)
    classical = kernel_fit(points, targets, sigma, ridge, solver="classical")
    probe = kernel_fit(points, targets, sigma, ridge, solver="qgld",
                       k=args.k or len(points), enc=enc)
    holdout = np.linspace(0.0, 2 * np.pi, 50)
    pred_c = kernel_predict(classical, holdout)
    pred_q = kernel_predict(probe, holdout)
    truth = np.sin(holdout)
    if args.format == "json":
        return qio.render_json({
            "alpha_classical": classical.alpha.tolist(),
            "alpha_qgld": probe.alpha.tolist(),
            "max_alpha_diff": float(np.max(np.abs(classical.alpha - probe.alpha))),
            "holdout_max_err_classical": float(np.max(np.abs(pred_c - truth))),
            "holdout_max_err_qgld": float(np.max(np.abs(pred_q - truth))),
        })
    rows = [
        [i, points[i], targets[i], classical.alpha[i], probe.alpha[i],
         abs(classical.alpha[i] - probe.alpha[i])]
        for i in range(len(points))
    ]
    return qio.render_csv(
        ["i", "x", "target", "alpha_classical", "alpha_qgld", "alpha_absdiff"], rows
    )


# ---------------------------------------------------------------------------
# parser / entry point

def seed_value(text: str) -> int:
    """A --seed value: numpy's generators take only non-negative integers."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"{text!r}: expected a non-negative integer")
    return int(text)


def w_value(text: str) -> float:
    """A --W value, checked by the encoding when parsed, so that a mode that reads no W still names a bad one."""
    try:
        return GradientEncoding(W=float(text)).W
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


# Every flag a subcommand may take, as argparse keywords.
FLAGS = {
    "--matrix": dict(default="sigma-x", help="matrix JSON path or preset (sigma-x, sigma-z, hadamard, "
                                              "identity[:N], random-spd:N:SEED)"),
    "--phi": dict(default=None, help="weight vector: uniform, basis0, or JSON path"),
    "--delta": dict(default="matrix", help="element:i,j (zero-based) | all-ones | outer | identity | matrix"),
    "--L": dict(type=float, default=1e-6, help="linearization length"),
    "--W": dict(type=w_value, default=1.0, help="gradient scale of the readout"),
    "--m": dict(type=int, default=1, help="deviation qubits"),
    "--k": dict(type=int, default=0),
    "--b": dict(type=int, default=0),
    "--lanczos-steps": dict(type=int, default=None, help="Lanczos steps of the --b source (default N // b)"),
    "--seed": dict(type=seed_value, default=0, help="random seed (non-negative)"),
    "--shots": dict(type=int, default=64, help="sampled starting states"),
    "--mode": dict(choices=("per-eigenvector", "sigma", "sampled"), default="per-eigenvector"),
    "--sweep-L": dict(default=None, help="comma-separated L values; emits error-vs-L CSV"),
    "--dump-blocks": dict(action="store_true", help="add every block of the factorization"),
    "--format": dict(choices=("csv", "json"), default="csv"),
    "--out": dict(default=None, help="output path (default stdout)"),
}

PER_EIGENVECTOR = ("--mode per-eigenvector", lambda args: args.mode == "per-eigenvector")
# --sweep-L replaces --L row by row; the superposition modes run fixed L and m, scaled by their weights
ONE_L = ("--mode per-eigenvector and no --sweep-L",
         lambda args: args.mode == "per-eigenvector" and args.sweep_L is None)

# subcommand -> (handler, help, {flag the handler reads, besides --out: keywords
# replacing those of FLAGS, and "when", the (condition, test) it is read under})
COMMANDS = {
    "gradient": (cmd_gradient, "per-eigenpair gradient probe vs oracle", {
        "--matrix": {}, "--phi": {"when": ("--delta outer", lambda args: args.delta == "outer")}, "--delta": {},
        "--L": {}, "--W": {}, "--m": {}, "--k": {"help": "pairs probed, most relevant first (0 = all)"}}),
    "reproduce-table1": (cmd_reproduce_table1, "single-qubit gradient benchmark table", {}),
    "qgld": (cmd_qgld, "inverse expectation value pipelines", {
        "--matrix": {}, "--phi": {}, "--L": {"when": ONE_L}, "--W": {"when": PER_EIGENVECTOR},
        "--m": {"when": PER_EIGENVECTOR}, "--mode": {},
        "--k": {"help": "rank cutoff: the k most relevant eigenpairs (0 = all)", "when": PER_EIGENVECTOR},
        "--b": {"help": "Lanczos block size of the eigenpair source (0 = dense)", "when": PER_EIGENVECTOR},
        "--lanczos-steps": {"when": ("--b", lambda args: args.b != 0)},
        "--sweep-L": {"when": PER_EIGENVECTOR},
        "--shots": {"when": ("--mode sampled", lambda args: args.mode == "sampled")},
        "--seed": {"help": "seed of the --b source and of --mode sampled"}}),
    "lanczos": (cmd_lanczos, "randomized block Lanczos eigenpairs", {
        "--matrix": {}, "--b": {"help": "block size (0 = 1)"}, "--k": {"help": "Lanczos steps (0 = N // b)"},
        "--seed": {}, "--dump-blocks": {}}),
    "kernel-demo": (cmd_kernel_demo, "kernel ridge fit of sin(x), both solvers", {
        "--L": {}, "--W": {}, "--m": {}, "--format": {},
        "--k": {"help": "rank cutoff of K + ridge*I (0 = all 16 points)"}}),
}


def reject_unread(args, flags: dict) -> None:
    """Raise ValueError naming a flag of ``flags`` set away from its default
    whose "when" test fails, since the handler would not read it."""
    for flag, spec in flags.items():
        condition, holds = spec.get("when", (None, None))
        if holds and getattr(args, flag[2:].replace("-", "_")) != FLAGS[flag]["default"] and not holds(args):
            raise ValueError(f"{flag} applies only with {condition}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qgld",
                                     description="log-determinant gradient pipelines")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)  # else lanczos --m reads as --matrix
        for flag, spec in {**flags, "--out": {}}.items():
            p.add_argument(flag, **{**FLAGS[flag], **{key: v for key, v in spec.items() if key != "when"}})
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        reject_unread(args, COMMANDS[args.command][2])
        output = args.handler(args)
    except NUMERIC_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (QgldError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(output)
    else:
        sys.stdout.write(output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
