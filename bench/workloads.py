"""The four benchmark workloads: seeded inputs, one timed pass, oracle checks.

A workload is built in two steps.  ``make_inputs(name, seed)`` generates the
inputs and is part of set-up.  ``WORKLOADS[name](inputs, src_dir)`` then
computes the classical oracles (outside every timed region) and exposes
``run_pass(rec)``, which issues the workload's calls back to back through
``rec``.  ``rec`` times each call and keeps the result with its check; the
checks run after the pass.

Oracles use numpy directly, never the program's own ``inverse`` or
``eig_hermitian``, so a defect in those shows up as a failed check.
Tolerances are the repository's own contracts (acceptance criteria 3, 4, 5
and 7, ``test_expectation`` for the sampled spread, and
``EIGEN_RESIDUAL_RTOL`` for Ritz pairs).
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time

import numpy as np

import qgld
import qgld.cli
from qgld import GradientEncoding, InverseExpectationRequest, RqblSource, build_delta

# Calls into the program go through the ``qgld`` package attributes, looked up
# at call time, so the traced run's wrappers see them.

ENTRY_TOL = 1e-4          # criteria 3 and 4: per-eigenvector and log-det entries
SIGMA_TOL = 3e-4          # criterion 5 (2e-4 to per-eigenvector) plus criterion 4
ALPHA_TOL = 1e-3          # criterion 7
EIGEN_RESIDUAL_RTOL = 1e-6  # mirrors qgld.expectation.EIGEN_RESIDUAL_RTOL
SWEEP_L = (1e-3, 1e-4, 1e-5, 1e-6)

# ---------------------------------------------------------------------------
# input generation


def random_spd(n: int, seed: int) -> np.ndarray:
    """The recipe behind the CLI preset ``random-spd:N:SEED``, rebuilt here so
    the oracle does not read the matrix back from the program."""
    rng = np.random.default_rng(seed)
    gauss = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(gauss)
    values = 0.5 + 0.4 * np.arange(n) + rng.uniform(0.0, 0.25, size=n)
    return (q * values) @ q.conj().T


def random_indefinite(rng, n: int) -> np.ndarray:
    """Hermitian matrix with random-sign eigenvalues, every gap >= 0.045."""
    gauss = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(gauss)
    values = (0.5 + 0.15 * np.arange(n) + rng.uniform(0.0, 0.105, size=n))
    values = values * rng.choice([-1.0, 1.0], size=n)
    return (q * values) @ q.conj().T


def random_unit(rng, n: int) -> np.ndarray:
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def _subseed(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


# ---------------------------------------------------------------------------
# oracles and checks; a check maps a result to (error, tolerance)


def inverse_expectation(x, phi) -> float:
    return float(np.real(phi.conj() @ np.linalg.solve(x, phi)))


def kernel_alpha(points, targets, sigma, ridge) -> np.ndarray:
    sq = (points[:, None] - points[None, :]) ** 2
    system = np.exp(-sq / sigma**2) + ridge * np.eye(len(points))
    return np.linalg.solve(system, targets)


def absolute(want: float, tol: float):
    return lambda got: (abs(got - want), tol)


def alpha_check(want: np.ndarray):
    return lambda model: (float(np.max(np.abs(model.alpha - want))), ALPHA_TOL)


def sampled_check(want: float):
    # test_expectation: estimate within three sample spreads
    return lambda got: (abs(got[0] - want), 3 * max(got[1], 1e-6))


def eigh_check(want_values: np.ndarray, x):
    tol = 1e-9 * float(np.linalg.norm(x, ord=2))
    return lambda dec: (float(np.max(np.abs(dec.values - want_values))), tol)


def ritz_check(x, want_values: np.ndarray):
    """Every Ritz pair has residual, and every Ritz value error, within
    EIGEN_RESIDUAL_RTOL * ||X||_F."""
    tol = EIGEN_RESIDUAL_RTOL * float(np.linalg.norm(x))

    def check(sol):
        residual = np.linalg.norm(x @ sol.vectors - sol.vectors * sol.values, axis=0)
        values = np.sort(sol.values)
        value_err = np.max(np.abs(values - want_values)) if len(values) == len(want_values) else np.inf
        return float(max(np.max(residual), value_err)), tol

    return check


def entry_oracles(y, entries) -> list[float]:
    """Log-det gradient entries under the symmetric-direction convention:
    (Y^-1)_ii on the diagonal, (Y^-1)_ij + (Y^-1)_ji off it."""
    y_inv = np.linalg.inv(y)
    return [float(y_inv[i, i].real if i == j else (y_inv[i, j] + y_inv[j, i]).real)
            for i, j in entries]


def rank_k_expectation(x, phi, k: int) -> float:
    """sum over the k largest-|E| dense eigenpairs of |<p|phi>|^2 / E_p."""
    values, vectors = np.linalg.eigh(x)
    top = np.argsort(-np.abs(values), kind="stable")[:k]
    overlaps = np.abs(vectors[:, top].conj().T @ phi) ** 2
    return float(np.sum(overlaps / values[top]))


# ---------------------------------------------------------------------------
# logical work per pass, computed from the inputs.  Eigendecompositions count
# those of input-sized matrices as the pipelines request them: one per
# resolved matrix or weight set and one per controlled-family member.


def expectation_work(k: int, m: int = 1, symmetric: bool = False) -> dict:
    """One expectation over k eigenpairs: a circuit per eigenpair and window;
    the resolve eigh and one eigh per family member and window."""
    windows = 2 if symmetric else 1
    return {"probe_circuits": k * windows, "eigendecompositions": 1 + windows * (1 << m)}


def add_work(a: dict, times_a: int, b: dict, times_b: int) -> dict:
    return {key: times_a * a[key] + times_b * b[key] for key in a}


# ---------------------------------------------------------------------------
# the CLI, run as a subprocess or in-process


def cli_environment(src_dir: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("QGLD_THREADS", None)
    return env


def run_cli_subprocess(argv, env) -> dict:
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "qgld.cli", *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=120)
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return {"code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr,
            "wall": wall, "cpu": cpu}


def run_cli_inprocess(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = qgld.cli.main(list(argv))
    return {"code": code, "stdout": out.getvalue().encode(), "stderr": b""}


class Workload:
    """A workload's seeded inputs, their oracles and its pass."""

    work: dict   # probe circuits and eigendecompositions per pass

    def __init__(self, inputs: dict, src_dir: str):
        self.inputs = inputs
        self.src_dir = src_dir

    @staticmethod
    def generate(rng, seed: int) -> dict:
        raise NotImplementedError

    def run_pass(self, rec) -> None:
        raise NotImplementedError


class EigvecLarge(Workload):
    @staticmethod
    def generate(rng, seed):
        y = random_indefinite(rng, 128)
        i, j = (int(v) for v in rng.choice(128, size=2, replace=False))
        return {
            "spd": [(random_spd(256, _subseed(rng)), random_unit(rng, 256)) for _ in range(2)],
            "indefinite": y,
            "entries": [(i, i), (min(i, j), max(i, j))],
        }

    def __init__(self, inputs, src_dir):
        super().__init__(inputs, src_dir)
        self.want_eigvec = [inverse_expectation(x, phi) for x, phi in inputs["spd"]]
        self.want_entries = entry_oracles(inputs["indefinite"], inputs["entries"])
        n_spd, n_ind = inputs["spd"][0][0].shape[0], inputs["indefinite"].shape[0]
        self.work = add_work(expectation_work(n_spd), 2, expectation_work(n_ind), 2)

    def run_pass(self, rec):
        for (x, phi), want in zip(self.inputs["spd"], self.want_eigvec):
            request = InverseExpectationRequest(x=x, phi=phi, k=x.shape[0])
            rec("eigvec", lambda: qgld.qgld_expectation(request).total, absolute(want, ENTRY_TOL))
        y = self.inputs["indefinite"]
        for (i, j), want in zip(self.inputs["entries"], self.want_entries):
            rec("logdet_entry", lambda: qgld.logdet_gradient_entry(y, i, j, k=y.shape[0]),
                absolute(want, ENTRY_TOL))


class ManySmall(Workload):
    @staticmethod
    def generate(rng, seed):
        demo = np.linspace(0.0, 2 * np.pi, 16)
        points32 = np.linspace(0.0, 2 * np.pi, 32)
        return {
            # the documented demo configuration (cli kernel-demo), then cond ~ 4e3
            "kernel": [(demo, np.sin(demo), 1.0, 1e-6), (points32, np.sin(points32), 0.5, 1e-3)],
            "sampled": (random_spd(64, _subseed(rng)), random_unit(rng, 64), _subseed(rng)),
            "entries_matrix": random_indefinite(rng, 8),
            "probe_matrix": random_indefinite(rng, 32),
            "probe_entry": tuple(int(v) for v in sorted(rng.choice(32, size=2, replace=False))),
        }

    def __init__(self, inputs, src_dir):
        super().__init__(inputs, src_dir)
        self.want_alpha = [kernel_alpha(p, t, s, r) for p, t, s, r in inputs["kernel"]]
        x, phi, _ = inputs["sampled"]
        self.want_sampled = inverse_expectation(x, phi)
        n8 = inputs["entries_matrix"].shape[0]
        self.entries = [(i, j) for i in range(n8) for j in range(i, n8)]
        self.want_entries = entry_oracles(inputs["entries_matrix"], self.entries)
        y32 = inputs["probe_matrix"]
        self.probe_values, probe_vectors = np.linalg.eigh(y32)
        i, j = inputs["probe_entry"]
        self.probe_delta = build_delta("element", y32.shape[0], i=i, j=j)
        self.probe_enc = GradientEncoding(m=4, shift="centered",
                                          W=qgld.suggest_gradient_bound(self.probe_delta))
        self.probe_shift = float(np.linalg.norm(self.probe_delta.matrix, ord=2))
        # Hellmann-Feynman <p|Delta|p>, the m = 4 probes' oracle
        self.want_probe = np.real(np.einsum("ip,ij,jp->p", probe_vectors.conj(),
                                            self.probe_delta.matrix, probe_vectors))
        # half a readout bin (pi W / M) plus the entry tolerance
        self.probe_tol = np.pi * self.probe_enc.W / self.probe_enc.deviation_dim + ENTRY_TOL

        work = {"probe_circuits": 0, "eigendecompositions": 0}
        for points, *_ in inputs["kernel"]:
            # four polarization quadratic forms per alpha
            work = add_work(work, 1, expectation_work(len(points), symmetric=True), 4 * len(points))
        # sampled: two signed-phase circuits per sample for numerator and
        # denominator; two weight sets and two composed families
        work = add_work(work, 1, {"probe_circuits": 4 * x.shape[0], "eigendecompositions": 6}, 1)
        work = add_work(work, 1, expectation_work(n8), len(self.entries))
        # one eigh, then one circuit and one eigh per family member for each probe
        n32, m_dim = y32.shape[0], self.probe_enc.deviation_dim
        self.work = add_work(work, 1, {"probe_circuits": n32, "eigendecompositions": 1 + n32 * m_dim}, 1)

    def run_pass(self, rec):
        inp = self.inputs
        for (points, targets, sigma, ridge), want in zip(inp["kernel"], self.want_alpha):
            rec("kernel_fit", lambda: qgld.kernel_fit(points, targets, sigma, ridge, solver="qgld"),
                alpha_check(want))
        x, phi, sample_seed = inp["sampled"]
        rec("sampled", lambda: qgld.sampled_qgld(x, phi, x.shape[0], sample_seed),
            sampled_check(self.want_sampled))
        y8 = inp["entries_matrix"]
        for (i, j), want in zip(self.entries, self.want_entries):
            rec("logdet_entry", lambda: qgld.logdet_gradient_entry(y8, i, j, k=y8.shape[0]),
                absolute(want, ENTRY_TOL))
        y32 = inp["probe_matrix"]
        dec = rec("eigh", lambda: qgld.eig_hermitian(y32), eigh_check(self.probe_values, y32))
        for p, want in enumerate(self.want_probe):
            rec("probe", lambda: qgld.eigenvalue_gradient_probe(
                y32, dec.vectors[:, p], self.probe_delta, self.probe_enc,
                identity_shift=self.probe_shift), absolute(float(want), self.probe_tol))


class Subspace(Workload):
    LANCZOS_K = 16

    @staticmethod
    def generate(rng, seed):
        return {
            "rqbl": (random_spd(512, _subseed(rng)), _subseed(rng)),
            "sigma": (random_spd(512, _subseed(rng)), random_unit(rng, 512)),
            "lanczos_eigvec": (random_spd(256, _subseed(rng)), random_unit(rng, 256), _subseed(rng)),
        }

    def __init__(self, inputs, src_dir):
        super().__init__(inputs, src_dir)
        x, _ = inputs["rqbl"]
        self.rqbl_values = np.linalg.eigvalsh(x)
        self.want_sigma = inverse_expectation(*inputs["sigma"])
        xl, phil, _ = inputs["lanczos_eigvec"]
        self.want_lanczos = rank_k_expectation(xl, phil, self.LANCZOS_K)
        # two Ritz solves; sigma's weights and composed family (two circuits)
        self.work = add_work({"probe_circuits": 2, "eigendecompositions": 2 + 3}, 1,
                             expectation_work(self.LANCZOS_K), 1)

    def run_pass(self, rec):
        x, seed = self.inputs["rqbl"]
        n = x.shape[0]
        for b in (1, 4):
            rec("rqbl", lambda: qgld.run_rqbl(x, b, n // b, seed), ritz_check(x, self.rqbl_values))
        xs, phi = self.inputs["sigma"]
        rec("sigma", lambda: qgld.sigma_qgld_expectation(xs, phi), absolute(self.want_sigma, SIGMA_TOL))
        xl, phil, lseed = self.inputs["lanczos_eigvec"]
        request = InverseExpectationRequest(x=xl, phi=phil, k=self.LANCZOS_K,
                                            eigensource=RqblSource(b=4, seed=lseed))
        rec("lanczos_eigvec", lambda: qgld.qgld_expectation(request).total,
            absolute(self.want_lanczos, ENTRY_TOL))


class Cli(Workload):
    """The CLI as subprocesses, one at a time; ``inprocess`` switches to
    ``qgld.cli.main`` in this process, for the traced run."""

    @staticmethod
    def generate(rng, seed):
        return {
            "argv": [
                ["qgld", "--matrix", f"random-spd:128:{seed}", "--phi", "uniform",
                 "--sweep-L", ",".join(f"{v:g}" for v in SWEEP_L)],
                ["kernel-demo", "--format", "json"],
                ["lanczos", "--matrix", f"random-spd:256:{seed}", "--b", "2"],
            ],
            "seed": seed,
        }

    def __init__(self, inputs, src_dir):
        super().__init__(inputs, src_dir)
        self.inprocess = False
        self.hashes: dict = {}
        self.child_cpu = 0.0
        self.child_wall = 0.0
        self.env = cli_environment(src_dir)
        seed = inputs["seed"]
        self.want_sweep = inverse_expectation(random_spd(128, seed), np.ones(128) / np.sqrt(128))
        points = np.linspace(0.0, 2 * np.pi, 16)
        self.want_demo_alpha = kernel_alpha(points, np.sin(points), 1.0, 1e-6)
        self.x256 = random_spd(256, seed)
        self.x256_values = np.linalg.eigvalsh(self.x256)
        # the sweep's expectations, kernel-demo's 4 x 16 quadratic forms, one Ritz solve
        self.work = add_work(expectation_work(128), len(SWEEP_L),
                             expectation_work(16, symmetric=True), 4 * 16)
        self.work["eigendecompositions"] += 1

    def _check(self, argv, judge):
        def check(out):
            if out["code"] != 0:
                raise RuntimeError(f"exit {out['code']}: {out['stderr'].decode(errors='replace')[-300:]}")
            digest = hashlib.sha256(out["stdout"]).hexdigest()
            if self.hashes.setdefault(tuple(argv), digest) != digest:
                raise RuntimeError("stdout differs from an earlier run of the same seed")
            return judge(out["stdout"].decode())

        return check

    def _judge_sweep(self, text):
        rows = [line.split(",") for line in text.strip().splitlines()[1:]]
        if [float(r[0]) for r in rows] != list(SWEEP_L):
            return float("inf"), ENTRY_TOL
        return max(abs(float(r[1]) - self.want_sweep) for r in rows), ENTRY_TOL

    def _judge_demo(self, text):
        alpha = np.asarray(json.loads(text)["alpha_qgld"])
        return float(np.max(np.abs(alpha - self.want_demo_alpha))), ALPHA_TOL

    def _judge_lanczos(self, text):
        payload = json.loads(text)
        values = np.sort(np.asarray(payload["ritz_values"]))
        tol = EIGEN_RESIDUAL_RTOL * float(np.linalg.norm(self.x256))
        value_err = np.max(np.abs(values - self.x256_values)) if len(values) == len(self.x256_values) else np.inf
        return max(float(np.max(payload["residuals"])), float(value_err)), tol

    def run_pass(self, rec):
        judges = (self._judge_sweep, self._judge_demo, self._judge_lanczos)
        names = ("cli_sweep", "cli_kernel_demo", "cli_lanczos")
        for argv, judge, name in zip(self.inputs["argv"], judges, names):
            if self.inprocess:
                rec(name, lambda: run_cli_inprocess(argv), self._check(argv, judge))
                continue
            out = rec(name, lambda: run_cli_subprocess(argv, self.env), self._check(argv, judge))
            if out is not None:
                self.child_cpu += out["cpu"]
                self.child_wall += out["wall"]


WORKLOADS = {"eigvec_large": EigvecLarge, "many_small": ManySmall, "subspace": Subspace, "cli": Cli}


def make_inputs(name: str, seed: int) -> dict:
    """Every input a workload passes to the program, generated from ``seed``."""
    return WORKLOADS[name].generate(np.random.default_rng([seed, list(WORKLOADS).index(name)]), seed)


# ---------------------------------------------------------------------------
# inputs that exit 0 with a wrong number (ROADMAP item 4), run untimed


def silent_wrong_cases() -> list[tuple[str, object, float, float]]:
    """(label, zero-argument call, oracle, tolerance) for each known case."""
    sigma_z = np.diag([1.0, -1.0]).astype(complex)
    ones = build_delta("all_ones", 2)
    v0 = np.array([1.0, 0.0], dtype=complex)
    x4 = random_spd(4, 1)
    uniform4 = np.ones(4, dtype=complex) / 2.0
    want4 = inverse_expectation(x4, uniform4)
    points = np.linspace(0.0, 2 * np.pi, 32)
    targets = np.sin(points)

    def expectation(enc):
        return lambda: qgld.qgld_expectation(InverseExpectationRequest(x=x4, phi=uniform4, k=4, enc=enc)).total

    return [
        ("all-ones probe on sigma-z, W=0.1",
         lambda: qgld.eigenvalue_gradient_probe(sigma_z, v0, ones, GradientEncoding(W=0.1), identity_shift=2.0),
         1.0, ENTRY_TOL),
        ("random-spd:4:1 uniform phi, W=0.05", expectation(GradientEncoding(W=0.05)), want4, ENTRY_TOL),
        ("random-spd:4:1 uniform phi, m=3", expectation(GradientEncoding(m=3)),
         want4, ENTRY_TOL),
        ("kernel_fit 32 points, sigma=1, ridge=1e-3",
         lambda: float(np.max(np.abs(qgld.kernel_fit(points, targets, 1.0, 1e-3, solver="qgld").alpha
                                     - kernel_alpha(points, targets, 1.0, 1e-3)))),
         0.0, ALPHA_TOL),
    ]


def count_silent_wrong() -> tuple[int, list[dict]]:
    count, rows = 0, []
    for label, call, want, tol in silent_wrong_cases():
        try:
            got = float(call())
        except Exception as exc:  # raising is the desired behaviour for these inputs
            rows.append({"case": label, "raised": type(exc).__name__})
            continue
        wrong = not abs(got - want) <= tol
        count += wrong
        rows.append({"case": label, "got": got, "want": want, "wrong": wrong})
    return count, rows

