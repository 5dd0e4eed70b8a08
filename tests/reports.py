"""Report-only numbers the CI prints to its step summary: counts, errors,
wall times and peak RSS that no test gates.

Run one report per process, since "logdet-core" reads the process's own
peak RSS and "working-set" its child's:

    PYTHONPATH=src python tests/reports.py NAME

NAME is one of the keys of REPORTS.  ``draw`` builds the two-outcome
fuzz's (N, kind, X, phi) from a generator, and tests import it.
"""
from __future__ import annotations

import argparse
import resource
import subprocess
import sys
import time
from collections import Counter

import numpy as np

from qgld import (
    GradientEncoding,
    InverseExpectationRequest,
    QgldError,
    RqblSource,
    build_delta,
    eig_hermitian,
    eigenvalue_gradient_probes,
    inverse,
    kernel_fit,
    logdet_directional_derivatives,
    qgld_expectation,
    relevance_order,
)
from qgld.cli import random_spd
from qgld.kernel import gaussian_kernel_matrix
from qgld.linalg import low_rank_update_eigh


def draw(rng):
    """One fuzz draw (N, kind, X, phi): N = 2 to 32, |E| log-uniform in
    [0.1, 10] (signs random when indefinite; all but a random leading rank
    zeroed, then 1e-2 I added, when low-rank), a random unitary basis and a
    unit complex phi."""
    n, kind = int(2 ** rng.integers(1, 6)), ("definite", "indefinite", "low-rank + 1e-2")[rng.integers(3)]
    values = np.exp(rng.uniform(np.log(0.1), np.log(10.0), n))
    if kind == "indefinite":
        values *= rng.choice([-1.0, 1.0], n)
    elif kind == "low-rank + 1e-2":
        values[rng.integers(1, n):] = 0.0
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    x = (q * values) @ q.conj().T
    x = (x + x.conj().T) / 2 + (1e-2 * np.eye(n) if kind == "low-rank + 1e-2" else 0.0)
    phi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return n, kind, x, phi / np.linalg.norm(phi)


def timed(call, repeats):
    """Median and best wall time of `repeats` calls, in ms."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return np.median(times) * 1e3, min(times) * 1e3


def fuzz():
    # 600 seeded qgld_expectation draws against the classical rank-k sum over relevance_order
    rng, start = np.random.default_rng(7), time.perf_counter()
    counts, raised, split_wrong = Counter(), Counter(), 0
    for _ in range(600):
        n, kind, x, phi = draw(rng)
        k, m = int(rng.integers(1, n + 1)), int(rng.integers(1, 5))
        enc = GradientEncoding(L=float(np.exp(rng.uniform(np.log(1e-9), np.log(1e-2)))),
                               W=float(np.exp(rng.uniform(np.log(0.03), np.log(100.0)))), m=m,
                               shift=("unshifted", "centered")[rng.integers(2)])
        e, v = np.linalg.eigh(x)
        ranked = relevance_order(e)
        used = ranked[:k][np.abs(e[ranked[:k]]) > 1e-10 * np.linalg.norm(x)]
        want = float(np.sum(np.abs(v[:, used].conj().T @ phi) ** 2 / e[used]))
        # a cluster as the adaptation takes it: neighbour gaps within max(1e-8 ||X||_F, 4 L ||outer(phi)||_2)
        ascending, labels = np.argsort(e), np.empty(n, dtype=int)
        apart = np.diff(e[ascending]) > max(1e-8 * np.linalg.norm(x), 4 * enc.L)
        labels[ascending] = np.concatenate([[0], np.cumsum(apart)])
        splits = bool(set(labels[ranked[:k]]) & set(labels[ranked[k:]]))
        group = "m = 1" if m == 1 else "m >= 2"
        try:
            got = qgld_expectation(InverseExpectationRequest(x=x, phi=phi, k=k, enc=enc)).total
        except (QgldError, ValueError) as exc:
            counts[group, "raised"] += 1
            raised[type(exc).__name__] += 1
            continue
        wrong = not abs(got - want) <= 1e-4 * max(1.0, abs(want))
        counts[group, "wrong" if wrong else "right"] += 1
        split_wrong += wrong and splits
    for group in ("m = 1", "m >= 2"):
        right, wrong, raised_here = (counts[group, outcome] for outcome in ("right", "wrong", "raised"))
        print(f"{group}: {right} right, {wrong} wrong, {raised_here} raised")
    print(f"wrong with a k that splits a cluster: {split_wrong}; raised by type: {dict(sorted(raised.items()))}; "
          f"{time.perf_counter() - start:.1f} s")
    # the same draw space from its own seed, read from Ritz pairs, on its own line
    rng, start, lanczos = np.random.default_rng(8), time.perf_counter(), Counter()
    for _ in range(300):
        n, kind, x, phi = draw(rng)
        source = RqblSource(b=min(int(rng.choice([1, 2, 4])), n), seed=int(rng.integers(2**31)))
        k = int(rng.integers(1, n + 1))
        try:
            got = qgld_expectation(InverseExpectationRequest(x=x, phi=phi, k=k, eigensource=source)).total
        except (QgldError, ValueError):
            lanczos["raised"] += 1
            continue
        ritz = source.resolve(x)
        used, _ = ritz.select(k)
        want = float(np.sum(np.abs(ritz.vectors[:, used].conj().T @ phi) ** 2 / ritz.values[used]))
        wrong = not abs(got - want) <= 1e-4 * max(1.0, abs(want))
        lanczos["wrong" if wrong else "right"] += 1
        lanczos["low-rank wrong"] += wrong and kind == "low-rank + 1e-2"
    print(f"Lanczos, b in 1, 2, 4: {lanczos['right']} right, {lanczos['wrong']} wrong "
          f"({lanczos['low-rank wrong']} on low-rank + 1e-2), {lanczos['raised']} raised; "
          f"{time.perf_counter() - start:.1f} s")
    # a multiplicity above the block size: at b = 1 the Krylov space of X = I closes after one step, so
    # its 4-fold eigenvalue is one Ritz pair and the rank-1 sum reads only the start vector's share of phi
    phi, known, reads = np.full(4, 0.5), Counter(), []
    for seed in range(3):
        request = InverseExpectationRequest(x=np.eye(4), phi=phi, k=1, eigensource=RqblSource(b=1, seed=seed))
        try:
            got = qgld_expectation(request).total
        except (QgldError, ValueError):
            known["raised"] += 1
            continue
        reads.append(f"{got:.3f}")
        known["right" if abs(got - 1.0) <= 1e-4 else "wrong"] += 1
    print(f"Lanczos on identity:4, uniform phi, b = 1, k = 1, seeds 0 to 2, against phi^dag X^-1 phi = 1: "
          f"{known['right']} right, {known['wrong']} wrong ({', '.join(reads)}), {known['raised']} raised")


def working_set():
    argv = ["lanczos", "--matrix", "random-spd:512:1", "--b", "4"]
    subprocess.run([sys.executable, "-m", "qgld.cli", *argv], stdout=subprocess.DEVNULL, check=True)
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024  # KiB on Linux
    print(f"qgld {' '.join(argv)}: peak RSS {peak_mb:.1f} MB")


def probe_reuse():
    # the many_small probe: an element direction, the centered window, W = 2 ||Delta||_2, shift ||Delta||_2
    rng = np.random.default_rng(1)
    g = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
    x, enc = (g + g.conj().T) / 2, GradientEncoding(m=4, shift="centered", W=2.0)
    vectors = eig_hermitian(x).vectors

    def calls(columns):  # each repeat along a new direction, built untimed, so each builds its family once
        deltas = iter([build_delta("element", 32, i=3, j=17) for _ in range(15)])

        def call():
            delta = next(deltas)
            for block in columns:
                eigenvalue_gradient_probes(x, block, delta, enc, identity_shift=1.0)
        return timed(call, 15)

    loop, batch = calls([vectors[:, [p]] for p in range(32)]), calls([vectors])
    print(f"32 one-column calls: median {loop[0]:.2f} ms (best {loop[1]:.2f}); one 32-column call: "
          f"median {batch[0]:.2f} ms (best {batch[1]:.2f}); ratio of medians {loop[0] / batch[0]:.2f}")


def logdet_core():
    # the baseline a full log-det gradient from one resolve is compared against
    x, n = random_spd(64, 1), 64
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    deltas = [build_delta("element", n, i=i, j=j) for i, j in pairs]
    start = time.perf_counter()
    got = np.array(logdet_directional_derivatives(x, deltas, n))
    wall = time.perf_counter() - start
    inv = np.linalg.inv(x)
    want = np.array([inv[i, i].real if i == j else 2.0 * inv[i, j].real for i, j in pairs])
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    print(f"{len(pairs)} element directions, N = {n}, k = N: {wall:.2f} s, peak RSS {peak_mb:.1f} MB, "
          f"max |error| against (X^-1)_ii and 2 Re (X^-1)_ij {np.max(np.abs(got - want)):.2e}")


def kernel_fit_report():
    # per window, a stack holds up to 16 probes at 32 points and one at 128, where N^2 = EIGENBASIS_BATCH
    for n in (32, 128):
        points = np.linspace(0.0, 2 * np.pi, n)
        targets = np.sin(points)
        models, walls = {}, {}
        for solver in ("qgld", "classical"):
            start = time.perf_counter()
            models[solver] = kernel_fit(points, targets, sigma=0.5, ridge=1e-3, solver=solver)
            walls[solver] = time.perf_counter() - start
        want = np.linalg.solve(gaussian_kernel_matrix(points, 0.5) + 1e-3 * np.eye(n), targets)
        print(f"kernel_fit, {n} points: qgld {walls['qgld']:.3f} s, classical {walls['classical'] * 1e3:.2f} ms, "
              f"max |alpha - solve(K + lambda I, f)| {np.max(np.abs(models['qgld'].alpha - want)):.2e}")


def classical_oracle():
    # the classical reference of qgld and kernel-demo, one LAPACK solve and an O(N^2) test
    for n in (128, 512):
        x = random_spd(n, 1)
        median, best = timed(lambda: inverse(x), 15 if n < 512 else 7)
        print(f"inverse, N = {n}: median {median:.2f} ms (best {best:.2f})")


def secular_level():
    # one secular level's fixed cost, and the eigenbasis log-det core against the dense family
    for p, n, r in ((1, 8, 2), (16, 32, 2), (1, 256, 1)):
        # the members a log-det probe solves: element (rank 2) or outer (rank 1) couplings V^dag F, s = L/2
        values, basis = np.linalg.eigh(random_spd(n, 1))
        deltas = ([build_delta("element", n, i=q, j=q + 1) for q in range(p)] if r == 2 else
                  [build_delta("outer", n, phi=np.ones(n) / np.sqrt(n))])
        factors = np.stack([basis.conj().T @ delta.factors for delta in deltas])
        weights = 5e-7 * np.array([delta.signs for delta in deltas])
        median, best = timed(lambda: low_rank_update_eigh(values, factors, weights), 200 if n < 256 else 20)
        print(f"low_rank_update_eigh (P, N, r) = ({p}, {n}, {r}): median {median:.3f} ms (best {best:.3f})")
    enc = GradientEncoding()
    for n in (8, 32, 128):
        x = random_spd(n, 1)
        deltas = [build_delta("element", n, i=i, j=j) for i in range(n) for j in range(i, n)]
        batched, _ = timed(lambda: logdet_directional_derivatives(x, deltas, n, enc), 1)
        vectors = np.linalg.eigh(x)[1]
        # a new direction each repeat, so that each builds its family once
        dense, _ = timed(lambda: eigenvalue_gradient_probes(x, vectors, build_delta("element", n, i=0, j=n - 1),
                                                            enc, identity_shift=1.0), 5)
        print(f"N = {n}: batched log-det core {batched / len(deltas):.3f} ms per direction ({len(deltas)} element "
              f"directions), dense family and read {dense:.3f} ms per direction, ratio {batched / len(deltas) / dense:.2f}")


REPORTS = {
    "fuzz": fuzz,
    "working-set": working_set,
    "probe-reuse": probe_reuse,
    "logdet-core": logdet_core,
    "kernel-fit": kernel_fit_report,
    "classical-oracle": classical_oracle,
    "secular-level": secular_level,
}


def main(argv=None):
    parser = argparse.ArgumentParser(description="Print one report-only CI summary.")
    parser.add_argument("name", choices=REPORTS, help="the report to run, one per process")
    REPORTS[parser.parse_args(argv).name]()


if __name__ == "__main__":
    main()
