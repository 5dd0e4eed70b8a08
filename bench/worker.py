"""One workload in one fresh process; started by run.py, not by hand.

Prints ``ready`` once the interpreter is up, ``qgld`` is imported and the
inputs are generated (run.py times set-up to that line), then the run's
report as one JSON line.  The run is a closed loop: one caller issuing the
workload's calls back to back.  An untimed, checked warm-up pass comes
first; timed passes follow until ``--seconds`` is used.  With ``--trace 1``
half the time runs untraced and half with the layer wrappers installed.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import qgld  # noqa: E402

if not Path(qgld.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"imported qgld from {qgld.__file__}, not from {SRC}")

import environment  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, count_silent_wrong, make_inputs  # noqa: E402

MIN_PASSES = 3


class Recorder:
    """Times each call; keeps (pipeline, seconds, result, check, error) for
    checking after the pass."""

    def __init__(self, tracer=None):
        self.records: list = []
        self.tracer = tracer

    def __call__(self, pipeline, fn, check):
        if self.tracer is not None:
            self.tracer.call_id += 1
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # a failed call is counted, and the pass goes on
            self.records.append((pipeline, time.perf_counter() - start, None, check, exc))
            return None
        self.records.append((pipeline, time.perf_counter() - start, result, check, None))
        return result


def judge(result, check, error):
    """(error / tolerance, failure message or None) for one call."""
    if error is not None:
        return None, f"{type(error).__name__}: {error}"
    try:
        err, tol = check(result)
    except Exception as exc:  # the check rejects the output (exit code, changed bytes)
        return None, f"{type(exc).__name__}: {exc}"
    ratio = err / tol
    if not np.isfinite(ratio) or ratio > 1.0:
        return float(ratio), f"error {err:.3e} exceeds tolerance {tol:.3e}"
    return float(ratio), None


def perturb(result, amount: float):
    """The result moved by ``amount`` in its checked quantity."""
    if isinstance(result, float):
        return result + amount
    if isinstance(result, tuple):
        return (result[0] + amount, *result[1:])
    if isinstance(result, dict):
        return {**result, "stdout": result["stdout"] + b"\n"}
    field = "alpha" if hasattr(result, "alpha") else "values"
    return dataclasses.replace(result, **{field: getattr(result, field) + amount})


class Run:
    def __init__(self, workload):
        self.workload = workload
        self.ratios: dict = {}
        self.failures: list = []
        self.attempted = 0
        self.samples: dict = {}
        self.first_good: dict = {}

    def one_pass(self, tracer=None, timed=True) -> float:
        rec = Recorder(tracer)
        start = time.perf_counter()
        self.workload.run_pass(rec)
        elapsed = time.perf_counter() - start
        for pipeline, seconds, result, check, error in rec.records:
            ratio, failure = judge(result, check, error)
            self.attempted += 1
            if ratio is not None:
                self.ratios.setdefault(pipeline, []).append(ratio)
            if failure is not None:
                self.failures.append(f"{pipeline}: {failure}")
            elif pipeline not in self.first_good:
                self.first_good[pipeline] = (result, check)
            if timed:
                self.samples.setdefault(pipeline, []).append(seconds)
        return elapsed

    def passes(self, seconds: float, minimum: int, tracer=None) -> list[float]:
        times: list[float] = []
        start = time.perf_counter()
        while len(times) < minimum or time.perf_counter() - start + statistics.median(times) <= seconds:
            times.append(self.one_pass(tracer))
        return times

    def self_check(self) -> dict:
        """Every pipeline's checker must count a deliberately perturbed result
        as failed."""
        out = {}
        for pipeline, (result, check) in self.first_good.items():
            _, tol = check(result)
            _, failure = judge(perturb(result, 2.0 * tol), check, None)
            out[pipeline] = failure is not None
        return out


def pipeline_summary(samples: dict) -> dict:
    """Median per call with its sample count, and the highest of p99/p95/p90/p75
    that has at least ten samples beyond it."""
    out = {}
    for pipeline, values in samples.items():
        entry = {"median_s": statistics.median(values), "samples": len(values)}
        for pct in (99, 95, 90, 75):
            if len(values) * (100 - pct) / 100 >= 10:
                entry[f"p{pct}_s"] = float(np.percentile(values, pct))
                break
        out[pipeline] = entry
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    inputs = make_inputs(args.workload, args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    workload = WORKLOADS[args.workload](inputs, str(SRC))
    run = Run(workload)
    run.one_pass(timed=False)  # warm-up, checked but not timed
    report = {"work_per_pass": workload.work}

    if not args.trace:
        pass_times = run.passes(args.seconds, MIN_PASSES)
        if args.workload == "cli":
            rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        else:
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {"pass_s": statistics.median(pass_times), "peak_rss_mb": rss / 1024.0}
        report["pass_s"] = pass_times
        report["pipelines"] = pipeline_summary(run.samples)
        if args.workload == "many_small":
            report["silent_wrong"], report["silent_wrong_cases"] = count_silent_wrong()
    else:
        layer = {"cli.cpu_per_wall": 0.0, "cli.child_wall_s": 0.0}
        if args.workload == "cli":
            # the warm-up ran the CLI as subprocesses; trace in-process main()
            layer = {"cli.cpu_per_wall": workload.child_cpu / workload.child_wall,
                     "cli.child_wall_s": workload.child_wall}
            workload.inprocess = True
            run.one_pass(timed=False)
        untraced = run.passes(args.seconds / 2, 1)
        tracer = tracing.Tracer()
        tracer.install()
        traced = run.passes(args.seconds / 2, 1, tracer)
        layer.update(tracing.layer_metrics(tracer, len(traced)))
        layer["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        metrics = layer
        report["untraced_pass_s"] = untraced
        report["traced_pass_s"] = traced
        spans_path = ROOT / "bench" / "out" / f"spans-{args.workload}-seed{args.seed}.csv.gz"
        tracing.write_spans(tracer, spans_path)
        report["spans_file"] = str(spans_path.relative_to(ROOT))
        report["spans"] = len(tracer.spans)

    all_ratios = [r for values in run.ratios.values() for r in values]
    report["err_to_tol"] = max(all_ratios) if all_ratios else None
    report["err_to_tol_by_pipeline"] = {p: max(v) for p, v in run.ratios.items()}
    report["attempted"] = run.attempted
    report["failed"] = len(run.failures)
    report["fail_frac"] = len(run.failures) / run.attempted
    report["failures"] = run.failures[:10]
    report["self_check"] = run.self_check()
    report["environment"] = environment.record(ROOT, SRC)
    report["metrics"] = metrics
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
