"""qgld benchmark: one workload per invocation, in fresh processes.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (sizes are part of their definition, see workloads.py):

  eigvec_large  few calls at large N: per-eigenvector expectations at N=256
                and full-rank log-det entries at N=128; probe circuits and
                their per-probe validation dominate.
  many_small    many calls at N <= 64: probe-solver kernel fits, the sampled
                pipeline, all 36 log-det entries at N=8 and m=4 gradient
                probes at N=32; per-call overhead and repeated eighs dominate.
  subspace      block Lanczos at N=512 (b=1 and b=4), the superposition
                pipeline at N=512 and a Lanczos-sourced expectation at N=256;
                few circuits, so probe-engine changes should not move it.
  cli           three `python -m qgld.cli` subprocesses, one at a time: an
                L sweep, kernel-demo and lanczos; pays interpreter start,
                import, parsing and rendering.

Set-up (interpreter start, ``import qgld``, input generation) is timed from
process start to the worker's ``ready`` line, in several fresh processes;
``setup_s`` is their median.  The worker then runs an untimed warm-up pass
and timed passes; ``pass_s`` is the median pass.  Every call's result is
checked against a classical oracle outside the timed region.  With
``--trace 1`` the worker reports the per-layer metrics instead.

The lines before the last are the full report, every metric by name with its
unit; the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and the metrics ``BENCHMARK.json`` lists for the trace mode.
BLAS threads are left at the machine default and recorded.
"""
from __future__ import annotations

import argparse
import json
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_SAMPLES = 5
DEADLINE_S = 170.0


def fail(message: str) -> int:
    print(f"benchmark error: {message}", file=sys.stderr)
    return 1


def start_worker(args, setup_only: bool):
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE)
    return proc, start


def wait_ready(proc, start: float, deadline: float) -> float:
    """Seconds from process start to its ``ready`` line."""
    ready, _, _ = select.select([proc.stdout], [], [], max(deadline - time.perf_counter(), 0.0))
    line = proc.stdout.readline() if ready else b""
    elapsed = time.perf_counter() - start
    if line.strip() != b"ready":
        raise RuntimeError("worker did not reach the end of set-up")
    return elapsed


def measure(args, deadline: float) -> tuple[list[float], dict]:
    setups = []
    # set-up is an end-to-end metric; traced runs report layers only
    for _ in range(0 if args.trace else SETUP_SAMPLES - 1):
        proc, start = start_worker(args, True)
        with proc:
            try:
                setups.append(wait_ready(proc, start, deadline))
                proc.wait(timeout=max(deadline - time.perf_counter(), 1.0))
            finally:
                proc.kill()
    proc, start = start_worker(args, False)
    with proc:
        try:
            setups.append(wait_ready(proc, start, deadline))
            out, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 1.0))
        finally:
            proc.kill()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return setups, json.loads(out.decode().strip().splitlines()[-1])


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith((".calls", ".errors", ".family_members_built", ".alphas")):
        return "count"
    return {"statevector.amplitude_bytes": "B_computed",
            "statevector.apply_flops": "flop_computed"}.get(name, "ratio")


def print_report(args, setups: list[float], report: dict, values: dict) -> None:
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          "closed loop, one client, one process")
    print(f"setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}")
    for key in ("pass_s", "untraced_pass_s", "traced_pass_s"):
        if key in report:
            print(f"{key} samples: {', '.join(f'{s:.4f}' for s in report[key])}")
    for name, entry in report.get("pipelines", {}).items():
        tail = "  ".join(f"{k} {v:.6f} s" for k, v in entry.items() if k.startswith("p"))
        print(f"pipeline {name}_s: median {entry['median_s']:.6f} s  samples {entry['samples']}  {tail}")
    traced = report.get("traced_pass_s")
    for name, value in values.items():
        share = ""
        if traced and name.endswith(".self_s"):
            share = f"  ({100 * value / statistics.median(traced):.1f}% of traced pass)"
        print(f"{name} {value:.6g} {unit_of(name)}{share}")
    print(f"err_to_tol {report['err_to_tol']} ratio  by pipeline {json.dumps(report['err_to_tol_by_pipeline'])}")
    print(f"fail_frac {report['fail_frac']} ratio  ({report['failed']} of {report['attempted']} calls)")
    for failure in report["failures"]:
        print(f"  failed: {failure}")
    if "silent_wrong" in report:
        print(f"silent_wrong {report['silent_wrong']} count")
        for case in report["silent_wrong_cases"]:
            print(f"  {json.dumps(case)}")
    print(f"self_check (perturbed result counted as failed) {json.dumps(report['self_check'])}")
    print(f"work_per_pass {json.dumps(report['work_per_pass'])}")
    if "spans_file" in report:
        print(f"spans {report['spans']} written to {report['spans_file']}")
    print(f"environment {json.dumps(report['environment'])}")


def main() -> int:
    began = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "qgld" / "__init__.py").is_file():
        return fail(f"no program source at {ROOT / 'src' / 'qgld'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        return fail(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    try:
        setups, report = measure(args, began + DEADLINE_S)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        return fail(str(exc))
    values = dict(report["metrics"], setup_s=statistics.median(setups))
    wrong = [m["name"] for m in wanted if m["name"] not in values or unit_of(m["name"]) != m["unit"]]
    if wrong:
        return fail(f"no value in the listed unit for {', '.join(wrong)}")
    print_report(args, setups, report, values)

    correct = report["failed"] == 0 and all(report["self_check"].values())
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
