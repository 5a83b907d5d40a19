"""Run one benchmark workload and print its metrics.

    python3 studybench/run.py --workload study-rbf --seed 7 --seconds 40 \
        --trace 0

Each call of the workload runs in a fresh worker process (``worker.py``), one
after another: at least ``MIN_CALLS`` of them, and more while another call
of typical length still fits in ``--seconds``.  Every reported value is the
median over those calls.  Times are in reference seconds: a call's wall
time scaled by ``PROBE_REF_S`` over the time of a fixed probe the worker
runs just before and after the call.  The host's speed moves by a third and
more in phases of seconds to minutes; the probe moves with it, so the ratio
keeps the program's cost and drops the host's phase.

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` calls alternate between untraced and traced, and it carries
the per-layer metrics of the traced calls plus the tracing overhead.  All
six end-to-end metrics, the wall times and the run's provenance are printed
above that line, and the full record, spans included, goes to
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
MIN_CALLS = 3
MIN_TRACED_PAIRS = 2
CALL_TIMEOUT_S = 150
# The probe's time (worker.host_probe) on the reference machine, a 2-core
# x86_64 virtual machine, when its host was at its fastest.  A reference
# second is a wall second there and then.
PROBE_REF_S = 0.15
# One BLAS thread: measured no slower than two on these sizes, and steadier
# when the host's other tenants take a core.
BLAS_THREADS = "1"

END_TO_END = {"setup_s": "s", "run_s": "s", "pairs_per_s": "1/s",
              "peak_rss_mib": "MiB"}
# Reported on the lines above the result; the result line carries them as
# "failed" and "correct", since both read 0 on a healthy run.
CHECK_METRICS = {"failed_ops": "ratio", "output_mismatches": "count"}
# Printed beside the scaled times, for reading them against a clock.
WALL = {"wall_setup_s": "s", "wall_run_s": "s"}
PER_LAYER = {
    "featurespace.generate_s": "s", "featurespace.split_s": "s",
    "featurespace.load_s": "s",
    "models.train_s": "s", "models.sgd_steps": "count", "models.roc_s": "s",
    "models.threshold_s": "s", "models.load_s": "s",
    "attack.grid_s": "s", "attack.kernel_rows": "count",
    "attack.kernel_rows_grad": "count", "attack.rows_per_pair": "rows/pair",
    "attack.evaded_share": "ratio", "attack.epsmin_s": "s",
    "attack.epsmin_calls": "count", "attack.epsmin_kernel_rows": "count",
    "explain.gradient_s": "s", "explain.gradient_input_s": "s",
    "explain.ig_s": "s", "explain.kernel_rows": "count",
    "evenness.report_s": "s", "evenness.undefined_share": "ratio",
    "robustness.score_s": "s",
    "stats.suite_s": "s", "stats.calls": "count", "stats.max_n": "count",
    "stats.peak_alloc_mib": "MiB",
    "pipeline.self_s": "s", "pipeline.artifact_bytes": "bytes",
    "cli.self_s": "s", "cli.bytes_written": "bytes",
    "trace.overhead_s": "s",
}


def git_sha() -> str | None:
    """HEAD of the repository this file lives in, if it is a git checkout."""
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
        return None
    return lines[1]


def spawn(args, index: int, traced: bool, env: dict) -> dict:
    """One worker call; exits the benchmark if the worker itself fails."""
    work_dir = OUT / f"work-{os.getpid()}-{index}"
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(int(traced)), "--run-id", str(index),
           "--work-dir", str(work_dir)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=CALL_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"worker call {index} exceeded {CALL_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"worker call {index} exited with {proc.returncode}")
    call = json.loads(proc.stdout.strip().splitlines()[-1])
    call["setup_s"] = call.pop("ready") - spawned
    call["traced"] = traced
    return call


def scaled(call: dict, seconds: float) -> float:
    """Wall seconds measured in ``call`` as reference seconds."""
    return seconds * PROBE_REF_S / call["probe_s"]


def summarize(calls: list[dict], trace: bool) -> tuple[dict, dict]:
    """(end-to-end values, metrics of the result line).

    The per-layer metrics are those of the median traced call, with its
    times scaled like its ``run_s``, so its self times add up to its
    ``run_s`` and ``trace.overhead_s`` is that less the untraced median.
    """
    med = statistics.median
    plain = [c for c in calls if not c["traced"]]
    e2e = {
        "setup_s": med(scaled(c, c["setup_s"]) for c in plain),
        "run_s": med(scaled(c, c["run_s"]) for c in plain),
        "pairs_per_s": med(c["pairs"] / scaled(c, c["run_s"]) for c in plain),
        "peak_rss_mib": med(c["peak_rss_mib"] for c in plain),
        "failed_ops": (sum(c["failed_ops"] for c in calls)
                       / sum(c["ops"] for c in calls)),
        "output_mismatches": sum(c["mismatches"] for c in calls),
        "wall_setup_s": med(c["setup_s"] for c in plain),
        "wall_run_s": med(c["run_s"] for c in plain),
    }
    if not trace:
        return e2e, {k: e2e[k] for k in END_TO_END}
    traced = sorted((c for c in calls if c["traced"]),
                    key=lambda c: scaled(c, c["run_s"]))
    mid = traced[len(traced) // 2]
    layers = {k: scaled(mid, mid["layers"][k]) if unit == "s"
              else mid["layers"][k]
              for k, unit in PER_LAYER.items() if k != "trace.overhead_s"}
    layers["trace.overhead_s"] = scaled(mid, mid["run_s"]) - e2e["run_s"]
    return e2e, layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "evadelab" / "__init__.py").is_file():
        sys.exit(f"evadelab sources not found under {ROOT / 'src'}; run from "
                 "a checkout of the repository")
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS,
               OMP_NUM_THREADS=BLAS_THREADS, PYTHONHASHSEED="0")
    OUT.mkdir(exist_ok=True)

    min_calls = 2 * MIN_TRACED_PAIRS if args.trace else MIN_CALLS
    calls: list[dict] = []
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        # After the minimum, start a call only if a typical one still fits.
        if len(calls) >= min_calls and (
                elapsed + elapsed / len(calls) > args.seconds):
            break
        traced = bool(args.trace) and len(calls) % 2 == 1
        calls.append(spawn(args, len(calls), traced, env))

    e2e, metrics = summarize(calls, bool(args.trace))
    provenance = dict(calls[0]["provenance"], git_sha=git_sha(),
                      workload=args.workload, seed=args.seed,
                      machine=platform.machine(),
                      reference_checked=calls[0]["reference_checked"])
    record = {"args": vars(args), "provenance": provenance, "end_to_end": e2e,
              "metrics": metrics, "calls": calls}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT / name, "w", encoding="utf-8") as fh:
        json.dump(record, fh)

    print(f"workload {args.workload} seed {args.seed}: {len(calls)} calls "
          f"({sum(c['traced'] for c in calls)} traced)")
    units = dict(END_TO_END, **CHECK_METRICS, **WALL)
    for key, value in e2e.items():
        print(f"  {key:<18} {value:.6g} {units[key]}")
    print("provenance " + json.dumps(provenance, sort_keys=True))
    table = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": e2e["failed_ops"] == 0 and e2e["output_mismatches"] == 0,
        "attempted": sum(c["ops"] for c in calls),
        "failed": sum(c["failed_ops"] for c in calls),
        "metrics": {k: {"value": v, "unit": table[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
