"""One benchmark call in a fresh process: set up, time the call, check it.

    python3 studybench/worker.py --workload study-rbf --seed 7 --trace 0 \\
        --work-dir .bench_out/work-0

Prints one JSON line: the monotonic time at which the timed call was ready
(the parent subtracts its spawn time to get set-up time), the call's wall
time, the mean time of the host probe run just before and after the call
(the parent scales wall times by it), peak RSS, delivered pairs, operation and mismatch counts and, with
``--trace 1``, the per-layer metrics and spans.  ``--write-reference``
stores the checked outputs as the reference for this workload and seed.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
from dataclasses import asdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import check  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


_PROBE_X = np.random.default_rng(0).random((64, 150))


def host_probe(rounds: int = 300) -> float:
    """Wall seconds of a fixed piece of work that is not evadelab's: Python
    arithmetic and small numpy kernel rows, the program's own mix."""
    x, y = _PROBE_X, _PROBE_X[0]
    t0 = time.perf_counter()
    for _ in range(rounds):
        acc = 0.0
        for i in range(3000):
            acc += i * 0.5
        for _ in range(20):
            k = np.exp(-0.1 * ((x - y) ** 2).sum(axis=1))
            acc += float(k @ x[:, 0])
    return time.perf_counter() - t0


def timed_call(prepared, trace: bool, run_id: int = 0):
    """(wall seconds, raw result, recorder or None) of the workload's call."""
    if not trace:
        t0 = time.perf_counter()
        raw = workloads.call(prepared)
        return time.perf_counter() - t0, raw, None
    rec = spans.Recorder(run_id)
    root = "cli.self" if prepared.workload.cli else "pipeline.self"
    with spans.installed(rec):
        t0 = time.perf_counter()
        with rec.span(root):
            raw = workloads.call(prepared)
        elapsed = time.perf_counter() - t0
    return elapsed, raw, rec


def provenance() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-id", type=int, default=0)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    work_dir = Path(args.work_dir)
    try:
        prepared = workloads.setup(workload, args.seed, work_dir)
        ready = time.monotonic()
        probe_s = host_probe()
        run_s, raw, rec = timed_call(prepared, bool(args.trace), args.run_id)
        probe_s = (probe_s + host_probe()) / 2
        peak_rss_mib = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
        out = workloads.outputs(prepared, raw)
        written = workloads.bytes_under(prepared.out_path)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if args.write_reference:
        path = check.reference_path(workload.name)
        path.parent.mkdir(exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(check.make_reference(out, asdict(workload), args.seed),
                      fh, separators=(",", ":"))
            fh.write("\n")
    ref = check.load_reference(workload.name, asdict(workload), args.seed)
    bad, failed = check.problems(out, ref)

    result = {
        "ready": ready,
        "run_s": run_s,
        "probe_s": probe_s,
        "peak_rss_mib": peak_rss_mib,
        "pairs": len(out["pairs"]),
        "ops": len(out["ops"]),
        "failed_ops": failed,
        "mismatches": sum(bad.values()),
        "reference_checked": ref is not None,
        "provenance": provenance(),
    }
    if rec is not None:
        layers = spans.layer_metrics(rec)
        layers["pipeline.artifact_bytes"] = 0 if workload.cli else written
        layers["cli.bytes_written"] = written if workload.cli else 0
        result["layers"] = layers
        result["spans"] = rec.spans
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
