"""Tests for the study benchmark.

    python3 -m pytest studybench/tests

They run the workloads at a reduced size, so they take seconds.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import check  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from evadelab import cli, models, pipeline  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)


def small(name: str) -> workloads.Workload:
    return replace(workloads.WORKLOADS[name], n_per_class=150, n_attack=6,
                   eps_max=4)


def checked_call(name: str, seed: int, work_dir: Path, trace: bool):
    prepared = workloads.setup(small(name), seed, work_dir)
    elapsed, raw, rec = worker.timed_call(prepared, trace)
    return elapsed, workloads.outputs(prepared, raw), rec


@pytest.mark.parametrize("name", NAMES)
def test_traced_and_untraced_outputs_are_identical(name, tmp_path):
    originals = (pipeline.attack_scores_over_grid, cli.epsilon_min,
                 models.load_model, models.KernelModel.decision_batch)
    _, plain, _ = checked_call(name, 3, tmp_path / "plain", trace=False)
    _, traced, rec = checked_call(name, 3, tmp_path / "traced", trace=True)
    assert traced == plain
    assert plain["pairs"] and rec.spans
    assert check.problems(plain, None)[1] == 0
    assert (pipeline.attack_scores_over_grid, cli.epsilon_min,
            models.load_model, models.KernelModel.decision_batch) == originals


def test_setup_is_deterministic_for_a_seed(tmp_path):
    w = small("cli-attack-rbf")
    runs = {tag: workloads.setup(w, seed, tmp_path / tag)
            for tag, seed in (("a", 5), ("b", 5), ("c", 6))}
    for name in ("model.json", "test.txt"):
        data = {tag: (p.work_dir / name).read_bytes()
                for tag, p in runs.items()}
        assert data["a"] == data["b"] != data["c"]

    w = small("study-linear")
    a, b, c = (workloads.setup(w, seed, tmp_path / f"s{seed}{i}").config
               for i, seed in enumerate((5, 5, 6)))
    assert a == b != c


@pytest.mark.parametrize("name", NAMES)
def test_self_times_account_for_the_traced_call(name, tmp_path):
    elapsed, _, rec = checked_call(name, 4, tmp_path, trace=True)
    layers = spans.layer_metrics(rec)
    total = sum(layers[f"{span}_s"] for span in spans.SPAN_NAMES)
    assert total == pytest.approx(elapsed, rel=0.01, abs=0.005)


def test_self_times_plus_overhead_account_for_run_s():
    def call(run_s, traced, layers=None):
        return {"traced": traced, "run_s": run_s, "setup_s": 0.5,
                "probe_s": 2 * run.PROBE_REF_S,
                "pairs": 10, "peak_rss_mib": 100.0, "ops": 1,
                "failed_ops": 0, "mismatches": 0, "layers": layers}

    layers = {k: 0.0 for k in run.PER_LAYER}
    layers.update({"attack.grid_s": 2.5, "pipeline.self_s": 0.75})
    calls = [call(3.0, False), call(3.25, True, layers)]
    e2e, per_layer = run.summarize(calls, trace=True)
    self_total = sum(v for k, v in per_layer.items()
                     if run.PER_LAYER[k] == "s" and k != "trace.overhead_s")
    assert self_total == pytest.approx(
        e2e["run_s"] + per_layer["trace.overhead_s"])


def test_mismatch_counts_as_failed_operation(tmp_path):
    _, out, _ = checked_call("cli-attack-rbf", 3, tmp_path, trace=False)
    ref = check.make_reference(out, {}, 3)
    assert check.problems(out, ref)[1] == 0

    moved = json.loads(json.dumps(out))
    moved["pairs"][0][4] -= 1e-6
    bad, failed = check.problems(moved, ref)
    assert (sum(bad.values()), failed) == (1, 1)

    moved = json.loads(json.dumps(out))
    moved["eps_min"][0][2] = moved["eps_max"] + 1
    assert check.problems(moved, None)[1] == 1


def test_benchmark_json_matches_the_metric_tables():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", NAMES[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
