"""In-memory span recorder for the traced benchmark run.

The recorder wraps the module-level names that ``evadelab.pipeline`` and
``evadelab.cli`` call into, so every call into a layer opens a span named
``<layer>.<step>``.  Nothing under ``src/`` changes: the wrappers are
installed on a live process and removed again by :func:`installed`.

Spans are kept in memory as dicts (name, start, end, parent, run) and written
out by the caller when the run ends.  Counters are recorded at the same
boundaries, so ratios such as kernel rows per attacked pair are measured
where the work happens.
"""

from __future__ import annotations

import contextlib
import functools
import time
import tracemalloc
from collections import defaultdict

import numpy as np

from evadelab import cli, models, pipeline

# Span names per layer; every name the wrappers can open is listed here so
# per-layer metrics exist (as 0.0) even on workloads that skip a layer.
SPAN_NAMES = (
    "featurespace.generate", "featurespace.split", "featurespace.load",
    "models.train", "models.roc", "models.threshold", "models.load",
    "attack.grid", "attack.epsmin",
    "explain.gradient", "explain.gradient_input", "explain.ig",
    "evenness.report", "robustness.score", "stats.suite",
    "pipeline.self", "cli.self",
)

_KERNEL_METHODS = ("decision_batch", "gradient_batch",
                   "decision_and_gradient_batch")


class Recorder:
    """Spans and counters of one traced call."""

    def __init__(self, run_id: int = 0):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self.largest_suite = None

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": parent, "run": self.run_id}
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def current(self) -> str | None:
        return self.spans[self._stack[-1]]["name"] if self._stack else None

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, less the time each span's children cover."""
        child_time = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = defaultdict(float)
        for i, s in enumerate(self.spans):
            out[s["name"]] += s["end"] - s["start"] - child_time[i]
        return out


def _wrap(rec: Recorder, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with rec.span(name):
            result = fn(*args, **kwargs)
        if after is not None:
            after(rec, result, *args)
        return result
    return wrapper


def _count_sgd(rec, _model, train, *args):
    # Every trainer takes its TrainConfig last; one step per sample per epoch.
    rec.counters["models.sgd_steps"] += args[-1].epochs * train.n


def _count_grid(rec, scores, _model, _samples, eps_grid, threshold, *_):
    grid = np.asarray([int(e) for e in eps_grid])
    attacked = scores[:, grid > 0]
    rec.counters["attack.grid_pairs"] += attacked.size
    rec.counters["attack.grid_evaded"] += int(np.sum(attacked < threshold))


def _count_epsmin(rec, _value, *_):
    rec.counters["attack.epsmin_calls"] += 1


def _count_evenness(rec, report, *_):
    rec.counters["evenness.samples"] += len(report.per_sample_e1)
    rec.counters["evenness.undefined"] += report.n_undefined


def _stats_suite(rec: Recorder, fn):
    """correlation_suite span that keeps the largest inputs it saw.

    tracemalloc roughly doubles the suite's run time, so the allocation peak
    is taken afterwards by :func:`stats_peak_alloc`, not inside timed spans.
    """
    @functools.wraps(fn)
    def wrapper(xs, ys):
        with rec.span("stats.suite"):
            result = fn(xs, ys)
        rec.counters["stats.calls"] += 1
        if len(xs) > rec.counters["stats.max_n"]:
            rec.counters["stats.max_n"] = len(xs)
            rec.largest_suite = (fn, xs, ys)
        return result
    return wrapper


def stats_peak_alloc(rec: Recorder) -> float:
    """Peak bytes traced inside one replay of the largest correlation_suite
    call; the suite's memory grows with n, so this is the peak of them all."""
    if rec.largest_suite is None:
        return 0.0
    fn, xs, ys = rec.largest_suite
    tracemalloc.start()
    try:
        fn(xs, ys)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _kernel_counter(rec: Recorder, fn, with_grad: bool):
    @functools.wraps(fn)
    def wrapper(self, points, *args, **kwargs):
        where = rec.current() or "none"
        rows = int(np.shape(points)[0])
        rec.counters[f"{where}.kernel_rows"] += rows
        if with_grad:
            rec.counters[f"{where}.kernel_rows_grad"] += rows
        return fn(self, points, *args, **kwargs)
    return wrapper


def _patches(rec: Recorder) -> list[tuple[object, str, object]]:
    """(owner, attribute, replacement) for every wrapped name."""
    plan = [
        (pipeline, "generate_synthetic", "featurespace.generate", None),
        (pipeline, "load_dataset", "featurespace.load", None),
        (pipeline, "split", "featurespace.split", None),
        (pipeline, "train_linear", "models.train", _count_sgd),
        (pipeline, "train_secsvm", "models.train", _count_sgd),
        (pipeline, "train_rbf_svm", "models.train", _count_sgd),
        (pipeline, "roc_curve", "models.roc", None),
        (pipeline, "auc", "models.roc", None),
        (pipeline, "detection_rate_at_fpr", "models.threshold", None),
        (pipeline, "attack_scores_over_grid", "attack.grid", _count_grid),
        (pipeline, "attribution_gradient", "explain.gradient", None),
        (pipeline, "attribution_gradient_input", "explain.gradient_input",
         None),
        (pipeline, "attribution_integrated_gradients", "explain.ig", None),
        (pipeline, "evenness_report", "evenness.report", _count_evenness),
        (pipeline, "robustness_from_scores", "robustness.score", None),
        (cli, "load_dataset", "featurespace.load", None),
        (cli, "attack_scores_over_grid", "attack.grid", _count_grid),
        (cli, "epsilon_min", "attack.epsmin", _count_epsmin),
        # cli reaches these through the models module attribute.
        (models, "load_model", "models.load", None),
        (models, "detection_rate_at_fpr", "models.threshold", None),
    ]
    out = [(owner, attr, _wrap(rec, name, getattr(owner, attr), after))
           for owner, attr, name, after in plan]
    out.append((pipeline, "correlation_suite",
                _stats_suite(rec, pipeline.correlation_suite)))
    for method in _KERNEL_METHODS:
        out.append((models.KernelModel, method, _kernel_counter(
            rec, getattr(models.KernelModel, method),
            with_grad=method != "decision_batch")))
    return out


@contextlib.contextmanager
def installed(rec: Recorder):
    """Wrap the layer entry points for the duration of the block."""
    patches = _patches(rec)
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, replacement in patches:
            setattr(owner, attr, replacement)
        yield rec
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Per-layer metrics of one traced call whose root span is the timed call.

    The root span is named ``pipeline.self`` or ``cli.self``, so its self
    time is the orchestration left after every wrapped layer call.
    """
    times = rec.self_times()
    c = rec.counters
    out = {f"{name}_s": times.get(name, 0.0) for name in SPAN_NAMES}
    pairs = c["attack.grid_pairs"]
    rows = c["attack.grid.kernel_rows"]
    out.update({
        "attack.kernel_rows": rows,
        "attack.kernel_rows_grad": c["attack.grid.kernel_rows_grad"],
        "attack.rows_per_pair": rows / pairs if pairs else 0.0,
        "attack.evaded_share": (c["attack.grid_evaded"] / pairs
                                if pairs else 0.0),
        "attack.epsmin_calls": c["attack.epsmin_calls"],
        "attack.epsmin_kernel_rows": c["attack.epsmin.kernel_rows"],
        "stats.calls": c["stats.calls"],
        "stats.max_n": c["stats.max_n"],
        "stats.peak_alloc_mib": stats_peak_alloc(rec) / 2**20,
        "models.sgd_steps": c["models.sgd_steps"],
        "explain.kernel_rows": sum(
            c[f"explain.{m}.kernel_rows"]
            for m in ("gradient", "gradient_input", "ig")),
        "evenness.undefined_share": (
            c["evenness.undefined"] / c["evenness.samples"]
            if c["evenness.samples"] else 0.0),
    })
    return out
