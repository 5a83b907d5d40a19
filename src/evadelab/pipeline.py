"""Experiment orchestration: train, threshold, attack, explain, correlate.

One repetition trains every classifier on a fresh stratified split, fixes the
decision threshold at the configured false-positive budget, attacks the
malicious test samples over the budget grid, and derives the security curve,
the robustness score, per-sample attribution evenness, and the correlation
table from that single attack pass.  Evenness is computed on the attacked
malware only, so the summary averages cover the same samples that the
correlations pair with robustness.  Everything is seeded, so a
rerun with the same config reproduces every output file byte for byte.

Every table goes through csv.writer except the largest, each cell's
``adv_scores_<slug>.csv`` with one row per (sample, budget), which is
rendered straight from the cell's score matrix a sample at a time.  Its
bytes are csv.writer's: its fields are ints and floats, written by str (the
shortest repr for a float) and never quoted, lines end in ``\r\n``, and a
run of bit-equal scores shares one repr, so ``-0.0`` keeps its sign.
"""

from __future__ import annotations

import csv
import json
import math
import re
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .attack import _MAX_ITERS, SecurityCurve, attack_scores_over_grid
from .evenness import EvennessReport, evenness_report
from .explain import (attribution_gradient, attribution_gradient_input,
                      attribution_integrated_gradients)
from .featurespace import (LabeledDataset, SyntheticConfig, _check_int,
                           generate_synthetic, load_dataset, split)
from .models import (TrainConfig, TrainedModel, _dataset_scores, _rate_at_fpr,
                     _roc_points, auc, detection_rate_at_fpr, train_linear,
                     train_rbf_svm, train_secsvm)
# Re-exported: studybench's traced run wraps pipeline.roc_curve.
from .models import roc_curve  # noqa: F401
from .robustness import RobustnessScore, _check_grid, robustness_from_scores
from .stats import CorrelationReport, correlation_suite

ATTRIBUTION_METHODS = ("gradient", "gradient_input", "integrated_gradients")
EVENNESS_METRICS = ("e1", "e2")
# the keys of a config file's "dataset" section; its "attack" section's keys
# are the attack_* fields of ExperimentConfig without the prefix
_DATASET_KEYS = ("path", "synthetic")
# the keys of an "eps_grid" object: the inclusive range start..stop
_GRID_KEYS = ("start", "stop")
# the fold count of grid_cv's stratified cross-validation
_CV_FOLDS = 5
# the share of each class that a repetition's split puts in training
_SPLIT_FRACTION = 0.6


@dataclass(frozen=True)
class ClassifierSpec:
    """One roster entry: what to train and how to score its robustness."""

    name: str
    kind: str                  # linear | secsvm | rbf
    loss: str = "hinge"        # training loss for the linear kinds
    reg: float = 1.0           # C (hinge/logistic) or alpha (squared)
    gamma: float = 0.01        # rbf only
    weight_bound: float = 0.25  # secsvm only; box is [-bound, +bound]
    epochs: int = 10
    learning_rate: float = 0.1

    def __post_init__(self):
        if self.kind not in ("linear", "secsvm", "rbf"):
            raise ValueError(f"unknown classifier kind {self.kind!r}")
        if not self.slug:
            raise ValueError(f"classifier name {self.name!r} has no file slug")
        if self.kind != "linear" and self.loss != "hinge":
            raise ValueError(f"loss {self.loss!r}: the {self.kind} trainer "
                             "uses the hinge loss")
        if self.kind == "rbf" and not 0.0 < self.gamma < math.inf:
            raise ValueError("gamma must be finite and positive")
        if not self.weight_bound >= 0:
            raise ValueError("weight_bound must be >= 0")
        # TrainConfig checks reg, epochs (an int >= 1) and learning_rate
        self._train_config(0)

    def _train_config(self, seed: int) -> TrainConfig:
        """The SGD settings of this spec; only secsvm trains in a box."""
        bound = self.weight_bound if self.kind == "secsvm" else None
        return TrainConfig(loss=self.loss, reg=self.reg, epochs=self.epochs,
                           learning_rate=self.learning_rate, seed=seed,
                           weight_lb=None if bound is None else -bound,
                           weight_ub=bound)

    def effective_robust_loss(self) -> str:
        return "logistic" if self.loss == "logistic" else "hinge"

    @property
    def slug(self) -> str:
        return re.sub(r"[^a-z0-9]+", "_", self.name.lower()).strip("_")


# Roster presets with the selected hyperparameters used throughout the
# experiment suite.
PRESETS: dict[str, ClassifierSpec] = {
    "svm": ClassifierSpec("svm", "linear", loss="hinge", reg=0.1),
    "sec-svm": ClassifierSpec("sec-svm", "secsvm", loss="hinge", reg=1.0,
                              weight_bound=0.25),
    "svm-rbf": ClassifierSpec("svm-rbf", "rbf", reg=10.0, gamma=0.01),
    "logistic": ClassifierSpec("logistic", "linear", loss="logistic", reg=1.0),
    "ridge": ClassifierSpec("ridge", "linear", loss="squared", reg=10.0),
}


def _roster_entry(entry) -> ClassifierSpec:
    """The spec of one roster entry: a preset name, or a dict of
    ClassifierSpec fields whose "preset", if given, names the spec that the
    other fields override."""
    if isinstance(entry, str):
        entry = {"preset": entry}
    entry = dict(entry)
    if "preset" not in entry:
        return ClassifierSpec(**entry)
    if entry["preset"] not in PRESETS:
        raise ValueError(f"unknown preset {entry['preset']!r}; "
                         f"expected one of {tuple(PRESETS)}")
    return replace(PRESETS[entry.pop("preset")], **entry)


@dataclass(frozen=True)
class ExperimentConfig:
    classifiers: tuple[ClassifierSpec, ...]
    dataset_path: str | None = None
    synthetic: SyntheticConfig | None = None
    seed: int = 0
    repetitions: int = 1
    eps_grid: tuple[int, ...] = tuple(range(1, 51))
    fpr: float = 0.01
    ig_p: int = 100
    evenness_m: int = 1000
    n_attack_samples: int = 1000
    attack_max_iters: int = _MAX_ITERS

    def __post_init__(self):
        if not self.classifiers:
            raise ValueError("classifier roster must be non-empty")
        for name in ("seed", "repetitions", "ig_p", "evenness_m",
                     "n_attack_samples", "attack_max_iters"):
            _check_int(name, getattr(self, name))
        for eps in self.eps_grid:
            _check_int("eps_grid budget", eps)
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if (self.dataset_path is None) == (self.synthetic is None):
            raise ValueError("give exactly one of dataset_path or synthetic")
        _check_grid(self.eps_grid)
        if self.evenness_m < 2:
            raise ValueError("evenness_m must be >= 2")
        if self.ig_p < 1:
            raise ValueError("ig_p must be >= 1")
        if self.n_attack_samples < 1:
            raise ValueError("n_attack_samples must be >= 1")
        if not 0.0 <= self.fpr <= 1.0:
            raise ValueError("fpr must lie in [0, 1]")
        if self.attack_max_iters < 1:
            raise ValueError("attack_max_iters must be >= 1")
        # equal slugs would write the same per-cell files
        slugs = [spec.slug for spec in self.classifiers]
        if len(set(slugs)) != len(slugs):
            raise ValueError(f"classifier names must give distinct file "
                             f"slugs; got {slugs}")

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        doc = dict(doc)
        names = [f.name for f in fields(cls)]
        attack_keys = tuple(name.removeprefix("attack_") for name in names
                            if name.startswith("attack_"))
        # the top level holds the sections, the roster and every other field
        top_keys = ("dataset", "attack", "classifiers", *(
            name for name in names if not name.startswith("attack_")
            and name not in ("classifiers", "dataset_path", "synthetic")))
        grid = doc.pop("eps_grid", None)
        # an "eps_grid" list has no keys, so it passes both key checks
        grid_keys = grid if isinstance(grid, dict) else _GRID_KEYS
        for section, keys, known in (
                ("config", doc, top_keys),
                ("dataset", doc.get("dataset", {}), _DATASET_KEYS),
                ("attack", doc.get("attack", {}), attack_keys),
                ("eps_grid", grid_keys, _GRID_KEYS)):
            unknown = sorted(set(keys) - set(known))
            if unknown:
                raise ValueError(f"unknown {section} key(s) {unknown}; "
                                 f"expected some of {known}")
        missing = [key for key in _GRID_KEYS if key not in grid_keys]
        if missing:
            raise ValueError(f"missing eps_grid key(s) {missing}; "
                             f"expected {_GRID_KEYS}")
        dataset = doc.pop("dataset", {})
        attack = doc.pop("attack", {})
        dataset_path = dataset.get("path")
        synthetic = None
        if "synthetic" in dataset:
            synthetic = SyntheticConfig(**dataset["synthetic"])
        specs = [_roster_entry(entry)
                 for entry in doc.pop("classifiers", [])]
        kwargs = dict(doc)
        if isinstance(grid, dict):
            for key in _GRID_KEYS:
                _check_int(f"eps_grid {key}", grid[key])
            kwargs["eps_grid"] = tuple(range(grid["start"], grid["stop"] + 1))
        elif grid is not None:
            kwargs["eps_grid"] = tuple(grid)
        return cls(
            classifiers=tuple(specs),
            dataset_path=dataset_path,
            synthetic=synthetic,
            **{f"attack_{key}": value for key, value in attack.items()},
            **kwargs,
        )

    @classmethod
    def from_json_file(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        doc = {
            "dataset": ({"path": self.dataset_path} if self.dataset_path
                        else {"synthetic": vars(self.synthetic).copy()}),
            "classifiers": [vars(s).copy() for s in self.classifiers],
            "seed": self.seed,
            "repetitions": self.repetitions,
            "eps_grid": list(self.eps_grid),
            "fpr": self.fpr,
            "ig_p": self.ig_p,
            "evenness_m": self.evenness_m,
            "n_attack_samples": self.n_attack_samples,
            "attack": {"max_iters": self.attack_max_iters},
        }
        return doc


@dataclass(eq=False)
class ClassifierCell:
    """Everything measured for one (repetition, classifier) pair."""

    rep: int
    spec: ClassifierSpec
    status: str = "ok"
    error: str | None = None
    # the full traceback of a failed cell; not in manifest.json, which
    # stays deterministic
    traceback: str | None = None
    model: TrainedModel | None = None
    roc: list[tuple[float, float]] | None = None
    auc: float | None = None
    dr_clean: float | None = None
    threshold: float | None = None
    sample_ids: list[int] = field(default_factory=list)
    clean_scores: np.ndarray | None = None
    adv_scores: np.ndarray | None = None
    curve: SecurityCurve | None = None
    robust: RobustnessScore | None = None
    # per method: the report over the attacked malware samples
    evenness: dict[str, EvennessReport] = field(default_factory=dict)
    correlations: list[dict] = field(default_factory=list)


@dataclass(eq=False)
class ExperimentReport:
    config: ExperimentConfig
    cells: list[ClassifierCell]
    pooled_correlations: list[dict]

    def ok_cells(self, name: str | None = None) -> list[ClassifierCell]:
        return [c for c in self.cells
                if c.status == "ok" and (name is None or c.spec.name == name)]


def _train_spec(spec: ClassifierSpec, train_ds: LabeledDataset,
                seed: int) -> TrainedModel:
    cfg = spec._train_config(seed)
    if spec.kind == "rbf":
        return train_rbf_svm(train_ds, spec.reg, spec.gamma, cfg)
    if spec.kind == "secsvm":
        return train_secsvm(train_ds, cfg)
    return train_linear(train_ds, cfg)


def _attribution(method: str, model: TrainedModel, samples,
                 ig_p: int) -> np.ndarray:
    """The (n, d) attributions of one method for ``evadelab explain``; a
    study cell calls the attribution functions itself.  They are looked up
    as module globals at call time, so a wrapper installed on these names
    (as studybench's traced run does) sees every call."""
    if method == "gradient":
        return attribution_gradient(model, samples)
    if method == "gradient_input":
        return attribution_gradient_input(model, samples)
    return attribution_integrated_gradients(model, samples, p=ig_p)


def _run_cell(cfg: ExperimentConfig, spec: ClassifierSpec, rep: int,
              train_ds: LabeledDataset, test_ds: LabeledDataset) -> ClassifierCell:
    cell = ClassifierCell(rep=rep, spec=spec)
    seed = cfg.seed + rep
    model = _train_spec(spec, train_ds, seed)
    cell.model = model
    # the test set is scored once, for the ROC and for the threshold
    test_scores = _dataset_scores(model, test_ds)
    cell.roc = _roc_points(test_scores, test_ds.labels)
    cell.auc = auc(cell.roc)
    cell.dr_clean, cell.threshold = _rate_at_fpr(test_scores, test_ds.labels,
                                                 cfg.fpr)

    # the attacked malware: all of it, or a seeded sorted draw of that many
    rows = np.flatnonzero(test_ds.labels == 1)
    if rows.size > cfg.n_attack_samples:
        rng = np.random.default_rng(seed)
        rows = rows[np.sort(rng.choice(rows.size, size=cfg.n_attack_samples,
                                       replace=False))]
    cell.sample_ids = rows.tolist()
    samples = test_ds.samples[cell.sample_ids]

    # budget 0 is the clean score, so one attack gives both
    scores = attack_scores_over_grid(model, samples, (0, *cfg.eps_grid),
                                     cell.threshold, cfg.attack_max_iters)
    cell.clean_scores, cell.adv_scores = scores[:, 0], scores[:, 1:]
    cell.curve = SecurityCurve.from_scores(cell.adv_scores, cfg.eps_grid,
                                           cell.threshold)
    cell.robust = robustness_from_scores(
        cell.adv_scores, cfg.eps_grid, spec.effective_robust_loss())

    # Gradient*Input is the Gradient matrix masked by the samples, masked in
    # place once the Gradient report is taken, so one (n, d) matrix is live
    R = attribution_gradient(model, samples)
    cell.evenness["gradient"] = evenness_report(R, cfg.evenness_m)
    R *= samples
    cell.evenness["gradient_input"] = evenness_report(R, cfg.evenness_m)
    del R
    cell.evenness["integrated_gradients"] = evenness_report(
        attribution_integrated_gradients(model, samples, p=cfg.ig_p),
        cfg.evenness_m)
    for method in ATTRIBUTION_METHODS:
        for metric in EVENNESS_METRICS:
            cell.correlations += _correlation_entries([cell], method, metric)
    return cell


def _correlation_entries(cells: list[ClassifierCell], method: str,
                         metric: str, **lead) -> list[dict]:
    """The correlation suite over the cells' pooled (evenness, robustness)
    pairs, one per attacked sample whose evenness is defined, one entry per
    coefficient carrying ``lead``; none below 3 pairs."""
    xs, ys = [], []
    for cell in cells:
        even = cell.evenness[method]
        per_sample = (even.per_sample_e1 if metric == "e1"
                      else even.per_sample_e2)
        for e, r in zip(per_sample, cell.robust.per_sample):
            if e is not None:
                xs.append(e)
                ys.append(r)
    if len(xs) < 3:
        return []
    return [{**lead, "attribution": method, "metric": metric, "report": rpt}
            for rpt in correlation_suite(xs, ys)]


def run_experiment(cfg: ExperimentConfig,
                   out_dir: str | Path | None = None) -> ExperimentReport:
    """Execute every (repetition, classifier) cell and write all artifacts.

    A failing cell is recorded with its error and does not abort the run.
    """
    if cfg.synthetic is not None:
        ds = generate_synthetic(cfg.synthetic)
    else:
        ds = load_dataset(cfg.dataset_path)

    cells: list[ClassifierCell] = []
    for rep in range(cfg.repetitions):
        train_ds, test_ds = split(ds, _SPLIT_FRACTION, cfg.seed + rep)
        for spec in cfg.classifiers:
            try:
                cells.append(_run_cell(cfg, spec, rep, train_ds, test_ds))
            except Exception as exc:  # cell isolation by design
                cells.append(ClassifierCell(
                    rep=rep, spec=spec, status="failed",
                    error=f"{type(exc).__name__}: {exc}",
                    traceback=traceback.format_exc()))

    pooled = _pool_correlations(cfg, cells)
    report = ExperimentReport(cfg, cells, pooled)
    if out_dir is not None:
        _write_artifacts(report, Path(out_dir))
    return report


def _pool_correlations(cfg: ExperimentConfig,
                       cells: list[ClassifierCell]) -> list[dict]:
    pooled = []
    for spec in cfg.classifiers:
        ok = [c for c in cells if c.spec.name == spec.name and c.status == "ok"]
        if len(ok) == 1:
            # one cell's pairs, in its order: the suites it already took
            pooled += [{"classifier": spec.name, **entry}
                       for entry in ok[0].correlations]
            continue
        for method in ATTRIBUTION_METHODS:
            for metric in EVENNESS_METRICS:
                pooled += _correlation_entries(ok, method, metric,
                                               classifier=spec.name)
    return pooled


@contextmanager
def _csv_file(path: str | Path, header: list[str]):
    """The one place that creates a CSV file: its directory, the file and
    its header row; yields the open file for the body."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        yield fh


def _write_csv(path: str | Path, header: list[str], rows) -> None:
    """Write a table through csv.writer, which writes None as empty and
    every other value by str, which for float and np.float64 is the
    shortest repr.  The score table is the one table not written here: see
    _write_score_table, whose bytes are the ones this would write."""
    with _csv_file(path, header) as fh:
        csv.writer(fh).writerows(rows)


def _write_score_table(path: str | Path, sample_ids, eps_grid,
                       scores: np.ndarray) -> None:
    """``adv_scores_<slug>.csv``: the row ``sid,eps,score`` of each sample
    and budget of the (n, k) float64 ``scores``, byte for byte what
    _write_csv writes for the rows ``[sid, eps, float(score)]``.

    A greedy attack stops adding features once it has crossed the threshold,
    so most rows end in a run of equal scores: each run of bit-equal values
    (equal int64 views, so -0.0 and 0.0 stay apart) is formatted once.  One
    sample's lines are built at a time, so memory does not grow with n.
    """
    eps_leads = [str(eps) + "," for eps in eps_grid]
    with _csv_file(path, ["sample_id", "eps", "score_after"]) as fh:
        for sid, row in zip(sample_ids, scores):
            values = row.tolist()
            bits = row.view(np.int64)
            starts = (np.flatnonzero(bits[1:] != bits[:-1]) + 1).tolist()
            texts = []
            for start, stop in zip([0, *starts], [*starts, len(values)]):
                texts += [repr(values[start])] * (stop - start)
            lead = str(sid) + ","
            fh.write(lead + ("\r\n" + lead).join(
                map(str.__add__, eps_leads, texts)) + "\r\n")


def _correlation_rows(entries: list[dict], lead: list) -> list[list]:
    rows = []
    for entry in entries:
        rpt: CorrelationReport = entry["report"]
        rows.append(lead + [entry["attribution"], entry["metric"], rpt.method,
                            rpt.coefficient, rpt.p_value, rpt.n,
                            int(rpt.degenerate)])
    return rows


def _write_artifacts(report: ExperimentReport, out: Path) -> None:
    cfg = report.config
    out.mkdir(parents=True, exist_ok=True)

    summary_header = ["rep", "classifier", "status", "auc", "dr_clean",
                      "threshold", "aggregate_robustness",
                      "mean_dr_under_attack"]
    for method in ATTRIBUTION_METHODS:
        summary_header += [f"avg_e1_{method}", f"avg_e2_{method}"]
    summary_rows = []
    for cell in report.cells:
        rep_dir = out / f"rep{cell.rep}"
        slug = cell.spec.slug
        if cell.status != "ok":
            summary_rows.append([cell.rep, cell.spec.name, cell.status]
                                + [None] * (len(summary_header) - 3))
            continue
        _write_csv(rep_dir / f"roc_{slug}.csv", ["fpr", "tpr"], cell.roc)

        curve_rows = [[0, cell.dr_clean]]
        curve_rows += [[e, r] for e, r in zip(cell.curve.epsilons,
                                              cell.curve.detection_rates)]
        _write_csv(rep_dir / f"security_curve_{slug}.csv",
                   ["eps", "detection_rate"], curve_rows)

        _write_score_table(rep_dir / f"adv_scores_{slug}.csv",
                           cell.sample_ids, cfg.eps_grid, cell.adv_scores)

        header = ["sample_id", "score_clean", "robustness"]
        for method in ATTRIBUTION_METHODS:
            header += [f"e1_{method}", f"e2_{method}"]
        sample_rows = []
        for row, sid in enumerate(cell.sample_ids):
            entry = [sid, float(cell.clean_scores[row]),
                     float(cell.robust.per_sample[row])]
            for method in ATTRIBUTION_METHODS:
                rpt = cell.evenness[method]
                entry += [rpt.per_sample_e1[row], rpt.per_sample_e2[row]]
            sample_rows.append(entry)
        _write_csv(rep_dir / f"samples_{slug}.csv", header, sample_rows)

        _write_csv(rep_dir / f"correlations_{slug}.csv",
                   ["attribution", "metric", "corr_method", "coefficient",
                    "p_value", "n", "degenerate"],
                   _correlation_rows(cell.correlations, []))

        summary = [cell.rep, cell.spec.name, cell.status, cell.auc,
                   cell.dr_clean, cell.threshold, cell.robust.aggregate,
                   cell.curve.area()]
        for method in ATTRIBUTION_METHODS:
            rpt = cell.evenness[method]
            summary += [rpt.averaged_e1, rpt.averaged_e2]
        summary_rows.append(summary)
    _write_csv(out / "summary.csv", summary_header, summary_rows)

    _write_csv(out / "pooled_correlations.csv",
               ["classifier", "attribution", "metric", "corr_method",
                "coefficient", "p_value", "n", "degenerate"],
               [row for entry in report.pooled_correlations
                for row in _correlation_rows(
                    [entry], [entry["classifier"]])])

    # repetition-mean security curves
    for spec in cfg.classifiers:
        ok = report.ok_cells(spec.name)
        if not ok:
            continue
        rates = np.stack([np.asarray(c.curve.detection_rates) for c in ok])
        _write_csv(out / f"security_curve_mean_{spec.slug}.csv",
                   ["eps", "mean_detection_rate"],
                   zip(cfg.eps_grid, rates.mean(axis=0)))

    manifest = {
        "package_version": __version__,
        "config": cfg.to_dict(),
        "cells": [
            {
                "rep": cell.rep,
                "classifier": cell.spec.name,
                "status": cell.status,
                "error": cell.error,
                "threshold": cell.threshold,
                "auc": cell.auc,
                "dr_clean": cell.dr_clean,
                "n_attacked": len(cell.sample_ids),
                "split_seed": cfg.seed + cell.rep,
                "train_seed": cfg.seed + cell.rep,
            }
            for cell in report.cells
        ],
        "notes": {
            "eps0_row": "security_curve files prepend an eps=0 row holding "
                        "the clean detection rate",
            "sample_id": "row index into the repetition's test split",
        },
    }
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def grid_cv(ds: LabeledDataset, spec: ClassifierSpec, reg_grid,
            fpr: float = 0.01, seed: int = 0
            ) -> tuple[float, list[tuple[float, float]]]:
    """Pick a regularization value by stratified 5-fold detection rate at the
    false-positive budget; ties within one percentage point go to the more
    regularized setting (larger alpha for the squared loss, smaller C
    otherwise).
    """
    reg_grid = [float(v) for v in reg_grid]
    if not reg_grid:
        raise ValueError("reg_grid must be non-empty")
    rng = np.random.default_rng(seed)
    fold_of = np.zeros(ds.n, dtype=int)
    for label in (-1, 1):
        rows = np.flatnonzero(ds.labels == label)
        perm = rng.permutation(rows.size)
        fold_of[rows[perm]] = np.arange(rows.size) % _CV_FOLDS

    table = []
    for reg in reg_grid:
        rates = []
        for k in range(_CV_FOLDS):
            train_rows = np.flatnonzero(fold_of != k)
            val_rows = np.flatnonzero(fold_of == k)
            model = _train_spec(replace(spec, reg=reg), ds.subset(train_rows),
                                seed + k)
            rate, _ = detection_rate_at_fpr(model, ds.subset(val_rows), fpr)
            rates.append(rate)
        table.append((reg, math.fsum(rates) / len(rates)))

    best_rate = max(rate for _, rate in table)
    candidates = [reg for reg, rate in table if rate >= best_rate - 0.01]
    more_regularized = max if spec.loss == "squared" else min
    return more_regularized(candidates), table
