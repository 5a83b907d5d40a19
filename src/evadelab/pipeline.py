"""Experiment orchestration: train, threshold, attack, explain, correlate.

One repetition trains every classifier on a fresh stratified split, fixes the
decision threshold at the configured false-positive budget, attacks the
malicious test samples over the budget grid, and derives the security curve,
the robustness score, per-sample attribution evenness, and the correlation
table from that single attack pass.  Everything is seeded, so a rerun with
the same config reproduces every output file byte for byte.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .attack import (ATTACK_METHODS, AttackConfig, SecurityCurve,
                     attack_scores_over_grid)
from .evenness import EvennessReport, evenness_report
from .explain import (attribution_gradient, attribution_gradient_input,
                      attribution_integrated_gradients)
from .featurespace import (LabeledDataset, SyntheticConfig, generate_synthetic,
                           load_dataset, split)
from .models import (TrainConfig, TrainedModel, auc, detection_rate_at_fpr,
                     roc_curve, train_linear, train_rbf_svm, train_secsvm)
from .robustness import RobustnessScore, robustness_from_scores
from .stats import CorrelationReport, correlation_suite

ATTRIBUTION_METHODS = ("gradient", "gradient_input", "integrated_gradients")
EVENNESS_METRICS = ("e1", "e2")


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
    robust_loss: str | None = None

    def __post_init__(self):
        if self.kind not in ("linear", "secsvm", "rbf"):
            raise ValueError(f"unknown classifier kind {self.kind!r}")
        if not self.name:
            raise ValueError("classifier name must be non-empty")

    def effective_robust_loss(self) -> str:
        if self.robust_loss is not None:
            return self.robust_loss
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


@dataclass(frozen=True)
class ExperimentConfig:
    classifiers: tuple[ClassifierSpec, ...]
    dataset_path: str | None = None
    synthetic: SyntheticConfig | None = None
    split_fraction: float = 0.6
    seed: int = 0
    repetitions: int = 1
    eps_grid: tuple[int, ...] = tuple(range(1, 51))
    fpr: float = 0.01
    methods: tuple[str, ...] = ATTRIBUTION_METHODS
    ig_p: int = 100
    evenness_m: int = 1000
    n_attack_samples: int = 1000
    attack_eta: float | None = None
    attack_tol: float = 1e-6
    attack_max_iters: int = 1000
    attack_method: str = "auto"
    evenness_include_benign: bool = False
    curve_envelopes: bool = False

    def __post_init__(self):
        if not self.classifiers:
            raise ValueError("classifier roster must be non-empty")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if (self.dataset_path is None) == (self.synthetic is None):
            raise ValueError("give exactly one of dataset_path or synthetic")
        if any(e < 1 for e in self.eps_grid) or not self.eps_grid:
            raise ValueError("eps_grid must be non-empty positive integers")
        for m in self.methods:
            if m not in ATTRIBUTION_METHODS:
                raise ValueError(f"unknown attribution method {m!r}")
        if self.attack_method not in ATTACK_METHODS:
            raise ValueError(f"unknown attack method {self.attack_method!r}; "
                             f"expected one of {ATTACK_METHODS}")
        names = [spec.name for spec in self.classifiers]
        if len(set(names)) != len(names):
            raise ValueError("classifier names must be unique")

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        doc = dict(doc)
        dataset = doc.pop("dataset", {})
        dataset_path = dataset.get("path")
        synthetic = None
        if "synthetic" in dataset:
            synthetic = SyntheticConfig(**dataset["synthetic"])
        specs = []
        for entry in doc.pop("classifiers", []):
            if isinstance(entry, str):
                specs.append(PRESETS[entry])
            else:
                entry = dict(entry)
                base = PRESETS.get(entry.pop("preset", ""), None)
                if base is not None:
                    specs.append(replace(base, **entry))
                else:
                    specs.append(ClassifierSpec(**entry))
        attack = doc.pop("attack", {})
        grid = doc.pop("eps_grid", None)
        kwargs = dict(doc)
        if grid is not None:
            if isinstance(grid, dict):
                kwargs["eps_grid"] = tuple(range(int(grid["start"]),
                                                 int(grid["stop"]) + 1))
            else:
                kwargs["eps_grid"] = tuple(int(e) for e in grid)
        for key in ("methods",):
            if key in kwargs:
                kwargs[key] = tuple(kwargs[key])
        return cls(
            classifiers=tuple(specs),
            dataset_path=dataset_path,
            synthetic=synthetic,
            attack_eta=attack.get("eta"),
            attack_tol=attack.get("tol", 1e-6),
            attack_max_iters=attack.get("max_iters", 1000),
            attack_method=attack.get("method", "auto"),
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
            "split_fraction": self.split_fraction,
            "seed": self.seed,
            "repetitions": self.repetitions,
            "eps_grid": list(self.eps_grid),
            "fpr": self.fpr,
            "methods": list(self.methods),
            "ig_p": self.ig_p,
            "evenness_m": self.evenness_m,
            "n_attack_samples": self.n_attack_samples,
            "attack": {"eta": self.attack_eta, "tol": self.attack_tol,
                       "max_iters": self.attack_max_iters,
                       "method": self.attack_method},
            "evenness_include_benign": self.evenness_include_benign,
            "curve_envelopes": self.curve_envelopes,
        }
        return doc


@dataclass(eq=False)
class ClassifierCell:
    """Everything measured for one (repetition, classifier) pair."""

    rep: int
    spec: ClassifierSpec
    status: str = "ok"
    error: str | None = None
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
    evenness: dict[str, EvennessReport] = field(default_factory=dict)
    benign_evenness: dict[str, EvennessReport] = field(default_factory=dict)
    correlations: list[dict] = field(default_factory=list)


@dataclass(eq=False)
class ExperimentReport:
    config: ExperimentConfig
    cells: list[ClassifierCell]
    pooled_correlations: list[dict]
    out_dir: Path | None

    def ok_cells(self, name: str | None = None) -> list[ClassifierCell]:
        return [c for c in self.cells
                if c.status == "ok" and (name is None or c.spec.name == name)]


def _train_spec(spec: ClassifierSpec, train_ds: LabeledDataset,
                seed: int) -> TrainedModel:
    if spec.kind == "rbf":
        cfg = TrainConfig(loss="hinge", reg=spec.reg, epochs=spec.epochs,
                          learning_rate=spec.learning_rate, seed=seed)
        return train_rbf_svm(train_ds, spec.reg, spec.gamma, cfg)
    if spec.kind == "secsvm":
        cfg = TrainConfig(loss="hinge", reg=spec.reg, epochs=spec.epochs,
                          learning_rate=spec.learning_rate, seed=seed,
                          weight_lb=-spec.weight_bound,
                          weight_ub=spec.weight_bound)
        return train_secsvm(train_ds, cfg)
    cfg = TrainConfig(loss=spec.loss, reg=spec.reg, epochs=spec.epochs,
                      learning_rate=spec.learning_rate, seed=seed)
    return train_linear(train_ds, cfg)


def _attribution(method: str, model: TrainedModel, x, ig_p: int):
    if method == "gradient":
        return attribution_gradient(model, x)
    if method == "gradient_input":
        return attribution_gradient_input(model, x)
    return attribution_integrated_gradients(model, x, p=ig_p)


def _choose_rows(rows: list[int], limit: int, rng: np.random.Generator) -> list[int]:
    if len(rows) <= limit:
        return list(rows)
    picked = rng.choice(len(rows), size=limit, replace=False)
    return [rows[i] for i in sorted(int(i) for i in picked)]


def _run_cell(cfg: ExperimentConfig, spec: ClassifierSpec, rep: int,
              train_ds: LabeledDataset, test_ds: LabeledDataset) -> ClassifierCell:
    cell = ClassifierCell(rep=rep, spec=spec)
    seed = cfg.seed + rep
    model = _train_spec(spec, train_ds, seed)
    cell.model = model
    cell.roc = roc_curve(model, test_ds)
    cell.auc = auc(cell.roc)
    cell.dr_clean, cell.threshold = detection_rate_at_fpr(model, test_ds, cfg.fpr)

    rng = np.random.default_rng(seed)
    malware_rows = [i for i, y in enumerate(test_ds.labels) if y == 1]
    cell.sample_ids = _choose_rows(malware_rows, cfg.n_attack_samples, rng)
    samples = [test_ds.samples[i] for i in cell.sample_ids]

    acfg = AttackConfig(1, eta=cfg.attack_eta, tol=cfg.attack_tol,
                        max_iters=cfg.attack_max_iters)
    cell.adv_scores = attack_scores_over_grid(
        model, samples, cfg.eps_grid, cell.threshold, acfg, cfg.attack_method)
    cell.curve = SecurityCurve.from_scores(cell.adv_scores, cfg.eps_grid,
                                           cell.threshold, cfg.fpr)
    cell.robust = robustness_from_scores(
        cell.adv_scores, cfg.eps_grid, spec.effective_robust_loss())

    dense = np.stack([x.to_dense() for x in samples])
    cell.clean_scores = model.decision_batch(dense)

    for method in cfg.methods:
        rels = [_attribution(method, model, x, cfg.ig_p) for x in samples]
        cell.evenness[method] = evenness_report(rels, cfg.evenness_m, method)
        for metric in EVENNESS_METRICS:
            pairs = _evenness_robustness_pairs(cell, method, metric)
            if len(pairs) < 3:
                continue
            _, xs, ys = zip(*pairs)
            for rpt in correlation_suite(xs, ys):
                cell.correlations.append(
                    {"attribution": method, "metric": metric, "report": rpt})

    if cfg.evenness_include_benign:
        benign_rows = [i for i, y in enumerate(test_ds.labels) if y == -1]
        benign_rows = _choose_rows(benign_rows, cfg.n_attack_samples, rng)
        benign = [test_ds.samples[i] for i in benign_rows]
        for method in cfg.methods:
            rels = [_attribution(method, model, x, cfg.ig_p) for x in benign]
            cell.benign_evenness[method] = evenness_report(
                rels, cfg.evenness_m, method)
    return cell


def _evenness_robustness_pairs(cell: ClassifierCell, method: str,
                               metric: str) -> list[tuple[int, float, float]]:
    """(row, evenness, robustness) of each attacked sample of a cell whose
    evenness is defined."""
    rpt = cell.evenness[method]
    per_sample = rpt.per_sample_e1 if metric == "e1" else rpt.per_sample_e2
    return [(row, e, float(r)) for row, (e, r)
            in enumerate(zip(per_sample, cell.robust.per_sample))
            if e is not None]


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
        train_ds, test_ds = split(ds, cfg.split_fraction, cfg.seed + rep)
        for spec in cfg.classifiers:
            try:
                cells.append(_run_cell(cfg, spec, rep, train_ds, test_ds))
            except Exception as exc:  # cell isolation by design
                cells.append(ClassifierCell(
                    rep=rep, spec=spec, status="failed",
                    error=f"{type(exc).__name__}: {exc}"))

    pooled = _pool_correlations(cfg, cells)
    report = ExperimentReport(cfg, cells, pooled, None)
    if out_dir is not None:
        _write_artifacts(report, Path(out_dir))
        report.out_dir = Path(out_dir)
    return report


def _pool_correlations(cfg: ExperimentConfig,
                       cells: list[ClassifierCell]) -> list[dict]:
    pooled = []
    for spec in cfg.classifiers:
        ok = [c for c in cells if c.spec.name == spec.name and c.status == "ok"]
        if not ok:
            continue
        for method in cfg.methods:
            for metric in EVENNESS_METRICS:
                pairs = [p for cell in ok
                         for p in _evenness_robustness_pairs(cell, method,
                                                             metric)]
                if len(pairs) < 3:
                    continue
                _, xs, ys = zip(*pairs)
                for rpt in correlation_suite(xs, ys):
                    pooled.append({"classifier": spec.name,
                                   "attribution": method,
                                   "metric": metric,
                                   "report": rpt})
    return pooled


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))  # np.float64 repr carries a type prefix
    return str(value)


def _write_csv(path: str | Path, header: list[str], rows) -> None:
    """The one CSV writer: None as empty, floats by repr, the rest by str."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


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

    summary_rows = []
    for cell in report.cells:
        rep_dir = out / f"rep{cell.rep}"
        slug = cell.spec.slug
        if cell.status != "ok":
            summary_rows.append([cell.rep, cell.spec.name, cell.status]
                                + [None] * (5 + 2 * len(cfg.methods)))
            continue
        _write_csv(rep_dir / f"roc_{slug}.csv", ["fpr", "tpr"], cell.roc)

        curve_rows = [[0, cell.dr_clean]]
        curve_rows += [[e, r] for e, r in zip(cell.curve.epsilons,
                                              cell.curve.detection_rates)]
        _write_csv(rep_dir / f"security_curve_{slug}.csv",
                   ["eps", "detection_rate"], curve_rows)

        adv_rows = []
        for row, sid in enumerate(cell.sample_ids):
            for col, eps in enumerate(cfg.eps_grid):
                adv_rows.append([sid, eps, float(cell.adv_scores[row, col])])
        _write_csv(rep_dir / f"adv_scores_{slug}.csv",
                   ["sample_id", "eps", "score_after"], adv_rows)

        header = ["sample_id", "score_clean", "robustness"]
        for method in cfg.methods:
            header += [f"e1_{method}", f"e2_{method}"]
        sample_rows = []
        for row, sid in enumerate(cell.sample_ids):
            entry = [sid, float(cell.clean_scores[row]),
                     float(cell.robust.per_sample[row])]
            for method in cfg.methods:
                rpt = cell.evenness[method]
                entry += [rpt.per_sample_e1[row], rpt.per_sample_e2[row]]
            sample_rows.append(entry)
        _write_csv(rep_dir / f"samples_{slug}.csv", header, sample_rows)

        _write_csv(rep_dir / f"correlations_{slug}.csv",
                   ["attribution", "metric", "corr_method", "coefficient",
                    "p_value", "n", "degenerate"],
                   _correlation_rows(cell.correlations, []))

        mean_dr_attack = float(np.mean(cell.curve.detection_rates))
        summary = [cell.rep, cell.spec.name, cell.status, cell.auc,
                   cell.dr_clean, cell.threshold, cell.robust.aggregate,
                   mean_dr_attack]
        for method in cfg.methods:
            e1, e2 = _averaged_evenness(cfg, cell, method)
            summary += [e1, e2]
        summary_rows.append(summary)

    header = ["rep", "classifier", "status", "auc", "dr_clean", "threshold",
              "aggregate_robustness", "mean_dr_under_attack"]
    for method in cfg.methods:
        header += [f"avg_e1_{method}", f"avg_e2_{method}"]
    _write_csv(out / "summary.csv", header, summary_rows)

    _write_csv(out / "pooled_correlations.csv",
               ["classifier", "attribution", "metric", "corr_method",
                "coefficient", "p_value", "n", "degenerate"],
               [row for entry in report.pooled_correlations
                for row in _correlation_rows(
                    [entry], [entry["classifier"]])])

    # repetition-mean security curves (optionally with min/max envelopes)
    for spec in cfg.classifiers:
        ok = report.ok_cells(spec.name)
        if not ok:
            continue
        rates = np.stack([np.asarray(c.curve.detection_rates) for c in ok])
        header = ["eps", "mean_detection_rate"]
        columns = [list(cfg.eps_grid), rates.mean(axis=0)]
        if cfg.curve_envelopes:
            header += ["min_detection_rate", "max_detection_rate"]
            columns += [rates.min(axis=0), rates.max(axis=0)]
        _write_csv(out / f"security_curve_mean_{spec.slug}.csv", header,
                   [[col[i] for col in columns]
                    for i in range(len(cfg.eps_grid))])

    scatter_dir = out / "scatter"
    for method in cfg.methods:
        for metric in EVENNESS_METRICS:
            emit_scatter_data(report, method, metric, "robustness",
                              scatter_dir / f"samples_{method}_{metric}.csv")
            emit_scatter_data(report, method, metric, "detection_rate",
                              scatter_dir / f"classifiers_{method}_{metric}.csv")

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


def _averaged_evenness(cfg: ExperimentConfig, cell: ClassifierCell,
                       method: str) -> tuple[float | None, float | None]:
    reports = [cell.evenness[method]]
    if cfg.evenness_include_benign and method in cell.benign_evenness:
        reports.append(cell.benign_evenness[method])
    e1 = [v for rpt in reports for v in rpt.per_sample_e1 if v is not None]
    e2 = [v for rpt in reports for v in rpt.per_sample_e2 if v is not None]
    if not e1:
        return None, None
    return math.fsum(e1) / len(e1), math.fsum(e2) / len(e2)


def emit_scatter_data(report: ExperimentReport, attribution: str, metric: str,
                      y: str = "robustness", out_path: str | Path | None = None,
                      subsample: int | None = None,
                      subsample_seed: int = 0) -> list[list]:
    """Plot-ready rows pairing evenness with robustness or detection rate.

    y="robustness" emits one row per attacked sample (classifier, rep,
    sample_id, evenness, robustness); y="detection_rate" emits one row per
    classifier (classifier, averaged evenness, mean detection rate under
    attack over the budget grid), averaged over repetitions.
    """
    if attribution not in report.config.methods:
        raise ValueError(f"attribution {attribution!r} was not computed")
    if metric not in EVENNESS_METRICS:
        raise ValueError(f"metric must be one of {EVENNESS_METRICS}")
    cells = report.ok_cells()
    if not cells:
        raise ValueError("report has no successful cells")

    if y == "robustness":
        rows = []
        for cell in cells:
            for row, e, r in _evenness_robustness_pairs(cell, attribution,
                                                        metric):
                rows.append([cell.spec.name, cell.rep, cell.sample_ids[row],
                             e, r])
        if subsample is not None and len(rows) > subsample:
            rng = np.random.default_rng(subsample_seed)
            picked = sorted(int(i) for i in
                            rng.choice(len(rows), subsample, replace=False))
            rows = [rows[i] for i in picked]
        header = ["classifier", "rep", "sample_id", f"evenness_{metric}",
                  "robustness"]
    elif y == "detection_rate":
        rows = []
        for spec in report.config.classifiers:
            matching = report.ok_cells(spec.name)
            if not matching:
                continue
            evens = []
            drs = []
            for cell in matching:
                e1, e2 = _averaged_evenness(report.config, cell, attribution)
                evens.append(e1 if metric == "e1" else e2)
                drs.append(float(np.mean(cell.curve.detection_rates)))
            if any(e is None for e in evens):
                continue
            rows.append([spec.name, math.fsum(evens) / len(evens),
                         math.fsum(drs) / len(drs)])
        header = ["classifier", f"avg_evenness_{metric}",
                  "mean_detection_rate_under_attack"]
    else:
        raise ValueError("y must be 'robustness' or 'detection_rate'")

    if out_path is not None:
        _write_csv(out_path, header, rows)
    return rows


def grid_cv(ds: LabeledDataset, spec: ClassifierSpec, reg_grid,
            folds: int = 5, fpr: float = 0.01, seed: int = 0
            ) -> tuple[float, list[tuple[float, float]]]:
    """Pick a regularization value by stratified k-fold detection rate at the
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
        rows = np.asarray([i for i, yy in enumerate(ds.labels) if yy == label])
        perm = rng.permutation(rows.size)
        fold_of[rows[perm]] = np.arange(rows.size) % folds

    table = []
    for reg in reg_grid:
        rates = []
        for k in range(folds):
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
