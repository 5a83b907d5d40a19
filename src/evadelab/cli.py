"""Command-line front end: train, attack, explain, evenness, robustness,
correlate, experiment.

Every subcommand exits 0 on success; failures print a machine-readable
``{"error": ..., "message": ...}`` JSON object to stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import evenness as evenness_mod
from . import models, pipeline, stats
from .attack import (ATTACK_METHODS, NOT_EVADABLE, AttackConfig,
                     _first_evading_budget, attack_scores_over_grid)
# Re-exported: studybench's traced run wraps cli.epsilon_min.
from .attack import epsilon_min  # noqa: F401
from .explain import (attribution_gradient, attribution_gradient_input,
                      attribution_integrated_gradients, top_features)
from .featurespace import SyntheticConfig, generate_synthetic, load_dataset
from .pipeline import (PRESETS, ClassifierSpec, ExperimentConfig, _write_csv,
                       run_experiment)


def _parse_grid(text: str) -> list[int]:
    """'1:50' -> 1..50 inclusive; '1,2,5' -> [1, 2, 5]."""
    if ":" in text:
        lo, hi = text.split(":", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(tok) for tok in text.split(",") if tok]


def _load_data(args) -> "LabeledDataset":
    if getattr(args, "synthetic", None):
        with open(args.synthetic, "r", encoding="utf-8") as fh:
            return generate_synthetic(SyntheticConfig(**json.load(fh)))
    return load_dataset(args.data, d_hint=getattr(args, "d_hint", None))


def _threshold_for(model, ds, args) -> float:
    if args.threshold is not None:
        return args.threshold
    _, threshold = models.detection_rate_at_fpr(model, ds, args.fpr)
    return threshold


def cmd_train(args) -> int:
    ds = _load_data(args)
    if args.preset:
        spec = PRESETS[args.preset]
    else:
        spec = ClassifierSpec("custom", args.kind, loss=args.loss, reg=args.reg,
                              gamma=args.gamma, weight_bound=args.bound)
    spec = replace(spec, epochs=args.epochs, learning_rate=args.learning_rate)
    if args.cv_reg:
        best, table = pipeline.grid_cv(ds, spec, _parse_floats(args.cv_reg),
                                       fpr=args.fpr, seed=args.seed)
        spec = replace(spec, reg=best)
        print(json.dumps({"cv_selected_reg": best,
                          "cv_table": [[r, v] for r, v in table]}))
    model = pipeline._train_spec(spec, ds, args.seed)
    models.save_model(model, args.out)
    info = {"out": str(args.out), "kind": spec.kind, "d": model.d}
    if args.test:
        test_ds = load_dataset(args.test, d_hint=model.d)
        rate, threshold = models.detection_rate_at_fpr(model, test_ds, args.fpr)
        info.update({"auc": models.auc(models.roc_curve(model, test_ds)),
                     "detection_rate": rate, "threshold": threshold,
                     "fpr": args.fpr})
    print(json.dumps(info))
    return 0


def _parse_floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok]


def cmd_attack(args) -> int:
    model = models.load_model(args.model)
    ds = load_dataset(args.data, d_hint=model.d)
    threshold = _threshold_for(model, ds, args)
    grid = _parse_grid(args.epsilon_grid) if args.epsilon_grid else [args.epsilon]
    eps_max = args.eps_max or max(grid)
    if eps_max < 1:
        raise ValueError("eps_max must be >= 1")

    malware_rows = [i for i, y in enumerate(ds.labels) if y == 1]
    samples = [ds.samples[i] for i in malware_rows]
    cfg = AttackConfig(1, eta=args.eta, max_iters=args.max_iters)
    # One attack over the grid and budgets 0..eps_max gives the grid scores,
    # the clean scores (budget 0, the first column) and eps_min.
    budgets = sorted(set(grid) | set(range(eps_max + 1)))
    scores = attack_scores_over_grid(model, samples, budgets, threshold, cfg,
                                     args.method)
    clean = scores[:, 0]
    eps_min = _first_evading_budget(scores, budgets, clean, threshold, eps_max)
    grid_cols = [budgets.index(eps) for eps in grid]

    rows_out = []
    for row, sid in enumerate(malware_rows):
        emin_txt = ("NOT_EVADABLE" if eps_min[row] == NOT_EVADABLE
                    else int(eps_min[row]))
        for eps, col in zip(grid, grid_cols):
            after = float(scores[row, col])
            rows_out.append([sid, eps, float(clean[row]), after,
                             int(after < threshold), emin_txt])
    _write_csv(args.out, ["sample_id", "eps", "score_before", "score_after",
                          "evaded", "eps_min"], rows_out)
    print(json.dumps({"out": str(args.out), "threshold": threshold,
                      "n_samples": len(samples), "grid": grid}))
    return 0


def cmd_explain(args) -> int:
    model = models.load_model(args.model)
    ds = load_dataset(args.data, d_hint=model.d)
    rows_out = []
    for sid, x in enumerate(ds.samples):
        if args.method == "gradient":
            r = attribution_gradient(model, x)
        elif args.method == "gradient_input":
            r = attribution_gradient_input(model, x)
        else:
            r = attribution_integrated_gradients(model, x, p=args.p)
        nz = np.flatnonzero(r.values)
        if nz.size == 0:
            # keep all-zero samples visible: sentinel feature -1
            rows_out.append([sid, -1, 0.0])
            continue
        for i in nz:
            rows_out.append([sid, int(i), float(r.values[i])])
        if args.top:
            report = [{"feature": i, "relevance": v, "percent": pct}
                      for i, v, pct in top_features(r, args.top)]
            print(json.dumps({"sample_id": sid, "top": report}))
    _write_csv(args.out, ["sample_id", "feature", "relevance"], rows_out)
    return 0


def cmd_evenness(args) -> int:
    by_sample: dict[str, list[float]] = {}
    with open(args.relevances, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        for rec in reader:
            by_sample.setdefault(rec["sample_id"], [])
            if int(rec["feature"]) >= 0:
                by_sample[rec["sample_id"]].append(float(rec["relevance"]))

    want_e1 = args.metric in ("e1", "both")
    want_e2 = args.metric in ("e2", "both")
    rows_out = []
    e1s, e2s = [], []
    for sid, values in by_sample.items():
        arr = np.asarray(values) if values else np.zeros(1)
        try:
            e1 = evenness_mod.evenness_e1(arr, args.m) if want_e1 else None
            e2 = evenness_mod.evenness_e2(arr, args.m) if want_e2 else None
            if e1 is not None:
                e1s.append(e1)
            if e2 is not None:
                e2s.append(e2)
            rows_out.append([sid, e1, e2, 1])
        except evenness_mod.UndefinedEvennessError:
            rows_out.append([sid, None, None, 0])
    if e1s or e2s:
        rows_out.append(["average",
                         sum(e1s) / len(e1s) if e1s else None,
                         sum(e2s) / len(e2s) if e2s else None,
                         max(len(e1s), len(e2s))])
    _write_csv(args.out, ["sample_id", "e1", "e2", "defined"], rows_out)
    return 0


def cmd_robustness(args) -> int:
    from .robustness import robustness_from_scores

    model = models.load_model(args.model)
    ds = load_dataset(args.data, d_hint=model.d)
    threshold = _threshold_for(model, ds, args)
    grid = _parse_grid(args.eps_grid)
    samples = [x for x, y in zip(ds.samples, ds.labels) if y == 1]
    cfg = AttackConfig(1, eta=args.eta, max_iters=args.max_iters)
    scores = attack_scores_over_grid(model, samples, grid, threshold, cfg,
                                     args.method)
    result = robustness_from_scores(scores, grid, args.loss)
    _write_csv(args.out, ["eps", "robustness"],
               [[eps, result.per_eps[eps]] for eps in result.eps_grid])
    per_sample_path = Path(args.out).with_name(
        Path(args.out).stem + "_per_sample.csv")
    _write_csv(per_sample_path, ["sample_id", "robustness"],
               [[i, float(v)] for i, v in enumerate(result.per_sample)])
    print(json.dumps({"aggregate": result.aggregate, "loss": result.loss,
                      "threshold": threshold,
                      "per_sample_out": str(per_sample_path)}))
    return 0


def cmd_correlate(args) -> int:
    xs, ys = [], []
    with open(args.data, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        for rec in reader:
            try:
                x = float(rec[args.x])
                y = float(rec[args.y])
            except (ValueError, TypeError):
                continue  # footer / undefined rows
            xs.append(x)
            ys.append(y)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    fns = {"pearson": stats.pearson, "spearman": stats.spearman,
           "kendall": stats.kendall}
    rows_out = []
    for name in methods:
        rpt = fns[name](xs, ys)
        p_value = rpt.p_value
        if args.permutation and not rpt.degenerate:
            p_value = stats.permutation_pvalue(xs, ys, name, args.permutation,
                                               seed=args.seed)
        rows_out.append([name, rpt.coefficient, p_value, rpt.n,
                         int(rpt.degenerate)])
    _write_csv(args.out, ["method", "coefficient", "p_value", "n",
                          "degenerate"], rows_out)
    return 0


def cmd_experiment(args) -> int:
    cfg = ExperimentConfig.from_json_file(args.config)
    report = run_experiment(cfg, out_dir=args.out)
    failures = [c for c in report.cells if c.status != "ok"]
    print(json.dumps({
        "out": str(args.out),
        "cells": len(report.cells),
        "failed": [{"rep": c.rep, "classifier": c.spec.name, "error": c.error}
                   for c in failures],
    }))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evadelab",
        description="Sparse evasion attacks, attributions, and evenness/"
                    "robustness analysis for binary classifiers.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a classifier and save it")
    p.add_argument("--data", help="sparse text dataset")
    p.add_argument("--synthetic", help="JSON file with synthetic generator config")
    p.add_argument("--d-hint", type=int, default=None)
    p.add_argument("--preset", choices=sorted(PRESETS))
    p.add_argument("--kind", default="linear",
                   choices=["linear", "secsvm", "rbf"])
    p.add_argument("--loss", default="hinge",
                   choices=["hinge", "logistic", "squared"])
    p.add_argument("--reg", type=float, default=1.0)
    p.add_argument("--gamma", type=float, default=0.01)
    p.add_argument("--bound", type=float, default=0.25)
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--learning-rate", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cv-reg", help="comma list of reg values for 5-fold CV")
    p.add_argument("--fpr", type=float, default=0.01)
    p.add_argument("--test", help="held-out data to report metrics on")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("attack", help="attack malware samples and emit a CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--epsilon", type=int, default=10)
    p.add_argument("--epsilon-grid", help="'1:50' or comma list")
    p.add_argument("--eps-max", type=int, default=None,
                   help="search cap for eps_min (defaults to the grid max)")
    p.add_argument("--fpr", type=float, default=0.01)
    p.add_argument("--threshold", type=float, default=None,
                   help="use a fixed threshold instead of --fpr")
    p.add_argument("--method", default="auto", choices=ATTACK_METHODS)
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--max-iters", type=int, default=1000)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("explain", help="per-sample attributions as a CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--method", default="gradient_input",
                   choices=list(pipeline.ATTRIBUTION_METHODS))
    p.add_argument("--p", type=int, default=100)
    p.add_argument("--top", type=int, default=0,
                   help="also print the top-K features per sample")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("evenness", help="evenness metrics over a relevance CSV")
    p.add_argument("--relevances", required=True)
    p.add_argument("--metric", default="both", choices=["e1", "e2", "both"])
    p.add_argument("--m", type=int, default=1000)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evenness)

    p = sub.add_parser("robustness", help="per-budget and aggregate robustness")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--eps-grid", default="1:50")
    p.add_argument("--loss", default="hinge", choices=["hinge", "logistic"])
    p.add_argument("--fpr", type=float, default=0.01)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--method", default="auto", choices=ATTACK_METHODS)
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--max-iters", type=int, default=1000)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_robustness)

    p = sub.add_parser("correlate", help="correlation between two CSV columns")
    p.add_argument("--data", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--methods", default="pearson,spearman,kendall")
    p.add_argument("--permutation", type=int, default=0,
                   help="use a permutation p-value with N shuffles")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("experiment", help="run the full pipeline from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
