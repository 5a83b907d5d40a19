"""Command-line front end: train, attack, explain, evenness, robustness,
correlate, experiment.

Every subcommand exits 0 on success; failures print a machine-readable
``{"error": ..., "message": ...}`` JSON object to stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import evenness as evenness_mod
from . import models, pipeline, stats
from .attack import (_MAX_ITERS, ATTACK_METHODS, NOT_EVADABLE,
                     _first_evading_budget, attack_scores_over_grid)
# Re-exported: studybench's traced run wraps cli.epsilon_min.
from .attack import epsilon_min  # noqa: F401
from .explain import top_features
from .featurespace import (SyntheticConfig, _ascii_digits, _integer,
                           generate_synthetic, load_dataset)
from .pipeline import PRESETS, ExperimentConfig, _write_csv, run_experiment
from .robustness import _check_grid, _repeated, robustness_from_scores

# One real-valued flag value: an optional sign, then ASCII digits with an
# optional fraction and exponent, or inf.
_DECIMAL = re.compile(
    r"[+-]?(?:inf|(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)")
# The real-valued flags and the integer flags: argparse keeps their text,
# and main parses it with _decimal or _whole, so that a bad value gets the
# JSON error.
_REAL_FLAGS = ("--reg", "--gamma", "--bound", "--learning-rate", "--fpr",
               "--threshold")
_INT_FLAGS = ("--max-iters", "--eps-max", "--p", "--m", "--top", "--epochs",
              "--seed", "--d-hint", "--permutation")


def _budget(token: str, flag: str) -> int:
    """One budget of ``flag``: ASCII digits, with surrounding whitespace
    (int() would also take "1_0", "+3" and other scripts' digits)."""
    digits = token.strip()
    if not _ascii_digits(digits):
        raise ValueError(f"{flag} budget {token!r} is not ASCII digits")
    return int(digits)


def _whole(token: str, flag: str) -> int:
    """One integer value of ``flag``: an optional sign, then ASCII digits
    (int() would also take "1_0", surrounding whitespace and other scripts'
    digits).  The setting that reads it checks its range."""
    digits = token[1:] if token[:1] in ("+", "-") else token
    if not _ascii_digits(digits):
        raise ValueError(f"{flag} value {token!r} is not an integer")
    return int(token)


def _decimal(token: str, flag: str) -> float:
    """One real value of ``flag`` (float() would also take "1_0",
    surrounding whitespace, "infinity", "nan" and other scripts' digits)."""
    if not _DECIMAL.fullmatch(token):
        raise ValueError(f"{flag} value {token!r} is not a decimal number")
    return float(token)


def _parse_grid(text: str, flag: str) -> list[int]:
    """'1:50' -> 1..50 inclusive; '1,2,5' -> [1, 2, 5]; the value of
    ``flag``, which must hold at least one budget and none twice."""
    if ":" in text:
        lo, hi = text.split(":", 1)
        grid = list(range(_budget(lo, flag), _budget(hi, flag) + 1))
    else:
        grid = [_budget(tok, flag) for tok in text.split(",") if tok.strip()]
    if not grid:
        raise ValueError(f"{flag} {text!r} holds no budget")
    repeated = _repeated(grid)
    if repeated:
        raise ValueError(f"{flag} {text!r} repeats budget(s) {repeated}")
    return grid


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
    # the spec flags that are given override the preset, or ClassifierSpec's
    # defaults without one
    flags = {"kind": args.kind, "loss": args.loss, "reg": args.reg,
             "gamma": args.gamma, "weight_bound": args.bound,
             "epochs": args.epochs, "learning_rate": args.learning_rate}
    entry = {key: value for key, value in flags.items() if value is not None}
    if args.preset:
        entry["preset"] = args.preset
    else:
        entry = {"name": "custom", "kind": "linear", **entry}
    spec = pipeline._roster_entry(entry)
    if args.cv_reg:
        best, table = pipeline.grid_cv(ds, spec,
                                       _parse_floats(args.cv_reg, "--cv-reg"),
                                       fpr=args.fpr, seed=args.seed)
        spec = replace(spec, reg=best)
        print(json.dumps({"cv_selected_reg": best,
                          "cv_table": [[r, v] for r, v in table]}))
    model = pipeline._train_spec(spec, ds, args.seed)
    models.save_model(model, args.out)
    info = {"out": str(args.out), "kind": spec.kind, "d": model.d}
    if args.test:
        test_ds = load_dataset(args.test, d_hint=model.d)
        # the test set is scored once, for the threshold and for the ROC
        scores = models._dataset_scores(model, test_ds)
        rate, threshold = models._rate_at_fpr(scores, test_ds.labels, args.fpr)
        info.update({"auc": models.auc(models._roc_points(scores,
                                                          test_ds.labels)),
                     "detection_rate": rate, "threshold": threshold,
                     "fpr": args.fpr})
    print(json.dumps(info))
    return 0


def _parse_floats(text: str, flag: str) -> list[float]:
    """'0.1,1,10' -> [0.1, 1.0, 10.0]: the comma list of ``flag``."""
    return [_decimal(tok, flag) for tok in text.split(",") if tok]


def _attack_malware(args, budgets) -> tuple[list[int], float, np.ndarray]:
    """Attack the malware rows of --data at every budget: their row ids in
    --data, the threshold (--threshold, or the one at --fpr) and their
    (n, len(budgets)) scores."""
    model = models.load_model(args.model)
    ds = load_dataset(args.data, d_hint=model.d)
    threshold = _threshold_for(model, ds, args)
    rows = np.flatnonzero(ds.labels == 1)
    scores = attack_scores_over_grid(model, ds.samples[rows], budgets,
                                     threshold, args.max_iters, args.method)
    return rows.tolist(), threshold, scores


def cmd_attack(args) -> int:
    grid = _parse_grid(args.epsilon_grid, "--epsilon-grid")
    eps_max = _integer("eps_max", max(grid) if args.eps_max is None
                       else args.eps_max, 1)
    # One attack over the grid and budgets 0..eps_max gives the grid scores,
    # the clean scores (budget 0, the first column) and eps_min.
    budgets = sorted(set(grid) | set(range(eps_max + 1)))
    malware_rows, threshold, scores = _attack_malware(args, budgets)
    clean = scores[:, 0]
    eps_min = _first_evading_budget(scores, budgets, threshold, eps_max)
    grid_cols = [budgets.index(eps) for eps in grid]

    rows_out = []
    for row, sid in enumerate(malware_rows):
        emin_txt = ("NOT_EVADABLE" if eps_min[row] == NOT_EVADABLE
                    else int(eps_min[row]))
        for eps, col in zip(grid, grid_cols):
            after = float(scores[row, col])
            rows_out.append([sid, eps, float(clean[row]), after,
                             int(after < threshold), emin_txt])
    # csv.writer is fast enough here: a grid is a few budgets per sample,
    # not the 50 of a study's score table, which pipeline._write_score_table
    # renders a block at a time, each run of equal scores formatted once
    _write_csv(args.out, ["sample_id", "eps", "score_before", "score_after",
                          "evaded", "eps_min"], rows_out)
    print(json.dumps({"out": str(args.out), "threshold": threshold,
                      "n_samples": len(malware_rows), "grid": grid}))
    return 0


def cmd_explain(args) -> int:
    model = models.load_model(args.model)
    ds = load_dataset(args.data, d_hint=model.d)
    rows_out = []
    R = pipeline._attribution(args.method, model, ds.samples, args.p)
    for sid, r in enumerate(R):
        nz = np.flatnonzero(r)
        if nz.size == 0:
            # keep all-zero samples visible: sentinel feature -1
            rows_out.append([sid, -1, 0.0])
            continue
        for i in nz:
            rows_out.append([sid, int(i), float(r[i])])
        if args.top:
            report = [{"feature": i, "relevance": v, "percent": pct}
                      for i, v, pct in top_features(r, args.top)]
            print(json.dumps({"sample_id": sid, "top": report}))
    _write_csv(args.out, ["sample_id", "feature", "relevance"], rows_out)
    return 0


def _csv_records(path, columns: list[tuple[str, str]]):
    """The rows of the CSV file ``path`` as dicts, once its header row is
    known to hold each ``(what, column)`` of ``columns``; a missing column
    is named with ``what`` (the flag that names it, or "column")."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        for what, column in columns:
            if column not in header:
                raise ValueError(f"{what} {column!r} is not in the header "
                                 f"row {header} of {path}")
        yield from reader


def cmd_evenness(args) -> int:
    by_sample: dict[str, list[float]] = {}
    columns = [("column", name) for name in ("sample_id", "feature",
                                             "relevance")]
    for rec in _csv_records(args.relevances, columns):
        by_sample.setdefault(rec["sample_id"], [])
        if int(rec["feature"]) >= 0:
            by_sample[rec["sample_id"]].append(float(rec["relevance"]))

    header = ["sample_id", "e1", "e2", "defined"]
    # zero-padded: a zero never enters a top-m window ahead of a non-zero
    width = max(map(len, by_sample.values()), default=0)
    R = np.zeros((len(by_sample), width))
    for row, values in enumerate(by_sample.values()):
        R[row, :len(values)] = values
    try:
        report = evenness_mod.evenness_report(R, args.m)
    except evenness_mod.UndefinedEvennessError:
        # no sample has a defined evenness: their rows, and no footer
        _write_csv(args.out, header, [[sid, None, None, 0] for sid in by_sample])
        return 0
    keep_e1 = args.metric in ("e1", "both")
    keep_e2 = args.metric in ("e2", "both")
    rows_out = [[sid, e1 if keep_e1 else None, e2 if keep_e2 else None,
                 int(e1 is not None)]
                for sid, e1, e2 in zip(by_sample, report.per_sample_e1,
                                       report.per_sample_e2)]
    rows_out.append(["average", report.averaged_e1 if keep_e1 else None,
                     report.averaged_e2 if keep_e2 else None,
                     len(by_sample) - report.n_undefined])
    _write_csv(args.out, header, rows_out)
    return 0


def cmd_robustness(args) -> int:
    grid = _parse_grid(args.eps_grid, "--eps-grid")
    _check_grid(grid)
    malware_rows, threshold, scores = _attack_malware(args, grid)
    result = robustness_from_scores(scores, grid, args.loss)
    _write_csv(args.out, ["eps", "robustness"],
               [[eps, result.per_eps[eps]] for eps in result.eps_grid])
    per_sample_path = Path(args.out).with_name(
        Path(args.out).stem + "_per_sample.csv")
    _write_csv(per_sample_path, ["sample_id", "robustness"],
               [[sid, float(v)] for sid, v in zip(malware_rows,
                                                  result.per_sample)])
    print(json.dumps({"aggregate": result.aggregate, "loss": result.loss,
                      "threshold": threshold,
                      "per_sample_out": str(per_sample_path)}))
    return 0


def cmd_correlate(args) -> int:
    xs, ys = [], []
    for rec in _csv_records(args.data, [("--x", args.x), ("--y", args.y)]):
        # a sample_id that is not an integer, such as the "average" of an
        # evenness file's footer, marks no sample
        if "sample_id" in rec and not _ascii_digits(rec["sample_id"] or ""):
            continue
        try:
            x = float(rec[args.x])
            y = float(rec[args.y])
        except (ValueError, TypeError):
            continue  # undefined rows
        xs.append(x)
        ys.append(y)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    rows_out = []
    for name in methods:
        rpt = stats._by_name(name)(xs, ys)
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
    if not report.ok_cells():
        raise RuntimeError("every cell failed: " + "; ".join(
            f"rep {c.rep} {c.spec.name}: {c.error}" for c in failures))
    print(json.dumps({
        "out": str(args.out),
        "cells": len(report.cells),
        "failed": [{"rep": c.rep, "classifier": c.spec.name, "error": c.error}
                   for c in failures],
    }))
    return 0


def _add_attack_flags(p: argparse.ArgumentParser) -> None:
    """The flags that ``attack`` and ``robustness`` share."""
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--fpr", default="0.01")
    p.add_argument("--threshold", default=None,
                   help="use a fixed threshold instead of --fpr")
    p.add_argument("--method", default="auto", choices=ATTACK_METHODS)
    p.add_argument("--max-iters", default=str(_MAX_ITERS))
    p.add_argument("--out", required=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evadelab",
        description="Sparse evasion attacks, attributions, and evenness/"
                    "robustness analysis for binary classifiers.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a classifier and save it")
    p.add_argument("--data", help="sparse text dataset")
    p.add_argument("--synthetic", help="JSON file with synthetic generator config")
    p.add_argument("--d-hint")
    p.add_argument("--preset", choices=sorted(PRESETS))
    p.add_argument("--kind", choices=["linear", "secsvm", "rbf"],
                   help="default: the preset's, else linear")
    p.add_argument("--loss", choices=["hinge", "logistic", "squared"])
    p.add_argument("--reg")
    p.add_argument("--gamma",
                   help="RBF kernel width, rbf kind only (default 0.01)")
    p.add_argument("--bound",
                   help="weight box [-bound, bound], secsvm kind only "
                        "(default 0.25)")
    p.add_argument("--epochs")
    p.add_argument("--learning-rate")
    p.add_argument("--seed", default="0")
    p.add_argument("--cv-reg", help="comma list of reg values for 5-fold CV")
    p.add_argument("--fpr", default="0.01")
    p.add_argument("--test", help="held-out data to report metrics on")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("attack", help="attack malware samples and emit a CSV")
    _add_attack_flags(p)
    p.add_argument("--epsilon-grid", default="10",
                   help="'1:50', a comma list, or one budget")
    p.add_argument("--eps-max",
                   help="search cap for eps_min (defaults to the grid max)")
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("explain", help="per-sample attributions as a CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--method", default="gradient_input",
                   choices=list(pipeline.ATTRIBUTION_METHODS))
    p.add_argument("--p", default="100")
    p.add_argument("--top", default="0",
                   help="also print the top-K features per sample")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("evenness", help="evenness metrics over a relevance CSV")
    p.add_argument("--relevances", required=True)
    p.add_argument("--metric", default="both", choices=["e1", "e2", "both"])
    p.add_argument("--m", default="1000")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evenness)

    p = sub.add_parser("robustness", help="per-budget and aggregate robustness")
    _add_attack_flags(p)
    p.add_argument("--eps-grid", default="1:50")
    p.add_argument("--loss", default="hinge", choices=["hinge", "logistic"])
    p.set_defaults(func=cmd_robustness)

    p = sub.add_parser("correlate", help="correlation between two CSV columns")
    p.add_argument("--data", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--methods", default="pearson,spearman,kendall")
    p.add_argument("--permutation", default="0",
                   help="use a permutation p-value with N shuffles")
    p.add_argument("--seed", default="0")
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
        for flags, parse in ((_REAL_FLAGS, _decimal), (_INT_FLAGS, _whole)):
            for flag in flags:
                dest = flag[2:].replace("-", "_")
                if getattr(args, dest, None) is not None:
                    setattr(args, dest, parse(getattr(args, dest), flag))
        return args.func(args)
    except Exception as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
