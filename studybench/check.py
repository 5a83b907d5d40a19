"""Correctness check behind ``output_mismatches`` and ``failed_ops``.

On the default seed the outputs are compared with the stored reference in
``reference/``; on every seed they must also satisfy the invariants below.
A score disagrees when its detection decision differs or when
|delta score| > 1e-9.  Every problem is counted against the operation that
produced it, so a mismatch is a failed operation, not a crash.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from pathlib import Path

TOL = 1e-9
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
# Pairs kept per operation in a stored reference (evenly spaced samples, all
# budgets), which keeps the files small; rates and correlations are kept whole.
REFERENCE_SAMPLES_PER_OP = 5


def invariants(out: dict) -> Counter:
    """Problems per op: non-finite or rising scores, rates outside [0, 1],
    eps_min outside 0..eps_max, and curves that disagree with their pairs."""
    bad: Counter = Counter()
    thresholds = out["thresholds"]
    detected: dict = {}
    for key, _sid, eps, clean, score in out["pairs"]:
        if not (math.isfinite(score) and math.isfinite(clean)) \
                or score > clean + TOL:
            bad[key] += 1
        hits = detected.setdefault((key, eps), [0, 0])
        hits[0] += score >= thresholds[key]
        hits[1] += 1
    for key, eps, rate in out["rates"]:
        hits = detected.get((key, eps))
        if not 0.0 <= rate <= 1.0 or hits is None or rate != hits[0] / hits[1]:
            bad[key] += 1
    clean_of = {(p[0], p[1]): p[3] for p in out["pairs"]}
    for key, sid, value in out["eps_min"]:
        below = clean_of[(key, sid)] < thresholds[key]
        if value == "NOT_EVADABLE":
            ok = not below
        else:
            ok = (value == 0) == below and 0 <= value <= out["eps_max"]
        if not ok:
            bad[key] += 1
    for row in out["correlations"]:
        coef, p_value, degenerate = row[5], row[6], row[8]
        if not degenerate and not (abs(coef) <= 1.0 + TOL
                                   and 0.0 <= p_value <= 1.0):
            bad[row[0]] += 1
    return bad


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return abs(a - b) <= TOL


def compare(out: dict, ref: dict) -> Counter:
    """Reference items that the outputs miss or disagree with, per op."""
    bad: Counter = Counter()
    for key, t in ref["thresholds"].items():
        if not _close(out["thresholds"].get(key), t):
            bad[key] += 1
    pairs = {tuple(p[:3]): p[4] for p in out["pairs"]}
    for key, sid, eps, _clean, score in ref["pairs"]:
        got = pairs.get((key, sid, eps))
        t = ref["thresholds"][key]
        if got is None or (got < t) != (score < t) or abs(got - score) > TOL:
            bad[key] += 1
    rates = {tuple(r[:2]): r[2] for r in out["rates"]}
    for key, eps, rate in ref["rates"]:
        if rates.get((key, eps)) != rate:
            bad[key] += 1
    eps_min = {tuple(e[:2]): e[2] for e in out["eps_min"]}
    for key, sid, value in ref["eps_min"]:
        if eps_min.get((key, sid)) != value:
            bad[key] += 1
    corr = {tuple(r[:5]): r[5:] for r in out["correlations"]}
    for row in ref["correlations"]:
        got = corr.get(tuple(row[:5]))
        if got is None or not (_close(got[0], row[5])
                               and _close(got[1], row[6])
                               and got[2:] == row[7:]):
            bad[row[0]] += 1
    return bad


def reference_path(name: str) -> Path:
    return REFERENCE_DIR / f"{name}.json"


def load_reference(name: str, workload: dict, seed: int) -> dict | None:
    """The stored reference when it was made for this workload and seed."""
    path = reference_path(name)
    if not path.is_file():
        return None
    with open(path, encoding="utf-8") as fh:
        ref = json.load(fh)
    if ref["seed"] != seed or ref["workload"] != json.loads(
            json.dumps(workload)):
        return None
    return ref


def make_reference(out: dict, workload: dict, seed: int) -> dict:
    """A reference document from trusted outputs: all rates, thresholds,
    eps_min and correlations, and every budget of a spread of samples."""
    by_op: dict = {}
    for p in out["pairs"]:
        by_op.setdefault(p[0], {}).setdefault(p[1], []).append(p)
    kept = []
    for rows in by_op.values():
        sids = sorted(rows)
        step = max(1, math.ceil(len(sids) / REFERENCE_SAMPLES_PER_OP))
        for sid in sids[::step]:
            kept += rows[sid]
    return {"workload": workload, "seed": seed,
            "thresholds": out["thresholds"], "pairs": kept,
            "rates": out["rates"], "eps_min": out["eps_min"],
            "correlations": out["correlations"]}


def problems(out: dict, ref: dict | None) -> tuple[Counter, int]:
    """(problems per op, failed ops) for one call's outputs."""
    bad = invariants(out)
    if ref is not None:
        bad += compare(out, ref)
    failed = sum(1 for key, status in out["ops"].items()
                 if status != "ok" or bad[key])
    return bad, failed
