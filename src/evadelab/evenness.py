"""Evenness metrics over the top-m attributions of a relevance vector.

Both metrics see only absolute values, so they are invariant to sign flips,
rescaling, and permutation.  A vector whose top-m window is entirely zero has
no defined evenness; such samples are excluded from averages and counted.
``evenness_report`` is the one path from a batch of attributions to the
per-sample metrics and their averages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .explain import RelevanceVector


class UndefinedEvennessError(ValueError):
    """All-zero top-m attribution window; the metrics divide by zero there."""


def _as_values(r) -> np.ndarray:
    if isinstance(r, RelevanceVector):
        return r.values
    return np.asarray(r, dtype=np.float64)


def _top_abs_desc(r, m: int) -> np.ndarray:
    """|values| of the m largest-magnitude entries, descending.

    Ties break toward the lower feature index; vectors shorter than m are
    padded with zeros inside the window.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    a = np.abs(_as_values(r))
    order = np.argsort(-a, kind="stable")
    top = a[order[:m]]
    if top.shape[0] < m:
        top = np.concatenate([top, np.zeros(m - top.shape[0])])
    if top[0] == 0.0:
        raise UndefinedEvennessError(
            "evenness is undefined for an all-zero attribution window")
    return top


def cumulative_ratio(r, k: int, m: int) -> float:
    """Share of the top-m absolute relevance mass held by the k largest."""
    if not 1 <= k <= m:
        raise ValueError("need 1 <= k <= m")
    top = _top_abs_desc(r, m)
    return float(top[:k].sum() / top.sum())


def evenness_e1(r, m: int) -> float:
    """Normalized complement of the cumulative concentration curve.

    2/(m-1) * (m - sum_k F(r,k)); 1 for a uniform window, 0 for a one-hot one.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    top = _top_abs_desc(r, m)
    cums = np.cumsum(top)
    f_sum = float((cums / cums[-1]).sum())
    return 2.0 / (m - 1.0) * (m - f_sum)


def evenness_e2(r, m: int) -> float:
    """(1/m) * l1/linf of the top-m window; ranges over [1/m, 1]."""
    top = _top_abs_desc(r, m)
    return float(top.sum() / top[0] / m)


@dataclass(frozen=True)
class EvennessReport:
    """Per-sample metrics (None where undefined) and their defined-set means."""

    per_sample_e1: tuple[float | None, ...]
    per_sample_e2: tuple[float | None, ...]
    m: int
    method: str
    averaged_e1: float
    averaged_e2: float
    n_undefined: int


def evenness_report(relevances, m: int, method: str = "") -> EvennessReport:
    """Both metrics for every sample plus their averages over defined samples."""
    e1s: list[float | None] = []
    e2s: list[float | None] = []
    n_undefined = 0
    for r in relevances:
        try:
            e1s.append(evenness_e1(r, m))
            e2s.append(evenness_e2(r, m))
        except UndefinedEvennessError:
            e1s.append(None)
            e2s.append(None)
            n_undefined += 1
    defined1 = [v for v in e1s if v is not None]
    defined2 = [v for v in e2s if v is not None]
    if not defined1:
        raise UndefinedEvennessError(
            "every sample has an undefined evenness; nothing to average")
    return EvennessReport(
        tuple(e1s), tuple(e2s), m, method,
        math.fsum(defined1) / len(defined1),
        math.fsum(defined2) / len(defined2),
        n_undefined,
    )
