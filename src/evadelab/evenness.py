"""Evenness metrics over the top-m attributions of each row of a matrix.

Both metrics see only absolute values, so they are invariant to sign flips,
rescaling, and permutation.  A row whose top-m window is entirely zero has
no defined evenness; such samples are excluded from averages and counted.
``_evenness`` is the one path: it sorts |R| once per row, in place in its
one (n, d) copy of the magnitudes, keeps the m largest (zero-padded when a
row has fewer than m entries) and derives E1, E2 and the defined mask of
every row from that window.
``evenness_report`` builds the per-sample metrics and their averages from
it, and the scalar functions are one-row wrappers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .featurespace import _integer


class UndefinedEvennessError(ValueError):
    """All-zero top-m attribution window; the metrics divide by zero there."""


def _top_window(R, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(n, m) window of each row's m largest |values|, descending and
    zero-padded, and the mask of rows whose window is not all zero."""
    m = _integer("m", m, 1)
    R = np.asarray(R, dtype=np.float64)
    if R.ndim != 2:
        raise ValueError("attributions must be an (n, d) matrix")
    if not np.isfinite(R).all():
        raise ValueError("attributions must be finite")
    k = min(m, R.shape[1])
    # one (n, d) copy: |R|, sorted in place
    magnitudes = np.abs(R)
    magnitudes.sort(axis=1)
    window = np.zeros((R.shape[0], m))
    window[:, :k] = magnitudes[:, ::-1][:, :k]
    return window, window[:, 0] > 0.0


def _evenness(R, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(E1, E2, defined) of every row; both metrics are NaN where undefined,
    and E1 also at m = 1."""
    window, defined = _top_window(R, m)
    top = window[defined]
    e1 = np.full(window.shape[0], np.nan)
    e2 = np.full(window.shape[0], np.nan)
    e2[defined] = top.sum(axis=1) / top[:, 0] / m
    if m > 1:
        cums = np.cumsum(top, axis=1)
        e1[defined] = 2.0 / (m - 1.0) * (m - (cums / cums[:, -1:]).sum(axis=1))
    return e1, e2, defined


def _one_row(r, m: int) -> tuple[float, float]:
    e1, e2, defined = _evenness(np.asarray(r, dtype=np.float64)[None], m)
    if not defined[0]:
        raise UndefinedEvennessError(
            "evenness is undefined for an all-zero attribution window")
    return float(e1[0]), float(e2[0])


def evenness_e1(r, m: int) -> float:
    """Normalized complement of the cumulative concentration curve.

    2/(m-1) * (m - sum_k F(r,k)); 1 for a uniform window, 0 for a one-hot one.
    """
    return _one_row(r, _integer("m", m, 2))[0]


def evenness_e2(r, m: int) -> float:
    """(1/m) * l1/linf of the top-m window; ranges over [1/m, 1]."""
    return _one_row(r, m)[1]


@dataclass(frozen=True)
class EvennessReport:
    """Per-sample metrics (None where undefined) and their defined-set means."""

    per_sample_e1: tuple[float | None, ...]
    per_sample_e2: tuple[float | None, ...]
    averaged_e1: float
    averaged_e2: float
    n_undefined: int


def evenness_report(R, m: int) -> EvennessReport:
    """Both metrics for every row of the (n, d) attributions R plus their
    averages over the defined rows."""
    e1, e2, defined = _evenness(R, _integer("m", m, 2))
    if not defined.any():
        raise UndefinedEvennessError(
            "every sample has an undefined evenness; nothing to average")
    keep = defined.tolist()
    n_defined = sum(keep)
    return EvennessReport(
        tuple(v if ok else None for v, ok in zip(e1.tolist(), keep)),
        tuple(v if ok else None for v, ok in zip(e2.tolist(), keep)),
        math.fsum(e1[defined].tolist()) / n_defined,
        math.fsum(e2[defined].tolist()) / n_defined,
        len(keep) - n_defined,
    )
