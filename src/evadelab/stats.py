"""Rank and linear correlation with asymptotic p-values.

Pearson and Spearman significance uses the Student-t transform
t = r * sqrt((n-2) / (1-r^2)); Kendall uses the tie-corrected normal
approximation of the concordant-minus-discordant statistic.  Inputs with
zero variance produce a degenerate report (undefined coefficient, no
p-value) instead of NaNs; non-finite inputs are rejected.

Ranks and pair counts come from sorts and counting sweeps in O(n) memory,
not from n x n pair tables: tie groups are the runs of equal adjacent values
of a sorted column, and the discordant pairs of Kendall's tau are the strict
inversions of y in (x, y) order, counted by a bottom-up merge (Knight,
"A Computer Method for Calculating Kendall's Tau with Ungrouped Data",
JASA 1966) of log2(n) levels, each one vectorized sort and binary search,
so O(n log n) per level at worst.  All counts are integers, so they equal
the pairwise counts exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, stdtr


@dataclass(frozen=True)
class CorrelationReport:
    method: str
    coefficient: float | None
    p_value: float | None
    n: int
    degenerate: bool

    def __post_init__(self):
        if self.degenerate:
            if self.coefficient is not None or self.p_value is not None:
                raise ValueError("degenerate reports carry no coefficient/p-value")
        else:
            if self.coefficient is None or self.p_value is None:
                raise ValueError("non-degenerate reports need both values")
            if not -1.0 <= self.coefficient <= 1.0:
                raise ValueError("coefficient must lie in [-1, 1]")
            if not 0.0 <= self.p_value <= 1.0:
                raise ValueError("p-value must lie in [0, 1]")


def _validated(xs, ys) -> tuple[np.ndarray, np.ndarray, int]:
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.ndim != 1 or y.ndim != 1:
        raise ValueError("inputs must be 1-d sequences")
    if x.shape[0] != y.shape[0]:
        raise ValueError(f"length mismatch: {x.shape[0]} vs {y.shape[0]}")
    if x.shape[0] < 3:
        raise ValueError("need at least 3 observations")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("inputs must be finite (no NaN or inf)")
    return x, y, x.shape[0]


def _pearson_r(x: np.ndarray, y: np.ndarray) -> float | None:
    # Exact constancy check: mean subtraction alone can leave ~1e-16 noise
    # on a constant series, which must still count as zero variance.
    if np.all(x == x[0]) or np.all(y == y[0]):
        return None
    xc = x - x.mean()
    yc = y - y.mean()
    sx = float(xc @ xc)
    sy = float(yc @ yc)
    if sx == 0.0 or sy == 0.0:
        return None
    r = float(xc @ yc) / math.sqrt(sx * sy)
    return min(1.0, max(-1.0, r))


def _t_pvalue(r: float, n: int) -> float:
    if abs(r) >= 1.0:
        return 0.0
    t = r * math.sqrt((n - 2) / (1.0 - r * r))
    return 2.0 * float(stdtr(n - 2, -abs(t)))


def pearson(xs, ys) -> CorrelationReport:
    """Sample linear correlation with a two-sided Student-t p-value."""
    x, y, n = _validated(xs, ys)
    r = _pearson_r(x, y)
    if r is None:
        return CorrelationReport("pearson", None, None, n, True)
    return CorrelationReport("pearson", r, _t_pvalue(r, n), n, False)


def _run_sizes(breaks: np.ndarray, n: int) -> np.ndarray:
    """Lengths of the runs of equal values of a sorted length-n array, in
    order, from breaks[i] = (v[i + 1] != v[i]): the tie groups."""
    return np.diff(np.flatnonzero(np.r_[True, breaks]), append=n)


def _tied_pairs(sizes: np.ndarray) -> int:
    return int((sizes * (sizes - 1) // 2).sum())


def midranks(values) -> np.ndarray:
    """1-based ranks with ties assigned the mean of their rank range."""
    v = np.asarray(values, dtype=np.float64)
    order = np.argsort(v, kind="stable")
    sorted_v = v[order]
    sizes = _run_sizes(sorted_v[1:] != sorted_v[:-1], v.shape[0])
    end = np.cumsum(sizes) - 1
    start = end - sizes + 1
    ranks = np.empty(v.shape[0])
    ranks[order] = np.repeat(0.5 * (start + end) + 1.0, sizes)
    return ranks


def spearman(xs, ys) -> CorrelationReport:
    """Pearson correlation of midranks, with the same t-transform p-value."""
    x, y, n = _validated(xs, ys)
    r = _pearson_r(midranks(x), midranks(y))
    if r is None:
        return CorrelationReport("spearman", None, None, n, True)
    return CorrelationReport("spearman", r, _t_pvalue(r, n), n, False)


def _strict_inversions(r: np.ndarray) -> int:
    """Pairs i < j with r[i] > r[j], for integer r in [0, n).

    A bottom-up merge sort: at each level every right half of a block of
    2w counts the elements of its left half that are greater, with one
    searchsorted over the left halves keyed by block offset (they are sorted
    from the level before), and one stable sort of the same keys merges the
    halves.
    """
    n = r.shape[0]
    a = r.astype(np.int64)
    pos = np.arange(n)
    total = 0
    w = 1
    while w < n:
        block = pos // (2 * w)
        right = (pos // w) % 2 == 1
        keys = block * n + a
        at_most = np.searchsorted(keys[~right], keys[right], side="right")
        total += int((w * (block[right] + 1) - at_most).sum())
        a = np.sort(keys, kind="stable") - block * n
        w *= 2
    return total


def _kendall_counts(x: np.ndarray, y: np.ndarray):
    """(concordant, discordant, tied, x tie groups, y tie groups) of
    validated inputs; the groups are the _run_sizes of the sorted columns."""
    n = x.shape[0]
    order = np.lexsort((y, x))
    xs, ys = x[order], y[order]
    y_sorted = np.sort(y)
    x_breaks = xs[1:] != xs[:-1]
    x_groups = _run_sizes(x_breaks, n)
    y_groups = _run_sizes(y_sorted[1:] != y_sorted[:-1], n)
    tied = (_tied_pairs(x_groups) + _tied_pairs(y_groups)
            - _tied_pairs(_run_sizes(x_breaks | (ys[1:] != ys[:-1]), n)))
    # In (x, y) order a pair tied in x is never a strict y inversion, so the
    # strict inversions of y are exactly the discordant pairs.
    discordant = _strict_inversions(np.searchsorted(y_sorted, ys))
    concordant = n * (n - 1) // 2 - tied - discordant
    return concordant, discordant, tied, x_groups, y_groups


def kendall(xs, ys) -> CorrelationReport:
    """Tie-corrected tau-b with a normal approximation for the p-value."""
    x, y, n = _validated(xs, ys)
    concordant, discordant, _, tx, ty = _kendall_counts(x, y)
    s = concordant - discordant
    n0 = n * (n - 1) / 2.0
    tx = tx[tx > 1].astype(np.float64)
    ty = ty[ty > 1].astype(np.float64)
    t_x = float((tx * (tx - 1) / 2.0).sum())
    t_y = float((ty * (ty - 1) / 2.0).sum())
    denom_x = n0 - t_x
    denom_y = n0 - t_y
    if denom_x == 0.0 or denom_y == 0.0:
        return CorrelationReport("kendall", None, None, n, True)
    tau = s / math.sqrt(denom_x * denom_y)
    tau = min(1.0, max(-1.0, tau))

    v0 = n * (n - 1) * (2 * n + 5)
    vt = float((tx * (tx - 1) * (2 * tx + 5)).sum())
    vu = float((ty * (ty - 1) * (2 * ty + 5)).sum())
    v1 = float((tx * (tx - 1)).sum()) * float((ty * (ty - 1)).sum()) \
        / (2.0 * n * (n - 1))
    v2 = 0.0
    if n > 2:
        v2 = float((tx * (tx - 1) * (tx - 2)).sum()) \
            * float((ty * (ty - 1) * (ty - 2)).sum()) \
            / (9.0 * n * (n - 1) * (n - 2))
    var_s = (v0 - vt - vu) / 18.0 + v1 + v2
    if var_s <= 0.0:
        p = 1.0 if s == 0 else 0.0
    else:
        z = s / math.sqrt(var_s)
        p = 2.0 * float(ndtr(-abs(z)))
    return CorrelationReport("kendall", tau, min(1.0, p), n, False)


# The one name -> function mapping of the coefficients.
_BY_NAME = {"pearson": pearson, "spearman": spearman, "kendall": kendall}
METHODS = tuple(_BY_NAME)


def _by_name(method: str):
    """The coefficient function called ``method``; ValueError for any name
    outside METHODS."""
    if method not in _BY_NAME:
        raise ValueError(f"unknown correlation method {method!r}; expected "
                         f"one of {METHODS}")
    return _BY_NAME[method]


def correlation_suite(evenness_values, robustness_values) -> list[CorrelationReport]:
    """All three coefficients, in METHODS order, for one aligned pair of
    per-sample series."""
    return [fn(evenness_values, robustness_values) for fn in _BY_NAME.values()]


def permutation_pvalue(xs, ys, method: str = "spearman", n_perm: int = 1000,
                       seed: int = 0) -> float:
    """Two-sided permutation p-value for tiny samples where asymptotics are rough."""
    if n_perm < 1:
        raise ValueError(f"n_perm must be >= 1, got {n_perm}")
    fn = _by_name(method)
    observed = fn(xs, ys)
    if observed.degenerate:
        raise ValueError("permutation test is undefined for degenerate inputs")
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    rng = np.random.default_rng(seed)
    hits = 0
    for _ in range(n_perm):
        rep = fn(x, rng.permutation(y))
        if rep.degenerate or abs(rep.coefficient) >= abs(observed.coefficient):
            hits += 1
    return (hits + 1) / (n_perm + 1)
