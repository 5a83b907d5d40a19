"""Rank and linear correlation with asymptotic p-values.

Pearson and Spearman significance uses the Student-t transform
t = r * sqrt((n-2) / (1-r^2)); Kendall uses the tie-corrected normal
approximation of the concordant-minus-discordant statistic.  Inputs with
zero variance produce a degenerate report (undefined coefficient, no
p-value) instead of NaNs; non-finite inputs are rejected.

Both tails come from ``math`` alone.  The two-sided normal tail is
erfc(|z| / sqrt(2)).  The two-sided Student-t tail on nu = n - 2 degrees of
freedom is the regularized incomplete beta function I_x(nu/2, 1/2) at
x = nu / (nu + t^2), evaluated by its continued fraction with the modified
Lentz method and the prefactor taken in logs (Numerical Recipes, 3rd ed.,
section 6.4).  Against scipy.special's stdtr, the t tail stays within
2e-11 relative for 4 <= n <= 5000 wherever it exceeds 1e-290; the error
grows about linearly in n, from lgamma's rounding at nu/2.  At nu = 1 and
nu = 2 it matches the closed forms to 4e-15 (stdtr itself is off by up to
3e-9 at nu = 1 and |t| near 1e-8).  The normal tail is within 3e-13 of
scipy.special's ndtr for |z| <= 40.

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


def _either_constant(x: np.ndarray, y: np.ndarray) -> bool:
    """Whether either series is constant, which makes every coefficient
    undefined.  The check is exact: mean subtraction alone can leave ~1e-16
    noise on a constant series, which must still count as zero variance."""
    return bool((x == x[0]).all() or (y == y[0]).all())


def _pearson_r(x: np.ndarray, y: np.ndarray) -> float | None:
    if _either_constant(x, y):
        return None
    xc = x - x.mean()
    yc = y - y.mean()
    sx = float(xc @ xc)
    sy = float(yc @ yc)
    if sx == 0.0 or sy == 0.0:
        return None
    r = float(xc @ yc) / math.sqrt(sx * sy)
    return min(1.0, max(-1.0, r))


# The continued fraction takes at most 80 terms for 3 <= n <= 1e9 (most near
# |t| = sqrt(3), where the two branches of _t_pvalue meet).
_CF_MAX_TERMS = 1000
_CF_TINY = 1e-300


def _beta_cf(a: float, b: float, x: float) -> float:
    """I_x(a, b) * a * B(a, b) / (x^a (1-x)^b) for x < (a+1) / (a+b+2), by
    the modified Lentz method; ArithmeticError if it does not converge."""
    def nonzero(v):
        return v if abs(v) > _CF_TINY else _CF_TINY
    c = 1.0
    d = h = 1.0 / nonzero(1.0 - (a + b) * x / (a + 1.0))
    for m in range(1, _CF_MAX_TERMS + 1):
        even = m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m))
        odd = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))
        for coeff in (even, odd):
            d = 1.0 / nonzero(1.0 + coeff * d)
            c = nonzero(1.0 + coeff / c)
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            return h
    raise ArithmeticError(f"the incomplete beta continued fraction did not "
                          f"converge in {_CF_MAX_TERMS} terms at a={a}, "
                          f"b={b}, x={x}")


def _t_pvalue(r: float, n: int) -> float:
    """Two-sided Student-t tail of r's t statistic on n - 2 degrees of
    freedom: I_x(nu/2, 1/2) with x = nu / (nu + t^2)."""
    if abs(r) >= 1.0:
        return 0.0
    nu = n - 2
    t = r * math.sqrt(nu / (1.0 - r * r))
    t2 = t * t
    if t2 == 0.0:
        return 1.0
    x = nu / (nu + t2)
    a, b = nu / 2.0, 0.5
    # log(x) = -log1p(t2/nu) and log(1-x) = -log1p(nu/t2), without the
    # cancellation of forming 1 - x
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     - a * math.log1p(t2 / nu) - b * math.log1p(nu / t2))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, t2 / (nu + t2)) / b


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
    # a constant series is degenerate before it is ranked
    r = (None if _either_constant(x, y)
         else _pearson_r(midranks(x), midranks(y)))
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
    # before counting; a series that is not constant has more than one tie
    # group, so neither denominator below can be 0
    if _either_constant(x, y):
        return CorrelationReport("kendall", None, None, n, True)
    concordant, discordant, _, tx, ty = _kendall_counts(x, y)
    s = concordant - discordant
    n0 = n * (n - 1) / 2.0
    tx = tx[tx > 1].astype(np.float64)
    ty = ty[ty > 1].astype(np.float64)
    t_x = float((tx * (tx - 1) / 2.0).sum())
    t_y = float((ty * (ty - 1) / 2.0).sum())
    tau = s / math.sqrt((n0 - t_x) * (n0 - t_y))
    tau = min(1.0, max(-1.0, tau))

    v0 = n * (n - 1) * (2 * n + 5)
    vt = float((tx * (tx - 1) * (2 * tx + 5)).sum())
    vu = float((ty * (ty - 1) * (2 * ty + 5)).sum())
    v1 = float((tx * (tx - 1)).sum()) * float((ty * (ty - 1)).sum()) \
        / (2.0 * n * (n - 1))
    v2 = float((tx * (tx - 1) * (tx - 2)).sum()) \
        * float((ty * (ty - 1) * (ty - 2)).sum()) \
        / (9.0 * n * (n - 1) * (n - 2))
    var_s = (v0 - vt - vu) / 18.0 + v1 + v2
    if var_s <= 0.0:
        p = 1.0 if s == 0 else 0.0
    else:
        z = s / math.sqrt(var_s)
        p = math.erfc(abs(z) / math.sqrt(2.0))
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
