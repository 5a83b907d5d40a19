"""Gradient-based feature attributions of the malicious-class score.

Each method takes an (n, d) 0/1 sample matrix and returns one finite,
writable (n, d) float64 matrix whose row i attributes f(x_i) to the
features.  Gradient is one ``gradient_batch`` call on the sample matrix and
Gradient*Input masks it by that matrix.  Integrated Gradients is the
right-endpoint Riemann sum of Sundararajan et al. (ICML 2017) along the
straight path from the all-zeros baseline, taken without any (p, d) array
of path points: a linear model's constant gradient is summed once per call,
and a kernel model's sum is taken in closed form over the integer squared
distances of 0/1 points.  In both, row i does not depend on the other rows.
"""

from __future__ import annotations

import numpy as np

from .featurespace import _binary_rows, _integer
from .models import KernelModel, LinearModel, TrainedModel

# Values per chunk of integrated-gradients path terms: 4 MiB of float64.
_IG_CHUNK_VALUES = 2 ** 19
# Path points per chunk of the kernel closed form; fixed, so that a row's
# rounding does not depend on what else is in the batch.
_IG_KERNEL_POINTS = 2 ** 14


def _finite(R: np.ndarray) -> np.ndarray:
    if not np.isfinite(R).all():
        raise ValueError("attributions must be finite")
    return R


def attribution_gradient(model: TrainedModel, samples) -> np.ndarray:
    """Row i is grad f(x_i)."""
    # the bool samples: a kernel model's sums of 0/1 products are the same
    # integers, and True * t and False * t are 1.0 * t and 0.0 * t, so no
    # float64 copy of the samples is held beside the gradient
    R = model.gradient_batch(_binary_rows(samples, model.d, bool))
    if isinstance(model, LinearModel):
        # a read-only broadcast of the weights; a kernel model's is fresh
        R = np.array(R)
    return _finite(R)


def attribution_gradient_input(model: TrainedModel, samples) -> np.ndarray:
    """Row i is grad f(x_i) * x_i, so absent features get exactly zero."""
    # the Gradient matrix masked in place by the bool samples, as g * 1.0
    # and g * 0.0, so no float64 copy of the samples is held beside it
    R = attribution_gradient(model, samples)
    R *= _binary_rows(samples, model.d, bool)
    return R


def attribution_integrated_gradients(model: TrainedModel, samples,
                                     p: int = 100) -> np.ndarray:
    """Right-endpoint path sum of gradients from the all-zeros baseline to
    each x.

    r_i = x_i * (1/p) * sum_{k=1..p} grad_i f(t_k x) with t_k = k/p.
    """
    p = _integer("p", p, 1)
    # the bool samples, so that R is the one (n, d) float64 array a linear
    # model allocates; True * g and False * g are 1.0 * g and 0.0 * g
    X = _binary_rows(samples, model.d, bool)
    if isinstance(model, LinearModel):
        R = X * _linear_path_sum(model, p)
    else:
        R = _kernel_path_sums(model, X, p)
        R *= X
    R /= p
    return _finite(R)


def _linear_path_sum(model: LinearModel, p: int) -> np.ndarray:
    """sum_{k=1..p} w: the gradient is the same at every path point, so
    the sum is one reduction over a (p, d) broadcast view of w, which
    allocates no path points.  It is added to +0.0 so that a -0.0 weight
    sums to +0.0."""
    return 0.0 + np.broadcast_to(model.weights, (p, model.d)).sum(axis=0)


def _kernel_path_sums(model: KernelModel, X: np.ndarray, p: int) -> np.ndarray:
    """Row r is sum_{k=1..p} grad f(t_k x_r) of an RBF model.

    For 0/1 x and s_i, ||t x - s_i||^2 = (t |x| - 2 m_i) t + |s_i| with
    m_i = <s_i, x>, so a kernel value on the path depends on i only through
    the integer triple (|x|, m_i, |s_i|), read off one exact X @ S.T.  Each
    exponential is taken once per distinct triple of the batch and path
    point, in blocks of at most 2**19 values.  With w_ki = c_i
    exp(-gamma ||t_k x - s_i||^2), the gradient sum is
    -2 gamma (x sum_k t_k sum_i w_ki - (sum_k w_k) @ S).
    """
    S = model.support_vectors
    sizes = X.sum(axis=1).astype(np.int64)
    inner = (X @ S.T).astype(np.int64)
    sqnorms = model._sv_sqnorms.astype(np.int64)
    # exact in int64 while every count stays below 2**21
    base = max(sizes.max(initial=0), sqnorms.max()) + 1
    keys, inverse = np.unique((sizes[:, None] * base + inner) * base + sqnorms,
                              return_inverse=True)
    size_u, rest = np.divmod(keys, base * base)
    triples = np.stack([size_u, *np.divmod(rest, base)]).astype(np.float64)
    e_sum = np.zeros(keys.size)
    te_sum = np.zeros(keys.size)
    points = min(p, _IG_KERNEL_POINTS)
    block = max(1, _IG_CHUNK_VALUES // points)
    for lo in range(0, keys.size, block):
        rows = slice(lo, lo + block)
        a, m, n = triples[:, rows, None]
        for start in range(1, p + 1, points):
            t = np.arange(start, min(start + points, p + 1)) / p
            e = a * t
            e -= 2.0 * m
            e *= t
            e += n
            e *= -model.gamma
            np.exp(e, out=e)
            e_sum[rows] += e.sum(axis=1)
            e *= t
            te_sum[rows] += e.sum(axis=1)
    inverse = inverse.reshape(inner.shape)
    w_sum = e_sum[inverse] * model.dual_coeffs
    grad = X * (te_sum[inverse] * model.dual_coeffs).sum(axis=1)[:, None]
    # one product per row: a batched one may round unlike a one-row call
    grad -= np.array([w @ S for w in w_sum]).reshape(grad.shape)
    grad *= -2.0 * model.gamma
    return grad


def top_features(r: np.ndarray, k: int) -> list[tuple[int, float, float]]:
    """The k most relevant features of one attribution row as (index, value,
    percent), by |value|; percent is the signed share of the row's total
    absolute relevance (0 for an all-zero row)."""
    k = _integer("k", k, 0)
    order = np.argsort(-np.abs(r), kind="stable")[:k]
    total = np.abs(r).sum()
    pct = np.zeros_like(r) if total == 0.0 else r / total * 100.0
    return [(int(i), float(r[i]), float(pct[i])) for i in order]
