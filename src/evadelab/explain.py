"""Gradient-based feature attributions of the malicious-class score.

Each method takes an (n, d) 0/1 sample matrix and returns one finite,
writable (n, d) float64 matrix whose row i attributes f(x_i) to the
features.  Gradient is one ``gradient_batch`` call on the sample matrix and
Gradient*Input masks it by that matrix.  Integrated Gradients sums each
row's path in chunks of points, so no array grows with n times p.
"""

from __future__ import annotations

import numpy as np

from .featurespace import _binary_rows
from .models import TrainedModel

# Values per chunk of integrated-gradients path points: 4 MiB of float64.
_IG_CHUNK_VALUES = 2 ** 19


def _finite(R: np.ndarray) -> np.ndarray:
    if not np.isfinite(R).all():
        raise ValueError("attributions must be finite")
    return R


def attribution_gradient(model: TrainedModel, samples) -> np.ndarray:
    """Row i is grad f(x_i)."""
    # copied: a linear model's gradient is a read-only broadcast of its weights
    return _finite(np.array(model.gradient_batch(_binary_rows(samples, model.d))))


def attribution_gradient_input(model: TrainedModel, samples) -> np.ndarray:
    """Row i is grad f(x_i) * x_i, so absent features get exactly zero."""
    X = _binary_rows(samples, model.d)
    return _finite(model.gradient_batch(X) * X)


def attribution_integrated_gradients(model: TrainedModel, samples,
                                     p: int = 100) -> np.ndarray:
    """Right-endpoint path sum of gradients from the all-zeros baseline to
    each x.

    r_i = x_i * (1/p) * sum_{k=1..p} grad_i f((k/p) x).  Each row's
    gradients are summed over chunks of max(1, 2**19 // d) path points, so
    a row's result does not depend on the other rows.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    X = _binary_rows(samples, model.d)
    chunk = max(1, _IG_CHUNK_VALUES // model.d)
    R = np.empty_like(X)
    for row, x in enumerate(X):
        grad_sum = np.zeros(model.d)
        for start in range(1, p + 1, chunk):
            ks = np.arange(start, min(start + chunk, p + 1), dtype=np.float64)
            points = (ks / p)[:, None] * x[None, :]
            grad_sum += model.gradient_batch(points).sum(axis=0)
        R[row] = x * grad_sum / p
    return _finite(R)


def relevance_percentages(r: np.ndarray) -> np.ndarray:
    """Signed share of one attribution row's total absolute relevance, in
    percent."""
    total = np.abs(r).sum()
    if total == 0.0:
        return np.zeros_like(r)
    return r / total * 100.0


def top_features(r: np.ndarray, k: int) -> list[tuple[int, float, float]]:
    """The k most relevant features of one attribution row as
    (index, value, percent), by |value|."""
    order = np.argsort(-np.abs(r), kind="stable")[:k]
    pct = relevance_percentages(r)
    return [(int(i), float(r[i]), float(pct[i])) for i in order]
