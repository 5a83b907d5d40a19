"""Differentiable decision functions and their stochastic subgradient trainers.

All trainers share one seeded SGD loop so that the box-constrained variant is
literally the unconstrained one plus a clip after every step that can leave
the box: every step but a hinge shrink step w <- w - w (eta lam) with
eta lam <= 1 inside a box with lb < 0 < ub, which keeps each weight between
0 and itself.  Models score and differentiate at arbitrary real-valued
points, which the attack and the path-integral attribution both rely on.
Each trainer holds one float64 copy of its training rows (the linear one
signs them by their labels) and takes the rows' squared norms from the bool
matrix's counts; the RBF trainer drops that copy once its kernel matrix is
built.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .featurespace import (_MAX_FLOAT64_BYTES, LabeledDataset, _binary_rows,
                           _check_int, _check_size)

MODEL_FORMAT_VERSION = 1
LOSSES = ("hinge", "logistic", "squared")
# Values per (rows, n_sv) float64 temporary when a kernel model scores a
# dataset: 512 KiB.
_SCORE_BLOCK_VALUES = 2 ** 16


class ModelFormatError(ValueError):
    """A model file that is missing, corrupt, or of an unsupported version."""


@dataclass(frozen=True, eq=False)
class LinearModel:
    """f(x) = w.x + b."""

    weights: np.ndarray
    bias: float
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 1:
            raise ValueError("weights must be a 1-d vector")
        if not np.all(np.isfinite(w)) or not math.isfinite(self.bias):
            raise ValueError("model parameters must be finite")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", float(self.bias))

    @property
    def d(self) -> int:
        return int(self.weights.shape[0])

    def decision_batch(self, points: np.ndarray) -> np.ndarray:
        return points @ self.weights + self.bias

    def gradient_batch(self, points: np.ndarray) -> np.ndarray:
        return np.broadcast_to(self.weights, points.shape)

    def decision_and_gradient_batch(self, points):
        return self.decision_batch(points), self.gradient_batch(points)


@dataclass(frozen=True, eq=False)
class KernelModel:
    """RBF expansion f(x) = sum_i c_i exp(-gamma ||x - s_i||^2) + b.

    The support vectors are the rows of an (n_sv, d) float64 0/1 matrix and
    the coefficients already carry the label sign (alpha_i * y_i).
    """

    support_vectors: np.ndarray
    dual_coeffs: np.ndarray
    bias: float
    gamma: float
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        # a private read-only copy, so the cached norms stay true
        svs = np.array(_binary_rows(self.support_vectors, None))
        svs.flags.writeable = False
        coeffs = np.asarray(self.dual_coeffs, dtype=np.float64)
        object.__setattr__(self, "support_vectors", svs)
        object.__setattr__(self, "dual_coeffs", coeffs)
        object.__setattr__(self, "bias", float(self.bias))
        object.__setattr__(self, "gamma", float(self.gamma))
        if coeffs.ndim != 1:
            raise ValueError("dual_coeffs must be a 1-d vector")
        if svs.shape[0] != coeffs.shape[0]:
            raise ValueError("support_vectors and dual_coeffs lengths differ")
        if not np.all(np.isfinite(coeffs)) or not math.isfinite(self.bias):
            raise ValueError("model parameters must be finite")
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise ValueError("gamma must be finite and positive")
        if svs.shape[0] == 0:
            raise ValueError("kernel model needs at least one support vector")

    @property
    def d(self) -> int:
        return self.support_vectors.shape[1]

    @cached_property
    def _sv_sqnorms(self) -> np.ndarray:
        return (self.support_vectors * self.support_vectors).sum(axis=1)

    # The batch methods update their temporaries in place: the same
    # operations in the same order as the expressions they spell out, with
    # fewer (points x n_sv) and (points x d) arrays allocated.

    def _sq_distances(self, points: np.ndarray) -> np.ndarray:
        sq = (points * points).sum(axis=1)[:, None] + self._sv_sqnorms[None, :]
        sq -= 2.0 * points @ self.support_vectors.T
        np.maximum(sq, 0.0, out=sq)
        return sq

    def _weights_from_sq(self, sq: np.ndarray, out=None) -> np.ndarray:
        """exp(-gamma sq) * c as float64, into ``out`` (which may be sq)."""
        w = np.multiply(sq, -self.gamma, out=out)
        np.exp(w, out=w)
        w *= self.dual_coeffs[None, :]
        return w

    def _kernel_weights(self, points: np.ndarray) -> np.ndarray:
        sq = self._sq_distances(points)
        return self._weights_from_sq(sq, out=sq)

    def decision_batch(self, points: np.ndarray) -> np.ndarray:
        return self._kernel_weights(points).sum(axis=1) + self.bias

    def _gradient(self, points: np.ndarray, w: np.ndarray,
                  totals: np.ndarray) -> np.ndarray:
        """-2 gamma (x * sum_i w_i - w @ S) for each point."""
        grad = points * totals[:, None]
        grad -= w @ self.support_vectors
        grad *= -2.0 * self.gamma
        return grad

    def gradient_batch(self, points: np.ndarray) -> np.ndarray:
        w = self._kernel_weights(points)
        return self._gradient(points, w, w.sum(axis=1))

    def decision_and_gradient_batch(self, points):
        w = self._kernel_weights(points)
        totals = w.sum(axis=1)
        return totals + self.bias, self._gradient(points, w, totals)


TrainedModel = LinearModel | KernelModel


def score(model: TrainedModel, x) -> float:
    """Decision value f(x) at one binary (d,) row."""
    return float(model.decision_batch(_binary_rows([x], model.d))[0])


@dataclass
class TrainConfig:
    """Shared SGD settings.

    ``reg`` is the C of the hinge/logistic objectives and the alpha of the
    squared (ridge) one.  The step decays as eta0 / (1 + t / n) over the n
    training samples.  ``weight_lb``/``weight_ub`` are the box of the
    box-constrained trainer: both or neither, with lb <= 0 <= ub.
    """

    loss: str = "hinge"
    reg: float = 1.0
    epochs: int = 10
    learning_rate: float = 0.1
    seed: int = 0
    weight_lb: float | None = None
    weight_ub: float | None = None

    def __post_init__(self):
        if self.loss not in LOSSES:
            raise ValueError(f"loss must be one of {LOSSES}, got {self.loss!r}")
        _check_int("epochs", self.epochs)
        _check_int("seed", self.seed)
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        # NaN fails these too; inf would train every epoch to non-finite
        # weights or objectives
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be finite and positive")
        if not 0.0 < self.reg < math.inf:
            raise ValueError("reg must be finite and positive")
        if (self.weight_lb is None) != (self.weight_ub is None):
            raise ValueError("weight_lb and weight_ub must be given together")
        if self.weight_lb is not None and not (
                self.weight_lb <= 0.0 <= self.weight_ub):
            raise ValueError("weight bounds must satisfy lb <= 0 <= ub")


def _require_both_classes(ds: LabeledDataset) -> None:
    if set(ds.labels.tolist()) != {-1, 1}:
        raise ValueError("training data must contain both classes")


def _objective(S: np.ndarray, y: np.ndarray, w: np.ndarray, b: float,
               loss: str, reg: float) -> float:
    """The training objective at (w, b), from the signed rows y_i x_i."""
    margins = S @ w + y * b
    if loss == "hinge":
        return 0.5 * float(w @ w) + reg * float(np.maximum(0.0, 1.0 - margins).sum())
    if loss == "logistic":
        return 0.5 * float(w @ w) + reg * float(np.logaddexp(0.0, -margins).sum())
    return reg * float(w @ w) + float(((1.0 - margins) ** 2).sum())


def _sgd_linear(train: LabeledDataset, cfg: TrainConfig) -> LinearModel:
    _require_both_classes(train)
    X = train.samples.astype(np.float64)
    y = train.labels.astype(np.float64)
    n, d = X.shape
    # Mean-form objective: (lam/2)||w||^2 + mean loss, so a sampled step is
    # w <- w - eta (lam w + grad loss_i).
    if cfg.loss == "squared":
        lam = 2.0 * cfg.reg / n
    else:
        lam = 1.0 / (n * cfg.reg)

    # Each step writes its update into ``buf`` (and ``tmp``) in place: the
    # same operations in the same order as the expression in its comment,
    # so the weights are bitwise those of that expression.  X is the one
    # float64 copy of the samples, signed in place: the labels are +-1 and
    # the rows 0/1, so s_i = y_i x_i is an exact sign flip (-0.0 where
    # x_ij = 0 and y_i = -1), s_i . w is y_i (x_i . w) bit for bit, and
    # x_i . x_i is the row's count.  The margin y_i f is then s_i . w + y_i b
    # (a zero's sign aside, which no use of it can see).
    X *= y[:, None]
    rows = list(X)
    labels = y.tolist()
    sqnorms = np.count_nonzero(train.samples, axis=1).tolist()
    # At d ~ 100s a step costs its numpy calls, not its arithmetic, and a
    # Python float operand costs a call more than an array does.  So lam
    # is a (d,) array, each step's scalar factor is written into the 0-d
    # ``fac``, and an epoch's step sizes come from one vectorised
    # expression: the same IEEE divisions and sums as eta0 / (1 + t / n).
    lam_w = np.full(d, lam)
    fac = np.empty(())
    bounded = cfg.weight_lb is not None
    if bounded:
        lb = np.full(d, float(cfg.weight_lb))
        ub = np.full(d, float(cfg.weight_ub))
    # A shrink step w - w (eta lam) with 0 <= eta lam <= 1 moves each weight
    # to a value between 0 and itself (a zero comes out +0.0), so inside a
    # box with lb < 0 < ub it cannot leave the box, and its clip would
    # change no bit.  A 0 bound (where the clip picks a zero's sign) or
    # eta lam > 1 (which flips signs) clips as every other step does.
    zero_inside = bounded and cfg.weight_lb < 0.0 < cfg.weight_ub
    loss = cfg.loss
    rng = np.random.default_rng(cfg.seed)
    w = np.zeros(d)
    buf = np.empty(d)
    tmp = np.empty(d)
    b = 0.0
    t = 0
    epoch_objective = []
    for _ in range(cfg.epochs):
        steps = np.arange(t + 1, t + n + 1)
        etas = (cfg.learning_rate / (1.0 + steps / n)).tolist()
        t += n
        for i, eta in zip(rng.permutation(n).tolist(), etas):
            yi = labels[i]
            m = float(rows[i].dot(w)) + yi * b  # y_i f
            clip = bounded
            if loss == "hinge":
                if m < 1.0:
                    # w += eta * (s_i - lam w)
                    np.multiply(w, lam_w, out=buf)
                    np.subtract(rows[i], buf, out=buf)
                    fac[()] = eta
                    buf *= fac
                    w += buf
                    b += eta * yi
                else:
                    # w -= eta * lam * w
                    shrink = eta * lam
                    fac[()] = shrink
                    np.multiply(w, fac, out=buf)
                    w -= buf
                    clip = bounded and not (zero_inside and shrink <= 1.0)
            elif loss == "logistic":
                sig = 1.0 / (1.0 + math.exp(min(50.0, max(-50.0, m))))
                # w += eta * (sig * s_i - lam w); s_i sig is x_i (y_i sig)
                # bit for bit, as y_i = +-1 and sig > 0
                fac[()] = sig
                np.multiply(rows[i], fac, out=tmp)
                np.multiply(w, lam_w, out=buf)
                np.subtract(tmp, buf, out=buf)
                fac[()] = eta
                buf *= fac
                w += buf
                b += eta * sig * yi
            else:  # squared
                # Normalized step (NLMS): plain least-squares SGD diverges
                # once eta * ||x_i||^2 exceeds 1, which dense samples hit at
                # any usable base rate.
                resid = yi * m - yi
                step = eta / max(1.0, sqnorms[i])
                # w -= step * (2 resid x_i + lam w); 2 resid x_i is
                # s_i (y_i 2 resid) bit for bit, as y_i = +-1
                fac[()] = yi * 2.0 * resid
                np.multiply(rows[i], fac, out=tmp)
                np.multiply(w, lam_w, out=buf)
                np.add(tmp, buf, out=buf)
                fac[()] = step
                buf *= fac
                w -= buf
                b -= step * 2.0 * resid
            if clip:
                np.maximum(w, lb, out=w)
                np.minimum(w, ub, out=w)
        epoch_objective.append(_objective(X, y, w, b, loss, cfg.reg))
        if not math.isfinite(epoch_objective[-1]):
            raise ValueError(
                f"SGD diverged: epoch {len(epoch_objective)} objective is "
                f"{epoch_objective[-1]} (loss={loss!r}, reg={cfg.reg}, "
                f"learning_rate={cfg.learning_rate})")

    meta = {
        "kind": "linear",
        "loss": cfg.loss,
        "reg": cfg.reg,
        "epochs": cfg.epochs,
        "eta0": cfg.learning_rate,
        "decay_steps": float(n),
        "seed": cfg.seed,
        "epoch_objective": epoch_objective,
    }
    if bounded:
        meta["weight_lb"] = float(cfg.weight_lb)
        meta["weight_ub"] = float(cfg.weight_ub)
    return LinearModel(w, b, meta)


def train_linear(train: LabeledDataset, cfg: TrainConfig) -> LinearModel:
    """Regularized hinge / logistic / squared loss via seeded SGD.

    Raises ValueError after the first epoch whose objective is not finite:
    the steps diverged, and the weights are no model to save.
    """
    if cfg.weight_lb is not None:
        raise ValueError("train_linear takes no weight bounds; train_secsvm "
                         "trains the box-constrained model")
    return _sgd_linear(train, cfg)


def train_secsvm(train: LabeledDataset, cfg: TrainConfig) -> LinearModel:
    """Hinge SGD with every weight clipped into [weight_lb, weight_ub] after
    each update that can leave the box."""
    if cfg.weight_lb is None:
        raise ValueError("train_secsvm requires weight_lb and weight_ub")
    if cfg.loss != "hinge":
        raise ValueError("the box-constrained trainer uses the hinge loss")
    return _sgd_linear(train, cfg)


def train_rbf_svm(train: LabeledDataset, C: float, gamma: float,
                  cfg: TrainConfig) -> KernelModel:
    """Hinge-loss RBF machine trained in expansion form (per-point coefficients).

    Every training point owns a coefficient; regularization shrinks them all
    each step and a margin violation bumps the sampled one.  Points whose
    coefficient is still exactly zero on exit are pruned.  The trainer holds
    one n x n float64 kernel matrix, which the guard below bounds.  ``cfg``
    gives the epochs, the learning rate and the seed; its ``reg`` is not
    read, since C is the regulariser, and a non-hinge ``loss`` or a weight
    box is refused.
    """
    _require_both_classes(train)
    if not 0 < C < math.inf:
        raise ValueError("C must be finite and positive")
    if not 0 < gamma < math.inf:
        raise ValueError("gamma must be finite and positive")
    if cfg.loss != "hinge":
        raise ValueError(f"train_rbf_svm trains the hinge loss; got loss "
                         f"{cfg.loss!r}")
    if cfg.weight_lb is not None:
        raise ValueError("train_rbf_svm takes no weight bounds; got "
                         f"weight_lb={cfg.weight_lb}, weight_ub={cfg.weight_ub}")
    n = train.n
    if 8 * n * n > _MAX_FLOAT64_BYTES:
        raise ValueError(f"the Gram matrix of n={n} training rows takes "
                         f"{8 * n * n} bytes as float64, over the "
                         f"{_MAX_FLOAT64_BYTES}-byte limit")
    X = train.samples.astype(np.float64)
    norms = np.count_nonzero(train.samples, axis=1).astype(np.float64)
    # K = exp(-gamma * (|x_i|^2 + |x_j|^2 - 2 x_i.x_j)), built in place so
    # that one n x n array is live.  With 0/1 rows every partial sum is a
    # small exact integer, so the order of the sums changes no bit, and the
    # squared distances are exact non-negative integers: no clamp at 0.
    K = X @ X.T
    del X
    K *= -2.0
    K += norms[:, None]
    K += norms[None, :]
    K *= -gamma
    np.exp(K, out=K)

    rows = list(K)
    labels = train.labels.astype(np.float64).tolist()
    lam = 1.0 / (n * C)
    rng = np.random.default_rng(cfg.seed)
    beta = np.zeros(n)
    b = 0.0
    t = 0
    for _ in range(cfg.epochs):
        for i in rng.permutation(n).tolist():
            t += 1
            eta = cfg.learning_rate / (1.0 + t / n)
            f = float(rows[i].dot(beta)) + b
            beta *= 1.0 - eta * lam
            yi = labels[i]
            if yi * f < 1.0:
                beta[i] += eta * yi
                b += eta * yi

    keep = np.flatnonzero(beta != 0.0)
    if keep.size == 0:
        # No margin violation ever fired; keep one zero-weight expansion point
        # so the model stays well-formed (f is then the constant bias).
        keep = np.asarray([0])
    meta = {
        "kind": "rbf",
        "loss": "hinge",
        "reg": C,
        "gamma": gamma,
        "epochs": cfg.epochs,
        "eta0": cfg.learning_rate,
        "decay_steps": float(n),
        "seed": cfg.seed,
    }
    return KernelModel(train.samples[keep], beta[keep], b, gamma, meta)


def _dataset_scores(model: TrainedModel, ds: LabeledDataset) -> np.ndarray:
    """decision_batch over a dataset's rows, a block of rows at a time on a
    kernel model.

    A block's (rows, n_sv) float64 temporaries hold at most
    _SCORE_BLOCK_VALUES values, whatever n.  The scores are bitwise one
    decision_batch call's: with 0/1 rows and support vectors every squared
    distance is a small integer, which the matrix product and the row sums
    give exactly whatever rows share a call, and the exp, the weighting and
    each row's sum read that row alone.  A linear model is scored in one
    call, because its matrix-vector product need not round a row the same
    in every batch.
    """
    X = _binary_rows(ds.samples, model.d, bool)
    if isinstance(model, LinearModel):
        return model.decision_batch(X.astype(np.float64))
    block = max(1, _SCORE_BLOCK_VALUES // model.support_vectors.shape[0])
    scores = np.empty(len(X))
    for first in range(0, len(X), block):
        scores[first:first + block] = model.decision_batch(
            X[first:first + block].astype(np.float64))
    return scores


def detection_rate_at_fpr(model: TrainedModel, ds: LabeledDataset,
                          fpr_target: float) -> tuple[float, float]:
    """Detection rate at a benign false-positive budget, plus the threshold used.

    The threshold is the smallest candidate value t with
    #{benign score >= t} <= floor(fpr_target * n_benign); candidates are the
    benign scores themselves plus max(benign) + 1 when nothing else fits
    (scores equal to the threshold count as positive).
    """
    return _rate_at_fpr(_dataset_scores(model, ds), ds.labels, fpr_target)


def _rate_at_fpr(scores: np.ndarray, labels: np.ndarray,
                 fpr_target: float) -> tuple[float, float]:
    """detection_rate_at_fpr of a dataset's scores and labels."""
    if not 0.0 <= fpr_target <= 1.0:
        raise ValueError("fpr_target must lie in [0, 1]")
    benign = np.sort(scores[labels == -1])
    malware = scores[labels == 1]
    if benign.size == 0:
        raise ValueError("dataset has no benign samples to fix the threshold")
    if malware.size == 0:
        raise ValueError("dataset has no malware samples to measure the rate")

    # a benign score t fits when #{benign >= t} stays within the budget
    n = benign.size
    fits = n - np.searchsorted(benign, benign) <= math.floor(fpr_target * n)
    threshold = (float(benign[np.argmax(fits)]) if fits.any()
                 else float(benign[-1]) + 1.0)
    rate = float(np.mean(malware >= threshold))
    return rate, threshold


def _share_at_or_above(values: np.ndarray, thresholds: np.ndarray) -> list:
    """Share of values >= each threshold: the count over the size, the same
    correctly rounded division np.mean of the boolean mask performs."""
    n = values.size
    return ((n - np.searchsorted(np.sort(values), thresholds)) / n).tolist()


def roc_curve(model: TrainedModel, ds: LabeledDataset) -> list[tuple[float, float]]:
    """(fpr, tpr) points from a sweep over the distinct scores; starts at (0,0)."""
    return _roc_points(_dataset_scores(model, ds), ds.labels)


def _roc_points(scores: np.ndarray,
                labels: np.ndarray) -> list[tuple[float, float]]:
    """roc_curve of a dataset's scores and labels."""
    benign = scores[labels == -1]
    malware = scores[labels == 1]
    if benign.size == 0 or malware.size == 0:
        raise ValueError("ROC needs both classes present")
    # the distinct scores, highest first (np.unique would load numpy.ma)
    ordered = np.sort(scores)
    thresholds = ordered[np.r_[True, ordered[1:] != ordered[:-1]]][::-1]
    points = [(0.0, 0.0)]
    points += zip(_share_at_or_above(benign, thresholds),
                  _share_at_or_above(malware, thresholds))
    if points[-1] != (1.0, 1.0):
        points.append((1.0, 1.0))
    return points


def auc(points: list[tuple[float, float]]) -> float:
    """Trapezoidal area under a list of ROC (fpr, tpr) points, in any
    order: the points are sorted by fpr, then tpr, first."""
    arr = np.asarray(points, dtype=np.float64)
    order = np.lexsort((arr[:, 1], arr[:, 0]))
    arr = arr[order]
    return float(np.trapezoid(arr[:, 1], arr[:, 0]))


def save_model(model: TrainedModel, path) -> None:
    """Serialize to a JSON document (sparse weights for the linear kind)."""
    if isinstance(model, LinearModel):
        nz = np.flatnonzero(model.weights)
        doc = {
            "format_version": MODEL_FORMAT_VERSION,
            "kind": "linear",
            "d": model.d,
            "bias": model.bias,
            "weights": [[int(i), float(model.weights[i])] for i in nz],
            "training": model.meta,
        }
    elif isinstance(model, KernelModel):
        doc = {
            "format_version": MODEL_FORMAT_VERSION,
            "kind": "rbf",
            "d": model.d,
            "bias": model.bias,
            "gamma": model.gamma,
            "support_vectors": [np.flatnonzero(sv).tolist()
                                for sv in model.support_vectors],
            "dual_coeffs": [float(c) for c in model.dual_coeffs],
            "training": model.meta,
        }
    else:
        raise TypeError(f"cannot save model of type {type(model).__name__}")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def _index_list_ok(ix, d: int) -> bool:
    """Whether a stored index list is a list of ints (not bools), strictly
    increasing and inside [0, d)."""
    return (type(ix) is list and all(type(i) is int for i in ix)
            and all(a < b for a, b in zip([-1, *ix], [*ix, d])))


def _index_lists(lists: list, d: int, what: str):
    """(rows, cols) of every entry of the stored index lists: lists[r] holds
    the columns of row r.  Each list must be a JSON array of integers,
    strictly increasing and inside [0, d): numpy would wrap a negative index
    onto a column from the end, and would take a float, a bool or a string
    as an index.  The lists are flattened once and checked as one array;
    only when a check fails are they checked one by one, to name the first
    bad one as ``what.format(r)``.
    """
    if {list}.issuperset(map(type, lists)):
        flat = list(itertools.chain.from_iterable(lists))
        # bool is a subclass of int, so the types are compared exactly
        if {int}.issuperset(map(type, flat)):
            rows = np.repeat(np.arange(len(lists)), list(map(len, lists)))
            try:
                cols = np.array(flat, dtype=np.intp)
            except OverflowError:  # past the intp range, so past d
                pass
            else:
                if (((np.diff(cols) > 0) | (np.diff(rows) > 0)).all()
                        and (cols >= 0).all() and (cols < d).all()):
                    return rows, cols
    bad = next(r for r, ix in enumerate(lists) if not _index_list_ok(ix, d))
    raise ModelFormatError(f"{what.format(bad)}: indices must be integers, "
                           f"strictly increasing and in [0, {d})")


def _json_floats(values, what: str) -> list[float]:
    """The stored numbers ``values`` as floats.  Each must be a JSON int or
    float: float() would also take a numeric string or a bool."""
    bad = [v for v in values if type(v) not in (int, float)]
    if bad:
        raise ModelFormatError(f"{what}: {bad[0]!r} is not a JSON number")
    return [float(v) for v in values]


def load_model(path) -> TrainedModel:
    """Read a model file that save_model wrote.

    ``d`` and every feature index must be JSON integers, every other number
    a JSON int or float (a bool or a string is neither), and the weights or
    support vectors are refused, before they are allocated, when their
    float64 array would exceed _MAX_FLOAT64_BYTES.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ModelFormatError(f"cannot read model file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ModelFormatError("model document must be a JSON object")
    version = doc.get("format_version")
    if type(version) is not int or version != MODEL_FORMAT_VERSION:
        raise ModelFormatError(
            f"unsupported model format version {version!r} "
            f"(expected {MODEL_FORMAT_VERSION})")
    try:
        kind = doc["kind"]
        d = doc["d"]
        if type(d) is not int or d < 1:
            raise ModelFormatError(f"d must be an integer >= 1, got {d!r}")
        (bias,) = _json_floats([doc["bias"]], "bias")
        if kind == "linear":
            _check_size(1, d, ModelFormatError, "weight vector")
            pairs = doc["weights"]
            _, cols = _index_lists([[i for i, _ in pairs]], d, "weights")
            w = np.zeros(d)
            w[cols] = _json_floats([v for _, v in pairs], "weights")
            return LinearModel(w, bias, doc.get("training", {}))
        if kind == "rbf":
            lists = doc["support_vectors"]
            _check_size(len(lists), d, ModelFormatError,
                        "support-vector matrix")
            rows, cols = _index_lists(lists, d, "support vector {}")
            svs = np.zeros((len(lists), d))
            svs[rows, cols] = 1.0
            coeffs = np.asarray(_json_floats(doc["dual_coeffs"],
                                             "dual_coeffs"))
            (gamma,) = _json_floats([doc["gamma"]], "gamma")
            return KernelModel(svs, coeffs, bias, gamma,
                               doc.get("training", {}))
        raise ModelFormatError(f"unknown model kind {kind!r}")
    except ModelFormatError:
        raise
    except (KeyError, TypeError, ValueError, IndexError,
            OverflowError) as exc:
        raise ModelFormatError(f"malformed model document: {exc}") from exc
