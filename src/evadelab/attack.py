"""Sparse feature-addition evasion.

The gradient attack (Biggio et al., ECML-PKDD 2013) runs two projected-descent
passes that share one best-feasible-iterate tracker.  The binary pass
iterates on the projected binary point itself, re-evaluating the gradient
after every accepted flip; the shadow pass descends a box-clipped
real-relaxed iterate whose accumulated gradient pressure lets weakly-graded
coordinates cross the binarization threshold.  Each step applies the
composite projection (clip into the box, binarize at 0.5, keep the epsilon
top-ranked changes), so every scored point is feasible, and the best-scoring
feasible point ever seen is returned because the stopping rule can halt past
the optimum.

One engine, ``_pgd_core``, attacks a whole list of budgets at once.  The
shadow iterate never reads the budget (its step, its stopping test and its
active set depend only on the box), so its trajectory is computed once per
sample and each iterate is projected onto every budget.  The projections are
nested: rank the iterate's changes by |v - x0|, largest first, ties to the
lower index, and the budget-e point is x0 plus the first e changes.  For an
RBF model the nested points are scored incrementally: points and support
vectors are 0/1, so ||x - s_i||^2 is a small integer and flipping x_j moves it
by exactly +-(1 - 2 s_ij); integer sums are exact in any order, so the scores
equal those of the materialised points bit for bit.  The binary pass stays
per budget, because its iterate is that budget's projection.

For linear models an exact greedy oracle exists: additions are independent,
so adding absent features in ascending weight order is optimal.

Every attack product is read off the one (n, grid) score matrix of
``attack_scores_over_grid``: the security curve (``SecurityCurve.from_scores``),
the robustness score and ``eps_min``.  The attack at budget e evades exactly
when its grid score is below the threshold, so ``eps_min`` is the first such
budget of an attack over 0..eps_max; no pass stops early on evasion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .featurespace import SparseBinaryVector
from .models import KernelModel, LinearModel, TrainedModel, score

NOT_EVADABLE: float = math.inf
ATTACK_METHODS = ("auto", "pgd", "greedy")


@dataclass(frozen=True)
class AttackConfig:
    """Budget and descent settings.

    eta=None picks an adaptive step each iteration, normalized by the largest
    gradient component that can still move: big enough to flip the steepest
    coordinate on the binary-iterate pass, 0.1 of that on the shadow pass.
    """

    epsilon: int
    eta: float | None = None
    tol: float = 1e-6
    max_iters: int = 1000
    addition_only: bool = True

    def __post_init__(self):
        if self.epsilon < 1:
            raise ValueError("epsilon must be >= 1")
        if self.eta is not None and self.eta <= 0:
            raise ValueError("eta must be positive")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")

    def with_epsilon(self, epsilon: int) -> "AttackConfig":
        return AttackConfig(epsilon, self.eta, self.tol, self.max_iters,
                            self.addition_only)


@dataclass(frozen=True)
class AttackResult:
    adversarial: SparseBinaryVector
    added_indices: tuple[int, ...]
    score_trace: tuple[float, ...]
    evaded: bool
    iterations: int

    @property
    def score_after(self) -> float:
        return self.score_trace[-1]


@dataclass(frozen=True)
class SecurityCurve:
    """Detection rate at a fixed threshold as the addition budget grows."""

    epsilons: tuple[int, ...]
    detection_rates: tuple[float, ...]
    fpr: float
    n_samples: int

    def __post_init__(self):
        if len(self.epsilons) != len(self.detection_rates):
            raise ValueError("epsilons and detection_rates lengths differ")
        for r in self.detection_rates:
            if not 0.0 <= r <= 1.0:
                raise ValueError("detection rates must lie in [0, 1]")

    @classmethod
    def from_scores(cls, scores: np.ndarray, eps_grid, threshold: float,
                    fpr: float = float("nan")) -> "SecurityCurve":
        """The curve of an (n, len(eps_grid)) post-attack score matrix."""
        rates = tuple(float(np.mean(col >= threshold)) for col in scores.T)
        return cls(tuple(int(e) for e in eps_grid), rates, fpr, scores.shape[0])

    def area(self) -> float:
        """Mean detection rate over the grid (higher = harder to evade)."""
        return float(np.mean(self.detection_rates))


def _check_feasible(X0b: np.ndarray, points: np.ndarray, budgets,
                    addition_only: bool) -> None:
    """Raise unless every points[r, k] is within budgets[k] changes of X0b[r]
    (and, in addition-only mode, keeps every feature X0b[r] has)."""
    changes = (points != X0b[:, None, :]).sum(axis=2)
    if np.any(changes > np.asarray(budgets)[None, :]):
        raise RuntimeError("attack returned a point over its change budget")
    if addition_only and np.any(X0b[:, None, :] & ~points):
        raise RuntimeError("addition-only attack removed a present feature")


def _check_result(result: AttackResult, x: SparseBinaryVector,
                  cfg: AttackConfig) -> AttackResult:
    """Feasibility of a result handed back to a caller; raises if broken."""
    _check_feasible(x.to_dense().astype(bool)[None],
                    result.adversarial.to_dense().astype(bool)[None, None],
                    [cfg.epsilon], cfg.addition_only)
    if (set(result.adversarial.indices) - set(x.indices)
            != set(result.added_indices)):
        raise RuntimeError("added_indices do not match the adversarial point")
    return result


def project(x_cont: np.ndarray, x_orig: SparseBinaryVector,
            cfg: AttackConfig) -> SparseBinaryVector:
    """Composite projection of a real vector onto the attack's feasible set.

    Clips into the box ([x_orig, 1] in addition-only mode), binarizes at 0.5,
    then reverts all but the epsilon largest |x_cont - x_orig| changes (ties
    broken toward the lower feature index).
    """
    v = np.asarray(x_cont, dtype=np.float64)
    if v.shape != (x_orig.dim,):
        raise ValueError(f"vector shape {v.shape} does not match d={x_orig.dim}")
    x0 = x_orig.to_dense()
    lb = x0 if cfg.addition_only else np.zeros_like(x0)
    v = np.clip(v, lb, 1.0)
    x0b = x0.astype(bool)
    binary = _project_clipped_batch(v[None], x0b[None], cfg.epsilon)[0]
    return SparseBinaryVector(tuple(int(i) for i in np.flatnonzero(binary)),
                              x_orig.dim)


def _ranked_changes(V: np.ndarray, X0b: np.ndarray):
    """Rank each clipped row's changes by |V - X0|, largest first.

    Ties go to the lower feature index.  Returns (order, counts): the first
    counts[r] entries of order[r] are row r's changed features in rank order.
    Only the changed entries are sorted, so the cost follows the number of
    changes rather than the dimension.
    """
    rows, cols = np.nonzero((V >= 0.5) != X0b)
    counts = np.bincount(rows, minlength=V.shape[0])
    # lexsort is stable and np.nonzero lists columns in ascending order, so
    # equal moves keep the lower index first.
    key = np.lexsort((-np.abs(V[rows, cols] - X0b[rows, cols]), rows))
    rows, cols = rows[key], cols[key]
    rank = np.arange(rows.size) - (np.cumsum(counts) - counts)[rows]
    order = np.zeros((V.shape[0], counts.max(initial=0)), dtype=np.intp)
    order[rows, rank] = cols
    return order, counts


def _prefix_projection(X0b: np.ndarray, order: np.ndarray, counts: np.ndarray,
                       epsilon) -> np.ndarray:
    """X0b with the first min(epsilon, count) ranked changes of each row
    applied; epsilon may be one budget or one per row."""
    taken = np.arange(order.shape[1]) < np.minimum(counts, epsilon)[:, None]
    rows, pos = np.nonzero(taken)
    cols = order[rows, pos]
    out = X0b.copy()
    out[rows, cols] = ~X0b[rows, cols]
    return out


def _project_clipped_batch(V: np.ndarray, X0b: np.ndarray,
                           epsilon: int) -> np.ndarray:
    """Binarize already-clipped rows and enforce the change budget rowwise."""
    XB = V >= 0.5
    over = np.flatnonzero((XB != X0b).sum(axis=1) > epsilon)
    if over.size:
        order, counts = _ranked_changes(V[over], X0b[over])
        XB[over] = _prefix_projection(X0b[over], order, counts, epsilon)
    return XB


def _movable_eta(g: np.ndarray, cur: np.ndarray, lb: np.ndarray,
                 scale: float) -> np.ndarray:
    """Adaptive step: scale / max |g_i| over coordinates the step can move.

    A coordinate can move only if the negative gradient points inside its box
    slack; normalizing by the largest movable component guarantees the step
    changes something whenever a feasible descent direction exists.
    """
    movable = ((g < 0.0) & (cur < 1.0)) | ((g > 0.0) & (cur > lb))
    gmax = np.abs(np.where(movable, g, 0.0)).max(axis=1)
    return np.where(gmax > 0.0, scale / np.maximum(gmax, 1e-300), 0.0)


def _descent_pass(model: TrainedModel, X0b: np.ndarray, lb: np.ndarray,
                  start, budgets, mode: str, cfg: AttackConfig,
                  threshold: float, best_scores: np.ndarray,
                  best_points: np.ndarray, traces) -> np.ndarray:
    """One batched descent pass; updates best_scores / best_points in place.

    best_* hold one column per budget.  mode "binary" (one budget) steps from
    the budget's projected binary point each iteration, so the iterate hops
    between feasible points with enough step to flip at least one
    coordinate.  mode "shadow" descends a box-clipped real relaxation that
    accumulates gradient pressure, so weakly-graded coordinates can still
    cross the binarization threshold; its trajectory never reads the budget,
    so each iterate is projected onto every budget.  One fused kernel call
    per iteration evaluates the new iterate and gives the gradient that the
    still-active rows step with next.  A row leaves the pass when its
    objective converges.
    """
    scores0, grad0 = start
    cur = X0b.astype(np.float64)
    prev_obj = scores0.copy()
    # already-benign samples are left alone
    rows = np.flatnonzero(scores0 >= threshold)
    g = grad0[rows]
    nested = mode == "shadow" and isinstance(model, KernelModel)
    if nested and rows.size:
        sq0 = model._sq_distances(cur)
    budget_arr = np.asarray(budgets)
    eta_scale = 0.5005 if mode == "binary" else 0.1
    iterations = np.zeros(len(X0b), dtype=np.int64)
    for it in range(1, cfg.max_iters + 1):
        if rows.size == 0:
            break
        if cfg.eta is None:
            eta = _movable_eta(g, cur[rows], lb[rows], eta_scale)
        else:
            eta = np.full(rows.size, cfg.eta)
        stepped = np.clip(cur[rows] - eta[:, None] * g, lb[rows], 1.0)
        X0r = X0b[rows]
        if mode == "binary":
            binary = _project_clipped_batch(stepped, X0r, budgets[0])
            cur[rows] = binary
            obj, g = model.decision_and_gradient_batch(cur[rows])
            improved = obj < best_scores[rows, 0]
            upd = rows[improved]
            best_scores[upd, 0] = obj[improved]
            best_points[upd, 0] = binary[improved]
        else:
            order, counts = _ranked_changes(stepped, X0r)
            if nested:
                bin_scores = model._prefix_flip_decisions(
                    sq0[rows], scores0[rows], X0r, order, counts, budgets)
            else:
                bin_scores = np.stack([model.decision_batch(
                    _prefix_projection(X0r, order, counts, eps).astype(
                        np.float64)) for eps in budgets], axis=1)
            ri, ci = np.nonzero(bin_scores < best_scores[rows])
            if ri.size:
                best_scores[rows[ri], ci] = bin_scores[ri, ci]
                best_points[rows[ri], ci] = _prefix_projection(
                    X0r[ri], order[ri], counts[ri], budget_arr[ci])
            cur[rows] = stepped
            obj, g = model.decision_and_gradient_batch(stepped)

        done = np.abs(obj - prev_obj[rows]) <= cfg.tol
        prev_obj[rows] = obj
        iterations[rows] = it
        if traces is not None:
            for r in rows:
                traces[r].append(float(best_scores[r, 0]))
        rows, g = rows[~done], g[~done]
    return iterations


def _pgd_core(model: TrainedModel, X0b: np.ndarray, budgets,
              cfg: AttackConfig, threshold: float, record_trace: bool = False):
    """The batched attack at every budget of an ascending list.

    For each budget a binary pass, then one shadow pass shared by all
    budgets; both feed the same best-feasible-iterate bookkeeping, so each
    (row, budget) pair returns the best point either scheme visited for it.
    On a linear model with the adaptive step, the binary pass already flips
    absent features in exact descending-weight order (the gradient is
    constant), which is the optimal addition schedule, so the shadow pass is
    skipped.  Returns (n, k) scores, (n, k, d) points, (n, k) evasion flags,
    (n, k) iteration counts and, with record_trace (one budget only), the
    best score of each row after every iteration.
    """
    lb = X0b.astype(np.float64) if cfg.addition_only else np.zeros(X0b.shape)
    start = model.decision_and_gradient_batch(X0b.astype(np.float64))
    k = len(budgets)
    best_scores = np.repeat(start[0][:, None], k, axis=1)
    best_points = np.repeat(X0b[:, None, :], k, axis=1)
    traces = [[float(s)] for s in start[0]] if record_trace else None

    iterations = np.zeros((len(X0b), k), dtype=np.int64)
    for col, eps in enumerate(budgets):
        iterations[:, col] = _descent_pass(
            model, X0b, lb, start, [eps], "binary", cfg, threshold,
            best_scores[:, col:col + 1], best_points[:, col:col + 1], traces)
    if not (isinstance(model, LinearModel) and cfg.eta is None):
        iterations += _descent_pass(
            model, X0b, lb, start, budgets, "shadow", cfg, threshold,
            best_scores, best_points, traces)[:, None]
    _check_feasible(X0b, best_points, budgets, cfg.addition_only)
    return best_scores, best_points, best_scores < threshold, iterations, traces


def _first_evading_budget(scores: np.ndarray, budgets, clean: np.ndarray,
                          threshold: float, eps_max: int) -> np.ndarray:
    """eps_min of each row of an (n, len(budgets)) post-attack score matrix.

    0 where the clean score is already below the threshold, else the first
    budget in 1..eps_max (all of which budgets must hold) whose score is
    below it, else NOT_EVADABLE.
    """
    cols = [budgets.index(eps) for eps in range(1, eps_max + 1)]
    hits = scores[:, cols] < threshold
    out = np.where(hits.any(axis=1), np.argmax(hits, axis=1) + 1, NOT_EVADABLE)
    out[clean < threshold] = 0
    return out


def epsilon_min_batch(model: TrainedModel, samples, eps_max: int,
                      method: str = "greedy", cfg: AttackConfig | None = None,
                      threshold: float = 0.0) -> np.ndarray:
    """Smallest addition budget in [1, eps_max] that evades, per sample.

    Samples already scored below the threshold get 0, and NOT_EVADABLE marks
    those no budget up to eps_max evades.  One attack over budgets
    0..eps_max gives every value; column 0 is the clean score.
    """
    if eps_max < 1:
        raise ValueError("eps_max must be >= 1")
    budgets = list(range(eps_max + 1))
    scores = attack_scores_over_grid(model, samples, budgets, threshold, cfg,
                                     method)
    return _first_evading_budget(scores, budgets, scores[:, 0], threshold,
                                 eps_max)


def pgd_evasion(model: TrainedModel, x: SparseBinaryVector, cfg: AttackConfig,
                threshold: float = 0.0) -> AttackResult:
    """Gradient-descent evasion of one sample under the addition budget."""
    if x.dim != model.d:
        raise ValueError(f"sample dim {x.dim} does not match model d={model.d}")
    X0b = x.to_dense().astype(bool)[None]
    _, best_points, evaded, iterations, traces = _pgd_core(
        model, X0b, [cfg.epsilon], cfg, threshold, record_trace=True)
    adv = SparseBinaryVector(
        tuple(int(i) for i in np.flatnonzero(best_points[0, 0])), x.dim)
    added = tuple(sorted(set(adv.indices) - set(x.indices)))
    result = AttackResult(adv, added, tuple(traces[0]), bool(evaded[0, 0]),
                          int(iterations[0, 0]))
    return _check_result(result, x, cfg)


def greedy_linear_evasion(model: LinearModel, x: SparseBinaryVector,
                          epsilon: int, threshold: float = 0.0) -> AttackResult:
    """Exact feature-addition attack on a linear model.

    Absent negative-weight features are added from most to least negative,
    stopping as soon as the score drops below the threshold or the budget is
    spent.
    """
    if not isinstance(model, LinearModel):
        raise TypeError("greedy_linear_evasion requires a linear model")
    if x.dim != model.d:
        raise ValueError(f"sample dim {x.dim} does not match model d={model.d}")
    if epsilon < 1:
        raise ValueError("epsilon must be >= 1")
    s = score(model, x)
    trace = [s]
    if s < threshold:
        result = AttackResult(x, (), tuple(trace), True, 0)
        return _check_result(result, x, AttackConfig(epsilon))

    w = model.weights
    present = np.zeros(model.d, dtype=bool)
    if x.indices:
        present[list(x.indices)] = True
    candidates = np.flatnonzero(~present & (w < 0.0))
    candidates = candidates[np.argsort(w[candidates], kind="stable")]

    added: list[int] = []
    evaded = False
    for idx in candidates[:epsilon]:
        added.append(int(idx))
        s += float(w[idx])
        trace.append(s)
        if s < threshold:
            evaded = True
            break
    adv = SparseBinaryVector.from_indices(list(x.indices) + added, x.dim)
    result = AttackResult(adv, tuple(sorted(added)), tuple(trace), evaded,
                          len(added))
    return _check_result(result, x, AttackConfig(epsilon))


def epsilon_min(model: TrainedModel, x: SparseBinaryVector, eps_max: int,
                method: str = "greedy", cfg: AttackConfig | None = None,
                threshold: float = 0.0) -> float:
    """epsilon_min_batch of one sample: an int, or NOT_EVADABLE."""
    value = epsilon_min_batch(model, [x], eps_max, method, cfg, threshold)[0]
    return NOT_EVADABLE if value == NOT_EVADABLE else int(value)


def _greedy_addition_paths(model: LinearModel, X0b: np.ndarray,
                           scores0: np.ndarray):
    """Per-sample cumulative greedy scores over the shared candidate ordering.

    Returns (path_scores, path_counts): entry j holds the score and number of
    additions after considering the j-th most negative weight, restricted to
    features absent from each sample.
    """
    w = model.weights
    order = np.flatnonzero(w < 0.0)
    order = order[np.argsort(w[order], kind="stable")]
    absent = ~X0b[:, order]
    contrib = np.where(absent, w[order][None, :], 0.0)
    path_scores = scores0[:, None] + np.cumsum(contrib, axis=1)
    return path_scores, np.cumsum(absent, axis=1)


def attack_scores_over_grid(model: TrainedModel, samples, eps_grid,
                            threshold: float, cfg: AttackConfig | None = None,
                            method: str = "auto") -> np.ndarray:
    """Score of every sample after attacking at each budget: (n, len(grid)).

    A grid entry of 0 means no perturbation.  Greedy keeps its early-stop
    semantics (it quits adding once the threshold is crossed); the descent
    attack minimizes within the budget.
    """
    samples = list(samples)
    if not samples:
        raise ValueError("no samples to attack")
    eps_grid = [int(e) for e in eps_grid]
    if any(e < 0 for e in eps_grid):
        raise ValueError("budgets must be non-negative")
    if method not in ATTACK_METHODS:
        raise ValueError(f"unknown attack method {method!r}; expected one of "
                         f"{ATTACK_METHODS}")
    if method == "auto":
        method = "greedy" if isinstance(model, LinearModel) else "pgd"
    if method == "greedy" and not isinstance(model, LinearModel):
        raise TypeError("greedy attack requires a linear model")

    d = model.d
    for x in samples:
        if x.dim != d:
            raise ValueError("sample dimensionality does not match the model")
    X0b = np.zeros((len(samples), d), dtype=bool)
    for row, x in enumerate(samples):
        if x.indices:
            X0b[row, list(x.indices)] = True
    scores0 = model.decision_batch(X0b.astype(np.float64))

    out = np.empty((len(samples), len(eps_grid)))
    if method == "greedy":
        path_scores, path_counts = _greedy_addition_paths(model, X0b, scores0)
        n, k = path_scores.shape
        if k == 0:
            out[:] = scores0[:, None]
            return out
        rows = np.arange(n)
        attackable = scores0 >= threshold
        crossing = path_scores < threshold
        any_cross = crossing.any(axis=1)
        first_cross = np.where(any_cross, np.argmax(crossing, axis=1), 0)
        cross_scores = path_scores[rows, first_cross]
        cross_counts = np.where(any_cross, path_counts[rows, first_cross],
                                np.inf)
        for col, eps in enumerate(eps_grid):
            if eps == 0:
                out[:, col] = scores0
                continue
            last = np.sum(path_counts <= eps, axis=1) - 1
            budget_scores = np.where(last >= 0,
                                     path_scores[rows, np.maximum(last, 0)],
                                     scores0)
            use_cross = any_cross & (cross_counts <= eps)
            res = np.where(use_cross, cross_scores, budget_scores)
            out[:, col] = np.where(attackable, res, scores0)
        return out

    budgets = sorted({e for e in eps_grid if e > 0})
    if budgets:
        best_scores, _, _, _, _ = _pgd_core(
            model, X0b, budgets, cfg if cfg is not None else AttackConfig(1),
            threshold)
    for col, eps in enumerate(eps_grid):
        out[:, col] = scores0 if eps == 0 else best_scores[:, budgets.index(eps)]
    return out


def security_evaluation(model: TrainedModel, malware_samples, eps_grid,
                        threshold: float, cfg: AttackConfig | None = None,
                        method: str = "auto",
                        fpr: float = float("nan")) -> SecurityCurve:
    """Detection rate at the fixed threshold after attacking at each budget."""
    eps_grid = [int(e) for e in eps_grid]
    return SecurityCurve.from_scores(attack_scores_over_grid(
        model, malware_samples, eps_grid, threshold, cfg, method),
        eps_grid, threshold, fpr)
