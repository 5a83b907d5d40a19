"""Sparse feature-addition evasion.

The gradient attack (Biggio et al., ECML-PKDD 2013) runs two projected-descent
passes that lower one best-score matrix.  The binary pass iterates on the
projected binary point itself, re-evaluating the gradient after every
accepted flip; the shadow pass descends a box-clipped real-relaxed iterate
whose accumulated gradient pressure lets weakly-graded coordinates cross the
binarization threshold.  Each step applies the composite projection (clip
into the box [x0, 1], binarize at 0.5, keep the epsilon top-ranked additions),
so every scored point is feasible, and the best score of any feasible point
seen is kept because the stopping rule can halt past the optimum.  Every
attack call takes its samples as the rows of one (n, d) 0/1 matrix, checked
once on entry, and works on that bool matrix throughout.  Only scores are
kept: no attack call returns adversarial points, and each point's budget and
addition-only invariant is checked when its score is recorded.
The attack only ever adds features: the box keeps every feature the sample
has, so the app keeps its malicious function.

One engine, ``_pgd_core``, attacks a whole list of budgets at once.  The
binary pass starts every budget from the same clean point, and budgets keep
one iterate until a step changes more features than the smaller of them
allow: a row of the pass is a sample and an interval of budgets that share
an iterate, so each point is evaluated once for all of them, and a budget
splits off with its own projection only when its iterate departs.  The
shadow iterate never reads the budget (its step, its stopping test and its
active set depend only on the box), so its trajectory is computed once per
sample and each iterate is projected onto every budget.  The projections are
nested: rank the iterate's additions (inside the box its only changes) by
v, largest first, ties to the lower index, and cut the ranking at the
largest budget; the budget-e point is x0 plus the first e additions.  For an
RBF model the nested points are scored incrementally: points and support
vectors are 0/1, so ||x - s_i||^2 is a small integer and adding x_j moves it
by exactly +(1 - 2 s_ij); integer sums are exact in any order and in any
integer type that holds them (int16 up to d = 32,767, int32 above, with int8
deltas), so the scores equal those of the materialised points bit for bit.
Each iteration scores only points it has not scored before.  A row whose
ranked prefix of budgets[-1] additions is the previous iteration's is not
scored again: its point at every budget is unchanged, so its scores are the
ones already compared with the best scores, and none can be strictly lower.
Every prefix starts empty, at the clean point, where the best scores start.
Within the other rows, a (row, budget) cell whose point is the previous
budget's (the clean point at the first budget) is skipped with +inf, and so,
on calls large enough to pay for the set test, is a cell whose addition set
equals the previous iteration's at that budget: an equal score was already
compared at the same or a smaller budget, so the running minimum along the
budgets that ``_pgd_core`` takes ends every row where it would have.  The
shadow pass holds its live rows' state compact and in sample order, so each
kernel call sees the row batch a gather from (n, d) arrays would give it.
A linear model gets no shadow pass: its gradient is constant, so the binary
pass already adds features in the optimal order.

For linear models an exact greedy oracle exists: additions are independent,
so adding absent features in ascending weight order is optimal.  It stops
adding once the threshold is crossed, so a budget's greedy score is the path
score at the first crossing or at the last step the budget affords, whichever
comes first.

Every attack product is read off the one (n, grid) score matrix of
``attack_scores_over_grid``: the security curve (``SecurityCurve.from_scores``),
the robustness score and ``eps_min``.  The attack at budget e evades exactly
when its grid score is below the threshold, so ``eps_min`` is the first such
budget of an attack over 0..eps_max; no pass stops early on evasion.  A
point feasible at one budget is feasible at every larger one, so each row of
that matrix is a running minimum along the ascending budgets and no security
curve rises.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .featurespace import _binary_rows, _int_budgets
from .models import KernelModel, LinearModel, TrainedModel

NOT_EVADABLE: float = math.inf
ATTACK_METHODS = ("auto", "pgd", "greedy")
# Values per (group rows, d) array of a binary-pass chunk: 4 MiB of float64.
_BINARY_CHUNK_VALUES = 2 ** 19
# Values per block of shadow-pass cells scored together: 2 MiB of float64.
_NESTED_BLOCK_VALUES = 2 ** 18
# Kernel values (rows x budgets x n_sv) from which a shadow-pass call
# skips the cells whose addition set is unchanged.
_SKIP_MIN_VALUES = 2 ** 14
# The sort key of a feature that is not an addition.
_LAST_KEY = np.iinfo(np.int64).max
# The iteration cap of each descent pass when the caller gives none.
_MAX_ITERS = 1000


@dataclass(frozen=True)
class SecurityCurve:
    """Detection rate at a fixed threshold as the addition budget grows."""

    epsilons: tuple[int, ...]
    detection_rates: tuple[float, ...]

    def __post_init__(self):
        if len(self.epsilons) != len(self.detection_rates):
            raise ValueError("epsilons and detection_rates lengths differ")
        for r in self.detection_rates:
            if not 0.0 <= r <= 1.0:
                raise ValueError("detection rates must lie in [0, 1]")

    @classmethod
    def from_scores(cls, scores: np.ndarray, eps_grid,
                    threshold: float) -> "SecurityCurve":
        """The curve of an (n, len(eps_grid)) post-attack score matrix;
        every budget must be an integer."""
        epsilons = tuple(_int_budgets(eps_grid))
        rates = tuple(float(np.mean(col >= threshold)) for col in scores.T)
        return cls(epsilons, rates)

    def area(self) -> float:
        """Mean detection rate over the grid (higher = harder to evade)."""
        return float(np.mean(self.detection_rates))


def _check_feasible(X0b: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                    budgets) -> None:
    """Raise unless the point that flips X0b at (rows, cols) adds features
    only, at most budgets[r] (one budget or one per row) to row r."""
    if np.any(np.bincount(rows, minlength=len(X0b)) > budgets):
        raise RuntimeError("attack returned a point over its change budget")
    if np.any(X0b[rows, cols]):
        raise RuntimeError("addition-only attack removed a present feature")


def _ranked_changes(V: np.ndarray, X0b: np.ndarray, width: int):
    """Rank each clipped row's additions by V, largest first, cut at width.

    An addition is an absent feature that V binarises to 1.  Inside the box
    [X0, 1] those are the only changes, and V is each one's move from X0.
    Ties go to the lower feature index.  Returns (order, counts): the first
    counts[r] <= width entries of the (rows, width) order[r] are row r's
    first additions in rank order and the rest are -1.
    One stable sort per row ranks every feature.  An addition's V is at
    least 0.5, and a positive float64's bits, read as an int64, order as
    the float does, so the key is minus those bits, and the non-additions
    are keyed the largest int64 so that they sort last; integer keys sort
    faster than float ones, and equal moves stay in index order.
    """
    additions = (V >= 0.5) & ~X0b
    counts = np.minimum(additions.sum(axis=1), width)
    key = np.where(additions, -V.view(np.int64), _LAST_KEY)
    ranked = np.argsort(key, axis=1, kind="stable")[:, :width]
    # width may exceed d: the columns past d stay -1
    order = np.full((V.shape[0], width), -1, dtype=np.intp)
    np.copyto(order[:, :ranked.shape[1]], ranked,
              where=np.arange(ranked.shape[1]) < counts[:, None])
    return order, counts


def _prefix_changes(order: np.ndarray, counts: np.ndarray, epsilon):
    """(rows, cols) of the first min(epsilon, count) ranked changes of each
    row; epsilon may be one budget or one per row."""
    taken = np.arange(order.shape[1]) < np.minimum(counts, epsilon)[:, None]
    rows, pos = np.nonzero(taken)
    return rows, order[rows, pos]


def _project_clipped_batch(V: np.ndarray, X0b: np.ndarray,
                           epsilon) -> np.ndarray:
    """Binarize already-clipped rows and enforce the change budget rowwise;
    epsilon may be one budget or one per row."""
    XB = V >= 0.5
    epsilon = np.broadcast_to(epsilon, len(V))
    over = np.flatnonzero((XB != X0b).sum(axis=1) > epsilon)
    if over.size:
        rows, cols = _prefix_changes(
            *_ranked_changes(V[over], X0b[over], epsilon[over].max()),
            epsilon[over])
        XB[over] = X0b[over]
        XB[over[rows], cols] = True
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


def _ranges(lo: np.ndarray, lengths: np.ndarray):
    """(owner, index): entry r contributes lo[r], lo[r] + 1, ...,
    lo[r] + lengths[r] - 1, each owned by r, in order."""
    owner = np.repeat(np.arange(lengths.size), lengths)
    index = np.arange(owner.size) + (lo - (np.cumsum(lengths) - lengths))[owner]
    return owner, index


def _binary_pass(model: TrainedModel, X0b: np.ndarray, lb: np.ndarray,
                 start, budgets, max_iters: int, threshold: float,
                 best_scores: np.ndarray) -> None:
    """The binary-iterate pass at every budget of an ascending list; lowers
    best_scores in place, checking each point's feasibility as its score is
    recorded.

    Each iteration steps from the budget's projected binary point, with
    enough step to flip at least one coordinate.  Budgets whose iterates
    coincide share one row: a group is a sample and an interval [lo, hi] of
    the budget list, and each sample starts as one group over all of them,
    at its clean point.  After a step that binarises to c changes, the
    members with budget >= c keep that point as one group and each smaller
    budget splits off with its own top-budget projection.  So every member
    visits exactly the points of a pass at its budget alone, which is what
    a one-budget call runs.  Members share their whole history, so one
    objective, gradient and stopping test serve the group, its best score
    is the same at each member, and one write lowers
    best_scores[sample, lo:hi + 1].  A sample holds at most k groups, so
    chunks of _BINARY_CHUNK_VALUES // (k d) samples (at least one) keep
    each (rows, d) array of live groups within that many values.
    """
    scores0, grad0 = start
    budget_arr = np.asarray(budgets)
    k = budget_arr.size
    # already-benign samples are left alone
    attacked = np.flatnonzero(scores0 >= threshold)
    chunk = max(1, _BINARY_CHUNK_VALUES // (k * X0b.shape[1]))
    for first in range(0, attacked.size, chunk):
        sample = attacked[first:first + chunk]
        lo = np.zeros(sample.size, dtype=np.intp)
        hi = np.full(sample.size, k - 1)
        cur, g, prev_obj = lb[sample], grad0[sample], scores0[sample]
        for _ in range(max_iters):
            if sample.size == 0:
                break
            X0g, lbg = X0b[sample], lb[sample]
            eta = _movable_eta(g, cur, lbg, 0.5005)
            stepped = np.clip(cur - eta[:, None] * g, lbg, 1.0)
            # the first member whose budget covers every change, or hi + 1
            whole = np.clip(np.searchsorted(
                budget_arr, ((stepped >= 0.5) != X0g).sum(axis=1)), lo, hi + 1)
            parent, lo = _ranges(lo, whole - lo + (whole <= hi))
            hi = np.where(lo < whole[parent], lo, hi[parent])
            sample, X0g = sample[parent], X0g[parent]
            binary = _project_clipped_batch(stepped[parent], X0g,
                                            budget_arr[lo])
            cur = binary.astype(np.float64)
            obj, g = model.decision_and_gradient_batch(cur)
            improved = np.flatnonzero(obj < best_scores[sample, lo])
            X0i = X0g[improved]
            _check_feasible(X0i, *np.nonzero(binary[improved] != X0i),
                            budget_arr[lo[improved]])
            at, cols = _ranges(lo[improved], hi[improved] - lo[improved] + 1)
            best_scores[sample[improved][at], cols] = obj[improved][at]

            go = ~(np.abs(obj - prev_obj[parent]) <= 1e-6)
            sample, lo, hi = sample[go], lo[go], hi[go]
            cur, g, prev_obj = cur[go], g[go], obj[go]


def _distance_dtype(d: int):
    """The integer type of the shadow pass's running squared distances: a
    0/1 point is at most d from a 0/1 support vector."""
    return np.int16 if d <= np.iinfo(np.int16).max else np.int32


def _nested_scores(model: KernelModel, deltas: np.ndarray, sq0: np.ndarray,
                   order: np.ndarray, counts: np.ndarray, budgets,
                   prev=None) -> np.ndarray:
    """Decision values at x0 plus its first min(e, count) ranked additions,
    for each e of the ascending budgets, at the new cells only: (rows,
    len(budgets)), +inf at every other cell.

    ``sq0`` is the squared distances of the clean rows,
    ``order[r, :counts[r]]`` lists row r's additions in rank order, and
    ``deltas[j]`` is the change 1 - 2 s_ij of every ||x - s_i||^2 when
    feature j is added.  With 0/1 points and support vectors every squared
    distance is a small integer, so the running sums are exact in any order
    and in any integer type that holds them, and each value equals
    ``decision_batch`` on the materialised point bit for bit.  The rows are
    taken by descending count, so the rows still adding at a position are a
    leading slice of the running sums.  Each cell's sums are copied out when
    its budget is reached, and the cells are scored together in blocks of
    about _NESTED_BLOCK_VALUES values, each cast to float64 once.  Memory
    stays O(rows x n_sv) plus one block.

    A cell is new if its row adds a feature past the previous budget (else
    its point is the previous budget's, or the clean point at the first)
    and, when ``prev`` gives the (order, counts) of the same rows at the
    previous iteration, its addition set differs from prev's at the same
    budget (else it is the point scored there).  Every +inf cell thus has
    an equal score already compared at the same or a smaller budget, or is
    the clean point, where the best scores start, so the running minimum
    along the budgets that the caller takes is unchanged.  A (rows, d + 1)
    table gives each entry's rank in prev's order (width where absent); the
    two budget-e sets are equal iff both prefixes hold m entries and the
    running max of the first m ranks is below m.
    """
    n, width = order.shape
    if n == 0:
        return np.empty((0, len(budgets)))
    by_count = np.argsort(-counts, kind="stable")
    counts, order, sq = counts[by_count], order[by_count], sq0[by_count]
    out = np.full((n, len(budgets)), np.inf)
    new = counts[:, None] > np.array([0, *budgets[:-1]])
    if prev is not None:
        budget_arr = np.asarray(budgets)
        prev_order, prev_counts = prev[0][by_count], prev[1][by_count]
        at = np.arange(n)[:, None]
        rank = np.full((n, deltas.shape[0] + 1), width)
        rank[at, prev_order] = np.arange(width)
        seen = np.maximum.accumulate(rank[at, order], axis=1)
        taken = np.minimum(counts[:, None], budget_arr)
        new &= ((taken != np.minimum(prev_counts[:, None], budget_arr))
                | (seen[at, taken - 1] >= taken))
    # the new cells budget by budget, rows ascending within a budget
    cols, rows = np.nonzero(new.T)
    per_budget = np.count_nonzero(new, axis=0).tolist()
    descending = (-counts).tolist()
    block = max(1, _NESTED_BLOCK_VALUES // sq.shape[1])
    values, pending, held, first, done = [], [], 0, 0, 0
    for col, eps in enumerate(budgets):
        for pos in range(done, eps):
            live = bisect.bisect_left(descending, -pos)
            if live == 0:
                break
            sq[:live] += deltas[order[:live, pos]]
        done = eps
        if per_budget[col]:
            pending.append(sq[rows[first:first + per_budget[col]]])
            first += per_budget[col]
            held += per_budget[col]
        if held >= block or (held and col == len(budgets) - 1):
            cells = (pending[0] if len(pending) == 1
                     else np.concatenate(pending))
            values.append(model._weights_from_sq(cells).sum(axis=1)
                          + model.bias)
            pending, held = [], 0
    if values:
        out[by_count[rows], cols] = np.concatenate(values)
    return out


def _shadow_pass(model: KernelModel, X0b: np.ndarray, lb: np.ndarray, start,
                 budgets, max_iters: int, threshold: float,
                 best_scores: np.ndarray) -> None:
    """The shadow pass of a kernel model, shared by every budget; lowers
    best_scores in place, checking each point's feasibility as its score is
    recorded.

    The live rows' state (iterate, lower bound, clean rows, gradient,
    previous objective, ranked prefix and clean squared distances) is held
    row-aligned in ascending sample order, and is compacted only when rows
    converge, so each kernel call sees the row batch that gathering the
    live rows from (n, .) arrays would give it.  The clean squared
    distances are integers, held as ``_distance_dtype(d)`` beside an int8
    delta table.  The prefixes start empty, at the clean point, where
    best_scores starts.  Each iterate's nested projections are scored only
    for the rows whose ranked prefix of budgets[-1] additions differs from
    the previous iteration's; within those, a cell whose addition set is
    unchanged is skipped (``_nested_scores`` with ``prev``) once the rows
    and budgets scored hold _SKIP_MIN_VALUES kernel values, below which
    the set test costs more than the cells it saves.  Cells that are not
    new score +inf, so best_scores is exact only after the caller's
    running minimum along the budgets.  One fused kernel call per iteration
    evaluates the new iterate and gives the gradient that the still-active
    rows step with next.  A row leaves the pass when its objective
    converges.
    """
    scores0, grad0 = start
    # already-benign samples are left alone
    rows = np.flatnonzero(scores0 >= threshold)
    if rows.size == 0:
        return
    X0, low = X0b[rows], lb[rows]
    cur, g, prev_obj = low, grad0[rows], scores0[rows]
    sq0 = model._sq_distances(low).astype(_distance_dtype(model.d))
    # row j: the change of every ||x - s_i||^2 when x_j goes from 0 to 1
    deltas = (1 - 2 * model.support_vectors.T).astype(np.int8, order="C")
    skip_rows = _SKIP_MIN_VALUES / (len(budgets) * deltas.shape[1])
    budget_arr = np.asarray(budgets)
    # before the first iteration each row is at its clean point: no
    # additions, and best_scores starts at its score
    prefix = (np.full((rows.size, budgets[-1]), -1, dtype=np.intp),
              np.zeros(rows.size, dtype=np.intp))
    for _ in range(max_iters):
        eta = _movable_eta(g, cur, low, 0.1)
        stepped = eta[:, None] * g
        np.subtract(cur, stepped, out=stepped)
        np.maximum(stepped, low, out=stepped)
        np.minimum(stepped, 1.0, out=stepped)
        order, counts = _ranked_changes(stepped, X0, budgets[-1])
        # an unchanged prefix scores bit for bit what it scored before
        changed = np.flatnonzero((order != prefix[0]).any(axis=1))
        prev = ((prefix[0][changed], prefix[1][changed])
                if changed.size >= skip_rows else None)
        bin_scores = _nested_scores(model, deltas, sq0[changed],
                                    order[changed], counts[changed], budgets,
                                    prev)
        ri, ci = np.nonzero(bin_scores < best_scores[rows[changed]])
        if ri.size:
            hit = changed[ri]
            _check_feasible(X0[hit], *_prefix_changes(
                order[hit], counts[hit], budget_arr[ci]), budget_arr[ci])
            best_scores[rows[hit], ci] = bin_scores[ri, ci]
        prefix = order, counts
        obj, g = model.decision_and_gradient_batch(stepped)
        cur = stepped

        done = np.abs(obj - prev_obj) <= 1e-6
        prev_obj = obj
        if done.any():
            if done.all():
                break
            go = ~done
            rows, X0, low, cur, g, prev_obj, sq0 = (
                a[go] for a in (rows, X0, low, cur, g, prev_obj, sq0))
            prefix = prefix[0][go], prefix[1][go]


def _pgd_core(model: TrainedModel, X0b: np.ndarray, lb: np.ndarray, start,
              budgets, max_iters: int, threshold: float) -> np.ndarray:
    """(n, k) best scores of the batched attack at each budget of an
    ascending list, from ``start``, the (scores, gradients) of the rows X0b,
    whose float64 copy ``lb`` is the box's lower bound.

    One binary pass over the whole list, then on a kernel model one shadow
    pass shared by all budgets; both lower the same score matrix, so each
    (row, budget) pair gets the best feasible point either scheme visited.
    On a linear model the binary pass already flips absent features in
    exact descending-weight order (the gradient is constant), which is the
    optimal addition schedule, so there is no shadow pass.  A point feasible
    at one budget is feasible at every larger one, so a running minimum
    along the budgets keeps every score valid and makes each row
    non-increasing in the budget.
    """
    best_scores = np.repeat(start[0][:, None], len(budgets), axis=1)
    _binary_pass(model, X0b, lb, start, budgets, max_iters, threshold,
                 best_scores)
    if isinstance(model, KernelModel):
        _shadow_pass(model, X0b, lb, start, budgets, max_iters, threshold,
                     best_scores)
    return np.minimum.accumulate(best_scores, axis=1)


def _first_evading_budget(scores: np.ndarray, budgets, threshold: float,
                          eps_max: int) -> np.ndarray:
    """eps_min of each row of an (n, len(budgets)) post-attack score matrix.

    0 where the clean score (budget 0) is already below the threshold, else
    the first budget in 1..eps_max whose score is below it, else
    NOT_EVADABLE.  budgets must hold every budget in 0..eps_max.
    """
    cols = [budgets.index(eps) for eps in range(1, eps_max + 1)]
    hits = scores[:, cols] < threshold
    out = np.where(hits.any(axis=1), np.argmax(hits, axis=1) + 1, NOT_EVADABLE)
    out[scores[:, budgets.index(0)] < threshold] = 0
    return out


def epsilon_min_batch(model: TrainedModel, samples, eps_max: int,
                      method: str = "auto", max_iters: int = _MAX_ITERS,
                      threshold: float = 0.0) -> np.ndarray:
    """Smallest addition budget in [1, eps_max] that evades, per sample.

    Samples already scored below the threshold get 0, and NOT_EVADABLE marks
    those no budget up to eps_max evades.  One attack over budgets
    0..eps_max gives every value; column 0 is the clean score.
    """
    (eps_max,) = _int_budgets([eps_max], "eps_max")
    if eps_max < 1:
        raise ValueError("eps_max must be >= 1")
    budgets = list(range(eps_max + 1))
    scores = attack_scores_over_grid(model, samples, budgets, threshold,
                                     max_iters, method)
    return _first_evading_budget(scores, budgets, threshold, eps_max)


def epsilon_min(model: TrainedModel, x, eps_max: int,
                method: str = "auto", max_iters: int = _MAX_ITERS,
                threshold: float = 0.0) -> float:
    """epsilon_min_batch of one binary (d,) row: an int, or NOT_EVADABLE."""
    value = epsilon_min_batch(model, [x], eps_max, method, max_iters,
                              threshold)[0]
    return NOT_EVADABLE if value == NOT_EVADABLE else int(value)


def _greedy_addition_paths(model: LinearModel, X0b: np.ndarray,
                           scores0: np.ndarray):
    """Per-sample cumulative greedy scores over the shared candidate ordering.

    Returns (path_scores, path_counts): column 0 is the clean point (its
    score, 0 additions) and column j the score and number of additions after
    considering the j-th most negative weight, restricted to features absent
    from each sample.  Both tables are filled in place, so one (n, j + 1)
    array of each is live.
    """
    w = model.weights
    order = np.flatnonzero(w < 0.0)
    order = order[np.argsort(w[order], kind="stable")]
    absent = ~X0b[:, order]
    path_scores = np.empty((len(X0b), order.size + 1))
    path_scores[:, 0] = scores0
    # each step's change: its weight where the feature is absent, else
    # +0.0 (not False * w, which is -0.0)
    steps = path_scores[:, 1:]
    steps.fill(0.0)
    np.copyto(steps, w[order], where=absent)
    np.cumsum(steps, axis=1, out=steps)
    steps += scores0[:, None]
    path_counts = np.empty((len(X0b), order.size + 1), dtype=np.int64)
    path_counts[:, 0] = 0
    # cast first: a bool-to-int64 cumsum would allocate its own copy
    path_counts[:, 1:] = absent
    np.cumsum(path_counts[:, 1:], axis=1, out=path_counts[:, 1:])
    return path_scores, path_counts


def attack_scores_over_grid(model: TrainedModel, samples, eps_grid,
                            threshold: float, max_iters: int = _MAX_ITERS,
                            method: str = "auto") -> np.ndarray:
    """Score of every row of an (n, d) 0/1 sample matrix after attacking at
    each budget: (n, len(grid)).

    Every grid entry must be an integer, and 0 means no perturbation.
    Greedy keeps its early-stop semantics (it quits adding once the
    threshold is crossed); the descent attack minimizes within the budget.
    Each descent iteration's step is adaptive, normalized by the largest
    gradient component that can still move: big enough to flip the
    steepest coordinate on the binary-iterate pass, 0.1 of that on the
    shadow pass.  A row leaves a pass once its
    objective moves by at most 1e-6, or after max_iters iterations; every
    method refuses a max_iters below 1.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    X0b = _binary_rows(samples, model.d, bool)
    if X0b.shape[0] == 0:
        raise ValueError("no samples to attack")
    eps_grid = _int_budgets(eps_grid)
    if any(e < 0 for e in eps_grid):
        raise ValueError("budgets must be non-negative")
    if method not in ATTACK_METHODS:
        raise ValueError(f"unknown attack method {method!r}; expected one of "
                         f"{ATTACK_METHODS}")
    if method == "auto":
        method = "greedy" if isinstance(model, LinearModel) else "pgd"
    if method == "greedy" and not isinstance(model, LinearModel):
        raise TypeError("greedy attack requires a linear model")

    out = np.empty((X0b.shape[0], len(eps_grid)))
    if method == "greedy":
        scores0 = model.decision_batch(X0b.astype(np.float64))
        # Each budget stops at the first crossing or at the last step whose
        # addition count fits, whichever comes first; an already-benign row
        # crosses at its clean point (step 0).
        path_scores, path_counts = _greedy_addition_paths(model, X0b, scores0)
        crossing = path_scores < threshold
        first_cross = np.where(crossing.any(axis=1),
                               np.argmax(crossing, axis=1),
                               path_scores.shape[1] - 1)
        rows = np.arange(X0b.shape[0])
        for col, eps in enumerate(eps_grid):
            last = np.sum(path_counts <= eps, axis=1) - 1
            out[:, col] = path_scores[rows, np.minimum(first_cross, last)]
        return out

    # one fused call scores the rows and gives the descent's first
    # gradient; the rows' float64 copy is the box's lower bound
    lb = X0b.astype(np.float64)
    start = model.decision_and_gradient_batch(lb)
    scores0 = start[0]
    budgets = sorted({e for e in eps_grid if e > 0})
    if budgets:
        best_scores = _pgd_core(model, X0b, lb, start, budgets, max_iters,
                                threshold)
    for col, eps in enumerate(eps_grid):
        out[:, col] = scores0 if eps == 0 else best_scores[:, budgets.index(eps)]
    return out
