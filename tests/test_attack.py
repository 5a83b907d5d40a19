import functools
import itertools
import math
import re
from typing import NamedTuple

import numpy as np
import pytest

from evadelab import attack as attack_mod
from evadelab.attack import (NOT_EVADABLE, SecurityCurve,
                             attack_scores_over_grid, epsilon_min,
                             epsilon_min_batch)
from evadelab.featurespace import (SyntheticConfig, _binary_rows,
                                   generate_synthetic, split)
from evadelab.models import (KernelModel, LinearModel, TrainConfig,
                             detection_rate_at_fpr, score, train_linear,
                             train_rbf_svm)
from evadelab.pipeline import PRESETS


def vec(indices, d):
    """The bool (d,) row with the given features present."""
    x = np.zeros(d, dtype=bool)
    x[list(indices)] = True
    return x


def active(x):
    """The present features of a bool row, ascending."""
    return np.flatnonzero(x).tolist()


def project(x_cont, x_orig, epsilon):
    """The engine's composite projection of one real (d,) row around the 0/1
    row x_orig, as a bool (d,) row: clip into [x_orig, 1], binarize at 0.5,
    keep the epsilon largest changes (ties to the lower index)."""
    v = np.asarray(x_cont, dtype=np.float64)
    x0 = _binary_rows([x_orig], v.size)
    return attack_mod._project_clipped_batch(np.clip(v[None], x0, 1.0),
                                             x0.astype(bool), epsilon)[0]


def brute_force_best(model, x, eps):
    base = active(x)
    best = score(model, x)
    for k in range(1, eps + 1):
        for add in itertools.combinations(np.flatnonzero(~x), k):
            best = min(best, score(model, vec(base + list(add), x.size)))
    return best


def pgd_score(model, x, epsilon, max_iters, threshold):
    """Score of one sample after the gradient attack at one budget."""
    return attack_scores_over_grid(model, [x], [epsilon], threshold,
                                   max_iters, "pgd")[0, 0]


class GreedyResult(NamedTuple):
    added_indices: tuple[int, ...]
    score_trace: tuple[float, ...]
    evaded: bool

    @property
    def score_after(self) -> float:
        return self.score_trace[-1]


def greedy_linear_evasion(model, x, epsilon, threshold=0.0):
    """Reference oracle: the exact feature-addition attack on a linear model.

    Absent negative-weight features are added from most to least negative,
    stopping as soon as the score drops below the threshold or the budget is
    spent.  The greedy grid of attack_scores_over_grid must agree with it.
    """
    if not isinstance(model, LinearModel):
        raise TypeError("greedy_linear_evasion requires a linear model")
    s = score(model, x)
    trace = [s]
    if s < threshold:
        return GreedyResult((), tuple(trace), True)

    w = model.weights
    candidates = np.flatnonzero(~x & (w < 0.0))
    candidates = candidates[np.argsort(w[candidates], kind="stable")]

    added = []
    evaded = False
    for idx in candidates[:epsilon]:
        added.append(int(idx))
        s += float(w[idx])
        trace.append(s)
        if s < threshold:
            evaded = True
            break
    return GreedyResult(tuple(sorted(added)), tuple(trace), evaded)


# Budgets that are not integers: each used to be truncated (1.5 ran as
# budget 1, True as 1) or to fail deep in the attack (a str).
NON_INTEGER_BUDGETS = [1.5, 2.0, True, "2", np.float64(2.0), np.True_]


def budget_error(name, value):
    return f"^{name} must be an integer, got {re.escape(repr(value))}$"


class TestAttackConfig:
    def test_validation(self):
        # every method refuses the cap, greedy too, which never reads it
        m = LinearModel(np.array([-1.0, 1.0]), 0.5)
        for method in ("greedy", "pgd"):
            with pytest.raises(ValueError, match="max_iters must be >= 1"):
                attack_scores_over_grid(m, [vec([1], 2)], [1], 0.0, 0, method)
        with pytest.raises(ValueError, match="max_iters must be >= 1"):
            epsilon_min_batch(m, [vec([1], 2)], 2, "greedy", max_iters=0)
        with pytest.raises(ValueError, match="max_iters must be >= 1"):
            epsilon_min(m, vec([1], 2), 2, max_iters=0)

    def test_budget_below_one_rejected(self):
        # budget 0 is the clean score; eps_min searches budgets from 1
        m = LinearModel(np.array([-1.0, 1.0]), 0.5)
        with pytest.raises(ValueError, match="eps_max must be >= 1"):
            epsilon_min(m, vec([1], 2), 0)
        with pytest.raises(ValueError, match="budgets must be non-negative"):
            attack_scores_over_grid(m, [vec([1], 2)], [-1], 0.0)

    @pytest.mark.parametrize("method", ["greedy", "pgd"])
    @pytest.mark.parametrize("budget", NON_INTEGER_BUDGETS)
    def test_grid_refuses_non_integer_budget(self, method, budget):
        m = LinearModel(np.array([-1.0, 1.0]), 0.5)
        with pytest.raises(ValueError, match=budget_error("budget", budget)):
            attack_scores_over_grid(m, [vec([1], 2)], [1, budget], 0.0,
                                    method=method)

    @pytest.mark.parametrize("eps_max", NON_INTEGER_BUDGETS)
    def test_eps_min_refuses_non_integer_cap(self, eps_max):
        m = LinearModel(np.array([-1.0, 1.0]), 0.5)
        with pytest.raises(ValueError, match=budget_error("eps_max", eps_max)):
            epsilon_min_batch(m, [vec([1], 2)], eps_max)

    def test_numpy_integer_budgets_accepted(self):
        m = LinearModel(np.array([-1.0, -0.5, 1.0]), 0.9)
        X = [vec([2], 3), vec([0, 2], 3)]
        grid = np.arange(4, dtype=np.int32)
        assert np.array_equal(
            attack_scores_over_grid(m, X, grid, 0.0),
            attack_scores_over_grid(m, X, [0, 1, 2, 3], 0.0))
        assert np.array_equal(epsilon_min_batch(m, X, np.int64(3)),
                              epsilon_min_batch(m, X, 3))
        curve = SecurityCurve.from_scores(np.zeros((2, 2)), grid[1:3], 0.0)
        assert curve.epsilons == (1, 2)
        assert all(type(e) is int for e in curve.epsilons)


    @pytest.mark.parametrize("samples", [[], np.zeros((0, 2))])
    def test_no_samples_named(self, samples):
        # an empty list is no rows of the model's width, not a bad width
        m = LinearModel(np.array([-1.0, 1.0]), 0.5)
        with pytest.raises(ValueError, match="^no samples to attack$"):
            attack_scores_over_grid(m, samples, [1], 0.0)
        with pytest.raises(ValueError, match="^no samples to attack$"):
            epsilon_min_batch(m, samples, 2)


class TestProject:
    def test_three_stage_trace(self):
        x = vec([2], 3)
        out = project(np.array([0.9, 0.2, 1.0]), x, 1)
        assert out.dtype == bool and active(out) == [0, 2]

    def test_fixed_point(self):
        x = vec([1, 3], 5)
        out = project(x.astype(float), x, 2)
        assert np.array_equal(out, x)

    def test_addition_only_restores_original(self):
        x = vec([0], 3)
        out = project(np.array([0.0, 0.0, 0.0]), x, 2)
        assert out[0]

    def test_budget_enforced_with_index_ties(self):
        x = vec([], 4)
        # all four coordinates equally attractive; lowest indices win
        out = project(np.array([0.8, 0.8, 0.8, 0.8]), x, 2)
        assert active(out) == [0, 1]

    def test_largest_moves_kept(self):
        x = vec([], 4)
        out = project(np.array([0.6, 0.9, 0.55, 0.95]), x, 2)
        assert active(out) == [1, 3]

    def test_dimension_checked(self):
        with pytest.raises(ValueError):
            project(np.zeros(3), vec([0], 4), 1)


class TestPgdEvasion:
    def test_linear_single_addition(self):
        m = LinearModel(np.array([-3.0, 1.0, 0.5]), 0.0)
        x = vec([2], 3)
        # -2.5 is x plus feature 0, the only evading point
        after = pgd_score(m, x, 1, 50, 0.0)
        assert after == pytest.approx(-2.5)

    def test_all_positive_weights_unattackable(self):
        m = LinearModel(np.array([0.5, 1.0, 2.0]), 0.0)
        x = vec([1], 3)
        after = pgd_score(m, x, 2, 50, 0.0)
        assert after == score(m, x) == 1.0

    def test_already_benign_returned_unchanged(self):
        # adding feature 1 would lower the score to -2.0, but x already
        # scores below the threshold, so the attack leaves it alone
        m = LinearModel(np.array([-1.0, -1.0]), 0.0)
        x = vec([0], 2)
        assert pgd_score(m, x, 1, 1000, 0.0) == score(m, x) == -1.0
        assert pgd_score(m, x, 1, 1000, -np.inf) == -2.0

    def test_already_benign_kernel_rows_keep_clean_scores(self):
        # adding any of the support vector's features lowers the score;
        # only the row at or above the threshold is attacked
        m = KernelModel((vec([1, 2, 3], 4),), np.array([-1.0]), 0.0, 0.5)
        xs = [vec([1, 2], 4), vec([0], 4)]
        clean = np.array([score(m, x) for x in xs])
        assert clean[0] < -0.3 <= clean[1]
        scores = attack_scores_over_grid(m, xs, [0, 1, 2], -0.3, 50, "pgd")
        assert np.all(scores[0] == clean[0])
        assert np.all(scores[1, 1:] < clean[1])
        attacked = attack_scores_over_grid(m, xs[:1], [1, 2], -np.inf, 50,
                                           "pgd")
        assert np.all(attacked[0] < clean[0])

    def test_feasibility_on_random_cases(self):
        # no attack may score below the best feasible point, which a point
        # over its budget or with a removed feature could; a lone row's dot
        # product may round differently from a batch's
        rng = np.random.default_rng(6)
        for kind in ("kernel", "linear"):
            for _ in range(20):
                d = int(rng.integers(5, 12))
                if kind == "kernel":
                    svs = tuple(vec(np.flatnonzero(rng.random(d) < 0.5), d)
                                for _ in range(4))
                    m = KernelModel(svs, rng.normal(size=4), 0.0, 0.5)
                else:
                    m = LinearModel(rng.normal(size=d), float(rng.normal()))
                xs = [vec(np.flatnonzero(rng.random(d) < 0.4), d)
                      for _ in range(3)]
                grid = [1, 2, 3]
                scores = attack_scores_over_grid(
                    m, xs, grid, -np.inf, 60, "pgd")
                for row, x in enumerate(xs):
                    for col, eps in enumerate(grid):
                        assert (scores[row, col]
                                >= brute_force_best(m, x, eps) - 1e-12)

    def test_reaches_brute_force_on_small_kernel_models(self):
        rng = np.random.default_rng(17)
        hits = 0
        for block in range(2):
            cfg = SyntheticConfig(d=8, n_benign=80, n_malware=80, n_strong=3,
                                  strong_rate_gap=0.5, weak_rate_gap=0.25,
                                  base_density=0.1, seed=500 + block)
            ds = generate_synthetic(cfg)
            m = train_rbf_svm(ds, 10.0, 0.3, TrainConfig(epochs=40, seed=block))
            mal = [s for s, y in zip(ds.samples, ds.labels)
                   if y == 1 and score(m, s) >= 0]
            for x in mal[:5]:
                after = pgd_score(m, x, 2, 300, -np.inf)
                if after <= brute_force_best(m, x, 2) + 1e-9:
                    hits += 1
        assert hits >= 8  # of 10


class TestGreedyEvasion:
    def test_single_addition(self):
        m = LinearModel(np.array([-3.0, 1.0, 0.5]), 0.0)
        res = greedy_linear_evasion(m, vec([2], 3), 1)
        assert res.evaded
        assert res.added_indices == (0,)
        assert res.score_after == pytest.approx(-2.5)
        assert res.score_after == brute_force_best(m, vec([2], 3), 1)

    def test_budget_too_small_then_enough(self):
        m = LinearModel(np.array([-1.0, -1.0]), 1.5)
        res1 = greedy_linear_evasion(m, vec([], 2), 1)
        assert not res1.evaded
        assert res1.score_after == pytest.approx(0.5)
        res2 = greedy_linear_evasion(m, vec([], 2), 2)
        assert res2.evaded
        assert res2.score_after == pytest.approx(-0.5)

    def test_no_negative_weights(self):
        m = LinearModel(np.array([1.0, 2.0]), 0.5)
        res = greedy_linear_evasion(m, vec([], 2), 2)
        assert not res.evaded and res.added_indices == ()

    def test_optimal_against_enumeration(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            d = int(rng.integers(4, 10))
            m = LinearModel(rng.normal(size=d), float(rng.normal()))
            x = vec(np.flatnonzero(rng.random(d) < 0.4), d)
            eps = int(rng.integers(1, 4))
            res = greedy_linear_evasion(m, x, eps, threshold=-np.inf)
            assert res.score_after == pytest.approx(
                brute_force_best(m, x, eps), abs=1e-12)

    def test_requires_linear_model(self):
        m = KernelModel((vec([0], 2),), np.array([1.0]), 0.0, 1.0)
        with pytest.raises(TypeError):
            greedy_linear_evasion(m, vec([], 2), 1)

    def test_trace_non_increasing(self):
        m = LinearModel(np.array([-0.5, -1.5, -1.0, 2.0]), 3.0)
        res = greedy_linear_evasion(m, vec([3], 4), 3)
        assert all(a >= b for a, b in zip(res.score_trace, res.score_trace[1:]))


class TestEpsilonMin:
    def test_enumeration_case(self):
        m = LinearModel(np.array([-1.0, -1.0]), 1.5)
        assert epsilon_min(m, vec([], 2), 5, "greedy") == 2

    def test_already_benign_is_zero(self):
        m = LinearModel(np.array([1.0]), -2.0)
        assert epsilon_min(m, vec([], 1), 5, "greedy") == 0

    def test_not_evadable(self):
        m = LinearModel(np.array([1.0, 2.0]), 0.5)
        assert epsilon_min(m, vec([], 2), 5, "greedy") == NOT_EVADABLE
        assert epsilon_min(m, vec([], 2), 5, "pgd") == NOT_EVADABLE

    def test_pgd_matches_greedy_on_linear(self):
        m = LinearModel(np.array([-1.0, -1.0, -0.2]), 1.5)
        g = epsilon_min(m, vec([], 3), 5, "greedy")
        p = epsilon_min(m, vec([], 3), 5, "pgd", 50)
        assert p == g == 2

    def test_batch_agrees_with_scalar(self):
        rng = np.random.default_rng(8)
        d = 30
        m = LinearModel(rng.normal(size=d) * 0.5, 1.0)
        xs = [vec(np.flatnonzero(rng.random(d) < 0.3), d) for _ in range(15)]
        batch_g = epsilon_min_batch(m, xs, 10, "greedy")
        batch_p = epsilon_min_batch(m, xs, 10, "pgd", 80)
        for i, x in enumerate(xs):
            assert batch_g[i] == epsilon_min(m, x, 10, "greedy")
            assert batch_p[i] == epsilon_min(m, x, 10, "pgd", 80)


class TestEpsMinOracle:
    """eps_min against the first budget whose single attack evades."""

    @pytest.mark.parametrize("kind,method", [("rbf", "pgd"), ("linear", "pgd"),
                                             ("linear", "greedy")])
    def test_matches_first_evading_single_budget_attack(self, kind, method):
        model, malware, threshold = d12_cell(kind)
        max_iters = 80
        want = []
        for x in malware:
            if score(model, x) < threshold:
                want.append(0)
                continue
            for eps in range(1, 7):
                if method == "pgd":
                    after = pgd_score(model, x, eps, max_iters, threshold)
                else:
                    after = greedy_linear_evasion(model, x, eps,
                                                  threshold).score_after
                if after < threshold:
                    want.append(eps)
                    break
            else:
                want.append(NOT_EVADABLE)
        got = epsilon_min_batch(model, malware, 6, method, max_iters,
                                threshold)
        assert np.array_equal(got, want)
        assert {0, 1, 6} <= set(want)  # both ends of the search

    def test_default_method_is_auto(self):
        model, malware, threshold = d12_cell("rbf")
        max_iters = 80
        got = epsilon_min_batch(model, malware, 6, max_iters=max_iters,
                                threshold=threshold)
        want = epsilon_min_batch(model, malware, 6, "pgd", max_iters,
                                 threshold)
        assert np.array_equal(got, want)
        assert (epsilon_min(model, malware[0], 6, max_iters=max_iters,
                            threshold=threshold)
                == epsilon_min(model, malware[0], 6, "pgd", max_iters,
                               threshold))

    def test_unknown_method_rejected(self):
        m = LinearModel(np.array([-1.0, 1.0]), 0.5)
        with pytest.raises(ValueError, match="unknown attack method"):
            attack_scores_over_grid(m, [vec([1], 2)], [1], 0.0,
                                    method="bogus")
        with pytest.raises(ValueError, match="unknown attack method"):
            epsilon_min_batch(m, [vec([1], 2)], 2, "bogus")


class TestSecurityEvaluation:
    def _trained(self):
        cfg = SyntheticConfig(d=60, n_benign=300, n_malware=300, n_strong=10,
                              strong_rate_gap=0.5, weak_rate_gap=0.1,
                              base_density=0.05, seed=21)
        train, test = split(generate_synthetic(cfg), 0.6, 0)
        model = train_linear(train, TrainConfig("hinge", 1.0, epochs=8, seed=0))
        rate, threshold = detection_rate_at_fpr(model, test, 0.01)
        malware = test.samples[test.labels == 1]
        return model, malware, rate, threshold

    @staticmethod
    def _greedy_curve(model, malware, grid, threshold):
        return SecurityCurve.from_scores(attack_scores_over_grid(
            model, malware, grid, threshold, method="greedy"), grid, threshold)

    def test_zero_budget_equals_clean_rate(self):
        model, malware, rate_clean, threshold = self._trained()
        curve = self._greedy_curve(model, malware, [0, 1, 2], threshold)
        clean = float(np.mean([score(model, x) >= threshold for x in malware]))
        assert curve.detection_rates[0] == pytest.approx(clean)

    def test_greedy_curve_monotone(self):
        model, malware, _, threshold = self._trained()
        curve = self._greedy_curve(model, malware, range(1, 21), threshold)
        rates = curve.detection_rates
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_grid_scores_match_single_greedy(self):
        model, malware, _, threshold = self._trained()
        grid = [1, 3, 7]
        scores = attack_scores_over_grid(model, malware[:25], grid, threshold,
                                         method="greedy")
        for row, x in enumerate(malware[:25]):
            for col, eps in enumerate(grid):
                res = greedy_linear_evasion(model, x, eps, threshold)
                assert scores[row, col] == pytest.approx(res.score_after)

    def test_empty_malware_rejected(self):
        model, _, _, threshold = self._trained()
        with pytest.raises(ValueError):
            attack_scores_over_grid(model, [], [1], threshold)

    def test_curve_from_scores(self):
        scores = np.array([[1.0, -1.0], [2.0, 0.5], [0.6, 0.6]])
        curve = SecurityCurve.from_scores(scores, [2, 5], 0.6)
        assert curve.epsilons == (2, 5)
        assert curve.detection_rates == (1.0, 1 / 3)
        assert curve.area() == (1.0 + 1 / 3) / 2

    @pytest.mark.parametrize("budget", NON_INTEGER_BUDGETS)
    def test_curve_refuses_non_integer_budget(self, budget):
        # [1.5, 2.7] used to label the curve (1, 2)
        with pytest.raises(ValueError, match=budget_error("budget", budget)):
            SecurityCurve.from_scores(np.zeros((2, 2)), [1, budget], 0.0)

    def test_curve_validation(self):
        with pytest.raises(ValueError):
            SecurityCurve((1, 2), (0.5,))
        with pytest.raises(ValueError):
            SecurityCurve((1,), (1.5,))


# Greedy grid scores recorded before the greedy branch became one rule.
# Model: weights w below, bias 3.0 (features 2 and 6 tie at -1.3).  Rows:
# no features; the two most negative present (leading present features);
# feature 0 present; already benign; crosses only at 5 additions; every
# negative weight but feature 0 present.  Budgets 0..9 exceed d = 8.
GREEDY_W = (-0.7, 0.4, -1.3, -0.2, 0.9, -0.5, -1.3, 0.1)
GREEDY_ROWS = ([], [2, 6, 1, 4], [0, 4], [2, 6, 0], [1, 4],
               [1, 2, 3, 4, 5, 6, 7])
GOLDEN_GREEDY_AT_HALF = (  # threshold 0.5, budgets 0..9
    (3.0, 1.7) + (0.3999999999999999,) * 8,
    (1.6999999999999997, 0.9999999999999998) + (0.4999999999999998,) * 8,
    (3.2, 1.9000000000000001, 0.6000000000000001)
    + (0.10000000000000009,) * 7,
    (-0.2999999999999998,) * 10,
    (4.3, 3.0, 1.6999999999999997, 1.0, 0.5) + (0.2999999999999998,) * 5,
    (1.0999999999999999,) + (0.3999999999999999,) * 9,
)
GOLDEN_GREEDY_NO_THRESHOLD = (  # threshold -inf, budgets 0, 1, 2, 3, 5, 9
    (3.0, 1.7, 0.3999999999999999, -0.2999999999999998, -1.0, -1.0),
    (1.6999999999999997, 0.9999999999999998, 0.4999999999999998,
     0.2999999999999998, 0.2999999999999998, 0.2999999999999998),
    (3.2, 1.9000000000000001, 0.6000000000000001, 0.10000000000000009,
     -0.10000000000000009, -0.10000000000000009),
    (-0.2999999999999998, -0.7999999999999998) + (-0.9999999999999998,) * 4,
    (4.3, 3.0, 1.6999999999999997, 1.0, 0.2999999999999998,
     0.2999999999999998),
    (1.0999999999999999,) + (0.3999999999999999,) * 5,
)


class TestGreedyGrid:
    def _case(self):
        return (LinearModel(np.array(GREEDY_W), 3.0),
                [vec(r, 8) for r in GREEDY_ROWS])

    def test_golden_matrices(self):
        m, xs = self._case()
        got = attack_scores_over_grid(m, xs, range(10), 0.5, method="greedy")
        assert np.array_equal(got, np.array(GOLDEN_GREEDY_AT_HALF))
        got = attack_scores_over_grid(m, xs, [0, 1, 2, 3, 5, 9], -np.inf,
                                      method="greedy")
        assert np.array_equal(got, np.array(GOLDEN_GREEDY_NO_THRESHOLD))

    def test_everything_benign_keeps_clean_scores(self):
        m, xs = self._case()
        got = attack_scores_over_grid(m, xs, [0, 1, 9], np.inf,
                                      method="greedy")
        clean = np.array(GOLDEN_GREEDY_AT_HALF)[:, :1]  # budget 0
        assert np.array_equal(got, np.repeat(clean, 3, axis=1))

    def test_no_negative_weight_keeps_clean_scores(self):
        m = LinearModel(np.array([0.5, 1.0, 0.0]), 0.2)
        got = attack_scores_over_grid(m, [vec([], 3), vec([1], 3)],
                                      [0, 1, 3], 0.0, method="greedy")
        assert np.array_equal(got, [[0.2] * 3, [1.2] * 3])


class TestKernelCurveMonotonicity:
    def test_pgd_curve_non_increasing(self):
        model, malware, threshold = d12_cell()
        max_iters = 80
        grid = range(1, 9)
        scores = attack_scores_over_grid(model, malware, grid, threshold,
                                         max_iters, "pgd")
        curve = SecurityCurve.from_scores(scores, grid, threshold)
        rates = curve.detection_rates
        assert all(b <= a for a, b in zip(rates, rates[1:]))
        # every row, not only the rates, at the threshold and without one
        for t in (threshold, -np.inf):
            scores = attack_scores_over_grid(model, malware, range(9), t,
                                             max_iters, "pgd")
            assert np.all(np.diff(scores, axis=1) <= 0.0)


class TestOracleEquivalence:
    def test_pgd_never_beats_greedy_and_mostly_matches(self):
        cfg = SyntheticConfig(d=120, n_benign=400, n_malware=400, n_strong=20,
                              strong_rate_gap=0.5, weak_rate_gap=0.02,
                              base_density=0.15, seed=31)
        train, test = split(generate_synthetic(cfg), 0.6, 0)
        model = train_linear(train, TrainConfig("hinge", 1.0, epochs=8, seed=0))
        _, threshold = detection_rate_at_fpr(model, test, 0.01)
        malware = test.samples[test.labels == 1][:60]
        g = epsilon_min_batch(model, malware, 40, "greedy", threshold=threshold)
        p = epsilon_min_batch(model, malware, 40, "pgd", 200,
                              threshold=threshold)
        assert np.all(p >= g)
        assert np.mean(p == g) >= 0.95


def partition_projection(V, X0b, epsilon):
    """Partition-and-quota form of the budget projection, as an oracle."""
    XB = V >= 0.5
    changed = XB != X0b
    over = changed.sum(axis=1) > epsilon
    if not over.any():
        return XB
    D = np.where(changed, np.abs(V - X0b), -1.0)
    kth = -np.partition(-D, epsilon - 1, axis=1)[:, epsilon - 1]
    greater = D > kth[:, None]
    equal = (D == kth[:, None]) & changed
    quota = epsilon - greater.sum(axis=1)
    keep = greater | (equal & (np.cumsum(equal, axis=1) <= quota[:, None]))
    return np.where(over[:, None], np.where(keep, XB, X0b), XB)


class TestRankedProjection:
    def test_prefix_matches_partition_and_quota_with_ties(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            n, d = 25, int(rng.integers(3, 20))
            X0b = rng.random((n, d)) < 0.3
            # values on a coarse lattice force many tied move sizes
            V = np.maximum(rng.integers(0, 5, size=(n, d)) / 4.0, X0b)
            for eps in range(1, d + 1):
                got = attack_mod._project_clipped_batch(V, X0b, eps)
                want = partition_projection(V, X0b, eps)
                assert np.array_equal(got, want)
            # one budget per row
            eps = rng.integers(1, d + 1, size=n)
            got = attack_mod._project_clipped_batch(V, X0b, eps)
            for row, e in enumerate(eps):
                want = partition_projection(V[row:row + 1],
                                            X0b[row:row + 1], e)
                assert np.array_equal(got[row], want[0])

    def test_budgets_are_nested_prefixes(self):
        rng = np.random.default_rng(13)
        X0b = rng.random((30, 12)) < 0.3
        V = np.maximum(rng.integers(0, 5, size=(30, 12)) / 4.0, X0b)
        prev = X0b
        for eps in range(1, 13):
            cur = attack_mod._project_clipped_batch(V, X0b, eps)
            assert np.all(prev <= cur)  # addition-only: each budget adds
            assert np.all((cur != X0b).sum(axis=1) <= eps)
            prev = cur


def lexsort_ranked_changes(V, X0b, width):
    """The ranking as first written, kept as the oracle of the engine's:
    the additions' (row, col) by np.nonzero, ordered by a stable lexsort on
    (row, -V) (np.nonzero lists columns ascending, so ties keep the lower
    index first), and scattered into a (rows, width) table padded with -1."""
    rows, cols = np.nonzero((V >= 0.5) & ~X0b)
    counts = np.bincount(rows, minlength=V.shape[0])
    key = np.lexsort((-V[rows, cols], rows))
    rows, cols = rows[key], cols[key]
    rank = np.arange(rows.size) - (np.cumsum(counts) - counts)[rows]
    kept = rank < width
    order = np.full((V.shape[0], width), -1, dtype=np.intp)
    order[rows[kept], rank[kept]] = cols[kept]
    return order, np.minimum(counts, width)


class TestRankedChanges:
    @pytest.mark.parametrize("d", [1, 2, 7, 30])
    def test_matches_lexsort_oracle(self, d):
        rng = np.random.default_rng(d)
        n = 40
        X0b = rng.random((n, d)) < 0.3
        X0b[0] = True    # every feature present: no addition possible
        X0b[1] = False
        # a coarse lattice of moves gives exact ties; row 1 has no addition
        V = np.maximum(rng.integers(0, 5, size=(n, d)) / 4.0, X0b)
        V[1] = 0.25
        V[2] = np.maximum(0.75, X0b[2])  # every addition of row 2 ties
        for width in sorted({1, 2, max(1, d // 2), d, d + 1, 2 * d + 3}):
            got = attack_mod._ranked_changes(V, X0b, width)
            want = lexsort_ranked_changes(V, X0b, width)
            assert got[0].dtype == want[0].dtype
            assert got[0].shape == (n, width)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])
        assert (got[1][:2] == 0).all() and (got[0][:2] == -1).all()

    def test_real_valued_moves_match_oracle(self):
        # shadow-pass iterates: clipped real values, ties only by accident
        rng = np.random.default_rng(5)
        X0b = rng.random((60, 150)) < 0.2
        V = np.clip(rng.normal(0.45, 0.2, size=X0b.shape), X0b, 1.0)
        for width in (1, 3, 8, 50, 150, 160):
            got = attack_mod._ranked_changes(V, X0b, width)
            want = lexsort_ranked_changes(V, X0b, width)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])


class TestNestedScores:
    def test_nested_scores_equal_materialised_points(self):
        rng = np.random.default_rng(4)
        d, n, n_sv = 15, 40, 30
        svs = rng.random((n_sv, d)) < 0.5
        m = KernelModel(svs, rng.normal(size=n_sv), float(rng.normal() * 0.3),
                        0.3)
        X0b = rng.random((n, d)) < 0.3
        # each row's order: a permutation of its absent features, padded
        order = np.full((n, d), -1)
        counts = np.empty(n, dtype=np.intp)
        for r in range(n):
            absent = rng.permutation(np.flatnonzero(~X0b[r]))
            order[r, :absent.size] = absent
            counts[r] = rng.integers(0, absent.size + 1)
        budgets = [1, 2, 3, 5, 8, 15]
        X0 = X0b.astype(np.float64)
        deltas = np.ascontiguousarray((1.0 - 2.0 * m.support_vectors).T)
        got = attack_mod._nested_scores(m, deltas, m._sq_distances(X0),
                                        order, counts, budgets)
        # a cell is scored iff its row adds a feature past the previous
        # budget; every other cell is +inf
        lower = np.array([0, *budgets[:-1]])
        scored = counts[:, None] > lower
        assert np.array_equal(np.isinf(got), ~scored)
        assert scored.any() and not scored.all()
        for col, eps in enumerate(budgets):
            points = X0b.copy()
            for r in range(n):
                points[r, order[r, :min(counts[r], eps)]] = True
            want = m.decision_batch(points.astype(np.float64))
            rows = scored[:, col]
            assert np.array_equal(got[rows, col], want[rows])


# Scores of attack_scores_over_grid recorded from the per-budget descent (a
# full binary and shadow pass for each budget) on the criterion-8 shape
# (svm-rbf, seed 7), first 10 malware test rows, budgets 1..8, 150 iterations.
GOLDEN_C8_GRID = (
    (1.1421790334006672, 1.0953373870293617, 1.052255570064362, 1.0099713352299857, 0.9690623042892823, 0.9319828692365433, 0.8962491581212695, 0.8645388295486724),
    (1.9540454697769092, 1.9023982744169863, 1.8585770772360646, 1.8159429553517739, 1.774030506858851, 1.7325412074982132, 1.6946337444470756, 1.6586304180193117),
    (0.6770854647781142, 0.634146062825264, 0.5939459274085634, 0.5548377750979738, 0.5206174329661741, 0.4870534524031042, 0.4546363098841239, 0.4250592638014132),
    (1.5679696471412412, 1.5232690208161102, 1.479083671045332, 1.4367572735408678, 1.3986046397577225, 1.3625073293559296, 1.328542092995709, 1.2969782491042507),
    (1.8220405188806033, 1.7720854187228574, 1.7225490829862777, 1.674019678013758, 1.6299488264854012, 1.5885364346873643, 1.5478108309439995, 1.5074902781564048),
    (1.4801010687470586, 1.4307601856249135, 1.3845676059758225, 1.3403479302433445, 1.3004276250930658, 1.2623217580008457, 1.2250610187224296, 1.189292264617245),
    (2.014221198445765, 1.9629523190010096, 1.9139472942871953, 1.8656293496265142, 1.8186987932879588, 1.775940050044452, 1.7352689014885256, 1.69511430691743),
    (0.5515208163632948, 0.5094839679656729, 0.4708401570925686, 0.4327183342318874, 0.3984906844747242, 0.3665922615403771, 0.33487241926321815, 0.3042765671755822),
    (2.2013422902485487, 2.147222886579177, 2.095629274944501, 2.044977648918335, 1.9950970814118114, 1.947905132490225, 1.9044923424409013, 1.8617501319841074),
    (1.708498319209459, 1.6571486952007866, 1.6132691821936347, 1.571967873756614, 1.5326473198572166, 1.4939039691725724, 1.457932689077905, 1.4238390668895895),
)

# Rows 2, 12, 44 and 78 of the same cell at budgets 19 and 20: the shadow
# pass lowers four of these eight scores (by 1.7e-6 to 1.4e-4) below what
# the binary passes alone reach, so this pins its contribution.
GOLDEN_C8_SHADOW_ROWS = (2, 12, 44, 78)
GOLDEN_C8_SHADOW = (
    (0.1940324741607013, 0.1777954013404836),
    (-0.08760092299833261, -0.10393024037255444),
    (1.0808341724324726, 1.0569957387523075),
    (1.2734083307175381, 1.2501357535661497),
)


@functools.cache
def criterion8_rbf_cell():
    cfg = SyntheticConfig(d=150, n_benign=1300, n_malware=1300, n_strong=30,
                          strong_rate_gap=0.5, weak_rate_gap=0.015,
                          base_density=0.18, seed=7)
    train, test = split(generate_synthetic(cfg), 0.6, 0)
    spec = PRESETS["svm-rbf"]
    model = train_rbf_svm(train, spec.reg, spec.gamma,
                          TrainConfig("hinge", spec.reg, epochs=spec.epochs,
                                      learning_rate=spec.learning_rate, seed=0))
    _, threshold = detection_rate_at_fpr(model, test, 0.01)
    malware = test.samples[test.labels == 1]
    return model, malware, threshold


def d12_cell(kind="rbf"):
    """A small cell where attacks evade at budgets 0..6."""
    cfg = SyntheticConfig(d=12, n_benign=150, n_malware=150, n_strong=4,
                          strong_rate_gap=0.5, weak_rate_gap=0.15,
                          base_density=0.1, seed=41)
    train, test = split(generate_synthetic(cfg), 0.6, 0)
    if kind == "rbf":
        model = train_rbf_svm(train, 10.0, 0.2, TrainConfig(epochs=20, seed=0))
    else:
        model = train_linear(train, TrainConfig("hinge", 1.0, epochs=8, seed=0))
    _, threshold = detection_rate_at_fpr(model, test, 0.05)
    malware = test.samples[test.labels == 1]
    return model, malware, threshold


class TestGridEngine:
    def test_grid_scores_bitwise_equal_golden(self):
        model, malware, threshold = criterion8_rbf_cell()
        scores = attack_scores_over_grid(model, malware[:10], range(1, 9),
                                         threshold,
                                         150, "pgd")
        assert np.array_equal(scores, np.array(GOLDEN_C8_GRID))

    def test_shadow_pass_scores_bitwise_equal_golden(self):
        model, malware, threshold = criterion8_rbf_cell()
        rows = list(GOLDEN_C8_SHADOW_ROWS)
        scores = attack_scores_over_grid(model, malware[rows], [19, 20],
                                         threshold,
                                         150, "pgd")
        assert np.array_equal(scores, np.array(GOLDEN_C8_SHADOW))

    def test_shadow_pass_rescores_only_changed_prefixes(self, monkeypatch):
        # a row whose ranked prefix is the previous iteration's is not
        # scored again, and the golden scores stay bitwise
        model, malware, threshold = criterion8_rbf_cell()
        scored, active = [], []
        nested_scores = attack_mod._nested_scores
        movable_eta = attack_mod._movable_eta

        def record_scored(model, deltas, sq0, *args):
            scored.append(len(sq0))
            return nested_scores(model, deltas, sq0, *args)

        def record_active(g, cur, lb, scale):
            if scale == 0.1:  # the shadow pass's step: one per iteration
                active.append(len(g))
            return movable_eta(g, cur, lb, scale)

        monkeypatch.setattr(attack_mod, "_nested_scores", record_scored)
        monkeypatch.setattr(attack_mod, "_movable_eta", record_active)
        scores = attack_scores_over_grid(model, malware[:10], range(1, 9),
                                         threshold,
                                         150, "pgd")
        assert np.array_equal(scores, np.array(GOLDEN_C8_GRID))
        assert len(scored) == len(active) > 1
        assert scored[0] == 0  # the first iteration holds no addition
        assert sum(scored) < sum(active)

    def test_grid_columns_equal_single_budget_attacks(self):
        model, malware, threshold = d12_cell()
        max_iters = 80
        grid = [0, 1, 2, 3, 5, 8]
        scores = attack_scores_over_grid(model, malware[:20], grid, threshold,
                                         max_iters, "pgd")
        assert np.any(scores < threshold)  # some attacks do evade here
        for row, x in enumerate(malware[:20]):
            assert scores[row, 0] == score(model, x)
            for col, eps in enumerate(grid[1:], start=1):
                assert scores[row, col] == pgd_score(model, x, eps, max_iters,
                                                     threshold)

    def test_grid_columns_equal_lone_budgets_on_criterion8_rows(self):
        # a lone budget never splits its group, so it replays a pass at that
        # budget alone; the grid's shared groups must score the same bits
        model, malware, threshold = criterion8_rbf_cell()
        max_iters = 150
        grid = [1, 2, 5, 20, 50]
        scores = attack_scores_over_grid(model, malware[:10], grid, threshold,
                                         max_iters, "pgd")
        for col, eps in enumerate(grid):
            alone = attack_scores_over_grid(model, malware[:10], [eps],
                                            threshold, max_iters, "pgd")
            assert np.array_equal(scores[:, col], alone[:, 0])

    def test_one_sample_chunks_do_not_change_scores(self, monkeypatch):
        model, malware, threshold = criterion8_rbf_cell()
        monkeypatch.setattr(attack_mod, "_BINARY_CHUNK_VALUES", 1)
        scores = attack_scores_over_grid(model, malware[:10], range(1, 9),
                                         threshold,
                                         150, "pgd")
        assert np.array_equal(scores, np.array(GOLDEN_C8_GRID))

    def test_binary_pass_shares_rows_across_budgets(self, monkeypatch):
        # the rows the binary pass projects are the rows it evaluates
        model, malware, threshold = criterion8_rbf_cell()
        max_iters = 150
        projected = []
        project_batch = attack_mod._project_clipped_batch

        def record(V, X0b, epsilon):
            projected.append(len(V))
            return project_batch(V, X0b, epsilon)

        monkeypatch.setattr(attack_mod, "_project_clipped_batch", record)
        scores = attack_scores_over_grid(model, malware[:10], range(1, 9),
                                         threshold, max_iters, "pgd")
        assert np.array_equal(scores, np.array(GOLDEN_C8_GRID))
        grid_rows = sum(projected)
        projected.clear()
        for eps in range(1, 9):
            attack_scores_over_grid(model, malware[:10], [eps], threshold,
                                    max_iters, "pgd")
        assert 0 < grid_rows < sum(projected)

    def test_grid_order_and_repeats_do_not_change_scores(self):
        model, malware, threshold = d12_cell()
        max_iters = 80
        a = attack_scores_over_grid(model, malware[:15], [1, 4, 6], threshold,
                                    max_iters, "pgd")
        b = attack_scores_over_grid(model, malware[:15], [6, 1, 4, 1],
                                    threshold, max_iters, "pgd")
        assert np.array_equal(a, b[:, [1, 2, 0]])
        assert np.array_equal(b[:, 1], b[:, 3])

    def test_linear_pgd_columns_equal_single_budget_attacks(self):
        rng = np.random.default_rng(3)
        d = 20
        m = LinearModel(rng.normal(size=d), 0.5)
        xs = [vec(np.flatnonzero(rng.random(d) < 0.3), d) for _ in range(12)]
        max_iters = 60
        scores = attack_scores_over_grid(m, xs, [1, 2, 4], -np.inf, max_iters,
                                         "pgd")
        for col, eps in enumerate((1, 2, 4)):
            alone = attack_scores_over_grid(m, xs, [eps], -np.inf, max_iters,
                                            "pgd")
            assert np.array_equal(scores[:, col], alone[:, 0])
            for row, x in enumerate(xs):
                # a lone row's dot product may round differently
                assert scores[row, col] == pytest.approx(
                    pgd_score(m, x, eps, max_iters, -np.inf), abs=1e-12)


def best_single_addition_scores(model, X0b):
    """min(clean score, best one-feature addition) of each 0/1 row of an RBF
    model.  Adding an absent feature j moves every ||x - s_i||^2 by exactly
    1 - 2 s_ij, so the d one-addition scores of a row with kernel weights w
    are e^(-gamma) sum(w) + (e^gamma - e^(-gamma)) (w @ S) + b.  The chosen
    point is re-scored with decision_batch."""
    X = X0b.astype(np.float64)
    w = model._kernel_weights(X)
    g = model.gamma
    added = (math.exp(-g) * w.sum(axis=1)[:, None]
             + (math.exp(g) - math.exp(-g)) * (w @ model.support_vectors)
             + model.bias)
    added[X0b] = np.inf
    best = X0b.copy()
    best[np.arange(len(best)), added.argmin(axis=1)] = True
    rescored = model.decision_batch(best.astype(np.float64))
    assert np.allclose(rescored, added.min(axis=1), rtol=0, atol=1e-12)
    return np.minimum(model.decision_batch(X), rescored)


class TestKernelBudgetOneOracle:
    def test_pgd_finds_the_best_single_addition(self):
        # criterion-8 svm-rbf at the study's iteration cap: budget 1 must
        # reach the exact one-addition optimum on every row
        model, malware, threshold = criterion8_rbf_cell()
        X0b = malware[:100]
        scores = attack_scores_over_grid(model, X0b, [1], threshold, 150,
                                         "pgd")
        oracle = best_single_addition_scores(model, X0b)
        assert np.allclose(scores[:, 0], oracle, rtol=0, atol=1e-12)


def best_first_addition_scores(model, X0b, eps_max):
    """(n, eps_max + 1) running-minimum scores of the best-first addition
    attack on an RBF model: each step adds the absent feature whose
    one-addition score, in the closed form of best_single_addition_scores,
    is lowest, and re-scores the new point with decision_batch."""
    X = X0b.copy()
    g = model.gamma
    scores = [model.decision_batch(X.astype(np.float64))]
    for _ in range(eps_max):
        w = model._kernel_weights(X.astype(np.float64))
        added = (math.exp(-g) * w.sum(axis=1)[:, None]
                 + (math.exp(g) - math.exp(-g)) * (w @ model.support_vectors))
        added[X] = np.inf
        X[np.arange(len(X)), added.argmin(axis=1)] = True
        scores.append(model.decision_batch(X.astype(np.float64)))
    return np.minimum.accumulate(np.column_stack(scores), axis=1)


class TestKernelBestFirstOracle:
    def test_pgd_evades_at_least_as_many_rows_as_best_first(self):
        # criterion-8 svm-rbf, every malware row, budgets 1..50.  Only rows
        # the oracle evades can raise its count, so PGD runs on those: its
        # count there bounds its count over all rows from below.
        model, malware, threshold = criterion8_rbf_cell()
        budgets = list(range(1, 51))
        oracle = best_first_addition_scores(model, malware, budgets[-1])[:, 1:]
        evaded = np.flatnonzero((oracle < threshold).any(axis=1))
        assert evaded.size > 0  # the check is not vacuous on this cell
        pgd = attack_scores_over_grid(model, malware[evaded], budgets,
                                      threshold, 150, "pgd")
        assert np.all((pgd < threshold).sum(axis=0)
                      >= (oracle < threshold).sum(axis=0))


class TestFeasibilityChecks:
    def test_engine_rejects_infeasible_projection(self, monkeypatch):
        # the all-ones point scores lowest, so the forged point is kept
        m = KernelModel((vec(range(5), 5),), np.array([-1.0]), 0.0, 0.5)

        def everything(V, X0b, epsilon):
            return np.ones_like(X0b)

        monkeypatch.setattr(attack_mod, "_project_clipped_batch", everything)
        with pytest.raises(RuntimeError, match="budget"):
            attack_scores_over_grid(m, [vec([2], 5)], [1, 2], -np.inf,
                                    5, "pgd")

    def test_shadow_pass_rejects_removed_feature(self, monkeypatch):
        # the forged ranking offers the present feature 2 as an addition;
        # with the support vector at the sample, its delta of -1 scores
        # lower, so the forged point is recorded and must be refused
        m = KernelModel((vec([2], 5),), np.array([-1.0]), 0.0, 0.5)

        def removal(V, X0b, width):
            return np.full((len(X0b), 1), 2), np.ones(len(X0b), dtype=int)

        monkeypatch.setattr(attack_mod, "_ranked_changes", removal)
        with pytest.raises(RuntimeError, match="addition-only"):
            attack_scores_over_grid(m, [vec([2], 5)], [1, 2], -np.inf,
                                    5, "pgd")

    def test_engine_rejects_removed_feature(self):
        X0b = np.array([[True, False, False]])
        point = np.array([[False, True, False]])
        with pytest.raises(RuntimeError, match="addition-only"):
            attack_mod._check_feasible(X0b, *np.nonzero(point != X0b), 2)


class TestEngineMemory:
    def test_greedy_path_tables_filled_in_place(self, wide_set, wide_model,
                                                traced_peak):
        # one (n, 357) table each of scores and counts; their stacked
        # copies took the greedy grid to 3.05 float64 copies of the samples
        peak = traced_peak(attack_scores_over_grid, wide_model,
                           wide_set.samples, range(51), 0.0)
        assert peak <= 2.25 * 8 * wide_set.n * wide_set.d

    def test_grid_keeps_no_points(self, traced_peak):
        # criterion-5 svm: n=200, eps_max=50, d=2000.  An (n, k, d) array of
        # best points peaked at 61 MiB here; the per-budget engine at 27 MiB.
        cfg = SyntheticConfig(d=2000, n_benign=1000, n_malware=1000,
                              n_strong=60, strong_rate_gap=0.5,
                              weak_rate_gap=0.003, base_density=0.10,
                              seed=2024)
        train, test = split(generate_synthetic(cfg), 0.5, 0)
        malware = test.samples[test.labels == 1]
        model = train_linear(train, TrainConfig("hinge", 0.1, epochs=10,
                                                seed=1))
        _, threshold = detection_rate_at_fpr(model, test, 0.01)
        peak = traced_peak(epsilon_min_batch, model, malware[:200], 50,
                           "pgd", 200, threshold)
        assert peak < 27 * 2 ** 20


def gather_nested_scores(model, deltas, sq0, scores0, order, counts, budgets):
    """The nested scorer as it was before the shadow pass held compact
    state: float64 running sums over the live rows of each position, and
    one score per row that moved past the previous budget."""
    sq = sq0.copy()
    score = scores0.copy()
    out = np.empty((sq.shape[0], len(budgets)))
    done = 0
    for col, eps in enumerate(budgets):
        moved = np.flatnonzero(counts > done)
        for pos in range(done, eps):
            live = np.flatnonzero(counts > pos)
            if live.size == 0:
                break
            sq[live] += deltas[order[live, pos]]
        if moved.size:
            score[moved] = (model._weights_from_sq(sq[moved]).sum(axis=1)
                            + model.bias)
        out[:, col] = score
        done = eps
    return out


def gather_shadow_pass(model, X0b, lb, start, budgets, max_iters, threshold,
                       best_scores):
    """The shadow pass as it was before its state was compacted: every
    iteration gathers the live rows out of (n, .) arrays and scatters them
    back, and rescores each row whose ordered prefix changed."""
    scores0, grad0 = start
    cur = X0b.astype(np.float64)
    prev_obj = scores0.copy()
    rows = np.flatnonzero(scores0 >= threshold)
    g = grad0[rows]
    if rows.size:
        sq0 = model._sq_distances(cur)
        deltas = np.ascontiguousarray((1.0 - 2.0 * model.support_vectors).T)
        prefixes = np.full((len(X0b), budgets[-1]), -2, dtype=np.intp)
    budget_arr = np.asarray(budgets)
    for _ in range(max_iters):
        if rows.size == 0:
            break
        eta = attack_mod._movable_eta(g, cur[rows], lb[rows], 0.1)
        stepped = np.clip(cur[rows] - eta[:, None] * g, lb[rows], 1.0)
        order, counts = lexsort_ranked_changes(stepped, X0b[rows], budgets[-1])
        changed = np.flatnonzero((order != prefixes[rows]).any(axis=1))
        live, order, counts = rows[changed], order[changed], counts[changed]
        prefixes[live] = order
        bin_scores = gather_nested_scores(model, deltas, sq0[live],
                                          scores0[live], order, counts,
                                          budgets)
        ri, ci = np.nonzero(bin_scores < best_scores[live])
        if ri.size:
            attack_mod._check_feasible(
                X0b[live[ri]], *attack_mod._prefix_changes(
                    order[ri], counts[ri], budget_arr[ci]), budget_arr[ci])
            best_scores[live[ri], ci] = bin_scores[ri, ci]
        cur[rows] = stepped
        obj, g = model.decision_and_gradient_batch(stepped)
        done = np.abs(obj - prev_obj[rows]) <= 1e-6
        prev_obj[rows] = obj
        rows, g = rows[~done], g[~done]


def recorded_shadow_pass(monkeypatch, shadow, model, X0b, budgets,
                         max_iters, threshold):
    """(best scores after the running minimum, the row batches that reached
    decision_and_gradient_batch) of one shadow pass from the clean rows."""
    start = model.decision_and_gradient_batch(X0b.astype(np.float64))
    batches = []
    fused = KernelModel.decision_and_gradient_batch

    def record(self, points):
        batches.append(points.copy())
        return fused(self, points)

    monkeypatch.setattr(KernelModel, "decision_and_gradient_batch", record)
    best = np.repeat(start[0][:, None], len(budgets), axis=1)
    shadow(model, X0b, X0b.astype(np.float64), start, budgets, max_iters,
           threshold, best)
    monkeypatch.setattr(KernelModel, "decision_and_gradient_batch", fused)
    return np.minimum.accumulate(best, axis=1), batches


class TestCompactShadowPass:
    @pytest.mark.parametrize("budgets", [[1, 2, 3], list(range(1, 9)),
                                         [19, 20], list(range(1, 51))])
    @pytest.mark.parametrize("seed", [2, 10, 13])
    @pytest.mark.parametrize("skip_min", [0, attack_mod._SKIP_MIN_VALUES])
    def test_matches_gather_based_pass_bitwise(self, monkeypatch, budgets,
                                               seed, skip_min):
        # random models (seeds picked so) where rows converge at different
        # iterations down to a one-row tail, with already-benign rows left
        # out; skip_min 0 takes the set test on every call after the first
        rng = np.random.default_rng(seed)
        d, n_sv, n = 60, 6, 14
        svs = rng.random((n_sv, d)) < 0.3
        model = KernelModel(svs, rng.normal(size=n_sv), 0.1, 0.05)
        X0b = rng.random((n, d)) < 0.2
        clean = model.decision_batch(X0b.astype(np.float64))
        threshold = float(np.sort(clean)[3])
        want, want_batches = recorded_shadow_pass(
            monkeypatch, gather_shadow_pass, model, X0b, budgets, 1000,
            threshold)
        monkeypatch.setattr(attack_mod, "_SKIP_MIN_VALUES", skip_min)
        got, got_batches = recorded_shadow_pass(
            monkeypatch, attack_mod._shadow_pass, model, X0b, budgets, 1000,
            threshold)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert len(got_batches) == len(want_batches)
        for a, b in zip(got_batches, want_batches):
            assert a.shape == b.shape
            assert np.array_equal(a.view(np.int64), b.view(np.int64))
        sizes = [len(b) for b in got_batches]
        assert sizes[0] == np.sum(clean >= threshold) < n
        assert sizes[-1] == 1 and len(set(sizes)) > 3
        assert len(sizes) < 1000  # every row converged

    def test_criterion8_rows_reach_the_kernel_as_before(self, monkeypatch):
        model, malware, threshold = criterion8_rbf_cell()
        X0b = _binary_rows(malware[:30], model.d, bool)
        for budgets in ([1, 2, 3], list(range(1, 9))):
            want, want_batches = recorded_shadow_pass(
                monkeypatch, gather_shadow_pass, model, X0b, budgets, 150,
                threshold)
            got, got_batches = recorded_shadow_pass(
                monkeypatch, attack_mod._shadow_pass, model, X0b, budgets,
                150, threshold)
            assert np.array_equal(got, want)
            assert [len(b) for b in got_batches] == [
                len(b) for b in want_batches]
            assert all(np.array_equal(a, b)
                       for a, b in zip(got_batches, want_batches))

    def test_set_skip_scores_fewer_cells_than_prefix_rule(self, monkeypatch):
        # the prefix rule scores, at each budget, every rescored row that
        # moved past the previous budget; the set test drops the cells
        # whose addition set is the previous iteration's
        model, malware, threshold = criterion8_rbf_cell()
        nested_scores = attack_mod._nested_scores
        weights_from_sq = KernelModel._weights_from_sq
        cells = {"prefix": 0, "scored": 0, "inside": False}

        def record_nested(model, deltas, sq0, order, counts, budgets,
                          *prev):
            lower = np.array([0, *budgets[:-1]])
            cells["prefix"] += int(np.sum(counts[:, None] > lower))
            cells["inside"] = True
            try:
                return nested_scores(model, deltas, sq0, order, counts,
                                     budgets, *prev)
            finally:
                cells["inside"] = False

        def record_weights(self, sq, out=None):
            if cells["inside"]:
                cells["scored"] += len(sq)
            return weights_from_sq(self, sq, out)

        monkeypatch.setattr(attack_mod, "_nested_scores", record_nested)
        monkeypatch.setattr(KernelModel, "_weights_from_sq", record_weights)
        scores = attack_scores_over_grid(model, malware[:10], range(1, 9),
                                         threshold, 150, "pgd")
        assert np.array_equal(scores, np.array(GOLDEN_C8_GRID))
        assert 0 < cells["scored"] < cells["prefix"]

    def test_nested_scores_skip_only_cells_scored_before(self):
        # with prev, a cell is +inf only where its addition set is prev's
        # at that budget or its point is the previous budget's
        rng = np.random.default_rng(6)
        d, n, n_sv = 12, 300, 20
        m = KernelModel(rng.random((n_sv, d)) < 0.5, rng.normal(size=n_sv),
                        0.2, 0.3)
        X0 = np.zeros((n, d))
        deltas = (1 - 2 * m.support_vectors.T).astype(np.int8, order="C")
        sq0 = m._sq_distances(X0).astype(np.int16)
        budgets = [1, 2, 3, 5, 8, 12]
        orders = []
        for _ in range(2):
            # a few features each, so that sets repeat across the two
            order = np.full((n, 12), -1)
            counts = rng.integers(0, 7, size=n)
            for r in range(n):
                order[r, :counts[r]] = rng.permutation(6)[:counts[r]]
            orders.append((order, counts))
        (prev_order, prev_counts), (order, counts) = orders
        full = attack_mod._nested_scores(m, deltas, sq0, order, counts,
                                         budgets)
        got = attack_mod._nested_scores(m, deltas, sq0, order, counts,
                                        budgets, (prev_order, prev_counts))
        for r in range(n):
            for col, eps in enumerate(budgets):
                point = set(order[r, :min(eps, counts[r])].tolist())
                before = set(prev_order[r, :min(eps, prev_counts[r])].tolist())
                lower = budgets[col - 1] if col else 0
                skip = point == before or counts[r] <= lower
                assert got[r, col] == (np.inf if skip else full[r, col])
        assert np.isinf(got).any() and np.isfinite(got).any()


class TestDistanceType:
    def test_int16_up_to_its_maximum_then_int32(self):
        assert attack_mod._distance_dtype(32767) is np.int16
        assert attack_mod._distance_dtype(32768) is np.int32

    def test_nested_scores_exact_past_the_int16_range(self):
        # a point 32,760 from one support vector and 8 additions away:
        # its squared distances reach 32,768, past what int16 holds
        d = 32768
        svs = np.zeros((2, d), dtype=bool)
        svs[1, :4] = True
        m = KernelModel(svs, np.array([1.0, -0.5]), 0.25, 1e-4)
        X0b = np.zeros((1, d), dtype=bool)
        X0b[0, 8:] = True
        X0 = X0b.astype(np.float64)
        deltas = (1 - 2 * m.support_vectors.T).astype(np.int8, order="C")
        sq0 = m._sq_distances(X0).astype(attack_mod._distance_dtype(d))
        order = np.arange(8)[None, :]
        budgets = list(range(1, 9))
        got = attack_mod._nested_scores(m, deltas, sq0, order, np.array([8]),
                                        budgets)
        for col, eps in enumerate(budgets):
            point = X0b.copy()
            point[0, :eps] = True
            want = m.decision_batch(point.astype(np.float64))
            assert got[0, col] == want[0]
        assert m._sq_distances(point.astype(np.float64))[0, 0] == 32768
