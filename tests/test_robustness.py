import math
import re

import numpy as np
import pytest

from evadelab.attack import attack_scores_over_grid
from evadelab.featurespace import SyntheticConfig, generate_synthetic, split
from evadelab.models import (LinearModel, TrainConfig, detection_rate_at_fpr,
                             train_linear, train_secsvm)
from evadelab.robustness import (RobustnessScore, _loss_matrix,
                                 robustness_from_scores)


def vec(indices, d):
    """The bool (d,) row with the given features present."""
    x = np.zeros(d, dtype=bool)
    x[list(indices)] = True
    return x


def attacked_robustness(model, samples, eps_grid, threshold, method="auto"):
    """Robustness of samples attacked at every budget of the grid."""
    scores = attack_scores_over_grid(model, samples, eps_grid, threshold,
                                     method=method)
    return robustness_from_scores(scores, eps_grid, "hinge")


class TestAdversarialLoss:
    """The elementwise loss of the margins of +1-labelled samples."""

    def test_hinge_values(self):
        margins = np.array([[1.0, -1.0, 3.0]])
        assert _loss_matrix(margins, "hinge").tolist() == [[0.0, 2.0, 0.0]]

    def test_logistic_value(self):
        assert _loss_matrix(np.array([0.0]), "logistic")[0] == pytest.approx(
            math.log(2))

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown loss 'squared'"):
            _loss_matrix(np.array([1.0]), "squared")


class TestPerEpsRobustness:
    """Per-budget values of hand-made one-budget score matrices."""

    def test_all_at_margin(self):
        r = robustness_from_scores(np.array([[2.0], [2.0]]), [1], "hinge")
        assert r.per_eps[1] == pytest.approx(1.0)

    def test_single_sample_loss_two(self):
        r = robustness_from_scores(np.array([[-1.0]]), [1], "hinge")
        assert r.per_eps[1] == pytest.approx(math.exp(-2))

    def test_two_sample_mean(self):
        r = robustness_from_scores(np.array([[1.0], [-1.0]]), [1], "hinge")
        assert r.per_eps[1] == pytest.approx((1.0 + math.exp(-2)) / 2)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            robustness_from_scores(np.empty((0, 1)), [1], "hinge")


class TestRobustnessFromScores:
    def test_single_budget_grid(self):
        scores = np.array([[1.0], [-1.0]])
        r = robustness_from_scores(scores, [3], "hinge")
        assert r.aggregate == pytest.approx(r.per_eps[3])
        assert r.per_sample[0] == pytest.approx(1.0)
        assert r.per_sample[1] == pytest.approx(math.exp(-2))

    def test_range_invariant(self):
        with pytest.raises(ValueError):
            robustness_from_scores(np.zeros((2, 2)), [1], "hinge")
        r = robustness_from_scores(np.full((3, 2), 5.0), [1, 2], "hinge")
        assert all(v == pytest.approx(1.0) for v in r.per_eps.values())

    def test_budget_below_one_rejected(self):
        # the rule ExperimentConfig applies to its grid
        for grid in ([0, 1], [-1]):
            with pytest.raises(ValueError,
                               match="eps_grid must be non-empty positive"):
                robustness_from_scores(np.zeros((2, len(grid))), grid)

    @pytest.mark.parametrize("budget", [1.5, 2.0, True, "2",
                                        np.float64(2.0), np.True_])
    def test_non_integer_budget_rejected(self, budget):
        # (1.5, 2.7) used to give per_eps keyed {1, 2}; numpy integers
        # stay budgets
        with pytest.raises(ValueError,
                           match=f"^budget must be an integer, got "
                                 f"{re.escape(repr(budget))}$"):
            robustness_from_scores(np.zeros((2, 2)), [1, budget])
        r = robustness_from_scores(np.zeros((2, 2)), np.array([1, 3]))
        assert list(r.per_eps) == [1, 3] and r.eps_grid == (1, 3)

    def test_repeated_budget_rejected_by_name(self):
        # [1, 1] kept one per_eps entry but averaged it over two budgets
        with pytest.raises(ValueError, match=r"repeats budget\(s\) \[1\]"):
            robustness_from_scores(np.zeros((2, 2)), [1, 1])
        with pytest.raises(ValueError, match=r"repeats budget\(s\) \[2, 5\]"):
            robustness_from_scores(np.zeros((2, 5)), [5, 2, 3, 2, 5])

    def test_report_invariant_enforced(self):
        with pytest.raises(ValueError):
            RobustnessScore({1: 1.5}, 1.5, "hinge", (1,), np.ones(1))


class TestAggregateRobustness:
    def test_unattackable_model_scores_one(self):
        m = LinearModel(np.array([2.0, 3.0]), 0.0)
        samples = [vec([0], 2), vec([1], 2), vec([0, 1], 2)]
        r = attacked_robustness(m, samples, range(1, 11), 0.0, "greedy")
        assert r.aggregate == pytest.approx(1.0)

    def test_greedy_per_eps_non_increasing(self):
        cfg = SyntheticConfig(d=60, n_benign=300, n_malware=300, n_strong=10,
                              strong_rate_gap=0.5, weak_rate_gap=0.1,
                              base_density=0.05, seed=13)
        train, test = split(generate_synthetic(cfg), 0.6, 0)
        model = train_linear(train, TrainConfig("hinge", 1.0, epochs=8, seed=0))
        _, threshold = detection_rate_at_fpr(model, test, 0.01)
        malware = test.samples[test.labels == 1][:80]
        r = attacked_robustness(model, malware, range(1, 16), threshold,
                                "greedy")
        values = [r.per_eps[e] for e in r.eps_grid]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_box_constrained_model_more_robust(self):
        cfg = SyntheticConfig(d=150, n_benign=900, n_malware=900, n_strong=30,
                              strong_rate_gap=0.5, weak_rate_gap=0.02,
                              base_density=0.1, seed=17)
        train, test = split(generate_synthetic(cfg), 0.6, 0)
        svm = train_linear(train, TrainConfig("hinge", 1.0, epochs=8, seed=0))
        sec = train_secsvm(train, TrainConfig("hinge", 1.0, epochs=8, seed=0,
                                              weight_lb=-0.25, weight_ub=0.25))
        malware = test.samples[test.labels == 1][:120]
        _, t1 = detection_rate_at_fpr(svm, test, 0.01)
        _, t2 = detection_rate_at_fpr(sec, test, 0.01)
        r1 = attacked_robustness(svm, malware, range(1, 51), t1, "greedy")
        r2 = attacked_robustness(sec, malware, range(1, 51), t2, "greedy")
        assert r2.aggregate > r1.aggregate

    def test_unevadable_sample_with_margin_scores_one(self):
        m = LinearModel(np.array([1.5, 2.0]), 0.0)
        r = attacked_robustness(m, [vec([0, 1], 2)], [1, 2], 0.0, "greedy")
        assert r.per_sample[0] == pytest.approx(1.0)

    def test_empty_grid_rejected(self):
        m = LinearModel(np.array([1.0]), 0.0)
        with pytest.raises(ValueError, match="eps_grid"):
            attacked_robustness(m, [vec([0], 1)], [], 0.0)
