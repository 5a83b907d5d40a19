import itertools

import numpy as np
import pytest

from evadelab import attack as attack_mod
from evadelab.attack import (NOT_EVADABLE, AttackConfig, AttackResult,
                             SecurityCurve, attack_scores_over_grid,
                             epsilon_min, epsilon_min_batch,
                             greedy_linear_evasion, pgd_evasion, project,
                             security_evaluation)
from evadelab.featurespace import (SparseBinaryVector, SyntheticConfig,
                                   generate_synthetic, split)
from evadelab.models import (KernelModel, LinearModel, TrainConfig,
                             detection_rate_at_fpr, score, train_linear,
                             train_rbf_svm)
from evadelab.pipeline import PRESETS


def vec(indices, d):
    return SparseBinaryVector.from_indices(indices, d)


def brute_force_best(model, x, eps):
    absent = [i for i in range(x.dim) if i not in x.indices]
    base = set(x.indices)
    best = score(model, x)
    for k in range(1, eps + 1):
        for add in itertools.combinations(absent, k):
            best = min(best, score(model, vec(base | set(add), x.dim)))
    return best


class TestAttackConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            AttackConfig(0)
        with pytest.raises(ValueError):
            AttackConfig(1, eta=-0.1)
        with pytest.raises(ValueError):
            AttackConfig(1, tol=0.0)

    def test_with_epsilon(self):
        cfg = AttackConfig(3, eta=0.2, max_iters=50)
        other = cfg.with_epsilon(7)
        assert other.epsilon == 7 and other.eta == 0.2 and other.max_iters == 50


class TestProject:
    def test_three_stage_trace(self):
        x = vec([2], 3)
        out = project(np.array([0.9, 0.2, 1.0]), x, AttackConfig(1))
        assert out.indices == (0, 2)

    def test_fixed_point(self):
        x = vec([1, 3], 5)
        out = project(x.to_dense(), x, AttackConfig(2))
        assert out.indices == x.indices

    def test_addition_only_restores_original(self):
        x = vec([0], 3)
        out = project(np.array([0.0, 0.0, 0.0]), x, AttackConfig(2))
        assert 0 in out.indices

    def test_budget_enforced_with_index_ties(self):
        x = vec([], 4)
        # all four coordinates equally attractive; lowest indices win
        out = project(np.array([0.8, 0.8, 0.8, 0.8]), x, AttackConfig(2))
        assert out.indices == (0, 1)

    def test_largest_moves_kept(self):
        x = vec([], 4)
        out = project(np.array([0.6, 0.9, 0.55, 0.95]), x, AttackConfig(2))
        assert out.indices == (1, 3)

    def test_dimension_checked(self):
        with pytest.raises(ValueError):
            project(np.zeros(3), vec([0], 4), AttackConfig(1))


class TestPgdEvasion:
    def test_linear_single_addition(self):
        m = LinearModel(np.array([-3.0, 1.0, 0.5]), 0.0)
        x = vec([2], 3)
        res = pgd_evasion(m, x, AttackConfig(1, max_iters=50))
        assert res.evaded
        assert res.adversarial.indices == (0, 2)
        assert res.score_after == pytest.approx(-2.5)

    def test_all_positive_weights_unattackable(self):
        m = LinearModel(np.array([0.5, 1.0, 2.0]), 0.0)
        x = vec([1], 3)
        res = pgd_evasion(m, x, AttackConfig(2, max_iters=50))
        assert not res.evaded
        assert res.adversarial.indices == x.indices

    def test_already_benign_returned_unchanged(self):
        m = LinearModel(np.array([-1.0, 1.0]), 0.0)
        x = vec([0], 2)
        res = pgd_evasion(m, x, AttackConfig(1), threshold=0.0)
        assert res.evaded and res.iterations == 0
        assert res.adversarial.indices == x.indices

    def test_best_score_trace_non_increasing(self):
        rng = np.random.default_rng(5)
        svs = tuple(vec(np.flatnonzero(rng.random(10) < 0.5), 10)
                    for _ in range(6))
        m = KernelModel(svs, rng.normal(size=6), 0.1, 0.4)
        x = vec([0, 4, 7], 10)
        res = pgd_evasion(m, x, AttackConfig(3, max_iters=100),
                          threshold=-np.inf)
        trace = res.score_trace
        assert all(a >= b for a, b in zip(trace, trace[1:]))

    def test_feasibility_on_random_cases(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            d = int(rng.integers(5, 15))
            svs = tuple(vec(np.flatnonzero(rng.random(d) < 0.5), d)
                        for _ in range(4))
            m = KernelModel(svs, rng.normal(size=4), 0.0, 0.5)
            x = vec(np.flatnonzero(rng.random(d) < 0.4), d)
            eps = int(rng.integers(1, 4))
            res = pgd_evasion(m, x, AttackConfig(eps, max_iters=60),
                              threshold=-np.inf)
            assert len(res.added_indices) <= eps
            assert set(x.indices).issubset(res.adversarial.indices)

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
                res = pgd_evasion(m, x, AttackConfig(2, max_iters=300),
                                  threshold=-np.inf)
                if res.score_after <= brute_force_best(m, x, 2) + 1e-9:
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
        assert epsilon_min(m, vec([], 2), 5, "pgd", AttackConfig(1)) == NOT_EVADABLE

    def test_pgd_matches_greedy_on_linear(self):
        m = LinearModel(np.array([-1.0, -1.0, -0.2]), 1.5)
        g = epsilon_min(m, vec([], 3), 5, "greedy")
        p = epsilon_min(m, vec([], 3), 5, "pgd", AttackConfig(1, max_iters=50))
        assert p == g == 2

    def test_batch_agrees_with_scalar(self):
        rng = np.random.default_rng(8)
        d = 30
        m = LinearModel(rng.normal(size=d) * 0.5, 1.0)
        xs = [vec(np.flatnonzero(rng.random(d) < 0.3), d) for _ in range(15)]
        batch_g = epsilon_min_batch(m, xs, 10, "greedy")
        batch_p = epsilon_min_batch(m, xs, 10, "pgd", AttackConfig(1, max_iters=80))
        for i, x in enumerate(xs):
            assert batch_g[i] == epsilon_min(m, x, 10, "greedy")
            assert batch_p[i] == epsilon_min(
                m, x, 10, "pgd", AttackConfig(1, max_iters=80))


class TestEpsMinOracle:
    """eps_min against the first budget whose single attack evades."""

    @pytest.mark.parametrize("kind,method", [("rbf", "pgd"), ("linear", "pgd"),
                                             ("linear", "greedy")])
    def test_matches_first_evading_single_budget_attack(self, kind, method):
        model, malware, threshold = d12_cell(kind)
        cfg = AttackConfig(1, max_iters=80)
        want = []
        for x in malware:
            if score(model, x) < threshold:
                want.append(0)
                continue
            for eps in range(1, 7):
                if method == "pgd":
                    res = pgd_evasion(model, x, cfg.with_epsilon(eps),
                                      threshold)
                else:
                    res = greedy_linear_evasion(model, x, eps, threshold)
                if res.evaded:
                    want.append(eps)
                    break
            else:
                want.append(NOT_EVADABLE)
        got = epsilon_min_batch(model, malware, 6, method, cfg, threshold)
        assert np.array_equal(got, want)
        assert {0, 1, 6} <= set(want)  # both ends of the search

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
        malware = [s for s, y in zip(test.samples, test.labels) if y == 1]
        return model, malware, rate, threshold

    def test_zero_budget_equals_clean_rate(self):
        model, malware, rate_clean, threshold = self._trained()
        curve = security_evaluation(model, malware, [0, 1, 2], threshold,
                                    method="greedy")
        clean = float(np.mean([score(model, x) >= threshold for x in malware]))
        assert curve.detection_rates[0] == pytest.approx(clean)

    def test_greedy_curve_monotone(self):
        model, malware, _, threshold = self._trained()
        curve = security_evaluation(model, malware, range(1, 21), threshold,
                                    method="greedy")
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
            security_evaluation(model, [], [1], threshold)

    def test_curve_from_scores(self):
        scores = np.array([[1.0, -1.0], [2.0, 0.5], [0.6, 0.6]])
        curve = SecurityCurve.from_scores(scores, [2, 5], 0.6, 0.01)
        assert curve.epsilons == (2, 5)
        assert curve.detection_rates == (1.0, 1 / 3)
        assert curve.fpr == 0.01 and curve.n_samples == 3

    def test_curve_validation(self):
        with pytest.raises(ValueError):
            SecurityCurve((1, 2), (0.5,), 0.01, 10)
        with pytest.raises(ValueError):
            SecurityCurve((1,), (1.5,), 0.01, 10)


class TestKernelCurveMonotonicity:
    def test_pgd_curve_non_increasing_within_jitter(self):
        cfg = SyntheticConfig(d=12, n_benign=150, n_malware=150, n_strong=4,
                              strong_rate_gap=0.5, weak_rate_gap=0.15,
                              base_density=0.1, seed=41)
        train, test = split(generate_synthetic(cfg), 0.6, 0)
        model = train_rbf_svm(train, 10.0, 0.2, TrainConfig(epochs=20, seed=0))
        _, threshold = detection_rate_at_fpr(model, test, 0.05)
        malware = [s for s, y in zip(test.samples, test.labels) if y == 1]
        curve = security_evaluation(model, malware, range(1, 9), threshold,
                                    AttackConfig(1, max_iters=80), method="pgd")
        rates = curve.detection_rates
        assert all(b <= a + 0.01 for a, b in zip(rates, rates[1:]))


class TestOracleEquivalence:
    def test_pgd_never_beats_greedy_and_mostly_matches(self):
        cfg = SyntheticConfig(d=120, n_benign=400, n_malware=400, n_strong=20,
                              strong_rate_gap=0.5, weak_rate_gap=0.02,
                              base_density=0.15, seed=31)
        train, test = split(generate_synthetic(cfg), 0.6, 0)
        model = train_linear(train, TrainConfig("hinge", 1.0, epochs=8, seed=0))
        _, threshold = detection_rate_at_fpr(model, test, 0.01)
        malware = [s for s, y in zip(test.samples, test.labels) if y == 1][:60]
        g = epsilon_min_batch(model, malware, 40, "greedy", threshold=threshold)
        p = epsilon_min_batch(model, malware, 40, "pgd",
                              AttackConfig(1, max_iters=200), threshold=threshold)
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
        for addition_only in (True, False):
            for _ in range(40):
                n, d = 25, int(rng.integers(3, 20))
                X0b = rng.random((n, d)) < 0.3
                # values on a coarse lattice force many tied move sizes
                V = rng.integers(0, 5, size=(n, d)) / 4.0
                if addition_only:
                    V = np.maximum(V, X0b)
                for eps in range(1, d + 1):
                    got = attack_mod._project_clipped_batch(V, X0b, eps)
                    want = partition_projection(V, X0b, eps)
                    assert np.array_equal(got, want)

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
    malware = [s for s, y in zip(test.samples, test.labels) if y == 1]
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
    malware = [s for s, y in zip(test.samples, test.labels) if y == 1]
    return model, malware, threshold


class TestGridEngine:
    def test_grid_scores_bitwise_equal_golden(self):
        model, malware, threshold = criterion8_rbf_cell()
        scores = attack_scores_over_grid(model, malware[:10], range(1, 9),
                                         threshold,
                                         AttackConfig(1, max_iters=150), "pgd")
        assert np.array_equal(scores, np.array(GOLDEN_C8_GRID))

    def test_grid_columns_equal_single_budget_attacks(self):
        model, malware, threshold = d12_cell()
        cfg = AttackConfig(1, max_iters=80)
        grid = [0, 1, 2, 3, 5, 8]
        scores = attack_scores_over_grid(model, malware[:20], grid, threshold,
                                         cfg, "pgd")
        assert np.any(scores < threshold)  # some attacks do evade here
        for row, x in enumerate(malware[:20]):
            assert scores[row, 0] == score(model, x)
            for col, eps in enumerate(grid[1:], start=1):
                res = pgd_evasion(model, x, cfg.with_epsilon(eps), threshold)
                assert scores[row, col] == res.score_after

    def test_grid_order_and_repeats_do_not_change_scores(self):
        model, malware, threshold = d12_cell()
        cfg = AttackConfig(1, max_iters=80)
        a = attack_scores_over_grid(model, malware[:15], [1, 4, 6], threshold,
                                    cfg, "pgd")
        b = attack_scores_over_grid(model, malware[:15], [6, 1, 4, 1],
                                    threshold, cfg, "pgd")
        assert np.array_equal(a, b[:, [1, 2, 0]])
        assert np.array_equal(b[:, 1], b[:, 3])

    def test_linear_shadow_pass_with_fixed_step(self):
        rng = np.random.default_rng(3)
        d = 20
        m = LinearModel(rng.normal(size=d), 0.5)
        xs = [vec(np.flatnonzero(rng.random(d) < 0.3), d) for _ in range(12)]
        cfg = AttackConfig(1, eta=0.05, max_iters=60)
        scores = attack_scores_over_grid(m, xs, [1, 2, 4], -np.inf, cfg, "pgd")
        for col, eps in enumerate((1, 2, 4)):
            alone = attack_scores_over_grid(m, xs, [eps], -np.inf, cfg, "pgd")
            assert np.array_equal(scores[:, col], alone[:, 0])
            for row, x in enumerate(xs):
                res = pgd_evasion(m, x, cfg.with_epsilon(eps), -np.inf)
                # a lone row's dot product may round differently
                assert scores[row, col] == pytest.approx(res.score_after,
                                                         abs=1e-12)


class TestFeasibilityChecks:
    def test_engine_rejects_infeasible_projection(self, monkeypatch):
        # the all-ones point scores lowest, so the forged point is kept
        m = KernelModel((vec(range(5), 5),), np.array([-1.0]), 0.0, 0.5)

        def everything(V, X0b, epsilon):
            return np.ones_like(X0b)

        monkeypatch.setattr(attack_mod, "_project_clipped_batch", everything)
        with pytest.raises(RuntimeError, match="budget"):
            attack_scores_over_grid(m, [vec([2], 5)], [1, 2], -np.inf,
                                    AttackConfig(1, max_iters=5), "pgd")

    def test_engine_rejects_removed_feature(self):
        X0b = np.array([[True, False, False]])
        points = np.array([[[False, True, False]]])
        with pytest.raises(RuntimeError, match="addition-only"):
            attack_mod._check_feasible(X0b, points, [2], True)
        attack_mod._check_feasible(X0b, points, [2], False)

    def test_check_result_raises(self):
        x = vec([0], 4)
        over = AttackResult(vec([0, 1, 2], 4), (1, 2), (1.0, 0.0), True, 1)
        with pytest.raises(RuntimeError, match="budget"):
            attack_mod._check_result(over, x, AttackConfig(1))
        removed = AttackResult(vec([1], 4), (1,), (1.0, 0.0), True, 1)
        with pytest.raises(RuntimeError, match="addition-only"):
            attack_mod._check_result(removed, x, AttackConfig(2))
        mislabeled = AttackResult(vec([0, 1], 4), (2,), (1.0, 0.0), True, 1)
        with pytest.raises(RuntimeError, match="added_indices"):
            attack_mod._check_result(mislabeled, x, AttackConfig(2))
