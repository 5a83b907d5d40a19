import math

import numpy as np
import pytest
import scipy.special
import scipy.stats

from evadelab import stats
from evadelab.stats import (CorrelationReport, correlation_suite, kendall,
                            midranks, pearson, permutation_pvalue, spearman)


def kendall_counts(xs, ys):
    """(concordant, discordant, tied) as kendall counts them: its input
    check, then its sort-and-count path."""
    x, y, _ = stats._validated(xs, ys)
    return stats._kendall_counts(x, y)[:3]


def pairwise_kendall_counts(xs, ys):
    """Reference: (concordant, discordant, tied) from every pair's signs."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    dx = np.sign(x[:, None] - x[None, :])
    dy = np.sign(y[:, None] - y[None, :])
    vals = (dx * dy)[np.triu_indices(x.shape[0], k=1)]
    concordant = int(np.sum(vals > 0))
    discordant = int(np.sum(vals < 0))
    return concordant, discordant, int(vals.shape[0] - concordant - discordant)


def loop_midranks(values):
    """Reference: midranks by walking the stably sorted values."""
    v = np.asarray(values, dtype=np.float64)
    order = np.argsort(v, kind="stable")
    ranks = np.empty(v.shape[0])
    sorted_v = v[order]
    i = 0
    while i < v.shape[0]:
        j = i
        while j + 1 < v.shape[0] and sorted_v[j + 1] == sorted_v[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def tied_series(rng, n, tied):
    """Integer-valued (many ties) or continuous values of length n."""
    if tied:
        return rng.integers(0, int(rng.integers(1, n + 2)), size=n).astype(float)
    return rng.normal(size=n)


class TestPearson:
    def test_perfect_linear(self):
        r = pearson([1, 2, 3], [2, 4, 6])
        assert r.coefficient == pytest.approx(1.0)
        assert not r.degenerate

    def test_zero_variance_degenerate(self):
        r = pearson([1, 2, 3], [5, 5, 5])
        assert r.degenerate
        assert r.coefficient is None and r.p_value is None

    def test_hand_value(self):
        r = pearson([1, 2, 3, 4], [1, 3, 2, 4])
        assert r.coefficient == pytest.approx(0.8)

    def test_validation(self):
        with pytest.raises(ValueError):
            pearson([1, 2], [1, 2])
        with pytest.raises(ValueError):
            pearson([1, 2, 3], [1, 2])

    def test_matches_scipy(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.normal(size=30)
            y = 0.4 * x + rng.normal(size=30)
            ours = pearson(x, y)
            ref_r, ref_p = scipy.stats.pearsonr(x, y)
            assert ours.coefficient == pytest.approx(ref_r, abs=1e-12)
            assert ours.p_value == pytest.approx(ref_p, rel=1e-9)


class TestSpearman:
    def test_monotone_transform(self):
        x = [0.5, 1.2, 3.0, 7.7]
        y = [v ** 3 + 1 for v in x]
        assert spearman(x, y).coefficient == pytest.approx(1.0)

    def test_reversed(self):
        assert spearman([1, 2, 3], [3, 2, 1]).coefficient == pytest.approx(-1.0)

    def test_hand_value(self):
        assert spearman([1, 2, 3], [1, 3, 2]).coefficient == pytest.approx(0.5)

    def test_midranks_with_ties(self):
        assert np.array_equal(midranks([10, 20, 20, 30]), [1.0, 2.5, 2.5, 4.0])

    def test_closed_form_without_ties(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(5, 40))
            x = rng.permutation(n).astype(float)
            y = rng.permutation(n).astype(float)
            rho = spearman(x, y).coefficient
            d = midranks(x) - midranks(y)
            closed = 1 - 6 * float(d @ d) / (n * (n * n - 1))
            assert rho == pytest.approx(closed, abs=1e-12)

    def test_matches_scipy(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=50)
        y = x + rng.normal(size=50)
        ours = spearman(x, y)
        ref = scipy.stats.spearmanr(x, y)
        assert ours.coefficient == pytest.approx(ref.statistic, abs=1e-12)
        assert ours.p_value == pytest.approx(ref.pvalue, rel=1e-6)


class TestSortedCounts:
    """The sort-and-count paths against their pairwise and loop references."""

    @pytest.mark.parametrize("x_tied,y_tied", [(True, False), (False, True),
                                               (True, True), (False, False)])
    def test_counts_equal_pairwise(self, x_tied, y_tied):
        rng = np.random.default_rng(11)
        for n in list(range(3, 40)) + [int(v) for v in rng.integers(40, 301, 25)]:
            x = tied_series(rng, n, x_tied)
            y = tied_series(rng, n, y_tied)
            assert kendall_counts(x, y) == pairwise_kendall_counts(x, y)

    def test_counts_of_sorted_reversed_and_constant_inputs(self):
        x = np.arange(10.0)
        assert kendall_counts(x, x) == pairwise_kendall_counts(x, x)
        assert kendall_counts(x, -x) == pairwise_kendall_counts(x, -x)
        assert kendall_counts(x, np.ones(10)) == (0, 0, 45)
        assert kendall_counts(np.ones(10), np.ones(10)) == (0, 0, 45)

    def test_midranks_equal_loop(self):
        rng = np.random.default_rng(12)
        for n in range(0, 301, 7):
            for tied in (True, False):
                v = tied_series(rng, n, tied)
                assert np.array_equal(midranks(v), loop_midranks(v))

    def test_kendall_matches_scipy_at_n_2000_with_ties(self):
        rng = np.random.default_rng(13)
        x = rng.integers(0, 60, size=2000).astype(float)
        y = (x + rng.integers(0, 120, size=2000)).astype(float)
        ours = kendall(x, y)
        ref = scipy.stats.kendalltau(x, y, method="asymptotic")
        assert ours.coefficient == pytest.approx(ref.statistic, abs=1e-12)
        assert ours.p_value == pytest.approx(ref.pvalue, rel=1e-6)

    def test_suite_memory_is_linear_at_n_5000(self, traced_peak):
        # the pairwise count held three n x n arrays: 870 MiB at this size
        rng = np.random.default_rng(14)
        x = rng.integers(0, 50, size=5000).astype(float)
        y = x + rng.normal(size=5000)
        assert traced_peak(correlation_suite, x, y) < 8 * 2 ** 20


class TestNonFiniteInput:
    @pytest.mark.parametrize("fn", [pearson, spearman, kendall, kendall_counts])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejected(self, fn, bad):
        clean = [1.0, 2.0, 3.0, 4.0]
        with pytest.raises(ValueError, match="finite"):
            fn([1.0, bad, 3.0, 4.0], clean)
        with pytest.raises(ValueError, match="finite"):
            fn(clean, [1.0, 2.0, bad, 4.0])


class TestKendall:
    def test_pair_enumeration(self):
        assert kendall([1, 2, 3], [1, 3, 2]).coefficient == pytest.approx(1 / 3)

    def test_identical_orderings(self):
        assert kendall([1, 5, 9, 11], [2, 3, 7, 20]).coefficient == pytest.approx(1.0)

    def test_all_ties_degenerate(self):
        r = kendall([4, 4, 4], [1, 2, 3])
        assert r.degenerate

    def test_counts_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(4, 25))
            x = rng.integers(0, 5, size=n).astype(float)
            y = rng.integers(0, 5, size=n).astype(float)
            c, d, t = kendall_counts(x, y)
            assert c + d + t == n * (n - 1) // 2

    def test_matches_scipy_with_ties(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            x = rng.integers(0, 8, size=40).astype(float)
            y = (x + rng.integers(0, 8, size=40)).astype(float)
            ours = kendall(x, y)
            ref = scipy.stats.kendalltau(x, y, method="asymptotic")
            assert ours.coefficient == pytest.approx(ref.statistic, abs=1e-12)
            assert ours.p_value == pytest.approx(ref.pvalue, rel=1e-6)


# The sweep of the tails against scipy.special: every n up to 59, the
# pooled study sizes and beyond, and 205 correlations per n, from 1e-15 to
# within 1e-15 of +-1.  n = 3 is checked against its closed form instead:
# stdtr itself is off by up to 3e-9 at one degree of freedom and |t| near
# 1e-8 (measured against 1 - (2/pi) atan|t|).
SWEEP_N = list(range(4, 60)) + [100, 200, 499, 500, 501, 1000, 2000, 5000]
_EDGE = np.geomspace(1e-15, 1e-2, 14)
SWEEP_R = np.concatenate([-_EDGE, _EDGE, np.linspace(-0.99, 0.99, 149),
                          _EDGE - 1.0, 1.0 - _EDGE]).tolist()


def t_of(r, n):
    """_t_pvalue's t statistic of r on n - 2 degrees of freedom."""
    return r * math.sqrt((n - 2) / (1.0 - r * r))


def worst_relative_error(pairs):
    """Largest |ours - ref| / ref over (ours, ref) pairs with ref > 1e-290,
    the range where a double still holds a p-value's leading digits."""
    return max(abs(ours - ref) / ref for ours, ref in pairs if ref > 1e-290)


class TestTails:
    def test_t_tail_matches_scipy_stdtr(self):
        assert len(SWEEP_R) == 205
        assert worst_relative_error(
            (stats._t_pvalue(r, n),
             2.0 * float(scipy.special.stdtr(n - 2, -abs(t_of(r, n)))))
            for n in SWEEP_N for r in SWEEP_R) < 1e-10

    def test_kendall_normal_tail_matches_scipy_ndtr(self):
        # without ties, var(S) = n(n-1)(2n+5)/18 and z = S / sqrt(var(S));
        # sorted and reversed y reach |z| of about 1.5 sqrt(n), up to 39 at
        # n = 700, and partly shuffled y fill in the small |z|
        rng = np.random.default_rng(19)
        cases = []
        for n in range(3, 701, 3):
            y = np.arange(n)
            cases += [y, y[::-1]]
        for n in (10, 50, 200, 600):
            for swaps in (1, 3, 10, 30, 100, 300):
                y = np.arange(n)
                for i, j in rng.integers(0, n, size=(swaps, 2)):
                    y[[i, j]] = y[[j, i]]
                cases.append(y)
        pairs = []
        for y in cases:
            n = y.size
            s = sum(int(np.sign(y[i + 1:] - y[i]).sum()) for i in range(n))
            z = s / math.sqrt(n * (n - 1) * (2 * n + 5) / 18.0)
            pairs.append((kendall(np.arange(n), y).p_value,
                          2.0 * float(scipy.special.ndtr(-abs(z)))))
        assert max(abs(math.log(p)) for p, _ in pairs if p > 0.0) > 600.0
        assert worst_relative_error(pairs) < 1e-10

    @pytest.mark.parametrize("nu,closed_form", [
        # 1 - (2/pi) atan|t| and 1 - |t| / sqrt(2 + t^2), in forms that do
        # not cancel at large |t|
        (1, lambda t: 2.0 / math.pi * math.atan2(1.0, abs(t))),
        (2, lambda t: 2.0 / (math.sqrt(2.0 + t * t)
                             * (math.sqrt(2.0 + t * t) + abs(t)))),
    ])
    def test_t_tail_closed_forms(self, nu, closed_form):
        n = nu + 2
        assert worst_relative_error(
            (stats._t_pvalue(r, n), closed_form(t_of(r, n)))
            for r in SWEEP_R) < 1e-14

    def test_no_correlation_gives_p_exactly_one(self):
        x = [1.0, 2.0, 3.0, 4.0, 5.0]
        y = [2.0, -2.0, 0.0, -2.0, 2.0]
        report = pearson(x, y)
        assert report.coefficient == 0.0 and report.p_value == 1.0
        assert all(stats._t_pvalue(0.0, n) == 1.0 for n in (3, 4, 500))
        # 3 concordant and 3 discordant pairs: S = 0, so z = 0
        assert kendall([1, 2, 3, 4], [2, 4, 1, 3]).p_value == 1.0

    def test_t_tail_non_increasing_in_t(self):
        # across the meeting point of the two branches, near |t| = sqrt(3)
        ps = [stats._t_pvalue(r, 500) for r in np.linspace(0.0, 0.5, 20001)]
        assert ps[0] == 1.0
        assert all(b <= a for a, b in zip(ps, ps[1:]))

    def test_perfect_alignment_gives_p_zero(self):
        for fn in (pearson, spearman):
            assert fn([1, 2, 3, 4], [10, 20, 30, 40]).p_value == 0.0
            assert fn([1, 2, 3, 4], [40, 30, 20, 10]).p_value == 0.0

    def test_unconverged_fraction_raises(self, monkeypatch):
        monkeypatch.setattr(stats, "_CF_MAX_TERMS", 3)
        with pytest.raises(ArithmeticError, match="did not converge"):
            stats._t_pvalue(0.055, 1000)


class TestSuiteAndProperties:
    def test_aligned_inputs_all_one(self):
        reports = correlation_suite([1, 2, 3, 4], [10, 20, 30, 40])
        assert all(r.coefficient == pytest.approx(1.0) for r in reports)

    def test_constant_input_all_degenerate(self):
        reports = correlation_suite([2, 2, 2], [1, 2, 3])
        assert all(r.degenerate for r in reports)

    @pytest.mark.parametrize("xs,ys", [
        ([7.0, 7.0, 7.0, 7.0], [0.3, 0.1, 0.2, 0.4]),
        ([0.3, 0.1, 0.2, 0.4], [-0.0, 0.0, 0.0, -0.0])])
    def test_constant_input_neither_ranked_nor_counted(self, monkeypatch,
                                                       xs, ys):
        # every Gradient row of a linear model is w, so its evenness series
        # is constant; ranking and merge-counting it decided nothing
        def fail(*args):
            raise AssertionError("a constant series was ranked or counted")
        monkeypatch.setattr(stats, "midranks", fail)
        monkeypatch.setattr(stats, "_kendall_counts", fail)
        reports = correlation_suite(xs, ys)
        assert [r.degenerate for r in reports] == [True] * 3
        assert [r.n for r in reports] == [4] * 3

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=25)
        y = rng.normal(size=25)
        for fn in (pearson, spearman, kendall):
            assert fn(x, y).coefficient == pytest.approx(fn(y, x).coefficient)

    def test_bounds(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            x = rng.normal(size=12)
            y = rng.normal(size=12)
            for fn in (pearson, spearman, kendall):
                assert -1.0 <= fn(x, y).coefficient <= 1.0

    def test_monotone_invariance_of_rank_methods(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=30)
        y = rng.normal(size=30)
        for fn in (spearman, kendall):
            base = fn(x, y).coefficient
            assert fn(np.exp(x), y).coefficient == pytest.approx(base)
            assert fn(x, 3 * y + 7).coefficient == pytest.approx(base)

    def test_affine_invariance_of_pearson(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=30)
        y = rng.normal(size=30)
        base = pearson(x, y).coefficient
        assert pearson(2 * x + 1, y).coefficient == pytest.approx(base)
        assert pearson(x, -y).coefficient == pytest.approx(-base)

    def test_report_invariants(self):
        with pytest.raises(ValueError):
            CorrelationReport("pearson", 0.5, None, 10, False)
        with pytest.raises(ValueError):
            CorrelationReport("pearson", 0.5, 0.1, 10, True)
        with pytest.raises(ValueError):
            CorrelationReport("pearson", 1.5, 0.1, 10, False)


class TestPermutation:
    def test_strong_signal_small_p(self):
        rng = np.random.default_rng(9)
        x = np.arange(20.0)
        y = x + rng.normal(size=20) * 0.1
        p = permutation_pvalue(x, y, "spearman", n_perm=200, seed=0)
        assert p < 0.05

    def test_no_signal_large_p(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=20)
        y = rng.normal(size=20)
        p = permutation_pvalue(x, y, "pearson", n_perm=200, seed=1)
        assert p > 0.05

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            permutation_pvalue([1, 1, 1], [1, 2, 3], "pearson")

    @pytest.mark.parametrize("n_perm", [0, -5])
    def test_no_shuffle_rejected(self, n_perm):
        # (hits + 1) / (n_perm + 1) is a p-value only for n_perm >= 1
        with pytest.raises(ValueError, match="n_perm must be >= 1"):
            permutation_pvalue([1, 2, 3, 4], [1, 3, 2, 4], "spearman", n_perm)
