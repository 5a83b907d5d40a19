import math

import numpy as np
import pytest

from evadelab.evenness import (UndefinedEvennessError, evenness_e1,
                               evenness_e2, evenness_report)
from evadelab.explain import attribution_gradient_input


def cumulative_ratio(r, k, m):
    """Reference: share of the top-m absolute relevance mass held by the k
    largest, F(r, k)."""
    top = np.sort(np.abs(np.asarray(r, dtype=np.float64)))[::-1][:m]
    return top[:k].sum() / top.sum()


def curve_e1(r, m):
    """Reference: E1 = 2/(m-1) * (m - sum_{k=1..m} F(r, k))."""
    curve = sum(cumulative_ratio(r, k, m) for k in range(1, m + 1))
    return 2.0 / (m - 1) * (m - curve)


class TestCumulativeRatio:
    """E1 against the concentration curve F(r, k) it is defined by."""

    def test_hand_example(self):
        r = np.array([2.0, 1.0, 1.0, 0.0])
        assert [cumulative_ratio(r, k, 4) for k in (1, 2, 3)] == [
            0.5, 0.75, 1.0]
        assert evenness_e1(r, 4) == pytest.approx(curve_e1(r, 4))
        assert evenness_e1(r, 4) == pytest.approx(0.5)

    def test_uniform_is_k_over_m(self):
        r = np.full(6, 0.7)
        for k in range(1, 7):
            assert cumulative_ratio(r, k, 6) == pytest.approx(k / 6)
        assert evenness_e1(r, 6) == pytest.approx(curve_e1(r, 6))
        assert evenness_e1(r, 6) == pytest.approx(1.0)

    def test_one_hot_is_always_one(self):
        r = np.array([0.0, 5.0, 0.0, 0.0])
        assert evenness_e1(r, 4) == pytest.approx(curve_e1(r, 4))
        assert evenness_e1(r, 4) == 0.0

    def test_bounds_checked(self):
        # the curve's 2/(m-1) needs a window of at least two entries
        for m in (0, 1):
            with pytest.raises(ValueError, match="m must be >= 2"):
                evenness_e1(np.ones(4), m)

    def test_all_zero_window_undefined(self):
        with pytest.raises(UndefinedEvennessError):
            evenness_e1(np.zeros(4), 4)


class TestEvennessValues:
    def test_e1_extremals(self):
        assert evenness_e1(np.ones(4), 4) == pytest.approx(1.0)
        assert evenness_e1(np.array([5.0, 0, 0, 0]), 4) == pytest.approx(0.0)

    def test_e1_hand_example(self):
        assert evenness_e1(np.array([2.0, 1.0, 1.0, 0.0]), 4) == pytest.approx(0.5)

    def test_e2_extremals(self):
        assert evenness_e2(np.ones(4), 4) == pytest.approx(1.0)
        assert evenness_e2(np.array([5.0, 0, 0, 0]), 4) == pytest.approx(0.25)

    def test_e2_hand_example(self):
        assert evenness_e2(np.array([2.0, 1.0, 1.0, 0.0]), 4) == pytest.approx(0.5)

    def test_m_validation(self):
        with pytest.raises(ValueError):
            evenness_e1(np.ones(4), 1)
        assert evenness_e2(np.ones(4), 1) == pytest.approx(1.0)

    def test_padding_beyond_length(self):
        # fewer entries than m: zeros fill the window
        assert evenness_e2(np.array([3.0, 3.0]), 4) == pytest.approx(0.5)


class TestInvariances:
    def _random_vectors(self, n=1000, d=12, seed=0):
        rng = np.random.default_rng(seed)
        for _ in range(n):
            v = rng.normal(size=d)
            if np.all(v == 0):
                continue
            yield rng, v

    def test_scale_sign_permutation(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            v = rng.normal(size=10)
            m = int(rng.integers(2, 11))
            scale = float(rng.uniform(0.1, 10.0)) * (-1) ** int(rng.integers(2))
            signs = rng.choice([-1.0, 1.0], size=10)
            perm = rng.permutation(10)
            for fn in (evenness_e1, evenness_e2):
                base = fn(v, m)
                assert fn(v * scale, m) == pytest.approx(base, rel=1e-12)
                assert fn(v * signs, m) == pytest.approx(base, rel=1e-12)
                assert fn(v[perm], m) == pytest.approx(base, rel=1e-12)

    def test_ranges(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            v = rng.normal(size=9)
            m = int(rng.integers(2, 10))
            e1 = evenness_e1(v, m)
            e2 = evenness_e2(v, m)
            assert 0.0 <= e1 <= 1.0 + 1e-12
            assert 1.0 / m - 1e-12 <= e2 <= 1.0 + 1e-12

    def test_concentration_never_raises_e1(self):
        # moving mass from a smaller entry onto the largest one
        rng = np.random.default_rng(3)
        for _ in range(200):
            v = np.abs(rng.normal(size=8)) + 1e-6
            m = 8
            big = int(np.argmax(v))
            small = int(np.argmin(v))
            if big == small:
                continue
            shift = v[small] * float(rng.uniform(0.0, 1.0))
            moved = v.copy()
            moved[big] += shift
            moved[small] -= shift
            assert evenness_e1(moved, m) <= evenness_e1(v, m) + 1e-12


def loop_evenness(r, m):
    """Reference oracle: one vector's (E1, E2) from its own argsort, or
    (None, None) when its top-m window is all zero."""
    a = np.abs(np.asarray(r, dtype=np.float64))
    top = a[np.argsort(-a, kind="stable")[:m]]
    top = np.concatenate([top, np.zeros(m - top.shape[0])])
    if top[0] == 0.0:
        return None, None
    cums = np.cumsum(top)
    e1 = 2.0 / (m - 1.0) * (m - float((cums / cums[-1]).sum()))
    return e1, float(top.sum() / top[0] / m)


class TestMatrixReport:
    """evenness_report over a matrix against the one-row functions."""

    def _check_rows(self, R, m):
        report = evenness_report(R, m)
        assert len(report.per_sample_e1) == R.shape[0]
        for row, r in enumerate(R):
            try:
                want = (evenness_e1(r, m), evenness_e2(r, m))
            except UndefinedEvennessError:
                want = (None, None)
            got = (report.per_sample_e1[row], report.per_sample_e2[row])
            assert got == want == loop_evenness(r, m)
        return report

    def test_rows_equal_scalar_metrics(self):
        rng = np.random.default_rng(5)
        for d, m in ((30, 12), (30, 30), (7, 12), (1, 2)):
            R = rng.normal(size=(40, d))
            R[rng.random(R.shape) < 0.3] = 0.0
            R[3] = 0.0                       # an undefined row
            R[4] = np.round(R[4])            # ties
            report = self._check_rows(R, m)
            assert report.n_undefined >= 1

    def test_zero_padded_columns_change_nothing(self):
        rng = np.random.default_rng(6)
        R = rng.normal(size=(20, 9))
        padded = np.hstack([R, np.zeros((20, 5))])
        for m in (4, 9, 20):
            assert evenness_report(R, m) == evenness_report(padded, m)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="m must be >= 2"):
            evenness_report(np.ones((2, 3)), 1)
        with pytest.raises(ValueError, match="finite"):
            evenness_report(np.array([[1.0, np.nan]]), 2)
        with pytest.raises(ValueError):
            evenness_report(np.ones(3), 2)

    def test_sorts_its_one_copy_in_place(self, wide_set, wide_model,
                                         traced_peak):
        # |R| is sorted in place; a sorted copy of it took 2.10 copies
        R = attribution_gradient_input(wide_model, wide_set.samples)
        peak = traced_peak(evenness_report, R, 50)
        assert peak <= 1.25 * 8 * wide_set.n * wide_set.d


class TestAverages:
    def test_identical_vectors(self):
        vecs = [np.array([2.0, 1.0, 1.0, 0.0])] * 3
        assert evenness_report(vecs, 4).averaged_e1 == pytest.approx(0.5)

    def test_mean_of_extremes(self):
        vecs = [np.ones(4), np.array([5.0, 0, 0, 0])]
        assert evenness_report(vecs, 4).averaged_e1 == pytest.approx(0.5)

    def test_undefined_excluded_and_counted(self):
        vecs = [np.ones(4), np.zeros(4)]
        report = evenness_report(vecs, 4)
        assert report.per_sample_e1 == (1.0, None)
        assert report.n_undefined == 1
        assert report.averaged_e1 == pytest.approx(1.0)

    def test_all_undefined_raises(self):
        with pytest.raises(UndefinedEvennessError):
            evenness_report([np.zeros(3)], 3)

    def test_matches_independent_recomputation(self):
        # scripted mean with plain python floats as the oracle
        rng = np.random.default_rng(4)
        vecs = [rng.normal(size=30) for _ in range(200)]
        m = 12
        expected = []
        for v in vecs:
            mags = sorted((abs(float(t)) for t in v), reverse=True)[:m]
            total = sum(mags)
            cums = []
            run = 0.0
            for t in mags:
                run += t
                cums.append(run / total)
            expected.append(2.0 / (m - 1) * (m - sum(cums)))
        oracle = math.fsum(expected) / len(expected)
        assert evenness_report(vecs, m).averaged_e1 == pytest.approx(
            oracle, abs=1e-12)
