import numpy as np
import pytest

from evadelab import explain
from evadelab.explain import (attribution_gradient,
                              attribution_gradient_input,
                              attribution_integrated_gradients, top_features)
from evadelab.featurespace import SyntheticConfig, generate_synthetic
from evadelab.models import (KernelModel, LinearModel, TrainConfig, score,
                             train_linear, train_rbf_svm)


def vec(indices, d):
    """The bool (d,) row with the given features present."""
    x = np.zeros(d, dtype=bool)
    x[list(indices)] = True
    return x


def random_kernel_model(rng, d, n_sv, gamma):
    svs = tuple(vec(np.flatnonzero(rng.random(d) < 0.5), d) for _ in range(n_sv))
    return KernelModel(svs, rng.normal(size=n_sv), float(rng.normal() * 0.2),
                       gamma)


class TestGradient:
    def test_linear_constant_across_samples(self):
        w = np.array([1.0, -2.0, 3.0])
        m = LinearModel(w, 0.0)
        r1, r2 = attribution_gradient(m, [vec([0], 3), vec([1, 2], 3)])
        assert np.array_equal(r1, w)
        assert np.array_equal(r1, r2)

    def test_kernel_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        m = random_kernel_model(rng, 6, 5, 0.6)
        x = vec([0, 3, 5], 6)
        r = attribution_gradient(m, [x])[0]
        h = 1e-4
        base = x.astype(float)
        for i in range(6):
            up = base.copy()
            up[i] += h
            dn = base.copy()
            dn[i] -= h
            fd = (m.decision_batch(up[None])[0]
                  - m.decision_batch(dn[None])[0]) / (2 * h)
            assert abs(r[i] - fd) / max(abs(fd), 1e-12) < 1e-5

    @pytest.mark.parametrize("method", [attribution_gradient,
                                        attribution_gradient_input])
    def test_kernel_gradient_peak(self, wide_set, traced_peak, method):
        # a 200-support-vector RBF model of the bool samples holds the
        # result, the w @ S product and the (n, 200) weights; a float64 copy
        # of the samples and a second copy of the result took 3.40 copies
        rng = np.random.default_rng(11)
        m = KernelModel(wide_set.samples[rng.choice(wide_set.n, 200,
                                                    replace=False)],
                        rng.normal(size=200), 0.1, 0.01)
        peak = traced_peak(method, m, wide_set.samples)
        assert peak <= 2.5 * 8 * wide_set.n * wide_set.d

    def test_kernel_gradient_of_bool_samples_is_bitwise(self):
        # signed zeros included: the bits equal gradient_batch on floats
        rng = np.random.default_rng(12)
        m = random_kernel_model(rng, 40, 30, 0.1)
        X = rng.random((50, 40)) < 0.3
        want = m.gradient_batch(X.astype(np.float64))
        got = attribution_gradient(m, X)
        assert got.flags.writeable
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        masked = attribution_gradient_input(m, X)
        assert np.array_equal(masked.view(np.int64),
                              (want * X).view(np.int64))


class TestGradientInput:
    def test_masked_product(self):
        m = LinearModel(np.array([1.0, -2.0, 3.0]), 0.0)
        r = attribution_gradient_input(m, [vec([0, 1], 3)])
        assert np.array_equal(r, [[1.0, -2.0, 0.0]])

    def test_empty_sample_all_zero(self):
        m = LinearModel(np.array([1.0, -2.0, 3.0]), 0.0)
        r = attribution_gradient_input(m, [vec([], 3)])
        assert np.array_equal(r, np.zeros((1, 3)))

    def test_support_containment_on_kernel(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            m = random_kernel_model(rng, 8, 4, 0.5)
            x = vec(np.flatnonzero(rng.random(8) < 0.4), 8)
            r = attribution_gradient_input(m, [x])[0]
            assert np.all(r[~x] == 0.0)


class TestIntegratedGradients:
    def test_linear_equals_gradient_input(self):
        rng = np.random.default_rng(5)
        for p in (1, 10, 100):
            m = LinearModel(rng.normal(size=12), float(rng.normal()))
            x = vec(np.flatnonzero(rng.random(12) < 0.5), 12)
            gi = attribution_gradient_input(m, [x])
            ig = attribution_integrated_gradients(m, [x], p=p)
            assert np.max(np.abs(gi - ig)) < 1e-12

    def test_completeness_on_trained_kernel(self):
        # a trained machine keeps f(x) - f(0) away from the cancellation
        # regime where the relative tolerance loses meaning
        from evadelab.featurespace import SyntheticConfig, generate_synthetic
        from evadelab.models import TrainConfig, train_rbf_svm
        cfg = SyntheticConfig(d=10, n_benign=60, n_malware=60, n_strong=3,
                              strong_rate_gap=0.5, weak_rate_gap=0.2,
                              base_density=0.1, seed=23)
        ds = generate_synthetic(cfg)
        m = train_rbf_svm(ds, 10.0, 0.1, TrainConfig(epochs=30, seed=0))
        malware = ds.samples[ds.labels == 1]
        R = attribution_integrated_gradients(m, malware[:5], p=1000)
        for x, r in zip(malware[:5], R):
            f_x = score(m, x)
            f_0 = float(m.decision_batch(np.zeros(10)[None])[0])
            gap = abs(r.sum() - (f_x - f_0))
            assert gap <= max(1e-6, 1e-3 * abs(f_x - f_0))

    def test_cauchy_refinement(self):
        # halving the step keeps shrinking the change between refinements
        rng = np.random.default_rng(8)
        m = random_kernel_model(rng, 6, 4, 0.5)
        x = vec([0, 1, 4], 6)
        r = {p: attribution_integrated_gradients(m, [x], p=p)
             for p in (250, 500, 1000, 2000)}
        d1 = np.max(np.abs(r[500] - r[250]))
        d2 = np.max(np.abs(r[1000] - r[500]))
        d3 = np.max(np.abs(r[2000] - r[1000]))
        assert d2 < d1 and d3 < d2

    def test_chunking_is_invisible(self, monkeypatch):
        rng = np.random.default_rng(9)
        m = random_kernel_model(rng, 5, 3, 0.3)
        x = vec([1, 2], 5)
        monkeypatch.setattr(explain, "_IG_CHUNK_VALUES", 7 * 5)
        a = attribution_integrated_gradients(m, [x], p=300)
        monkeypatch.setattr(explain, "_IG_CHUNK_VALUES", 300 * 5)
        b = attribution_integrated_gradients(m, [x], p=300)
        assert np.max(np.abs(a - b)) < 1e-12

    @pytest.mark.parametrize("method", [attribution_gradient_input,
                                        attribution_integrated_gradients])
    def test_linear_attribution_allocates_only_the_result(
            self, wide_set, wide_model, traced_peak, method):
        # the result is the bool samples times the gradient or the path
        # sum: a float64 copy of the samples beside it took 2.13 copies
        peak = traced_peak(method, wide_model, wide_set.samples)
        assert peak <= 1.25 * 8 * wide_set.n * wide_set.d

    def test_kernel_path_memory_bounded_at_a_million_points(self,
                                                             traced_peak):
        # the exponentials are taken a chunk of 2**19 values (4 MiB) at a
        # time, so the peak stays a few chunks whatever p is; per-row (p, d)
        # point batches peaked near 24 MiB on a model of this size
        rng = np.random.default_rng(10)
        m = random_kernel_model(rng, 8, 16, 0.2)
        X = np.vstack([vec(np.flatnonzero(rng.random(8) < 0.4), 8)
                       for _ in range(3)])
        attribution_integrated_gradients(m, X, p=10)
        peak = traced_peak(attribution_integrated_gradients, m, X, p=10 ** 6)
        assert peak < 3 * 2 ** 22

    def test_validation(self):
        m = LinearModel(np.ones(3), 0.0)
        with pytest.raises(ValueError):
            attribution_integrated_gradients(m, [vec([0], 3)], p=0)
        with pytest.raises(ValueError):
            attribution_integrated_gradients(m, [vec([0], 4)])
        with pytest.raises(ValueError):
            attribution_gradient(m, [vec([0], 3), vec([0], 4)])


def percentages(r):
    """Each feature's percent of one row, as top_features reports it."""
    return {i: pct for i, _, pct in top_features(r, len(r))}


class TestReporting:
    def test_percentages_sum_to_100_in_magnitude(self):
        pct = percentages(np.array([2.0, -1.0, 1.0]))
        assert sum(map(abs, pct.values())) == pytest.approx(100.0)
        assert pct[0] == pytest.approx(50.0)
        assert pct[1] == pytest.approx(-25.0)

    def test_top_features_ordering(self):
        top = top_features(np.array([0.5, -3.0, 1.0, 0.0]), 2)
        assert [t[0] for t in top] == [1, 2]
        assert top[0][1] == -3.0

    def test_all_zero_percentages(self):
        assert percentages(np.zeros(4)) == {0: 0.0, 1: 0.0, 2: 0.0, 3: 0.0}

    def test_negative_k_rejected(self):
        r = np.array([0.5, -3.0, 1.0])
        assert top_features(r, 0) == []
        with pytest.raises(ValueError, match="k must be >= 0"):
            top_features(r, -1)


def reference_ig(model, x, p):
    """One sample's zero-baseline path sum as one (p, d) gradient batch."""
    delta = x.astype(float)
    points = (np.arange(1, p + 1) / p)[:, None] * delta[None, :]
    return delta * model.gradient_batch(points).sum(axis=0) / p


class TestBatchedRows:
    """Row i of one batched call against a one-sample call on x_i."""

    @pytest.fixture(scope="class")
    def cell(self):
        cfg = SyntheticConfig(d=40, n_benign=60, n_malware=60, n_strong=6,
                              strong_rate_gap=0.5, weak_rate_gap=0.1,
                              base_density=0.2, seed=17)
        ds = generate_synthetic(cfg)
        linear = train_linear(ds, TrainConfig("hinge", 1.0, epochs=5, seed=0))
        rbf = train_rbf_svm(ds, 10.0, 0.05, TrainConfig(epochs=5, seed=0))
        samples = np.vstack([ds.samples[:50], vec([], 40)])
        return linear, rbf, samples

    @pytest.mark.parametrize("method", [attribution_gradient,
                                        attribution_gradient_input,
                                        attribution_integrated_gradients])
    def test_linear_rows_bitwise(self, cell, method):
        linear, _, samples = cell
        R = method(linear, samples)
        assert R.shape == (len(samples), 40) and R.dtype == np.float64
        for row, x in enumerate(samples):
            assert np.array_equal(R[row], method(linear, [x])[0])

    def test_ig_rows_bitwise_on_kernel(self, cell):
        # a row does not depend on the batch; the closed form rounds unlike
        # the (p, d) point batches of the reference, within 1e-13
        _, rbf, samples = cell
        R = attribution_integrated_gradients(rbf, samples, p=100)
        for row, x in enumerate(samples):
            single = attribution_integrated_gradients(rbf, [x], p=100)[0]
            assert np.array_equal(R[row], single)
            assert np.max(np.abs(R[row] - reference_ig(rbf, x, 100))) <= 1e-13

    @pytest.mark.parametrize("method", [attribution_gradient,
                                        attribution_gradient_input])
    def test_kernel_rows_within_blas_rounding(self, cell, method):
        # a batched BLAS product may round unlike the single-row one
        _, rbf, samples = cell
        R = method(rbf, samples)
        single = np.vstack([method(rbf, [x]) for x in samples])
        assert np.max(np.abs(R - single)) <= 1e-14

    def test_matrices_are_writable(self, cell):
        linear, rbf, samples = cell
        for model in (linear, rbf):
            for method in (attribution_gradient, attribution_gradient_input,
                           attribution_integrated_gradients):
                R = method(model, samples[:3])
                R[0, 0] = 1.0

    def test_non_finite_gradients_rejected(self):
        class Broken:
            d = 3

            def gradient_batch(self, points):
                return np.full(points.shape, np.nan)

        for method in (attribution_gradient, attribution_gradient_input):
            with pytest.raises(ValueError, match="finite"):
                method(Broken(), [vec([0], 3)])
        # finite parameters whose path sums overflow
        huge = np.full(3, 1e308)
        for model in (LinearModel(huge, 0.0),
                      KernelModel([vec([0], 3), vec([0], 3)], huge[:2], 0.0,
                                  0.5)):
            with np.errstate(over="ignore", invalid="ignore"), \
                    pytest.raises(ValueError, match="finite"):
                attribution_integrated_gradients(model, [vec([0], 3)])
