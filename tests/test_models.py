import functools
import hashlib
import json
import math

import numpy as np
import pytest

from evadelab import featurespace
from evadelab import models as models_mod
from evadelab.explain import attribution_gradient
from evadelab.featurespace import (LabeledDataset, SyntheticConfig,
                                   generate_synthetic, split)
from evadelab.models import (KernelModel, LinearModel, ModelFormatError,
                             TrainConfig, auc, detection_rate_at_fpr,
                             load_model, roc_curve, save_model, score,
                             train_linear, train_rbf_svm, train_secsvm)
from evadelab.pipeline import PRESETS, _train_spec


def vec(indices, d):
    """The bool (d,) row with the given features present."""
    x = np.zeros(d, dtype=bool)
    x[list(indices)] = True
    return x


def dataset(samples, labels, d):
    return LabeledDataset([vec(ix, d) for ix in samples], labels)


def random_kernel_model(rng, d, n_sv, gamma=None):
    svs = rng.random((n_sv, d)) < 0.5
    g = gamma if gamma is not None else float(rng.uniform(0.2, 1.0))
    return KernelModel(svs, rng.normal(size=n_sv), float(rng.normal() * 0.3), g)


def finite_difference_gradient(model, x, h=1e-4):
    base = x.astype(float)
    out = np.zeros(x.size)
    for i in range(x.size):
        up = base.copy()
        up[i] += h
        dn = base.copy()
        dn[i] -= h
        out[i] = (model.decision_batch(up[None])[0]
                  - model.decision_batch(dn[None])[0]) / (2 * h)
    return out


class TestScore:
    def test_linear_dot(self):
        m = LinearModel(np.array([1.0, -2.0, 3.0]), 0.0)
        assert score(m, vec([0, 1], 3)) == -1.0

    def test_empty_sample_gives_bias(self):
        m = LinearModel(np.array([1.0, -2.0, 3.0]), 0.5)
        assert score(m, vec([], 3)) == 0.5

    def test_kernel_zero_distance(self):
        x = vec([0, 2], 4)
        m = KernelModel((x,), np.array([2.0]), 0.0, 1.0)
        assert score(m, x) == pytest.approx(2.0)

    def test_dimension_mismatch(self):
        m = LinearModel(np.array([1.0, 2.0]), 0.0)
        with pytest.raises(ValueError):
            score(m, vec([0], 3))


class TestInputGradient:
    def test_linear_constant(self):
        w = np.array([1.0, -2.0, 3.0])
        m = LinearModel(w, 0.0)
        for ix in ([], [0], [1, 2]):
            assert np.array_equal(attribution_gradient(m, [vec(ix, 3)])[0], w)

    def test_kernel_at_own_sv_is_zero(self):
        x = vec([1], 3)
        m = KernelModel((x,), np.array([1.5]), 0.0, 0.8)
        assert np.allclose(attribution_gradient(m, [x])[0], 0.0)

    def test_kernel_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        m = random_kernel_model(rng, 3, 2)
        x = vec([0, 2], 3)
        g = attribution_gradient(m, [x])[0]
        fd = finite_difference_gradient(m, x)
        assert np.max(np.abs(g - fd) / np.maximum(np.abs(fd), 1e-12)) < 1e-5


class TestTrainLinear:
    def test_separable_two_points(self):
        ds = dataset([[0], [1]], [1, -1], 2)
        m = train_linear(ds, TrainConfig("hinge", 1.0, epochs=50, seed=0))
        assert score(m, ds.samples[0]) > 0
        assert score(m, ds.samples[1]) < 0

    def test_deterministic(self):
        cfg = SyntheticConfig(d=30, n_benign=60, n_malware=60, n_strong=5,
                              strong_rate_gap=0.6, weak_rate_gap=0.1,
                              base_density=0.1, seed=2)
        ds = generate_synthetic(cfg)
        a = train_linear(ds, TrainConfig("hinge", 1.0, epochs=5, seed=7))
        b = train_linear(ds, TrainConfig("hinge", 1.0, epochs=5, seed=7))
        assert np.array_equal(a.weights, b.weights)
        assert a.bias == b.bias

    def test_high_auc_on_strong_synthetic(self):
        cfg = SyntheticConfig(d=80, n_benign=500, n_malware=500, n_strong=10,
                              strong_rate_gap=0.9, weak_rate_gap=0.05,
                              base_density=0.05, seed=5)
        train, test = split(generate_synthetic(cfg), 0.6, 0)
        m = train_linear(train, TrainConfig("hinge", 1.0, epochs=8, seed=0))
        assert auc(roc_curve(m, test)) > 0.95

    @pytest.mark.parametrize("loss", ["logistic", "squared"])
    def test_other_losses_learn(self, loss):
        cfg = SyntheticConfig(d=40, n_benign=200, n_malware=200, n_strong=6,
                              strong_rate_gap=0.7, weak_rate_gap=0.05,
                              base_density=0.05, seed=8)
        train, test = split(generate_synthetic(cfg), 0.6, 1)
        m = train_linear(train, TrainConfig(loss, 1.0, epochs=10, seed=1))
        assert auc(roc_curve(m, test)) > 0.9

    def test_single_class_rejected(self):
        ds = dataset([[0], [1]], [1, 1], 2)
        with pytest.raises(ValueError):
            train_linear(ds, TrainConfig())

    @pytest.mark.parametrize("setting", [
        {"epochs": 2.5}, {"epochs": 3.0}, {"epochs": True}, {"epochs": "3"},
        {"seed": 1.5}, {"seed": False}])
    def test_non_integer_epochs_or_seed_rejected(self, setting):
        # epochs=2.5 was accepted and failed in training; True trained one
        # epoch
        name = next(iter(setting))
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            TrainConfig(**setting)

    @pytest.mark.parametrize("loss,bounded", [
        ("hinge", False), ("logistic", False), ("squared", False),
        ("hinge", True)])
    def test_holds_one_float64_copy(self, wide_set, traced_peak, loss,
                                    bounded):
        # train_linear and train_secsvm: the float64 rows are the one copy;
        # the y * X matrix and the X * X temporary took it to 3.07 copies
        cfg = TrainConfig(loss, 1.0, epochs=1,
                          weight_bound=0.25 if bounded else None)
        trainer = train_secsvm if bounded else train_linear
        peak = traced_peak(trainer, wide_set, cfg)
        assert peak <= 1.25 * 8 * wide_set.n * wide_set.d

    def test_divergent_run_fails_after_its_first_non_finite_epoch(self):
        # rate 300 on these rows overflows the weights (|w| ~ 1e267) and
        # the objective to inf within the first epoch
        cfg = SyntheticConfig(d=30, n_benign=60, n_malware=60, n_strong=5,
                              strong_rate_gap=0.5, weak_rate_gap=0.1,
                              base_density=0.2, seed=1)
        ds = generate_synthetic(cfg)
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError) as err:
                train_linear(ds, TrainConfig("hinge", 0.01, epochs=1,
                                             learning_rate=300))
        message = str(err.value)
        assert "epoch 1 " in message and "loss='hinge'" in message
        assert "reg=0.01" in message and "learning_rate=300" in message

    def test_hinge_objective_mostly_decreasing(self):
        cfg = SyntheticConfig(d=20, n_benign=30, n_malware=30, n_strong=4,
                              strong_rate_gap=0.5, weak_rate_gap=0.1,
                              base_density=0.1, seed=4)
        ds = generate_synthetic(cfg)
        m = train_linear(ds, TrainConfig("hinge", 1.0, epochs=30,
                                         learning_rate=0.05, seed=0))
        objective = m.meta["epoch_objective"]
        pairs = list(zip(objective, objective[1:]))
        increases = sum(1 for prev, cur in pairs if cur > prev)
        assert increases <= math.ceil(0.05 * len(pairs))


class TestTrainSecSVM:
    CFG = SyntheticConfig(d=50, n_benign=300, n_malware=300, n_strong=8,
                          strong_rate_gap=0.7, weak_rate_gap=0.1,
                          base_density=0.1, seed=6)

    def test_bounds_hold_exactly(self):
        ds = generate_synthetic(self.CFG)
        m = train_secsvm(ds, TrainConfig("hinge", 1.0, epochs=5, seed=0,
                                         weight_bound=0.25))
        assert np.all(m.weights <= 0.25)
        assert np.all(m.weights >= -0.25)
        assert np.max(np.abs(m.weights)) <= 0.25
        assert m.meta["weight_bound"] == 0.25

    def test_infinite_bounds_match_plain_hinge(self):
        ds = generate_synthetic(self.CFG)
        m1 = train_linear(ds, TrainConfig("hinge", 1.0, epochs=5, seed=3))
        m2 = train_secsvm(ds, TrainConfig("hinge", 1.0, epochs=5, seed=3,
                                          weight_bound=np.inf))
        assert np.array_equal(m1.weights, m2.weights)
        assert m1.bias == m2.bias

    def test_secsvm_evens_the_weights(self):
        from evadelab.evenness import evenness_e2
        cfg = SyntheticConfig(d=150, n_benign=800, n_malware=800, n_strong=30,
                              strong_rate_gap=0.5, weak_rate_gap=0.015,
                              base_density=0.18, seed=12)
        train, _ = split(generate_synthetic(cfg), 0.6, 0)
        svm = train_linear(train, TrainConfig("hinge", 1.0, epochs=8, seed=0))
        sec = train_secsvm(train, TrainConfig("hinge", 1.0, epochs=8, seed=0,
                                              weight_bound=0.25))
        assert evenness_e2(sec.weights, 150) > evenness_e2(svm.weights, 150)

    def test_bounds_required_and_validated(self):
        ds = generate_synthetic(self.CFG)
        with pytest.raises(ValueError, match="requires weight_bound"):
            train_secsvm(ds, TrainConfig("hinge", 1.0))
        for bound in (-0.25, np.nan):
            with pytest.raises(ValueError, match="weight_bound must be >= 0"):
                TrainConfig("hinge", 1.0, weight_bound=bound)
        # the unconstrained trainer would return the unbounded model
        with pytest.raises(ValueError, match="train_secsvm"):
            train_linear(ds, TrainConfig("hinge", 1.0, weight_bound=0.01))


class TestTrainRbfSvm:
    def test_xor_fits(self):
        ds = dataset([[], [0, 1], [0], [1]], [-1, -1, 1, 1], 2)
        m = train_rbf_svm(ds, 10.0, 1.0, TrainConfig(epochs=300, seed=1))
        preds = [1 if score(m, x) >= 0 else -1 for x in ds.samples]
        assert preds == ds.labels.tolist()

    def test_deterministic(self):
        cfg = SyntheticConfig(d=15, n_benign=40, n_malware=40, n_strong=4,
                              strong_rate_gap=0.6, weak_rate_gap=0.1,
                              base_density=0.1, seed=9)
        ds = generate_synthetic(cfg)
        a = train_rbf_svm(ds, 5.0, 0.3, TrainConfig(epochs=5, seed=2))
        b = train_rbf_svm(ds, 5.0, 0.3, TrainConfig(epochs=5, seed=2))
        assert np.array_equal(a.dual_coeffs, b.dual_coeffs)
        assert a.bias == b.bias

    def test_pruning_bounds_sv_count(self):
        cfg = SyntheticConfig(d=15, n_benign=50, n_malware=50, n_strong=4,
                              strong_rate_gap=0.6, weak_rate_gap=0.1,
                              base_density=0.1, seed=10)
        ds = generate_synthetic(cfg)
        m = train_rbf_svm(ds, 5.0, 0.3, TrainConfig(epochs=3, seed=0))
        assert len(m.support_vectors) <= ds.n

    def test_single_class_rejected(self):
        ds = dataset([[0], [1]], [1, 1], 2)
        with pytest.raises(ValueError):
            train_rbf_svm(ds, 1.0, 1.0, TrainConfig())

    def test_gram_matrix_over_limit_rejected_before_allocation(
            self, traced_peak):
        # 12,000 rows of d = 10 pass the sample-matrix guard, but their
        # n x n Gram matrix would take 1.15 GB
        cfg = SyntheticConfig(d=10, n_benign=6000, n_malware=6000,
                              n_strong=3, strong_rate_gap=0.5,
                              weak_rate_gap=0.1, base_density=0.2, seed=0)
        ds = generate_synthetic(cfg)

        def train():
            with pytest.raises(ValueError, match="n=12000.*1152000000 bytes"):
                train_rbf_svm(ds, 1.0, 0.1, TrainConfig())
        assert traced_peak(train) < 2 ** 20

    def test_holds_one_gram_matrix(self, traced_peak):
        # the n x n float64 Gram matrix is built in place; three such arrays
        # were live at once (3.10 x 8 n^2 here) under a guard that budgets one
        train = criterion8_train()
        spec = PRESETS["svm-rbf"]
        peak = traced_peak(train_rbf_svm, train, spec.reg, spec.gamma,
                           spec._train_config(0))
        assert peak <= 1.5 * 8 * train.n ** 2

    @pytest.mark.parametrize("cfg,field", [
        (TrainConfig("logistic", 0.001), "loss 'logistic'"),
        (TrainConfig("squared"), "loss 'squared'"),
        (TrainConfig(weight_bound=0.1), "weight_bound=0.1"),
        (TrainConfig("logistic", 0.001, weight_bound=0.1), "loss 'logistic'")])
    def test_fields_it_does_not_train_refused(self, cfg, field):
        # these trained the hinge machine, and its meta said hinge
        ds = dataset([[], [0, 1], [0], [1]], [-1, -1, 1, 1], 2)
        with pytest.raises(ValueError, match=field):
            train_rbf_svm(ds, 10.0, 0.05, cfg)

    @pytest.mark.parametrize("C,gamma,name", [
        (math.nan, 1.0, "C"), (math.inf, 1.0, "C"), (1.0, math.nan, "gamma"),
        (1.0, math.inf, "gamma")])
    def test_bad_parameter_named_before_the_gram_matrix(self, monkeypatch,
                                                        C, gamma, name):
        # with no room for a Gram matrix, only a check made before it is
        # built can name the parameter
        monkeypatch.setattr(models_mod, "_MAX_FLOAT64_BYTES", 0)
        ds = dataset([[0], [1]], [-1, 1], 2)
        with pytest.raises(ValueError, match=f"^{name} must be"):
            train_rbf_svm(ds, C, gamma, TrainConfig())


@functools.cache
def criterion8_train():
    """The criterion-8 train split (data seed 7): n = 1560, d = 150."""
    cfg = SyntheticConfig(d=150, n_benign=1300, n_malware=1300, n_strong=30,
                          strong_rate_gap=0.5, weak_rate_gap=0.015,
                          base_density=0.18, seed=7)
    return split(generate_synthetic(cfg), 0.6, 0)[0]


def parameter_digest(model):
    """sha256 of the float64 bytes of a model's trained arrays."""
    h = hashlib.sha256()
    arrays = ((model.support_vectors, model.dual_coeffs)
              if isinstance(model, KernelModel) else (model.weights,))
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


# Each preset trained as a study cell of repetition 0 trains it (seed 0) on
# criterion8_train(): the bias, parameter_digest and the per-epoch objective
# (the RBF trainer records none).  Any reorganisation of the SGD loops must
# keep every bit.
GOLDEN_TRAINED = {
    "svm": (-2.8857553994078744, "02209dbc14b001448e68d01d0320fb00555129b57fa53a902cb7665eaba793f3",
        (7.032893658680166, 5.264884147933001, 4.465542626854323, 3.3258507096174026, 2.9388471161399288, 3.010085321635943, 2.4916863575105426, 2.8193247135023403, 2.570075514173958, 2.3960780742937207)),
    "sec-svm": (-2.356184254212204, "f0e4a54bd57c33e123ea4fc52ebc8f4a44044f3d711639d3bfb213beb3704c3a",
        (172.36379292611275, 64.99186001834589, 61.93361231339062, 32.38159358534493, 32.10650992768675, 28.661265482937438, 29.342255060527755, 41.66354868807106, 26.720904953965665, 22.753943567447642)),
    "svm-rbf": (0.11705938201157678, "0102a47463b5ddbd00978b3671cca8330804a470560bcfc22c83ce39fc543863",
        ()),
    "logistic": (-2.96744614690104, "df3dd3d3d1f5d6051d14055a6d8809aa6081ed56b6d74555d81e3d99dd3992d8",
        (56.95871666292008, 45.95684359047205, 42.9923684325077, 41.38453181950155, 40.408095071698, 39.65169711904989, 39.05114202656169, 38.68552467407758, 38.261395358043174, 37.96358266858937)),
    "ridge": (-0.7390350249998704, "9b6b55b9e3c9794a7704d1bc7081d9642b55b1f2752b66ab2f40103b9a68cc0f",
        (186.9129590904647, 171.00428229396903, 165.03435718710244, 162.29301230047525, 161.39251287800965, 158.33543657362614, 156.2640206618433, 155.62746095349237, 154.44804467974947, 153.4211001151254)),
}


class TestPresetTrainersPinned:
    @pytest.mark.parametrize("name", sorted(GOLDEN_TRAINED))
    def test_trained_parameters_bitwise_equal_golden(self, name):
        bias, digest, objective = GOLDEN_TRAINED[name]
        model = _train_spec(PRESETS[name], criterion8_train(), 0)
        assert model.bias == bias
        assert parameter_digest(model) == digest
        assert tuple(model.meta.get("epoch_objective", ())) == objective


def reference_sgd_linear(train, cfg):
    """(weights, bias, epoch_objective) of the linear SGD trainer as one
    plain loop: unsigned rows, Python-float operands and a clip to
    [-weight_bound, weight_bound] after every step of a bounded run.  The
    trainer must match it bit for bit."""
    X = train.samples.astype(np.float64)
    y = train.labels.astype(np.float64)
    n, d = X.shape
    lam = 2.0 * cfg.reg / n if cfg.loss == "squared" else 1.0 / (n * cfg.reg)
    rows = list(X)
    labels = y.tolist()
    sqnorms = np.count_nonzero(train.samples, axis=1).tolist()
    rng = np.random.default_rng(cfg.seed)
    w = np.zeros(d)
    b = 0.0
    t = 0
    objective = []
    for _ in range(cfg.epochs):
        for i in rng.permutation(n).tolist():
            t += 1
            eta = cfg.learning_rate / (1.0 + t / n)
            yi = labels[i]
            f = float(rows[i].dot(w)) + b
            if cfg.loss == "hinge":
                if yi * f < 1.0:
                    w += (rows[i] * yi - w * lam) * eta
                    b += eta * yi
                else:
                    w -= w * (eta * lam)
            elif cfg.loss == "logistic":
                sig = 1.0 / (1.0 + math.exp(min(50.0, max(-50.0, yi * f))))
                w += (rows[i] * (yi * sig) - w * lam) * eta
                b += eta * sig * yi
            else:
                resid = f - yi
                step = eta / max(1.0, sqnorms[i])
                w -= (rows[i] * (2.0 * resid) + w * lam) * step
                b -= step * 2.0 * resid
            if cfg.weight_bound is not None:
                w = np.minimum(np.maximum(w, -cfg.weight_bound),
                               cfg.weight_bound)
        margins = y * (X @ w + b)
        if cfg.loss == "hinge":
            obj = 0.5 * float(w @ w) + cfg.reg * float(
                np.maximum(0.0, 1.0 - margins).sum())
        elif cfg.loss == "logistic":
            obj = 0.5 * float(w @ w) + cfg.reg * float(
                np.logaddexp(0.0, -margins).sum())
        else:
            obj = cfg.reg * float(w @ w) + float(((1.0 - margins) ** 2).sum())
        objective.append(obj)
    return w, b, objective


def oracle_set():
    """24 rows of d = 8 with both classes and an all-zero row of each."""
    rng = np.random.default_rng(5)
    samples = rng.random((24, 8)) < 0.3
    samples[[0, 1]] = False
    return LabeledDataset(samples, np.where(np.arange(24) % 2 == 0, 1, -1))


class TestSgdOracle:
    # Signed rows, array operands and the skipped clip must leave every bit
    # of the plain loop.  The 0.0 box pins the zero sign: a shrink step
    # gives +0.0 there, a value its clip leaves unchanged, so the skip must
    # keep it.  The 0.25 box catches a clip skipped where eta * lam > 1,
    # which flips signs.  The ids are the names these cases carry in test
    # reports (box2 to box4 were boxes of unequal bounds, which TrainConfig
    # no longer takes).
    @pytest.mark.parametrize("bound", [None, 0.25, 0.0, math.inf],
                             ids=["None", "box1", "box5", "box6"])
    @pytest.mark.parametrize("loss", ["hinge", "logistic", "squared"])
    def test_bitwise_equal_to_the_plain_loop(self, loss, bound):
        train = oracle_set()
        for reg in (0.01, 1.0, 100.0):
            for rate in (0.1, 5.0, 300.0):
                for seed in (0, 1, 2):
                    cfg = TrainConfig(loss, reg, epochs=3, learning_rate=rate,
                                      seed=seed, weight_bound=bound)
                    case = f"reg={reg} rate={rate} seed={seed}"
                    # unbounded runs at rate 300 diverge to weights whose
                    # squared norm overflows in the objective: the trainer
                    # refuses them after the first such epoch
                    with np.errstate(over="ignore"):
                        w, b, objective = reference_sgd_linear(train, cfg)
                        if not np.isfinite(objective).all():
                            assert rate == 300.0, case
                            assert bound in (None, math.inf), case
                            with pytest.raises(ValueError, match="diverged"):
                                models_mod._sgd_linear(train, cfg)
                            continue
                        model = models_mod._sgd_linear(train, cfg)
                    assert model.weights.tobytes() == w.tobytes(), case
                    assert model.bias == b, case
                    assert (np.array(model.meta["epoch_objective"]).tobytes()
                            == np.array(objective).tobytes()), case


class TestDatasetScores:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_blocks_score_as_one_call(self, monkeypatch, n):
        # two rows a block: the scores are one decision_batch call's bits
        rng = np.random.default_rng(n)
        model = random_kernel_model(rng, 12, 7)
        monkeypatch.setattr(models_mod, "_SCORE_BLOCK_VALUES", 2 * 7)
        ds = LabeledDataset(rng.random((n, 12)) < 0.5, np.ones(n, dtype=int))
        whole = model.decision_batch(ds.samples.astype(np.float64))
        assert np.array_equal(models_mod._dataset_scores(model, ds), whole)

    def test_criterion8_blocks_score_as_one_call(self):
        train = criterion8_train()
        spec = PRESETS["svm-rbf"]
        model = train_rbf_svm(train, spec.reg, spec.gamma,
                              spec._train_config(0))
        assert train.n > models_mod._SCORE_BLOCK_VALUES // len(
            model.support_vectors)  # more than one block
        whole = model.decision_batch(train.samples.astype(np.float64))
        assert np.array_equal(models_mod._dataset_scores(model, train), whole)

    def test_memory_follows_the_block_not_n(self, traced_peak):
        # n = 4,000 rows against 500 support vectors: one (n, n_sv) float64
        # array is 16 MB, a block's 512 KiB
        rng = np.random.default_rng(0)
        model = random_kernel_model(rng, 20, 500)
        ds = LabeledDataset(rng.random((4000, 20)) < 0.5,
                            np.ones(4000, dtype=int))
        peak = traced_peak(models_mod._dataset_scores, model, ds)
        assert peak < 3 * 8 * models_mod._SCORE_BLOCK_VALUES


class TestDetectionRate:
    def _model_for_scores(self):
        # identity scoring: feature i present -> score = i (one-hot samples)
        return LinearModel(np.arange(8, dtype=float), 0.0)

    def test_counting_example(self):
        # benign scores {-2,-1}, malware {1,-0.5}: zero FPR budget pushes the
        # threshold above every benign score, catching only the high score.
        m = LinearModel(np.array([-2.0, -1.0, 1.0, -0.5]), 0.0)
        ds = dataset([[0], [1], [2], [3]], [-1, -1, 1, 1], 4)
        rate, threshold = detection_rate_at_fpr(m, ds, 0.0)
        assert threshold > -1.0
        assert rate == 0.5

    def test_perfect_separation(self):
        m = LinearModel(np.array([-3.0, -2.0, 2.0, 3.0]), 0.0)
        ds = dataset([[0], [1], [2], [3]], [-1, -1, 1, 1], 4)
        for fpr in (0.0, 0.01, 0.3, 1.0):
            rate, _ = detection_rate_at_fpr(m, ds, fpr)
            assert rate == 1.0

    def test_budget_counting(self):
        rng = np.random.default_rng(0)
        scores = rng.normal(size=100)
        m = LinearModel(scores, 0.0)
        samples = [[i] for i in range(100)] + [[]]
        labels = [-1] * 100 + [1]
        ds = dataset(samples, labels, 100)
        _, threshold = detection_rate_at_fpr(m, ds, 0.01)
        assert np.sum(scores >= threshold) <= 1

    def test_monotone_in_fpr(self):
        rng = np.random.default_rng(3)
        d = 60
        m = LinearModel(rng.normal(size=d), 0.0)
        ds = dataset([[i] for i in range(d)],
                     [-1 if i % 2 else 1 for i in range(d)], d)
        rates = [detection_rate_at_fpr(m, ds, f)[0]
                 for f in (0.0, 0.05, 0.1, 0.25, 0.5, 1.0)]
        assert all(a <= b for a, b in zip(rates, rates[1:]))

    def test_threshold_is_first_fitting_benign_score_with_ties(self):
        # brute force over the candidates: the benign scores in ascending
        # order, then max(benign) + 1
        rng = np.random.default_rng(9)
        for i in range(300):
            n = int(rng.integers(1, 25))
            scores = rng.integers(0, 6, size=n + 2) / 2.0
            labels = np.array([-1] * n + [1, 1])
            fpr = (0.0, 1.0, float(rng.random()))[i % 3]
            benign = scores[:n]
            candidates = sorted(benign.tolist()) + [benign.max() + 1.0]
            want = next(t for t in candidates
                        if np.sum(benign >= t) <= math.floor(fpr * n))
            rate, threshold = models_mod._rate_at_fpr(scores, labels, fpr)
            assert threshold == want
            assert rate == np.mean(scores[n:] >= want)

    def test_needs_both_classes(self):
        m = LinearModel(np.ones(3), 0.0)
        with pytest.raises(ValueError):
            detection_rate_at_fpr(m, dataset([[0], [1]], [1, 1], 3), 0.01)


class TestRocCurve:
    def test_perfect_classifier_hits_corner(self):
        m = LinearModel(np.array([-1.0, -2.0, 1.0, 2.0]), 0.0)
        ds = dataset([[0], [1], [2], [3]], [-1, -1, 1, 1], 4)
        points = roc_curve(m, ds)
        assert (0.0, 1.0) in points
        assert points[0] == (0.0, 0.0)
        assert points[-1] == (1.0, 1.0)

    def test_random_scores_auc_near_half(self):
        rng = np.random.default_rng(1)
        d = 2000
        m = LinearModel(rng.normal(size=d), 0.0)
        labels = [1 if rng.random() < 0.5 else -1 for _ in range(d)]
        ds = dataset([[i] for i in range(d)], labels, d)
        assert abs(auc(roc_curve(m, ds)) - 0.5) < 0.05

    def test_reversed_scores_flip_auc(self):
        rng = np.random.default_rng(2)
        d = 200
        w = rng.normal(size=d)
        labels = [1 if rng.random() < 0.5 else -1 for _ in range(d)]
        ds = dataset([[i] for i in range(d)], labels, d)
        a1 = auc(roc_curve(LinearModel(w, 0.0), ds))
        a2 = auc(roc_curve(LinearModel(-w, 0.0), ds))
        assert a1 == pytest.approx(1.0 - a2, abs=1e-9)

    @pytest.mark.parametrize("tied", [True, False])
    def test_equals_per_threshold_scan(self, tied):
        rng = np.random.default_rng(5 + tied)
        d = 300
        w = rng.integers(-6, 7, size=d).astype(float) if tied \
            else rng.normal(size=d)
        labels = [1 if rng.random() < 0.4 else -1 for _ in range(d)]
        ds = dataset([[i] for i in range(d)], labels, d)
        y = np.asarray(labels)
        benign, malware = w[y == -1], w[y == 1]
        expected = [(0.0, 0.0)]
        for t in np.unique(w)[::-1]:
            expected.append((float(np.mean(benign >= t)),
                             float(np.mean(malware >= t))))
        if expected[-1] != (1.0, 1.0):
            expected.append((1.0, 1.0))
        points = roc_curve(LinearModel(w, 0.0), ds)
        assert points == expected
        assert all(type(v) is float for point in points for v in point)

    def test_auc_of_no_points_refused(self):
        # it raised IndexError
        with pytest.raises(ValueError, match="at least one ROC point"):
            auc([])

    def test_tpr_monotone(self):
        rng = np.random.default_rng(4)
        d = 150
        m = LinearModel(rng.normal(size=d), 0.0)
        labels = [1 if rng.random() < 0.4 else -1 for _ in range(d)]
        ds = dataset([[i] for i in range(d)], labels, d)
        points = roc_curve(m, ds)
        tprs = [t for _, t in points]
        assert all(a <= b for a, b in zip(tprs, tprs[1:]))


class TestPersistence:
    def _random_inputs(self, rng, d, n=100):
        return [vec(np.flatnonzero(rng.random(d) < 0.3), d) for _ in range(n)]

    def test_linear_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        m = LinearModel(rng.normal(size=20), -0.3, {"loss": "hinge", "seed": 1})
        path = tmp_path / "linear.json"
        save_model(m, path)
        loaded = load_model(path)
        for x in self._random_inputs(rng, 20):
            assert score(loaded, x) == score(m, x)
        assert loaded.meta["loss"] == "hinge"

    def test_kernel_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        m = random_kernel_model(rng, 12, 5)
        path = tmp_path / "rbf.json"
        save_model(m, path)
        loaded = load_model(path)
        for x in self._random_inputs(rng, 12):
            assert score(loaded, x) == score(m, x)

    def test_corrupted_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text('{"format_version": 99, "kind": "linear"}')
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "partial.json"
        path.write_text('{"format_version": 1, "kind": "linear", "d": 3}')
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_kernel_file_keeps_index_lists(self, tmp_path):
        m = KernelModel([vec([0, 3], 5), vec([], 5)], np.array([1.0, -1.0]),
                        0.0, 0.5)
        path = tmp_path / "rbf.json"
        save_model(m, path)
        assert json.loads(path.read_text())["support_vectors"] == [[0, 3], []]
        loaded = load_model(path)
        assert loaded.support_vectors.dtype == np.float64
        assert np.array_equal(loaded.support_vectors, m.support_vectors)

    # JSON values that are no integer index (a bool is no integer here, and
    # 10**20 is past the intp range)
    NON_INDICES = [0.5, True, "1", 10 ** 20, [1]]

    @pytest.mark.parametrize("indices", [[-1], [5], [3, 1], [2, 2]]
                             + [[bad] for bad in NON_INDICES] + [3, None])
    def test_bad_support_vector_indices_rejected(self, tmp_path, indices):
        # negative, >= d, decreasing, repeated, not an integer, not a list:
        # a negative index would otherwise land silently on column d - 1,
        # and 0.5 on column 0
        path = tmp_path / "rbf.json"
        save_model(random_kernel_model(np.random.default_rng(3), 5, 2), path)
        doc = json.loads(path.read_text())
        doc["support_vectors"][1] = indices
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="support vector 1"):
            load_model(path)

    def test_first_bad_support_vector_named(self, tmp_path):
        path = tmp_path / "rbf.json"
        save_model(random_kernel_model(np.random.default_rng(3), 5, 5), path)
        doc = json.loads(path.read_text())
        doc["support_vectors"][1] = [4, 2]
        doc["support_vectors"][3] = [-1]
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError,
                           match=r"^support vector 1: .* \[0, 5\)$"):
            load_model(path)

    @pytest.mark.parametrize("pairs", [[[-1, 0.5]], [[3, 0.5]],
                                       [[2, 0.5], [0, 1.0]]]
                             + [[[bad, 0.5]] for bad in NON_INDICES])
    def test_bad_weight_indices_rejected(self, tmp_path, pairs):
        path = tmp_path / "linear.json"
        save_model(LinearModel(np.array([0.5, 0.0, -1.0]), 0.0), path)
        doc = json.loads(path.read_text())
        doc["weights"] = pairs
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="weights"):
            load_model(path)

    @pytest.mark.parametrize("kind", ["linear", "rbf"])
    @pytest.mark.parametrize("d", [4.9, 4.0, True, "4", None, 0, -1])
    def test_non_integer_or_small_d_rejected(self, tmp_path, kind, d):
        path = tmp_path / "model.json"
        save_model(LinearModel(np.array([0.5, 0.0, -1.0, 0.0]), 0.0)
                   if kind == "linear"
                   else random_kernel_model(np.random.default_rng(3), 4, 2),
                   path)
        doc = json.loads(path.read_text())
        doc["d"] = d
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError,
                           match=r"^d must be (an integer, got|>= 1$)"):
            load_model(path)

    @pytest.mark.parametrize("kind,d,what,nbytes", [
        ("linear", 2 ** 27 + 1, r"\(n=1, d=134217729\) weight vector",
         2 ** 30 + 8),
        ("rbf", 10 ** 10, r"\(n=2, d=10000000000\) support-vector matrix",
         16 * 10 ** 10)])
    def test_oversized_model_fails_fast(self, tmp_path, kind, d, what, nbytes,
                                        traced_peak):
        # refused before the weights or support vectors are allocated
        path = tmp_path / "model.json"
        save_model(LinearModel(np.array([0.5, 0.0, -1.0]), 0.0)
                   if kind == "linear"
                   else random_kernel_model(np.random.default_rng(3), 3, 2),
                   path)
        doc = json.loads(path.read_text())
        doc["d"] = d
        path.write_text(json.dumps(doc))

        def load():
            with pytest.raises(ModelFormatError,
                               match=f"{what} takes {nbytes} bytes"):
                load_model(path)
        assert traced_peak(load) < 2 ** 20

    def test_size_limit_is_inclusive(self, tmp_path, monkeypatch):
        # (2, 5) support vectors are 80 bytes as float64: at the limit the
        # model loads, one more feature does not
        monkeypatch.setattr(featurespace, "_MAX_FLOAT64_BYTES", 80)
        path = tmp_path / "rbf.json"
        save_model(random_kernel_model(np.random.default_rng(3), 5, 2), path)
        assert load_model(path).d == 5
        doc = json.loads(path.read_text())
        doc["d"] = 6
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="96 bytes"):
            load_model(path)

    @pytest.mark.parametrize("field,value", [("dual_coeffs", float("nan")),
                                             ("dual_coeffs", float("inf")),
                                             ("bias", float("nan")),
                                             ("bias", float("-inf"))])
    def test_non_finite_kernel_file_rejected(self, tmp_path, field, value):
        rng = np.random.default_rng(2)
        path = tmp_path / "rbf.json"
        save_model(random_kernel_model(rng, 8, 3), path)
        doc = json.loads(path.read_text())
        if field == "bias":
            doc["bias"] = value
        else:
            doc["dual_coeffs"][1] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError):
            load_model(path)

    def _saved(self, tmp_path, kind):
        rng = np.random.default_rng(3)
        model = (LinearModel(rng.normal(size=6), -0.3, {}) if kind == "linear"
                 else random_kernel_model(rng, 8, 3))
        path = tmp_path / f"{kind}.json"
        save_model(model, path)
        return model, path

    @pytest.mark.parametrize("kind", ["linear", "rbf"])
    def test_round_trip_is_bitwise(self, tmp_path, kind):
        model, path = self._saved(tmp_path, kind)
        loaded = load_model(path)
        assert loaded.bias == model.bias
        if kind == "linear":
            assert np.array_equal(loaded.weights, model.weights)
        else:
            assert loaded.gamma == model.gamma
            assert np.array_equal(loaded.dual_coeffs, model.dual_coeffs)

    @pytest.mark.parametrize("kind,field,value", [
        ("linear", "bias", "0.25"), ("rbf", "bias", True),
        ("rbf", "gamma", "0.5"), ("rbf", "gamma", True),
        ("linear", "weights", "2.5"), ("linear", "weights", True),
        ("rbf", "dual_coeffs", "1"), ("rbf", "dual_coeffs", True),
        ("linear", "format_version", True), ("rbf", "format_version", 1.0),
        pytest.param("linear", "bias", 10 ** 400, id="linear-bias-1e400")])
    def test_non_number_values_rejected(self, tmp_path, kind, field, value):
        # float() took a numeric string or a bool; 10**400 overflowed it
        _, path = self._saved(tmp_path, kind)
        doc = json.loads(path.read_text())
        if field == "weights":
            doc["weights"][0][1] = value
        elif field == "dual_coeffs":
            doc["dual_coeffs"][1] = value
        else:
            doc[field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError):
            load_model(path)


class TestKernelModel:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_parameters_rejected(self, bad):
        svs = (vec([0], 3), vec([1, 2], 3))
        with pytest.raises(ValueError, match="finite"):
            KernelModel(svs, np.array([1.0, bad]), 0.0, 0.5)
        with pytest.raises(ValueError, match="finite"):
            KernelModel(svs, np.array([1.0, -1.0]), bad, 0.5)
