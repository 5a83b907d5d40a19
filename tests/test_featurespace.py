import numpy as np
import pytest

from evadelab import attack as attack_mod
from evadelab import featurespace
from evadelab.featurespace import (DatasetFormatError, LabeledDataset,
                                   SyntheticConfig, generate_synthetic,
                                   load_dataset, save_dataset, split)
from evadelab.attack import (SecurityCurve, attack_scores_over_grid,
                             epsilon_min, epsilon_min_batch)
from evadelab.explain import (attribution_gradient, attribution_gradient_input,
                              attribution_integrated_gradients)
from evadelab.models import (KernelModel, LinearModel, TrainConfig, auc,
                             detection_rate_at_fpr, roc_curve, score,
                             train_linear)


def _write(tmp_path, text, name="data.txt"):
    path = tmp_path / name
    path.write_text(text)
    return path


def active(x):
    """The present features of a bool row, ascending."""
    return np.flatnonzero(x).tolist()


def project(x_cont, x_orig, epsilon):
    """One real (d,) row through the attack engine's projection around the
    0/1 row x_orig, checked like every one-row entry point."""
    v = np.asarray(x_cont, dtype=np.float64)
    x0 = featurespace._binary_rows([x_orig], v.size)
    return attack_mod._project_clipped_batch(np.clip(v[None], x0, 1.0),
                                             x0.astype(bool), epsilon)[0]


class TestLoadDataset:
    def test_basic_format(self, tmp_path):
        ds = load_dataset(_write(tmp_path, "+1 3:1 7:1\n-1 1:1\n"))
        assert ds.n == 2
        assert ds.samples.dtype == bool and ds.samples.shape == (2, 8)
        assert active(ds.samples[0]) == [3, 7]
        assert ds.labels.tolist() == [1, -1]
        assert ds.d == 8  # 1 + max index seen

    def test_empty_file_needs_hint(self, tmp_path):
        path = _write(tmp_path, "")
        with pytest.raises(DatasetFormatError):
            load_dataset(path)
        ds = load_dataset(path, d_hint=5)
        assert ds.n == 0 and ds.d == 5 and ds.samples.shape == (0, 5)

    def test_unsorted_indices_normalized(self, tmp_path):
        # repeated indices set one feature; saving writes them ascending
        path = _write(tmp_path, "+1 7:1 3:1 7:1\n")
        ds = load_dataset(path)
        assert active(ds.samples[0]) == [3, 7]
        save_dataset(ds, path)
        assert path.read_text() == "+1 3:1 7:1\n"

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        ds = load_dataset(_write(tmp_path, "# header\n\n+1 2:1\n"))
        assert ds.n == 1

    def test_bad_label_reports_line(self, tmp_path):
        with pytest.raises(DatasetFormatError) as err:
            load_dataset(_write(tmp_path, "+1 1:1\n+2 1:1\n"))
        assert err.value.line_number == 2

    def test_bad_value_rejected(self, tmp_path):
        with pytest.raises(DatasetFormatError):
            load_dataset(_write(tmp_path, "+1 1:0.5\n"))

    def test_non_integer_index_rejected(self, tmp_path):
        with pytest.raises(DatasetFormatError):
            load_dataset(_write(tmp_path, "+1 x:1\n"))

    @pytest.mark.parametrize("line,message", [
        ("+2 1:1", "label must be +1 or -1, got '+2'"),
        ("1 4:1 7", "expected index:value pair, got '7'"),
        ("-1 x:1", "non-integer feature index 'x'"),
        ("-1 -3:1", "negative feature index -3"),
        ("+1 2:1 5:0.5", "feature value must be 1, got '0.5'"),
        # Python literal syntax and other scripts' digits, which int()
        # takes, are no ASCII-digit index
        ("+1 1_0:1", "non-integer feature index '1_0'"),
        ("+1 +3:1", "non-integer feature index '+3'"),
        ("+1 \u0661:1", "non-integer feature index '\u0661'"),
        ("+1 3:1:1", "feature value must be 1, got '1:1'"),
        ("-1 99999999999999999999:1",
         "feature index 99999999999999999999 does not fit in an intp"),
        pytest.param("-1 " + "9" * 5000 + ":1", "does not fit in an intp",
                     id="5000-digits"),
    ])
    def test_bad_token_named_with_its_line(self, tmp_path, line, message):
        path = _write(tmp_path, f"# header\n+1 1:1\n\n{line}\n-1 2:1\n")
        with pytest.raises(DatasetFormatError) as err:
            load_dataset(path)
        assert err.value.line_number == 4
        assert str(err.value).startswith("line 4: ")
        assert message in str(err.value)

    def test_whitespace_runs_separate_tokens(self, tmp_path):
        # the separators str.split() takes: tabs, runs, other spaces
        ds = load_dataset(_write(tmp_path,
                                 " +1\t3:1  7:1\u00a00:1 \n-1\n1 0002:1\n"))
        assert [active(x) for x in ds.samples] == [[0, 3, 7], [], [2]]
        assert ds.labels.tolist() == [1, -1, 1]

    def test_grammar_and_token_check_agree(self):
        # every line the line pattern refuses has a bad token to name
        rng = np.random.default_rng(0)
        alphabet = ["1", "-1", "+1", "+2", "3", "12", ":", ":1", "1:1",
                    "07:1", " ", "\t", "\u00a0", "-", "x", "_", "\u0661"]
        for _ in range(3000):
            line = "".join(rng.choice(alphabet, size=rng.integers(1, 8)))
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if featurespace._DATA_LINE.fullmatch(line) is None:
                with pytest.raises(DatasetFormatError) as err:
                    featurespace._bad_data_line(line, 1)
                assert "malformed line" not in str(err.value)

    def test_d_hint_expands_dimension(self, tmp_path):
        ds = load_dataset(_write(tmp_path, "+1 2:1\n"), d_hint=10)
        assert ds.d == 10

    def test_oversized_matrix_fails_fast(self, tmp_path, traced_peak):
        # one index of 10**8 makes d = 100,000,001: two rows of that are a
        # 1.6 GB float64 copy, refused before the sample matrix is built
        path = _write(tmp_path, "+1 100000000:1\n-1 0:1\n")

        def load():
            with pytest.raises(DatasetFormatError,
                               match=r"n=2, d=100000001\) .* 1600000016 bytes"):
                load_dataset(path)
        assert traced_peak(load) < 4 * 2 ** 20

    def test_size_limit_is_inclusive(self, tmp_path, monkeypatch):
        # (2, 5) float64 is 80 bytes: at the limit it loads, one more
        # feature does not
        monkeypatch.setattr(featurespace, "_MAX_FLOAT64_BYTES", 80)
        path = _write(tmp_path, "+1 4:1\n-1 0:1\n")
        assert load_dataset(path).d == 5
        with pytest.raises(DatasetFormatError, match="96 bytes"):
            load_dataset(path, d_hint=6)

    def test_round_trip(self, tmp_path):
        cfg = SyntheticConfig(d=30, n_benign=20, n_malware=20, n_strong=5,
                              strong_rate_gap=0.5, weak_rate_gap=0.1,
                              base_density=0.1, seed=3)
        ds = generate_synthetic(cfg)
        path = tmp_path / "round.txt"
        save_dataset(ds, path)
        loaded = load_dataset(path, d_hint=ds.d)
        assert np.array_equal(loaded.labels, ds.labels)
        assert np.array_equal(loaded.samples, ds.samples)


class TestGenerateSynthetic:
    CFG = dict(d=40, n_benign=30, n_malware=30, n_strong=6,
               strong_rate_gap=0.6, weak_rate_gap=0.1, base_density=0.05)

    def test_deterministic(self):
        a = generate_synthetic(SyntheticConfig(seed=9, **self.CFG))
        b = generate_synthetic(SyntheticConfig(seed=9, **self.CFG))
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.samples, b.samples)

    def test_label_counts(self):
        ds = generate_synthetic(SyntheticConfig(seed=1, **self.CFG))
        assert ds.labels.tolist() == [-1] * 30 + [1] * 30
        assert ds.samples.dtype == bool and ds.samples.shape == (60, 40)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SyntheticConfig(d=4, n_benign=1, n_malware=1, n_strong=5,
                            strong_rate_gap=0.5, weak_rate_gap=0.1,
                            base_density=0.1, seed=0)
        with pytest.raises(ValueError):
            SyntheticConfig(d=4, n_benign=1, n_malware=1, n_strong=2,
                            strong_rate_gap=1.5, weak_rate_gap=0.1,
                            base_density=0.1, seed=0)

    @pytest.mark.parametrize("field", ["d", "n_benign", "n_malware",
                                       "n_strong", "seed"])
    @pytest.mark.parametrize("value", [40.5, 30.0, True, "30"])
    def test_non_integer_counts_rejected(self, field, value):
        # d=40.5 used to fail only inside generate_synthetic, with numpy's
        # TypeError, and a bool was taken as 0 or 1
        settings = dict(self.CFG, seed=1)
        settings[field] = value
        with pytest.raises(ValueError,
                           match=f"^{field} must be an integer, got"):
            SyntheticConfig(**settings)

    @pytest.mark.parametrize("chunk", [1, 7, 40, 2 ** 16])
    def test_chunked_draw_is_the_whole_block_draw(self, monkeypatch, chunk):
        # a chunk of rows at a time reads the same PCG64 stream as one draw
        # of each whole class block; a chunk below d takes one row
        monkeypatch.setattr(featurespace, "_DRAW_CHUNK_VALUES", chunk)
        ds = generate_synthetic(SyntheticConfig(seed=4, **self.CFG))
        rng = np.random.default_rng(4)
        strong = np.arange(40) < 6
        p_benign = np.where(strong, 0.05, min(1.0, 0.05 + 0.1))
        p_malware = np.where(strong, min(1.0, 0.05 + 0.6), 0.05)
        whole = np.vstack([rng.random((30, 40)) < p_benign,
                           rng.random((30, 40)) < p_malware])
        assert np.array_equal(ds.samples, whole)

    def test_draws_straight_into_the_bool_matrix(self, wide_synth,
                                                 traced_peak):
        # the bool matrix is 1/8 of a float64 copy; a float64 draw of each
        # whole class block peaked at 0.68 copies
        n = wide_synth.n_benign + wide_synth.n_malware
        peak = traced_peak(generate_synthetic, wide_synth)
        assert peak <= 0.25 * 8 * n * wide_synth.d

    def test_oversized_matrix_fails_fast(self, traced_peak):
        cfg = SyntheticConfig(d=10 ** 6, n_benign=100, n_malware=100,
                              n_strong=0, strong_rate_gap=0.5,
                              weak_rate_gap=0.1, base_density=0.1, seed=0)

        def draw():
            with pytest.raises(ValueError,
                               match=r"n=200, d=1000000\) .* 1600000000 bytes"):
                generate_synthetic(cfg)
        assert traced_peak(draw) < 4 * 2 ** 20

    def test_no_gap_gives_chance_auc(self):
        # With both gaps at zero the class-conditional distributions are
        # identical; a trained model's test AUC should hover at 1/2.
        aucs = []
        for seed in range(5):
            cfg = SyntheticConfig(d=60, n_benign=400, n_malware=400, n_strong=10,
                                  strong_rate_gap=0.0, weak_rate_gap=0.0,
                                  base_density=0.2, seed=seed)
            train, test = split(generate_synthetic(cfg), 0.5, seed)
            model = train_linear(train, TrainConfig("hinge", 1.0, epochs=5, seed=seed))
            aucs.append(auc(roc_curve(model, test)))
        assert 0.45 <= np.mean(aucs) <= 0.55

    def test_strong_gap_gives_high_detection(self):
        cfg = SyntheticConfig(d=100, n_benign=1000, n_malware=1000, n_strong=10,
                              strong_rate_gap=0.9, weak_rate_gap=0.05,
                              base_density=0.05, seed=11)
        train, test = split(generate_synthetic(cfg), 0.5, 0)
        model = train_linear(train, TrainConfig("hinge", 1.0, epochs=8, seed=0))
        rate, _ = detection_rate_at_fpr(model, test, 0.01)
        assert rate > 0.95


class TestSplit:
    def _dataset(self, n_benign, n_malware, d=12, seed=0):
        return generate_synthetic(SyntheticConfig(
            d=d, n_benign=n_benign, n_malware=n_malware, n_strong=3,
            strong_rate_gap=0.4, weak_rate_gap=0.1, base_density=0.2, seed=seed))

    def test_sizes_and_partition(self):
        ds = self._dataset(5, 5)
        train, test = split(ds, 0.6, 1)
        assert train.n == 6 and test.n == 4
        seen = sorted((tuple(active(x)), y) for x, y in
                      list(zip(train.samples, train.labels.tolist()))
                      + list(zip(test.samples, test.labels.tolist())))
        orig = sorted((tuple(active(x)), y)
                      for x, y in zip(ds.samples, ds.labels.tolist()))
        assert seen == orig

    def test_deterministic(self):
        ds = self._dataset(20, 20)
        a = split(ds, 0.7, 5)
        b = split(ds, 0.7, 5)
        assert np.array_equal(a[0].samples, b[0].samples)

    def test_stratified(self):
        ds = self._dataset(8, 2)
        train, test = split(ds, 0.5, 3)
        assert np.sum(train.labels == 1) == 1
        assert np.sum(test.labels == 1) == 1

    def test_empty_side_rejected(self):
        ds = self._dataset(1, 1)
        with pytest.raises(ValueError):
            split(ds, 0.01, 0)

    def test_bad_fraction_rejected(self):
        ds = self._dataset(4, 4)
        with pytest.raises(ValueError):
            split(ds, 1.0, 0)


class TestLabeledDataset:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            LabeledDataset([[1, 0, 0]], [1, -1])

    def test_bad_label(self):
        with pytest.raises(ValueError):
            LabeledDataset([[1, 0, 0]], [0])

    def test_dim_mismatch(self):
        # rows of different widths make no (n, d) matrix
        with pytest.raises(ValueError):
            LabeledDataset([[1, 0, 0], [1, 0]], [1, -1])

    @pytest.mark.parametrize("samples", [
        [[1, 0, 2]],                    # a value other than 0 or 1
        [[1.0, 0.5, 0.0]],
        [[1.0, np.nan, 0.0]],
        [1, 0, 1],                      # one row, not a batch
        [[[1, 0, 1]]],                  # three dimensions
        np.zeros((2, 0), dtype=bool),   # no features
    ])
    def test_bad_samples_rejected(self, samples):
        labels = [1] * np.shape(samples)[0]
        with pytest.raises(ValueError, match="samples must"):
            LabeledDataset(samples, labels)

    def test_holds_bool_matrix_and_int_labels(self):
        ds = LabeledDataset([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]], [1.0, -1.0])
        assert ds.samples.dtype == bool and ds.labels.dtype == np.int64
        assert (ds.n, ds.d) == (2, 3)
        assert active(ds.samples[0]) == [0, 2]

    def test_subset_takes_row_indices_in_order(self):
        ds = LabeledDataset([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [1, -1, 1])
        sub = ds.subset([2, 0])
        assert [active(x) for x in sub.samples] == [[2], [0]]
        assert sub.labels.tolist() == [1, 1]
        assert sub.subset([]).n == 0 and sub.subset([]).d == 3


LIN = LinearModel(np.array([1.0, -1.0, 0.5]), 0.0)
RBF = KernelModel([[1, 0, 1], [0, 1, 0]], np.array([1.0, -0.5]), 0.1, 0.5)

# Every public entry point that takes a batch of samples, on d = 3 models.
BATCH_APIS = {
    "attack": lambda X: attack_scores_over_grid(RBF, X, [0, 1], 0.0),
    "attack_greedy": lambda X: attack_scores_over_grid(LIN, X, [1], 0.0),
    # the security curve as the study reads it off the attack's scores
    "security_evaluation": lambda X: SecurityCurve.from_scores(
        attack_scores_over_grid(LIN, X, [1], 0.0), [1], 0.0).detection_rates,
    "epsilon_min_batch": lambda X: epsilon_min_batch(RBF, X, 2),
    "gradient": lambda X: attribution_gradient(RBF, X),
    "gradient_input": lambda X: attribution_gradient_input(RBF, X),
    "integrated_gradients": lambda X: attribution_integrated_gradients(
        RBF, X, p=3),
}
# ... and every one that takes one (d,) row, with the engine's one-row
# projection that the attack tests use as their oracle.
ROW_APIS = {
    "score": lambda x: score(RBF, x),
    "epsilon_min": lambda x: epsilon_min(LIN, x, 2),
    "project": lambda x: project(np.full(3, 0.7), x, 1),
}
GOOD_ROWS = [[1, 0, 1], [0, 0, 0]]
BAD_VALUES = [[[1, 0, 2], [0, 0, 0]], [[1.0, 0.5, 0.0], [0.0, 0.0, 0.0]],
              [[1.0, np.nan, 0.0], [0.0, 0.0, 0.0]], [[1, 0, -1], [0, 0, 0]]]


class TestSampleFormat:
    """The one 0/1 matrix format, checked at every public entry point."""

    @pytest.mark.parametrize("api", BATCH_APIS)
    def test_batch_forms_agree(self, api):
        # bool, int and float matrices and nested lists are one format
        want = BATCH_APIS[api](np.array(GOOD_ROWS, dtype=bool))
        for X in (GOOD_ROWS, np.array(GOOD_ROWS), np.array(GOOD_ROWS, float)):
            assert np.array_equal(BATCH_APIS[api](X), want)

    @pytest.mark.parametrize("api", BATCH_APIS)
    @pytest.mark.parametrize("X", BAD_VALUES + [
        [1, 0, 1],                      # one row, not a batch
        [[[1, 0, 1]]],                  # three dimensions
        [[1, 0, 1, 0]],                 # wrong width
        [[1, 0]],
    ])
    def test_batch_rejects_bad_input(self, api, X):
        with pytest.raises(ValueError, match="samples must"):
            BATCH_APIS[api](X)

    @pytest.mark.parametrize("api", ROW_APIS)
    def test_row_forms_agree(self, api):
        want = ROW_APIS[api](np.array([1, 0, 1], dtype=bool))
        for x in ([1, 0, 1], np.array([1.0, 0.0, 1.0])):
            assert np.array_equal(ROW_APIS[api](x), want)

    @pytest.mark.parametrize("api", ROW_APIS)
    @pytest.mark.parametrize("x", [rows[0] for rows in BAD_VALUES] + [
        [[1, 0, 1]],                    # a batch, not one row
        [1, 0, 1, 0],                   # wrong width
    ])
    def test_row_rejects_bad_input(self, api, x):
        with pytest.raises(ValueError, match="samples must"):
            ROW_APIS[api](x)

    def test_project_returns_bool_row(self):
        out = project(np.array([0.9, 0.2, 0.6]), [0, 0, 1], 1)
        assert out.dtype == bool and active(out) == [0, 2]

    @pytest.mark.parametrize("svs", BAD_VALUES + [
        [1, 0, 1], [[[1, 0, 1]]], np.zeros((2, 0))])
    def test_kernel_model_rejects_bad_support_vectors(self, svs):
        with pytest.raises(ValueError, match="samples must"):
            KernelModel(svs, np.ones(np.shape(svs)[0]), 0.0, 0.5)

    def test_kernel_model_holds_float_matrix(self):
        m = KernelModel([[True, False, True]], np.array([1.0]), 0.0, 0.5)
        assert m.support_vectors.dtype == np.float64 and m.d == 3

    def test_kernel_model_owns_its_support_vectors(self):
        # the cached squared norms must keep matching the support vectors
        S = np.array([[1.0, 0.0, 1.0]])
        m = KernelModel(S, np.array([1.0]), 0.0, 0.5)
        S[0, 1] = 1.0
        assert np.array_equal(m.support_vectors, [[1.0, 0.0, 1.0]])
        with pytest.raises(ValueError):
            m.support_vectors[0, 1] = 1.0

    def test_dataset_width_must_match_model(self):
        ds = LabeledDataset([[1, 0, 1, 0], [0, 1, 0, 0]], [1, -1])
        with pytest.raises(ValueError, match=r"\(n, 3\)"):
            detection_rate_at_fpr(LIN, ds, 0.1)
