import numpy as np
import pytest

from evadelab.featurespace import (DatasetFormatError, FeatureSpace,
                                   LabeledDataset, SparseBinaryVector,
                                   SyntheticConfig, generate_synthetic,
                                   load_dataset, save_dataset, split)
from evadelab.models import TrainConfig, auc, detection_rate_at_fpr, roc_curve, train_linear


def _write(tmp_path, text, name="data.txt"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestSparseBinaryVector:
    def test_valid_construction(self):
        v = SparseBinaryVector((1, 4, 7), 10)
        assert v.indices == (1, 4, 7)
        assert v.n_active == 3

    def test_rejects_duplicates_and_disorder(self):
        with pytest.raises(ValueError):
            SparseBinaryVector((3, 3), 5)
        with pytest.raises(ValueError):
            SparseBinaryVector((4, 2), 5)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            SparseBinaryVector((5,), 5)
        with pytest.raises(ValueError):
            SparseBinaryVector((-1,), 5)

    def test_from_indices_normalizes(self):
        v = SparseBinaryVector.from_indices([7, 3, 7], 8)
        assert v.indices == (3, 7)

    def test_dense_round_trip(self):
        v = SparseBinaryVector((0, 2), 4)
        assert np.array_equal(v.to_dense(), [1.0, 0.0, 1.0, 0.0])
        assert SparseBinaryVector.from_dense(v.to_dense()) == v


class TestFeatureSpace:
    def test_dimension_validated(self):
        with pytest.raises(ValueError):
            FeatureSpace(0)
        assert FeatureSpace(1).dimension == 1


class TestLoadDataset:
    def test_basic_format(self, tmp_path):
        ds = load_dataset(_write(tmp_path, "+1 3:1 7:1\n-1 1:1\n"))
        assert ds.n == 2
        assert ds.samples[0].indices == (3, 7)
        assert ds.labels == (1, -1)
        assert ds.d == 8  # 1 + max index seen

    def test_empty_file_needs_hint(self, tmp_path):
        path = _write(tmp_path, "")
        with pytest.raises(DatasetFormatError):
            load_dataset(path)
        ds = load_dataset(path, d_hint=5)
        assert ds.n == 0 and ds.d == 5

    def test_unsorted_indices_normalized(self, tmp_path):
        ds = load_dataset(_write(tmp_path, "+1 7:1 3:1\n"))
        assert ds.samples[0].indices == (3, 7)

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

    def test_d_hint_expands_dimension(self, tmp_path):
        ds = load_dataset(_write(tmp_path, "+1 2:1\n"), d_hint=10)
        assert ds.d == 10

    def test_round_trip(self, tmp_path):
        cfg = SyntheticConfig(d=30, n_benign=20, n_malware=20, n_strong=5,
                              strong_rate_gap=0.5, weak_rate_gap=0.1,
                              base_density=0.1, seed=3)
        ds = generate_synthetic(cfg)
        path = tmp_path / "round.txt"
        save_dataset(ds, path)
        loaded = load_dataset(path, d_hint=ds.d)
        assert loaded.labels == ds.labels
        assert all(a.indices == b.indices for a, b in zip(loaded.samples, ds.samples))


class TestGenerateSynthetic:
    CFG = dict(d=40, n_benign=30, n_malware=30, n_strong=6,
               strong_rate_gap=0.6, weak_rate_gap=0.1, base_density=0.05)

    def test_deterministic(self):
        a = generate_synthetic(SyntheticConfig(seed=9, **self.CFG))
        b = generate_synthetic(SyntheticConfig(seed=9, **self.CFG))
        assert a.labels == b.labels
        assert all(x.indices == y.indices for x, y in zip(a.samples, b.samples))

    def test_label_counts(self):
        ds = generate_synthetic(SyntheticConfig(seed=1, **self.CFG))
        assert ds.labels.count(-1) == 30 and ds.labels.count(1) == 30

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SyntheticConfig(d=4, n_benign=1, n_malware=1, n_strong=5,
                            strong_rate_gap=0.5, weak_rate_gap=0.1,
                            base_density=0.1, seed=0)
        with pytest.raises(ValueError):
            SyntheticConfig(d=4, n_benign=1, n_malware=1, n_strong=2,
                            strong_rate_gap=1.5, weak_rate_gap=0.1,
                            base_density=0.1, seed=0)

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
        seen = sorted((x.indices, y) for x, y in
                      list(zip(train.samples, train.labels))
                      + list(zip(test.samples, test.labels)))
        orig = sorted((x.indices, y) for x, y in zip(ds.samples, ds.labels))
        assert seen == orig

    def test_deterministic(self):
        ds = self._dataset(20, 20)
        a = split(ds, 0.7, 5)
        b = split(ds, 0.7, 5)
        assert all(x.indices == y.indices for x, y in zip(a[0].samples, b[0].samples))

    def test_stratified(self):
        ds = self._dataset(8, 2)
        train, test = split(ds, 0.5, 3)
        assert train.labels.count(1) == 1
        assert test.labels.count(1) == 1

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
            LabeledDataset(FeatureSpace(3), (SparseBinaryVector((0,), 3),), (1, -1))

    def test_bad_label(self):
        with pytest.raises(ValueError):
            LabeledDataset(FeatureSpace(3), (SparseBinaryVector((0,), 3),), (0,))

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            LabeledDataset(FeatureSpace(3), (SparseBinaryVector((0,), 4),), (1,))

    def test_by_label(self):
        ds = LabeledDataset(
            FeatureSpace(3),
            (SparseBinaryVector((0,), 3), SparseBinaryVector((1,), 3)),
            (1, -1))
        assert ds.by_label(1).n == 1
        assert ds.by_label(-1).samples[0].indices == (1,)
