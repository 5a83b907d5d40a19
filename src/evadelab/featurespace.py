"""Sparse binary feature vectors, dataset IO, synthetic generation, and splitting."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class DatasetFormatError(ValueError):
    """A sparse dataset file could not be parsed; carries the offending line number."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


@dataclass(frozen=True)
class FeatureSpace:
    """Dimensionality of the binary input space."""

    dimension: int

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")


@dataclass(frozen=True)
class SparseBinaryVector:
    """A point of {0,1}^d stored as the strictly increasing tuple of active indices."""

    indices: tuple[int, ...]
    dim: int

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(int(i) for i in self.indices))
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        prev = -1
        for i in self.indices:
            if i <= prev:
                raise ValueError("indices must be strictly increasing (no duplicates)")
            prev = i
        if self.indices and (self.indices[0] < 0 or self.indices[-1] >= self.dim):
            raise ValueError(f"indices must lie in [0, {self.dim})")

    @classmethod
    def from_indices(cls, indices, dim: int) -> "SparseBinaryVector":
        """Build from an arbitrary iterable of indices: duplicates dropped, order fixed."""
        return cls(tuple(sorted(set(int(i) for i in indices))), dim)

    @classmethod
    def from_dense(cls, values) -> "SparseBinaryVector":
        arr = np.asarray(values)
        return cls(tuple(int(i) for i in np.flatnonzero(arr)), int(arr.shape[0]))

    def to_dense(self, dtype=np.float64) -> np.ndarray:
        out = np.zeros(self.dim, dtype=dtype)
        if self.indices:
            out[list(self.indices)] = 1
        return out

    @property
    def n_active(self) -> int:
        return len(self.indices)


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    """Samples plus labels in {-1,+1}, where +1 marks the malicious class."""

    feature_space: FeatureSpace
    samples: tuple[SparseBinaryVector, ...]
    labels: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "samples", tuple(self.samples))
        object.__setattr__(self, "labels", tuple(int(y) for y in self.labels))
        if len(self.samples) != len(self.labels):
            raise ValueError("samples and labels must have equal length")
        for y in self.labels:
            if y not in (-1, 1):
                raise ValueError(f"labels must be -1 or +1, got {y}")
        d = self.feature_space.dimension
        for x in self.samples:
            if x.dim != d:
                raise ValueError(f"sample dim {x.dim} does not match dataset d={d}")

    @property
    def d(self) -> int:
        return self.feature_space.dimension

    @property
    def n(self) -> int:
        return len(self.samples)

    def labels_array(self) -> np.ndarray:
        return np.asarray(self.labels, dtype=np.float64)

    def to_dense_matrix(self, dtype=np.float64) -> np.ndarray:
        out = np.zeros((self.n, self.d), dtype=dtype)
        for row, x in enumerate(self.samples):
            if x.indices:
                out[row, list(x.indices)] = 1
        return out

    def subset(self, row_indices) -> "LabeledDataset":
        rows = [int(i) for i in row_indices]
        return LabeledDataset(
            self.feature_space,
            tuple(self.samples[i] for i in rows),
            tuple(self.labels[i] for i in rows),
        )

    def by_label(self, label: int) -> "LabeledDataset":
        return self.subset([i for i, y in enumerate(self.labels) if y == label])


@dataclass(frozen=True)
class SyntheticConfig:
    """Knobs for the class-conditional Bernoulli generator.

    Features 0..n_strong-1 lean malicious: active with probability
    base_density + strong_rate_gap on malicious samples and base_density on
    benign ones.  The remaining features lean benign with gap weak_rate_gap
    (benign side boosted), so that trained models carry negative weights an
    addition-only attacker can exploit.  Varying n_strong / the gaps steers
    how concentrated the learned weights end up.
    """

    d: int
    n_benign: int
    n_malware: int
    n_strong: int
    strong_rate_gap: float
    weak_rate_gap: float
    base_density: float
    seed: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if self.n_strong > self.d:
            raise ValueError("n_strong must be <= d")
        if self.n_strong < 0 or self.n_benign < 0 or self.n_malware < 0:
            raise ValueError("counts must be non-negative")
        for name in ("strong_rate_gap", "weak_rate_gap", "base_density"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")


def generate_synthetic(cfg: SyntheticConfig) -> LabeledDataset:
    """Draw a seeded dataset of independent Bernoulli features, benign rows first."""
    rng = np.random.default_rng(cfg.seed)
    p_benign = np.full(cfg.d, cfg.base_density)
    p_malware = np.full(cfg.d, cfg.base_density)
    p_malware[: cfg.n_strong] = min(1.0, cfg.base_density + cfg.strong_rate_gap)
    p_benign[cfg.n_strong :] = min(1.0, cfg.base_density + cfg.weak_rate_gap)

    rows_b = rng.random((cfg.n_benign, cfg.d)) < p_benign
    rows_m = rng.random((cfg.n_malware, cfg.d)) < p_malware

    samples = [SparseBinaryVector(tuple(int(i) for i in np.flatnonzero(r)), cfg.d)
               for r in rows_b]
    samples += [SparseBinaryVector(tuple(int(i) for i in np.flatnonzero(r)), cfg.d)
                for r in rows_m]
    labels = (-1,) * cfg.n_benign + (1,) * cfg.n_malware
    return LabeledDataset(FeatureSpace(cfg.d), tuple(samples), labels)


def load_dataset(path, d_hint: int | None = None) -> LabeledDataset:
    """Parse the sparse text format: ``<label> <idx>:1 ...`` with ``#`` comments.

    Indices are deduplicated and sorted; the dimensionality is
    max(d_hint, 1 + highest index seen).
    """
    rows: list[tuple[int, tuple[int, ...]]] = []
    max_index = -1
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split()
            label_tok = tokens[0]
            if label_tok in ("+1", "1"):
                label = 1
            elif label_tok == "-1":
                label = -1
            else:
                raise DatasetFormatError(
                    f"label must be +1 or -1, got {label_tok!r}", line_no)
            indices = set()
            for tok in tokens[1:]:
                idx_s, sep, val_s = tok.partition(":")
                if not sep:
                    raise DatasetFormatError(
                        f"expected index:value pair, got {tok!r}", line_no)
                try:
                    idx = int(idx_s)
                except ValueError:
                    raise DatasetFormatError(
                        f"non-integer feature index {idx_s!r}", line_no) from None
                if idx < 0:
                    raise DatasetFormatError(
                        f"negative feature index {idx}", line_no)
                if val_s != "1":
                    raise DatasetFormatError(
                        f"feature value must be 1, got {val_s!r}", line_no)
                indices.add(idx)
            if indices:
                max_index = max(max_index, max(indices))
            rows.append((label, tuple(sorted(indices))))

    d = max(d_hint or 0, max_index + 1)
    if d < 1:
        raise DatasetFormatError(
            "empty dataset and no d_hint given; dimensionality is undefined")
    samples = tuple(SparseBinaryVector(ix, d) for _, ix in rows)
    labels = tuple(label for label, _ in rows)
    return LabeledDataset(FeatureSpace(d), samples, labels)


def save_dataset(ds: LabeledDataset, path) -> None:
    """Write the sparse text format; indices emitted sorted ascending."""
    with open(path, "w", encoding="utf-8") as fh:
        for x, y in zip(ds.samples, ds.labels):
            label = "+1" if y == 1 else "-1"
            pairs = " ".join(f"{i}:1" for i in x.indices)
            fh.write(f"{label} {pairs}".rstrip() + "\n")


def split(ds: LabeledDataset, train_fraction: float, seed: int
          ) -> tuple[LabeledDataset, LabeledDataset]:
    """Stratified, seeded partition into (train, test)."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie in (0, 1)")
    if ds.n == 0:
        raise ValueError("cannot split an empty dataset")
    rng = np.random.default_rng(seed)
    train_rows: list[int] = []
    test_rows: list[int] = []
    for label in (-1, 1):
        rows = np.asarray([i for i, y in enumerate(ds.labels) if y == label])
        if rows.size == 0:
            continue
        perm = rng.permutation(rows.size)
        n_train = int(math.floor(train_fraction * rows.size + 0.5))
        shuffled = rows[perm]
        train_rows.extend(int(i) for i in shuffled[:n_train])
        test_rows.extend(int(i) for i in shuffled[n_train:])
    if not train_rows or not test_rows:
        raise ValueError(
            f"train_fraction={train_fraction} leaves one side of the split empty")
    return ds.subset(train_rows), ds.subset(test_rows)
