"""Binary samples as one (n, d) 0/1 matrix: the format check, dataset IO,
synthetic generation, and splitting.

A sample is a row of {0,1}^d, one presence bit per feature.  Datasets hold
their rows as an (n, d) bool matrix, and every entry point that takes rows
(attack, attributions, scoring, projection) accepts anything ``np.asarray``
makes into an (n, d) 0/1 matrix; ``_binary_rows`` is the one place that
checks it.  On disk a dataset is the sparse text format of ``load_dataset``.
``load_dataset`` and ``generate_synthetic`` refuse, before allocating it, a
matrix whose float64 copy would exceed 1 GiB.  ``generate_synthetic`` draws
a fixed number of values at a time straight into the bool matrix, so it
never holds a float64 copy; each study layer past it holds at most one.

``_integer`` and ``_real`` are the one place that knows what a numeric
setting may be: every config field, trainer argument, attack, attribution,
evenness and statistics setting and model number is checked by one of
them, or by ``_real_array`` for a model's weight or coefficient vector,
which names the setting in the error.  An integer setting is a Python
int (an API argument may also be a numpy integer), a real-valued one an int
or a float; a bool or a str is neither, so none is cast or truncated.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass

import numpy as np


# The largest sample matrix a dataset may hold, counted as the float64 copy
# that scoring and training take of it: 1 GiB.  Each study layer holds at
# most one such copy at a time, so this also bounds what a layer allocates
# for the samples.
_MAX_FLOAT64_BYTES = 2 ** 30
# Uniform draws per chunk of generate_synthetic: 512 KiB of float64.
_DRAW_CHUNK_VALUES = 2 ** 16

# One data line, stripped: its label, then " <idx>:1" pairs whose indices
# are ASCII digits (int() would also take "1_0", "+3" and other scripts'
# digits).  \s is the whitespace str.split() splits on.
_DATA_LINE = re.compile(r"([+-]?1)((?:\s+[0-9]+:1)*)")


class DatasetFormatError(ValueError):
    """A sparse dataset file could not be parsed; carries the offending line number."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


def _integer(name: str, value, least: int | None = None, *,
             numpy: bool = True, error=ValueError) -> int:
    """``value`` as an int: a Python integer, or a numpy one when ``numpy``
    is true (a config field is written back to JSON, so it takes Python ints
    only), of at least ``least``; anything else raises ``error``."""
    if type(value) is not int and not (numpy and isinstance(value, np.integer)):
        raise error(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise error(f"{name} must be >= {least}")
    return int(value)


# The words that name an interval in an error, where they read better than
# the interval itself.
_INTERVAL_WORDS = {"(0, inf)": "be finite and positive", "[0, inf]": "be >= 0",
                   "(-inf, inf)": "be finite"}


@functools.cache
def _ends(interval: str) -> tuple[float, float]:
    """The two ends of an interval written as "(0, inf)"."""
    low, high = interval[1:-1].split(", ")
    return float(low), float(high)


def _real(name: str, value, interval: str = "(0, inf)", error=ValueError):
    """``value`` unchanged if it is an int or a float inside ``interval``,
    written as "(0, inf)" or "[0, 1]" (a bracket includes its end, and NaN
    is inside none); anything else raises ``error``."""
    low, high = _ends(interval)
    if (type(value) is bool or not isinstance(value, (int, float))
            or not (low <= value if interval[0] == "[" else low < value)
            or not (value <= high if interval[-1] == "]" else value < high)):
        words = _INTERVAL_WORDS.get(interval, f"lie in {interval}")
        raise error(f"{name} must {words}, got {value!r}")
    return value


def _real_array(name: str, values, error=ValueError) -> np.ndarray:
    """``values`` as a float64 array if it is an integer or float array
    (or a sequence of ints and floats) of finite entries; a bool, str or
    object array is neither, nor is a sequence holding a bool, so none is
    cast, and anything else raises ``error``."""
    array = np.asarray(values)
    if array.dtype.kind not in "iuf":
        raise error(f"{name} must hold integers or floats, got dtype "
                    f"{array.dtype}")
    # a sequence's bools are cast to the dtype of its numbers
    if not isinstance(values, np.ndarray) and any(
            isinstance(v, (bool, np.bool_))
            for v in np.asarray(values, dtype=object).flat):
        raise error(f"{name} must hold integers or floats, got a bool")
    array = array.astype(np.float64, copy=False)
    if not np.isfinite(array).all():
        raise error(f"{name} must be finite")
    return array


def _check_size(n: int, d: int, error=ValueError,
                what: str = "sample matrix") -> None:
    """Raise ``error`` before an (n, d) ``what`` whose float64 copy would
    exceed _MAX_FLOAT64_BYTES is built."""
    nbytes = 8 * n * d
    if nbytes > _MAX_FLOAT64_BYTES:
        raise error(f"an (n={n}, d={d}) {what} takes {nbytes} bytes "
                    f"as float64, over the {_MAX_FLOAT64_BYTES}-byte limit")


def _binary_rows(samples, d: int | None, dtype=np.float64) -> np.ndarray:
    """The (n, d) 0/1 matrix of ``samples`` as ``dtype``.

    The one check of the sample format: accepts anything ``np.asarray`` makes
    into an (n, d) matrix of 0s and 1s (any width of at least 1 when d is
    None) and raises ValueError on any other shape or value.  With d given,
    an empty flat input such as ``[]`` is the (0, d) matrix.  The result may
    share memory with ``samples``; no caller writes to it.
    """
    X = np.asarray(samples)
    if d is not None and X.shape == (0,):
        X = X.reshape(0, d)
    if X.ndim != 2 or X.shape[1] < 1 or (d is not None and X.shape[1] != d):
        raise ValueError(f"samples must be an (n, {d or 'd'}) matrix with "
                         f"d >= 1, got shape {X.shape}")
    if X.dtype != bool and not ((X == 0) | (X == 1)).all():
        raise ValueError("samples must hold 0/1 values only")
    return X.astype(dtype, copy=False)


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    """An (n, d) bool sample matrix plus (n,) int labels in {-1,+1}, where
    +1 marks the malicious class."""

    samples: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        samples = _binary_rows(self.samples, None, bool)
        labels = np.asarray(self.labels)
        if labels.shape != samples.shape[:1] or not np.isin(labels, (-1, 1)).all():
            raise ValueError("labels must be one -1 or +1 per sample row")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "labels", labels.astype(np.int64))

    @property
    def d(self) -> int:
        return self.samples.shape[1]

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    def subset(self, rows) -> "LabeledDataset":
        """The dataset of the given integer row indices, in that order."""
        rows = np.asarray(rows, dtype=np.intp)
        return LabeledDataset(self.samples[rows], self.labels[rows])


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
        for name, least in (("d", 1), ("n_benign", 0), ("n_malware", 0),
                            ("n_strong", 0), ("seed", 0)):
            _integer(name, getattr(self, name), least, numpy=False)
        if self.n_strong > self.d:
            raise ValueError("n_strong must be <= d")
        for name in ("strong_rate_gap", "weak_rate_gap", "base_density"):
            _real(name, getattr(self, name), "[0, 1]")


def generate_synthetic(cfg: SyntheticConfig) -> LabeledDataset:
    """Draw a seeded dataset of independent Bernoulli features, benign rows first.

    Row i, feature j is set when the (i d + j)-th uniform draw of the
    seeded stream is below that feature's rate.  The draws are taken a
    chunk of rows (_DRAW_CHUNK_VALUES values, at least one row) at a time
    and compared straight into the bool matrix; the stream is the same
    whatever the chunk.
    """
    n = cfg.n_benign + cfg.n_malware
    _check_size(n, cfg.d)
    rng = np.random.default_rng(cfg.seed)
    p_benign = np.full(cfg.d, cfg.base_density)
    p_malware = np.full(cfg.d, cfg.base_density)
    p_malware[: cfg.n_strong] = min(1.0, cfg.base_density + cfg.strong_rate_gap)
    p_benign[cfg.n_strong :] = min(1.0, cfg.base_density + cfg.weak_rate_gap)

    samples = np.empty((n, cfg.d), dtype=bool)
    chunk = max(1, _DRAW_CHUNK_VALUES // cfg.d)
    for first, stop, rates in ((0, cfg.n_benign, p_benign),
                               (cfg.n_benign, n, p_malware)):
        for lo in range(first, stop, chunk):
            hi = min(lo + chunk, stop)
            np.less(rng.random((hi - lo, cfg.d)), rates, out=samples[lo:hi])
    return LabeledDataset(samples, np.repeat([-1, 1], [cfg.n_benign,
                                                      cfg.n_malware]))


def _ascii_digits(text: str) -> bool:
    return text.isascii() and text.isdigit()


def _fits_intp(digits: str) -> bool:
    try:
        return int(digits) <= np.iinfo(np.intp).max
    except ValueError:  # more digits than int() converts
        return False


def _bad_data_line(line: str, line_number: int):
    """Raise the DatasetFormatError that names the first bad token of a
    stripped data line that _DATA_LINE does not match."""
    tokens = line.split()
    if tokens[0] not in ("+1", "1", "-1"):
        raise DatasetFormatError(
            f"label must be +1 or -1, got {tokens[0]!r}", line_number)
    for tok in tokens[1:]:
        idx_s, sep, val_s = tok.partition(":")
        if not sep:
            raise DatasetFormatError(
                f"expected index:value pair, got {tok!r}", line_number)
        if not _ascii_digits(idx_s):
            message = (f"negative feature index {idx_s}"
                       if idx_s[:1] == "-" and _ascii_digits(idx_s[1:])
                       else f"non-integer feature index {idx_s!r}")
            raise DatasetFormatError(message, line_number)
        if val_s != "1":
            raise DatasetFormatError(
                f"feature value must be 1, got {val_s!r}", line_number)
    raise DatasetFormatError(f"malformed line {line!r}", line_number)


def load_dataset(path, d_hint: int | None = None) -> LabeledDataset:
    """Parse the sparse text format: ``<label> <idx>:1 ...`` with ``#`` comments.

    A label is ``+1``, ``1`` or ``-1`` and an index is ASCII digits.
    Repeated indices set one feature; the dimensionality is
    max(d_hint, 1 + highest index seen).  Each line is matched whole by one
    regex and its indices are kept as text; all of them are converted in
    one numpy call at the end.  Only a line that does not match is split
    into tokens, to name its first bad one.
    """
    if d_hint is not None:
        _integer("d_hint", d_hint, 0)
    labels: list[int] = []
    line_numbers: list[int] = []
    counts: list[int] = []
    pairs: list[str] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            match = _DATA_LINE.fullmatch(line)
            if match is None:
                _bad_data_line(line, line_no)
            labels.append(-1 if match[1] == "-1" else 1)
            line_numbers.append(line_no)
            counts.append(match[2].count(":"))
            pairs.append(match[2])

    # every pair is "<idx>:1", so dropping ":1" leaves the indices
    tokens = "".join(pairs).replace(":1", "").split()
    try:
        cols = np.array(tokens, dtype=np.intp)
    except (OverflowError, ValueError):
        # numpy converts each index with int(): name the first one that is
        # past the intp range or past int()'s limit on digits
        bad = next(k for k, tok in enumerate(tokens) if not _fits_intp(tok))
        row = np.searchsorted(np.cumsum(counts), bad, side="right")
        raise DatasetFormatError(
            f"feature index {tokens[bad]} does not fit in an intp",
            line_numbers[row]) from None
    d = max(d_hint or 0, int(cols.max()) + 1 if cols.size else 0)
    if d < 1:
        raise DatasetFormatError(
            "empty dataset and no d_hint given; dimensionality is undefined")
    _check_size(len(labels), d, DatasetFormatError)
    samples = np.zeros((len(labels), d), dtype=bool)
    samples[np.repeat(np.arange(len(labels)), counts), cols] = True
    return LabeledDataset(samples, labels)


def save_dataset(ds: LabeledDataset, path) -> None:
    """Write the sparse text format; indices emitted sorted ascending."""
    with open(path, "w", encoding="utf-8") as fh:
        for x, y in zip(ds.samples, ds.labels):
            label = "+1" if y == 1 else "-1"
            pairs = " ".join(f"{i}:1" for i in np.flatnonzero(x))
            fh.write(f"{label} {pairs}".rstrip() + "\n")


def split(ds: LabeledDataset, train_fraction: float, seed: int
          ) -> tuple[LabeledDataset, LabeledDataset]:
    """Stratified, seeded partition into (train, test)."""
    _real("train_fraction", train_fraction, "(0, 1)")
    if ds.n == 0:
        raise ValueError("cannot split an empty dataset")
    rng = np.random.default_rng(_integer("seed", seed, 0))
    train_rows: list[int] = []
    test_rows: list[int] = []
    for label in (-1, 1):
        rows = np.flatnonzero(ds.labels == label)
        if rows.size == 0:
            continue
        shuffled = rows[rng.permutation(rows.size)]
        n_train = int(math.floor(train_fraction * rows.size + 0.5))
        train_rows.extend(shuffled[:n_train].tolist())
        test_rows.extend(shuffled[n_train:].tolist())
    if not train_rows or not test_rows:
        raise ValueError(
            f"train_fraction={train_fraction} leaves one side of the split empty")
    return ds.subset(train_rows), ds.subset(test_rows)
