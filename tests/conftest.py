"""Fixtures shared by the test modules: the tracemalloc peak of a call, and
the d = 500, n = 4,000 synthetic set that the per-layer memory tests read
against one float64 copy of its samples (8 n d bytes)."""

import tracemalloc

import pytest

from evadelab.featurespace import SyntheticConfig, generate_synthetic
from evadelab.models import TrainConfig, train_linear

WIDE_SYNTH = SyntheticConfig(d=500, n_benign=2000, n_malware=2000,
                             n_strong=50, strong_rate_gap=0.3,
                             weak_rate_gap=0.05, base_density=0.1, seed=0)


def _traced_peak(fn, *args, **kwargs) -> int:
    """Peak bytes traced while fn(*args, **kwargs) runs."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced_peak():
    """``traced_peak(fn, *args, **kwargs)``: the peak bytes traced while the
    call runs, counted from its start."""
    return _traced_peak


@pytest.fixture(scope="session")
def wide_synth() -> SyntheticConfig:
    return WIDE_SYNTH


@pytest.fixture(scope="session")
def wide_set(wide_synth):
    return generate_synthetic(wide_synth)


@pytest.fixture(scope="session")
def wide_model(wide_set):
    """A hinge model of the wide set: 356 of its 500 weights are negative,
    so the greedy attack's path tables are (n, 357)."""
    return train_linear(wide_set, TrainConfig(epochs=1))
