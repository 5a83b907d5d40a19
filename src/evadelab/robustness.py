"""Adversarial robustness: mean exp(-loss) over attacked samples, per budget.

The per-budget value lives in (0, 1]; it is 1 exactly when every adversarial
sample still meets its margin.  The headline number averages the per-budget
values over an explicit integer grid of addition budgets.  Everything is
computed from the (n, grid) post-attack score matrix of
``attack.attack_scores_over_grid``; attacked samples are malware, so every
margin is the score itself (label +1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .featurespace import _int_budgets

ROBUSTNESS_LOSSES = ("hinge", "logistic")


def _loss_matrix(scores: np.ndarray, loss: str) -> np.ndarray:
    """Elementwise loss of margins: the scores of +1-labelled samples."""
    if loss == "hinge":
        return np.maximum(0.0, 1.0 - scores)
    if loss == "logistic":
        return np.logaddexp(0.0, -scores)
    raise ValueError(f"unknown loss {loss!r}; expected one of {ROBUSTNESS_LOSSES}")


def _check_grid(eps_grid) -> None:
    """The one rule for a budget grid: non-empty, every budget >= 1, none
    repeated."""
    if not eps_grid or any(e < 1 for e in eps_grid):
        raise ValueError("eps_grid must be non-empty positive integers")
    repeated = _repeated(eps_grid)
    if repeated:
        raise ValueError(f"eps_grid repeats budget(s) {repeated}")


def _repeated(eps_grid) -> list[int]:
    """The budgets a grid holds more than once, ascending."""
    return sorted({e for e in eps_grid if eps_grid.count(e) > 1})


@dataclass(frozen=True, eq=False)
class RobustnessScore:
    """Per-budget values, their grid average, and per-sample aggregates."""

    per_eps: dict[int, float]
    aggregate: float
    loss: str
    eps_grid: tuple[int, ...]
    per_sample: np.ndarray

    def __post_init__(self):
        for value in self.per_eps.values():
            if not 0.0 < value <= 1.0:
                raise ValueError("per-budget robustness must lie in (0, 1]")


def robustness_from_scores(adv_scores: np.ndarray, eps_grid,
                           loss: str = "hinge") -> RobustnessScore:
    """Build the score from an (n_samples, n_budgets) post-attack score matrix.

    Every budget must be an integer.  Attacked samples keep their malicious
    label (+1) whether or not the attack succeeded.  The per-sample vector
    holds each sample's mean of exp(-loss) over the grid, for the
    per-sample table and the correlations.
    """
    eps_grid = tuple(_int_budgets(eps_grid))
    _check_grid(eps_grid)
    scores = np.asarray(adv_scores, dtype=np.float64)
    if scores.ndim != 2 or scores.shape[1] != len(eps_grid):
        raise ValueError("score matrix must be (n_samples, len(eps_grid))")
    if scores.shape[0] == 0:
        raise ValueError("adversarial set is empty")
    expneg = np.exp(-_loss_matrix(scores, loss))
    per_eps = {eps: math.fsum(expneg[:, col]) / expneg.shape[0]
               for col, eps in enumerate(eps_grid)}
    aggregate = math.fsum(per_eps.values()) / len(eps_grid)
    per_sample = expneg.mean(axis=1)
    return RobustnessScore(per_eps, aggregate, loss, eps_grid, per_sample)
