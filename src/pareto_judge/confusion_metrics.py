"""Confusion-matrix counts and the base and aggregated metrics derived from them.

Metrics are always computed from raw integer counts, never from pre-rounded
rates, so precision stays consistent with the recall/specificity pair and
the class sizes. A zero denominator never raises: the metric takes the
convention value 0 and its ``defined`` flag drops to False, so degenerate
folds cannot abort a batch evaluation. Every metric, for one matrix or for
an array of count rows, comes from ``metric_table``.
"""

from __future__ import annotations

import functools
import numbers
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .objective_space import ObjectivePoint

__all__ = [
    "ConfusionMatrix",
    "MetricValue",
    "tpr",
    "tnr",
    "ppv",
    "bac",
    "gmean",
    "fbeta",
    "objective_point_of",
    "COUNTS_LIMIT",
    "counts_array",
    "metric_table",
    "rates_array",
]

# Largest total of one matrix's counts. Up to 2**53 every count and every sum
# of counts is an exact float64, so each rate is the correctly rounded quotient.
COUNTS_LIMIT = 2**53


@dataclass(frozen=True)
class ConfusionMatrix:
    """Outcome counts of a binary classifier: true/false positives and negatives."""

    tp: int
    fn: int
    fp: int
    tn: int

    def __post_init__(self) -> None:
        for name in ("tp", "fn", "fp", "tn"):
            count = getattr(self, name)
            if isinstance(count, bool) or not isinstance(count, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {count!r}")
            if count < 0:
                raise ValueError(f"{name} must be non-negative, got {count}")
            object.__setattr__(self, name, int(count))
        total = self.tp + self.fn + self.fp + self.tn
        if total == 0:
            raise ValueError("confusion matrix must contain at least one outcome")
        if total > COUNTS_LIMIT:
            raise ValueError(f"confusion counts sum to {total}, above the limit 2**53")

    @functools.cached_property
    def _metrics(self) -> list[MetricValue]:
        # TPR, TNR, PPV, BAC and G-mean: computed once, read by each scalar metric
        return _metrics_of(self)


@dataclass(frozen=True)
class MetricValue:
    """A metric value in [0, 1]; ``defined`` is False when a zero denominator
    forced the convention value 0."""

    value: float
    defined: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"metric value out of [0, 1]: {self.value!r}")

    def __float__(self) -> float:
        return self.value


def metric_table(
    counts: np.ndarray, betas: Sequence[float] = ()
) -> tuple[np.ndarray, np.ndarray]:
    """Every metric of each (tp, fn, fp, tn) row: (n, 5 + len(betas)) values and flags.

    Columns are TPR, TNR, PPV, BAC, G-mean, then F-beta at each beta. A rate
    is 0, undefined, where its denominator is 0; BAC and G-mean are defined
    where both TPR and TNR are, and F-beta where ``b2 * PPV + TPR`` is not 0.
    Rejects a beta that is not finite and positive.
    """
    beta = np.asarray(betas, dtype=np.float64)
    valid = np.isfinite(beta) & (beta > 0.0)
    if not valid.all():
        raise ValueError(f"beta must be a finite positive real, got {beta[~valid][0].item()!r}")
    # where a denominator is 0 so is its numerator, so dividing by 1 there
    # gives the convention value 0: a rate's numerator is one of the counts
    # its denominator sums, and F-beta's has the factor TPR
    columns = counts.T
    nums = columns[[0, 3, 0]]
    dens = nums + columns[[1, 2, 2]]
    rates_defined = dens != 0
    rates = nums / (dens + ~rates_defined)
    t, n, p = rates
    both = rates_defined[0] & rates_defined[1]
    b2 = (beta * beta)[:, None]  # one row per beta
    f_den = b2 * p + t
    f_defined = f_den != 0.0
    # the minimum guards against rounding overshoot of the [0, 1] bound
    f = np.minimum((b2 + 1.0) * p * t / (f_den + ~f_defined), 1.0)
    # built one row per metric, returned transposed to one row per count row
    values = np.vstack([rates, (t + n) / 2.0, np.sqrt(t * n), f]).T
    return values, np.vstack([rates_defined, both, both, f_defined]).T


def _metrics_of(m: ConfusionMatrix, betas: Sequence[float] = ()) -> list[MetricValue]:
    values, defined = metric_table(counts_array([m]), betas)
    return [MetricValue(v, d) for v, d in zip(values[0].tolist(), defined[0].tolist())]


def tpr(m: ConfusionMatrix) -> MetricValue:
    """Sensitivity (recall): TP / (TP + FN)."""
    return m._metrics[0]


def tnr(m: ConfusionMatrix) -> MetricValue:
    """Specificity: TN / (TN + FP)."""
    return m._metrics[1]


def ppv(m: ConfusionMatrix) -> MetricValue:
    """Precision: TP / (TP + FP)."""
    return m._metrics[2]


def bac(m: ConfusionMatrix) -> MetricValue:
    """Balanced accuracy: arithmetic mean of sensitivity and specificity."""
    return m._metrics[3]


def gmean(m: ConfusionMatrix) -> MetricValue:
    """Geometric mean of sensitivity and specificity."""
    return m._metrics[4]


def fbeta(m: ConfusionMatrix, beta: float) -> MetricValue:
    """Weighted harmonic mean of precision and recall.

    beta expresses how much more recall matters than precision; beta = 1
    weighs them equally. Rejects beta <= 0 or non-finite beta.
    """
    return _metrics_of(m, (beta,))[5]


def objective_point_of(m: ConfusionMatrix) -> ObjectivePoint:
    """The (sensitivity, specificity) pair as a 2-D maximization point."""
    t, n = m._metrics[:2]
    return ObjectivePoint((t.value, n.value))


def counts_array(matrices: Sequence[ConfusionMatrix]) -> np.ndarray:
    """The matrices stacked into an (n, 4) int64 array of (tp, fn, fp, tn) rows."""
    rows = [(m.tp, m.fn, m.fp, m.tn) for m in matrices]
    return np.array(rows, dtype=np.int64).reshape(len(rows), 4)


def rates_array(counts: np.ndarray) -> np.ndarray:
    """(sensitivity, specificity) of each (tp, fn, fp, tn) row, as (n, 2) points."""
    return metric_table(counts)[0][:, :2].copy()
