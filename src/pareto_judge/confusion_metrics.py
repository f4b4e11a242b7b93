"""Confusion-matrix counts and the base and aggregated metrics derived from them.

Metrics are always computed from raw integer counts, never from pre-rounded
rates, so precision stays consistent with the recall/specificity pair and
the class sizes. A zero denominator never raises: the metric takes the
convention value 0 and its ``defined`` flag drops to False, so degenerate
folds cannot abort a batch evaluation.
"""

from __future__ import annotations

import math
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
    "ratio_array",
    "rates_array",
]

# Largest total of one matrix's counts. Up to 2**53 every count and every sum
# of counts is an exact float64, so array division matches the scalar metrics
# bit for bit.
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
        if self.tp + self.fn + self.fp + self.tn == 0:
            raise ValueError("confusion matrix must contain at least one outcome")


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


def _ratio(num: int, den: int) -> MetricValue:
    if den == 0:
        return MetricValue(0.0, defined=False)
    return MetricValue(num / den)


def tpr(m: ConfusionMatrix) -> MetricValue:
    """Sensitivity (recall): TP / (TP + FN)."""
    return _ratio(m.tp, m.tp + m.fn)


def tnr(m: ConfusionMatrix) -> MetricValue:
    """Specificity: TN / (TN + FP)."""
    return _ratio(m.tn, m.tn + m.fp)


def ppv(m: ConfusionMatrix) -> MetricValue:
    """Precision: TP / (TP + FP)."""
    return _ratio(m.tp, m.tp + m.fp)


def bac(m: ConfusionMatrix) -> MetricValue:
    """Balanced accuracy: arithmetic mean of sensitivity and specificity."""
    t, n = tpr(m), tnr(m)
    return MetricValue((t.value + n.value) / 2.0, defined=t.defined and n.defined)


def gmean(m: ConfusionMatrix) -> MetricValue:
    """Geometric mean of sensitivity and specificity."""
    t, n = tpr(m), tnr(m)
    return MetricValue(math.sqrt(t.value * n.value), defined=t.defined and n.defined)


def fbeta(m: ConfusionMatrix, beta: float) -> MetricValue:
    """Weighted harmonic mean of precision and recall.

    beta expresses how much more recall matters than precision; beta = 1
    weighs them equally. Rejects beta <= 0 or non-finite beta.
    """
    beta = float(beta)
    if not math.isfinite(beta) or beta <= 0.0:
        raise ValueError(f"beta must be a finite positive real, got {beta!r}")
    p = ppv(m).value
    t = tpr(m).value
    b2 = beta * beta
    den = b2 * p + t
    if den == 0.0:
        return MetricValue(0.0, defined=False)
    value = (b2 + 1.0) * p * t / den
    if value > 1.0:  # guard against rounding overshoot of the [0, 1] bound
        value = 1.0
    return MetricValue(value)


def objective_point_of(m: ConfusionMatrix) -> ObjectivePoint:
    """The (sensitivity, specificity) pair as a 2-D maximization point."""
    return ObjectivePoint((tpr(m).value, tnr(m).value))


def counts_array(matrices: Sequence[ConfusionMatrix]) -> np.ndarray:
    """The matrices stacked into an (n, 4) int64 array of (tp, fn, fp, tn) rows."""
    rows = [(m.tp, m.fn, m.fp, m.tn) for m in matrices]
    for row in rows:
        if sum(row) > COUNTS_LIMIT:
            raise ValueError(f"confusion counts sum to {sum(row)}, above the limit 2**53")
    return np.array(rows, dtype=np.int64).reshape(len(rows), 4)


def ratio_array(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Elementwise num / den as float64, 0 where den is 0, as the scalar metrics divide."""
    out = np.zeros(np.broadcast(num, den).shape, dtype=np.float64)
    return np.divide(num, den, out=out, where=den != 0)


def rates_array(counts: np.ndarray) -> np.ndarray:
    """(sensitivity, specificity) of each (tp, fn, fp, tn) row, as (n, 2) points.

    Equal bit for bit to ``objective_point_of`` on each row's matrix.
    """
    tp, fn, fp, tn = counts.T
    return np.stack([ratio_array(tp, tp + fn), ratio_array(tn, tn + fp)], axis=1)
