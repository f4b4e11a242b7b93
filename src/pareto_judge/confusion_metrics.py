"""Confusion-matrix counts and the base and aggregated metrics derived from them.

Metrics are always computed from raw integer counts, never from pre-rounded
rates, so precision stays consistent with the recall/specificity pair and
the class sizes. A zero denominator never raises: the metric takes the
convention value 0 and its ``defined`` flag drops to False, so degenerate
folds cannot abort a batch evaluation. Every metric comes from one formula,
on an array's count columns in ``metric_table``, which the F-beta curves and
envelopes sweep, and on one matrix's ints in the scalar functions, which are
bit-equal to ``metric_table``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ._fields import COUNT_NAMES, COUNTS_LIMIT, bad_count_rows, count_row, finite_real
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
    "check_counts",
    "counts_array",
    "metric_table",
    "DEFAULT_BETA_MIN",
    "DEFAULT_BETA_MAX",
    "DEFAULT_BETA_COUNT",
    "ISOCURVE_METRICS",
]

# the default F-beta sweep: this many log-uniform betas from the min to the max
DEFAULT_BETA_MIN, DEFAULT_BETA_MAX, DEFAULT_BETA_COUNT = 0.1, 10.0, 201
# the aggregates of two rates whose level sets the isocurve figure draws
ISOCURVE_METRICS = ("gmean", "f1")


@dataclass(frozen=True)
class ConfusionMatrix:
    """Outcome counts of a binary classifier: true/false positives and negatives."""

    tp: int
    fn: int
    fp: int
    tn: int

    def __post_init__(self) -> None:
        # held as Python ints, so that a sum of numpy counts cannot wrap
        for name, count in zip(COUNT_NAMES, count_row((self.tp, self.fn, self.fp, self.tn))):
            object.__setattr__(self, name, count)


@dataclass(frozen=True)
class MetricValue:
    """A metric value in [0, 1]; ``defined`` is False when a zero denominator
    forced the convention value 0."""

    value: float
    defined: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", finite_real("value", self.value, 0.0, 1.0))

    def __float__(self) -> float:
        return self.value


def _squared(beta: float) -> float:
    """beta * beta, for a finite positive beta whose square is finite."""
    if not (math.isfinite(beta) and beta > 0.0):
        raise ValueError(f"beta must be a finite positive real, got {beta!r}")
    square = beta * beta
    if square == math.inf:
        raise ValueError(f"beta {beta!r} is too large: its square overflows")
    return square


def _metrics(tp, fn, fp, tn, b2) -> tuple[list, list]:
    """TPR, TNR, PPV, BAC, G-mean and F-beta at the squared beta b2, and their
    defined flags, of Python int counts or int columns, through Python or
    numpy operators picked by the counts' type: counts sum to at most 2**53,
    so ``int / int`` gives the bits of numpy's convert-then-divide. A rate is
    0, undefined, where its denominator is 0; BAC and G-mean are defined where
    TPR and TNR are, F-beta where ``b2 * PPV + TPR`` is not 0."""
    sqrt, minimum = (math.sqrt, min) if type(tp) is int else (np.sqrt, np.minimum)
    # where a denominator is 0 so is its numerator, so dividing by 1 there
    # gives the convention value 0: a rate's numerator is one of the counts
    # its denominator sums, and F-beta's has the factor TPR
    dens = (tp + fn, tn + fp, tp + fp)
    t, n, p = (num / (den + (den == 0)) for num, den in zip((tp, tn, tp), dens))
    defined = [den != 0 for den in dens]
    both = defined[0] & defined[1]
    f_den = b2 * p + t
    # the minimum guards against rounding overshoot of the [0, 1] bound
    f = minimum((b2 + 1.0) * p * t / (f_den + (f_den == 0.0)), 1.0)
    return [t, n, p, (t + n) / 2.0, sqrt(t * n), f], [*defined, both, both, f_den != 0.0]


def _squares(betas: Sequence[float]) -> np.ndarray:
    """The squares of the betas as one float64 array; raises ``_squared``'s
    ValueError for the first beta that is not finite and positive, or whose
    square overflows."""
    try:
        b = np.fromiter(map(float, betas), np.float64, len(betas))
        with np.errstate(over="ignore"):
            square = b * b
        if ((b > 0.0) & (square < math.inf)).all():  # NaN fails both comparisons
            return square
    except (TypeError, ValueError, OverflowError):
        pass  # float() refused a beta
    # one beta at a time raises at the first bad beta
    return np.array([_squared(float(b)) for b in betas], dtype=np.float64)


def metric_table(counts: np.ndarray, betas: Sequence[float] = ()) -> tuple[np.ndarray, np.ndarray]:
    """Every metric of each (tp, fn, fp, tn) row, as (n, 5 + len(betas)) values and
    flags: TPR, TNR, PPV, BAC, G-mean, then F-beta at each beta, which must be
    finite and positive, with a finite square."""
    b2 = _squares(betas)[:, None]
    # built one row per metric (F-beta one row per beta), returned transposed
    values, defined = _metrics(*counts.T, b2)
    return np.vstack(values).T, np.vstack(defined).T


def _metric(m: ConfusionMatrix, index: int, b2: float = 1.0) -> MetricValue:
    values, defined = _metrics(m.tp, m.fn, m.fp, m.tn, b2)
    return MetricValue(values[index], defined[index])


def tpr(m: ConfusionMatrix) -> MetricValue:
    """Sensitivity (recall): TP / (TP + FN)."""
    return _metric(m, 0)


def tnr(m: ConfusionMatrix) -> MetricValue:
    """Specificity: TN / (TN + FP)."""
    return _metric(m, 1)


def ppv(m: ConfusionMatrix) -> MetricValue:
    """Precision: TP / (TP + FP)."""
    return _metric(m, 2)


def bac(m: ConfusionMatrix) -> MetricValue:
    """Balanced accuracy: arithmetic mean of sensitivity and specificity."""
    return _metric(m, 3)


def gmean(m: ConfusionMatrix) -> MetricValue:
    """Geometric mean of sensitivity and specificity."""
    return _metric(m, 4)


def fbeta(m: ConfusionMatrix, beta: float) -> MetricValue:
    """Weighted harmonic mean of precision and recall.

    beta expresses how much more recall matters than precision; beta = 1
    weighs them equally. Rejects beta <= 0, a non-finite beta and one whose
    square overflows (above about 1.34e154).
    """
    return _metric(m, 5, _squared(float(beta)))


def objective_point_of(m: ConfusionMatrix) -> ObjectivePoint:
    """The (sensitivity, specificity) pair as a 2-D maximization point."""
    values, _ = _metrics(m.tp, m.fn, m.fp, m.tn, 1.0)
    return ObjectivePoint((values[0], values[1]))


def check_counts(counts: np.ndarray) -> None:
    """Raise ValueError unless counts is an (n, 4) integer array whose rows
    each pass ``count_row``; the message names the first bad row."""
    if counts.dtype.kind not in "iu" or counts.shape[1:] != (4,):
        raise ValueError(f"counts must be an (n, 4) int array, got {counts.dtype} {counts.shape}")
    bad = bad_count_rows(counts.T)
    if bad.any():
        count_row(counts[bad.argmax()].tolist())


def counts_array(matrices: Sequence[ConfusionMatrix]) -> np.ndarray:
    """The matrices stacked into an (n, 4) int64 array of (tp, fn, fp, tn) rows."""
    return np.array([(m.tp, m.fn, m.fp, m.tn) for m in matrices], np.int64).reshape(-1, 4)

