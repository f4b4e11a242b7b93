"""Front-quality indicators: distance, hypervolume, and dominance ratios.

All indicators compare a front approximation against reference solutions in
a shared maximization space. Values are computed on the raw objective scale
(fractions in [0, 1] for classification rates); any presentation scaling is
left to the report layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .objective_space import ObjectivePoint, SolutionSet

__all__ = [
    "INDICATOR_NAMES",
    "DEFAULT_MC_SAMPLES",
    "IndicatorResult",
    "generational_distance",
    "euclidean_distance",
    "hypervolume",
    "hypervolume_mc",
    "sdr",
    "ndr",
    "evaluate_indicator",
]

INDICATOR_NAMES = ("ED", "GD", "HV", "SDR", "NDR")

DEFAULT_MC_SAMPLES = 1_000_000


@dataclass(frozen=True)
class IndicatorResult:
    """A named indicator value together with the set sizes that produced it."""

    name: str
    value: float
    front_size: int
    reference_size: int

    def __post_init__(self) -> None:
        if self.name not in INDICATOR_NAMES:
            raise ValueError(f"unknown indicator {self.name!r}")
        if self.value < 0.0:
            raise ValueError(f"indicator value must be non-negative, got {self.value}")
        if self.name in ("SDR", "NDR") and self.value > 1.0:
            raise ValueError(f"{self.name} must lie in [0, 1], got {self.value}")


def _check_dims(front: SolutionSet, dim: int) -> None:
    if front.dim != dim:
        raise ValueError(f"dimension mismatch: front has {front.dim}, reference has {dim}")


def generational_distance(front: SolutionSet, refs: SolutionSet) -> float:
    """Mean distance from each front point to its nearest reference point."""
    _check_dims(front, refs.dim)
    diffs = front.as_array()[:, None, :] - refs.as_array()[None, :, :]
    nearest = np.sqrt((diffs * diffs).sum(axis=2)).min(axis=1)
    # sorted before the mean so front point order cannot perturb the float sum
    return float(np.sort(nearest).mean())


def euclidean_distance(front: SolutionSet, ref: ObjectivePoint) -> float:
    """Mean distance between the front points and a single reference point."""
    return generational_distance(front, SolutionSet("reference", (ref,)))


def _exact_hv_1d(points: np.ndarray, ref: np.ndarray) -> float:
    best = float(points.max())
    return max(0.0, best - float(ref[0]))


def _exact_hv_2d(points: np.ndarray, ref: np.ndarray) -> float:
    # Sweep the boxes anchored at ref in decreasing x; each new best y adds a
    # horizontal slab. Ordered by (-x, -y) so the result is independent of
    # input permutation even with tied x coordinates.
    eff = points[(points > ref).all(axis=1)]
    if eff.shape[0] == 0:
        return 0.0
    order = np.lexsort((-eff[:, 1], -eff[:, 0]))
    eff = eff[order]
    area = 0.0
    y_best = float(ref[1])
    for x, y in eff:
        if y > y_best:
            area += (float(x) - float(ref[0])) * (float(y) - y_best)
            y_best = float(y)
    return area


def hypervolume(
    front: SolutionSet,
    ref: ObjectivePoint,
    *,
    mc_samples: int = DEFAULT_MC_SAMPLES,
    seed: int = 0,
) -> float:
    """Measure of the region between the front and a reference point.

    Each front point p contributes the axis-aligned box spanning [ref, p];
    coordinates where p does not exceed ref clip the box to zero volume. The
    value is the measure of the box union: exact for one or two objectives,
    estimated by ``hypervolume_mc`` (with the given samples and seed) above.
    """
    _check_dims(front, ref.dim)
    points = front.as_array()
    ref_arr = ref.as_array()
    if front.dim == 1:
        return _exact_hv_1d(points, ref_arr)
    if front.dim == 2:
        return _exact_hv_2d(points, ref_arr)
    return hypervolume_mc(front, ref, samples=mc_samples, seed=seed)


def hypervolume_mc(
    front: SolutionSet, ref: ObjectivePoint, samples: int, seed: int
) -> float:
    """Monte Carlo estimate of the box-union measure, deterministic per seed.

    Uniform samples are drawn over the box spanning from ref to the
    coordinatewise maximum of the front; a degenerate box yields 0.
    """
    _check_dims(front, ref.dim)
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    points = front.as_array()
    ref_arr = ref.as_array()
    hi = points.max(axis=0)
    extent = hi - ref_arr
    if (extent <= 0.0).any():
        return 0.0
    effective = points[(points > ref_arr).all(axis=1)]
    rng = np.random.default_rng(seed)
    draws = ref_arr + rng.random((samples, ref.dim)) * extent
    covered = _kernels.count_in_box_union(draws, effective)
    box_volume = float(np.prod(extent))
    return box_volume * covered / samples


def sdr(front: SolutionSet, ref: ObjectivePoint) -> float:
    """Fraction of front points that strictly dominate the reference point."""
    _check_dims(front, ref.dim)
    dominating, _ = _kernels.dominance_counts(front.as_array(), ref.as_array())
    return dominating / len(front)


def ndr(front: SolutionSet, ref: ObjectivePoint) -> float:
    """Fraction of front points not strictly dominated by the reference point.

    Ties count as non-dominated: only strict domination by the reference
    removes a point from the numerator.
    """
    _check_dims(front, ref.dim)
    _, dominated = _kernels.dominance_counts(front.as_array(), ref.as_array())
    # computed as (n - dominated) / n so exact count ratios stay exact floats
    return (len(front) - dominated) / len(front)


def evaluate_indicator(
    name: str,
    front: SolutionSet,
    refs: SolutionSet,
    *,
    mc_samples: int = DEFAULT_MC_SAMPLES,
    seed: int = 0,
) -> IndicatorResult:
    """Compute one named indicator between a front and reference solutions.

    ED, HV, SDR, and NDR require a single-point reference set; GD accepts
    any number of reference points.
    """
    key = name.upper()
    if key not in INDICATOR_NAMES:
        raise ValueError(f"unknown indicator {name!r}; expected one of {INDICATOR_NAMES}")
    if key == "GD":
        value = generational_distance(front, refs)
    else:
        if len(refs) != 1:
            raise ValueError(f"{key} needs exactly one reference point, got {len(refs)}")
        point = refs.points[0]
        if key == "ED":
            value = euclidean_distance(front, point)
        elif key == "HV":
            value = hypervolume(front, point, mc_samples=mc_samples, seed=seed)
        elif key == "SDR":
            value = sdr(front, point)
        else:
            value = ndr(front, point)
    return IndicatorResult(key, value, front_size=len(front), reference_size=len(refs))
