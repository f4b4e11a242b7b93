"""Front-quality indicators: distance, hypervolume, and dominance ratios.

All indicators compare a front approximation against reference solutions in
a shared maximization space. Values are computed on the raw objective scale
(fractions in [0, 1] for classification rates); any presentation scaling is
left to the report layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import _strictly_above, nondominated_mask
from ._fields import INDICATOR_NAMES, finite_real, indicator, unsigned
from .objective_space import ObjectivePoint, SolutionSet

__all__ = [
    "INDICATOR_NAMES",
    "REGION_MODES",
    "IndicatorResult",
    "generational_distance",
    "euclidean_distance",
    "hypervolume",
    "sdr",
    "ndr",
    "evaluate_indicator",
]

# what a region figure shades: the HV boxes, or the SDR and NDR regions
REGION_MODES = ("hypervolume", "dominance")


@dataclass(frozen=True)
class IndicatorResult:
    """A named indicator value together with the set sizes that produced it."""

    name: str
    value: float
    front_size: int
    reference_size: int

    def __post_init__(self) -> None:
        high = 1.0 if indicator("name", self.name) in ("SDR", "NDR") else math.inf
        object.__setattr__(self, "value", finite_real("value", self.value, 0.0, high))
        for name in ("front_size", "reference_size"):
            object.__setattr__(self, name, unsigned(name, getattr(self, name), 1))


def _distances(points: np.ndarray, others: np.ndarray) -> np.ndarray:
    """(..., n, k) Euclidean distances from (..., n, M) points to (..., k, M) others.

    Each set of a stack gets the bits it gets alone, and swapping the two
    arguments transposes the distances exactly: every distance is summed
    over its own M squares in one fixed order. numpy adds fewer than 8 terms
    in order, so below M = 8 the squares are added one coordinate at a time
    over whole arrays, which takes about a quarter of the time of one
    reduction call per distance. From M = 8 numpy sums pairwise, and the
    reduction itself is used.
    """
    if points.shape[-1] >= 8:
        diffs = points[..., :, None, :] - others[..., None, :, :]
        return np.sqrt((diffs * diffs).sum(axis=-1))
    total = 0.0
    for i in range(points.shape[-1]):
        diff = points[..., :, None, i] - others[..., None, :, i]
        total = total + diff * diff
    return np.sqrt(total)


def _sweep_order(points: np.ndarray) -> np.ndarray:
    """Indices ordering 2-D points by (-x, -y), so sweeps ignore input order.

    A stack of (..., n, 2) point sets is ordered set by set.
    """
    return np.lexsort((-points[..., 1], -points[..., 0]), axis=-1)


def _staircase_areas(xy: np.ndarray, mask: np.ndarray, refs: np.ndarray) -> np.ndarray:
    """Area of the union of the boxes spanning refs[k] to the points xy[j] with
    mask[k, j], for each row k of the (r, 2) refs.

    ``xy`` is in sweep order and every masked point lies strictly above its
    row's reference. Each point that raises the best y so far adds the slab
    ``(x - rx) * (y - best)`` (Kung, Luccio and Preparata 1975); the slabs
    are summed left to right by ``cumsum``, the order of a per-point loop.
    Stacks of (..., n, 2) points, (..., r, n) masks and (..., r, 2) refs
    give (..., r) areas, each equal to that of its own set.
    """
    if xy.shape[-2] == 0:
        return np.zeros(refs.shape[:-1])
    floor = refs[..., :, 1, None]
    ys = np.where(mask, xy[..., None, :, 1], floor)
    best = np.maximum.accumulate(np.concatenate([floor, ys[..., :-1]], axis=-1), axis=-1)
    slabs = np.where(ys > best, (xy[..., None, :, 0] - refs[..., :, 0, None]) * (ys - best), 0.0)
    return np.cumsum(slabs, axis=-1)[..., -1]


def _exact_hv(points: np.ndarray, ref: np.ndarray) -> float:
    # Slice by the last objective (the z-sweep of Beume et al. 2009, recursive
    # in M as HSO, While et al. 2006): each slab between consecutive last
    # coordinates adds its depth times the (M-1)-D measure of the points at or
    # above it. Zero-depth slabs, where tied coordinates would see a partial
    # set, are skipped. Dropping dominated points first makes the value
    # exactly independent of them, not just up to rounding.
    if points.shape[1] == 1:
        return max(0.0, float(points.max()) - float(ref[0]))
    if points.shape[1] == 2:
        xy, refs = points[_sweep_order(points)], ref[None, :]
        return float(_staircase_areas(xy, _strictly_above(xy, refs), refs)[0])
    eff = points[_strictly_above(points, ref[None])[0]]
    eff = eff[nondominated_mask(eff)]
    eff = eff[np.argsort(-eff[:, -1], kind="stable")]
    floors = np.append(eff[1:, -1], ref[-1])
    volume = 0.0
    for i in range(eff.shape[0]):
        depth = float(eff[i, -1]) - float(floors[i])
        if depth > 0.0:
            volume += depth * _exact_hv(eff[: i + 1, :-1], ref[:-1])
    return volume


@np.errstate(over="ignore", invalid="ignore")
def _block_indicators(
    fronts: np.ndarray, refs: np.ndarray, names: list[str]
) -> dict[str, np.ndarray]:
    """The named indicators of B front blocks, each against its r reference points.

    fronts is a (B, n, M) stack and refs a (B, r, M) stack; each value array
    is (B, r), and (B, 1) for GD, which takes the r points pooled. Every ED,
    GD, HV, SDR and NDR value of the package comes from here; the per-record
    functions pass one block. Each block's values do not depend on the rest
    of the stack: ``_distances`` sums each distance over its own
    coordinates, each reference's distances are sorted as one C-contiguous
    row, so the mean sums them in the same pairwise order for any stack and
    any front point order, and the 2-D staircase sweeps each block in its
    own order. A value that overflows float64 comes back inf, without a
    warning, for the caller to name.
    """
    n = fronts.shape[1]
    values: dict[str, np.ndarray] = {}
    if "ED" in names or "GD" in names:
        # (B, r, n): each reference's distances are one C-contiguous row
        distances = _distances(refs, fronts)
        nearest = distances.min(axis=1)
        if "ED" in names:
            distances.sort(axis=2)
            values["ED"] = distances.mean(axis=2)
        if "GD" in names:
            nearest.sort(axis=1)
            values["GD"] = nearest.mean(axis=1, keepdims=True)
    if "HV" in names or "SDR" in names:
        # one strict-dominance mask serves the 2-D staircase and SDR
        planar = fronts.shape[2] == 2
        if planar:
            fronts = np.take_along_axis(fronts, _sweep_order(fronts)[..., None], axis=1)
        above = _strictly_above(fronts, refs)
        if "HV" in names:
            if planar:
                values["HV"] = _staircase_areas(fronts, above, refs)
            else:
                values["HV"] = np.array(
                    [[_exact_hv(front, ref) for ref in block] for front, block in zip(fronts, refs)]
                )
        if "SDR" in names:
            values["SDR"] = above.sum(axis=2) / n
    if "NDR" in names:
        # (B, n, r) mask of each reference strictly above each front point
        dominated = _strictly_above(refs, fronts).sum(axis=1)
        # (n - dominated) / n, so exact count ratios stay exact floats
        values["NDR"] = (n - dominated) / n
    return values


def _value(name: str, front: np.ndarray, refs: np.ndarray) -> float:
    """The named indicator of the (n, M) front against the (r, M) refs; ValueError unless finite."""
    if front.shape[1] != refs.shape[1]:
        raise ValueError(
            f"dimension mismatch: front has {front.shape[1]}, reference has {refs.shape[1]}"
        )
    value = float(_block_indicators(front[None], refs[None], [name])[name][0, 0])
    if not math.isfinite(value):
        raise ValueError(f"indicator {name} is not finite: {value!r}; the coordinates overflow")
    return value


def generational_distance(front: SolutionSet, refs: SolutionSet) -> float:
    """Mean distance from each front point to its nearest reference point."""
    return _value("GD", front.as_array(), refs.as_array())


def euclidean_distance(front: SolutionSet, ref: ObjectivePoint) -> float:
    """Mean distance between the front points and a single reference point."""
    return _value("ED", front.as_array(), ref.as_array()[None])


def hypervolume(front: SolutionSet, ref: ObjectivePoint) -> float:
    """Measure of the region between the front and a reference point.

    Each front point p contributes the axis-aligned box spanning [ref, p];
    coordinates where p does not exceed ref clip the box to zero volume. The
    value is the exact measure of the box union in every dimension.
    """
    return _value("HV", front.as_array(), ref.as_array()[None])


def sdr(front: SolutionSet, ref: ObjectivePoint) -> float:
    """Fraction of front points that strictly dominate the reference point."""
    return _value("SDR", front.as_array(), ref.as_array()[None])


def ndr(front: SolutionSet, ref: ObjectivePoint) -> float:
    """Fraction of front points not strictly dominated by the reference point.

    Ties count as non-dominated: only strict domination by the reference
    removes a point from the numerator.
    """
    return _value("NDR", front.as_array(), ref.as_array()[None])


def evaluate_indicator(name: str, front: SolutionSet, refs: SolutionSet) -> IndicatorResult:
    """Compute one named indicator between a front and reference solutions.

    ED, HV, SDR, and NDR require a single-point reference set; GD accepts
    any number of reference points.
    """
    key = indicator("name", name.upper() if isinstance(name, str) else name)
    if key != "GD" and len(refs) != 1:
        raise ValueError(f"{key} needs exactly one reference point, got {len(refs)}")
    value = _value(key, front.as_array(), refs.as_array())
    return IndicatorResult(key, value, front_size=len(front), reference_size=len(refs))
