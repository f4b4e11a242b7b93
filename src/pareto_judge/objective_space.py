"""Objective-space points, strict dominance, and Pareto-front extraction.

All objectives are maximization-oriented: larger coordinate values are
better. Dominance comparisons are exact floating-point comparisons, with no
epsilon, so duplicate and tied coordinates never dominate each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import _kernels
from ._fields import finite_real

__all__ = ["ObjectivePoint", "SolutionSet", "strictly_dominates", "front_rows", "pareto_front"]


@dataclass(frozen=True)
class ObjectivePoint:
    """A point in an M-dimensional space of maximization criteria."""

    coords: tuple[float, ...]

    def __post_init__(self) -> None:
        coords = tuple(finite_real("coords", c) for c in self.coords)
        if len(coords) == 0:
            raise ValueError("objective point needs at least one coordinate")
        object.__setattr__(self, "coords", coords)

    @property
    def dim(self) -> int:
        return len(self.coords)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.coords, dtype=np.float64)


@dataclass(frozen=True)
class SolutionSet:
    """A labeled, non-empty collection of equally-dimensioned objective points."""

    label: str
    points: tuple[ObjectivePoint, ...]

    def __post_init__(self) -> None:
        points = tuple(self.points)
        if not points:
            raise ValueError(f"solution set {self.label!r} must not be empty")
        dim = points[0].dim
        for p in points:
            if p.dim != dim:
                raise ValueError(
                    f"solution set {self.label!r} mixes dimensionalities "
                    f"({dim} and {p.dim})"
                )
        object.__setattr__(self, "points", points)

    @classmethod
    def from_coords(cls, label: str, coords: Iterable[Iterable[float]]) -> "SolutionSet":
        return cls(label, tuple(ObjectivePoint(tuple(c)) for c in coords))

    @property
    def dim(self) -> int:
        return self.points[0].dim

    def __len__(self) -> int:
        return len(self.points)

    def as_array(self) -> np.ndarray:
        """The points stacked into an (n, M) float64 array, in stored order."""
        return np.asarray([p.coords for p in self.points], dtype=np.float64)


def strictly_dominates(p: ObjectivePoint, r: ObjectivePoint) -> bool:
    """True when p is strictly better than r in every coordinate."""
    if p.dim != r.dim:
        raise ValueError(f"dimension mismatch: {p.dim} vs {r.dim}")
    return all(a > b for a, b in zip(p.coords, r.coords))


def front_rows(points: np.ndarray) -> np.ndarray:
    """Rows of an (n, M) array not strictly dominated by any other row.

    Equal rows collapse to the first of them, and the result is sorted
    lexicographically, so it does not depend on the input order.
    """
    ordered = points[np.lexsort(points.T[::-1])]
    distinct = np.ones(len(ordered), dtype=np.bool_)
    distinct[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    unique = ordered[distinct]
    return unique[_kernels.nondominated_mask(unique)]


def pareto_front(s: SolutionSet) -> SolutionSet:
    """Points of s not strictly dominated by any other point of s.

    Exact duplicate coordinate vectors collapse to one representative, and
    the output is ordered lexicographically by coordinates, so the result is
    deterministic regardless of input order.
    """
    return SolutionSet.from_coords(s.label, front_rows(s.as_array()).tolist())
