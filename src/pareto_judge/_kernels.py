"""Vectorized numpy kernels for box-union counts and the non-dominated mask.

Every kernel returns exact integer counts (or a boolean mask), so results do
not depend on how the work is chunked. Chunks of rows are sized so that each
broadcast comparison array holds at most ``_ELEMENTS`` elements; 2-D inputs
need no broadcast, as a sort and a running maximum answer them.
"""

from __future__ import annotations

import numpy as np

_ELEMENTS = 1 << 20


def count_in_box_union(samples: np.ndarray, points: np.ndarray) -> int:
    """Count samples covered by at least one point's box.

    A sample ``s`` is covered when some row ``p`` of ``points`` satisfies
    ``s <= p`` in every coordinate; the arrays are (n, M) and (k, M).
    """
    if points.shape[0] == 0:
        return 0
    if points.shape[1] == 2:
        # staircase lookup: the first point with x >= s_x, and the best y
        # from there on, decide whether some box reaches s
        order = np.argsort(points[:, 0])
        xs = points[order, 0]
        reach = np.maximum.accumulate(points[order, 1][::-1])[::-1]
        first = np.searchsorted(xs, samples[:, 0], side="left")
        inside = first < xs.size
        return int((samples[inside, 1] <= reach[first[inside]]).sum())
    total = 0
    step = max(1, _ELEMENTS // max(1, points.size))  # samples per chunk
    for start in range(0, samples.shape[0], step):
        chunk = samples[start : start + step]
        covered = (chunk[:, None, :] <= points[None, :, :]).all(axis=2).any(axis=1)
        total += int(covered.sum())
    return total


def nondominated_mask(points: np.ndarray) -> np.ndarray:
    """Mask of points not strictly dominated by any other point (all coords greater).

    Two objectives take an O(n log n) sweep (Kung, Luccio and Preparata
    1975): in (-x, -y) order, a point is dominated exactly when the best y
    among points of strictly larger x exceeds its own. Other dimensions
    compare every pair.
    """
    n = points.shape[0]
    if points.shape[1] == 2:
        order = np.lexsort((-points[:, 1], -points[:, 0]))
        xs, ys = points[order, 0], points[order, 1]
        # each point's first index among the points of equal x
        first = np.searchsorted(-xs, -xs, side="left")
        best = np.concatenate(([-np.inf], np.maximum.accumulate(ys)))[first]
        keep = np.empty(n, dtype=np.bool_)
        keep[order] = ~(best > ys)
        return keep
    keep = np.ones(n, dtype=np.bool_)
    step = max(1, _ELEMENTS // max(1, points.size))  # points per chunk
    for start in range(0, n, step):
        block = points[start : start + step]
        dominated = (points[None, :, :] > block[:, None, :]).all(axis=2).any(axis=1)
        keep[start : start + step] = ~dominated
    return keep

