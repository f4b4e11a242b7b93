"""Vectorized numpy kernels for box-union counts and the non-dominated mask.

Both kernels answer one covering query: which query rows does some point
exceed in every coordinate, strictly for dominance and non-strictly for
boxes. Each returns exact integer counts (or a boolean mask), so results do
not depend on how the work is chunked. 2-D inputs take a sort and a running
maximum; other dimensions compare chunks of rows, each broadcast comparison
array holding at most ``_ELEMENTS`` elements.
"""

from __future__ import annotations

import numpy as np

_ELEMENTS = 1 << 20


def _covered(queries: np.ndarray, points: np.ndarray, strict: bool) -> np.ndarray:
    """Mask of query rows q for which some row p of points has p > q in
    every coordinate (``strict``), or p >= q. The arrays are finite, of
    shapes (n, M) and (k, M).

    Two coordinates take a staircase lookup (Kung, Luccio and Preparata
    1975): in order of descending x, the best y among the points whose x
    exceeds (or reaches) q's decides whether q is covered.
    """
    exceeds = np.greater if strict else np.greater_equal
    if points.shape[1] == 2:
        negx = -points[:, 0]
        order = np.argsort(negx)
        best = np.concatenate(([-np.inf], np.maximum.accumulate(points[order, 1])))
        side = "left" if strict else "right"
        ahead = np.searchsorted(negx[order], -queries[:, 0], side=side)
        return exceeds(best[ahead], queries[:, 1])
    covered = np.empty(queries.shape[0], dtype=np.bool_)
    step = max(1, _ELEMENTS // max(1, points.size))  # query rows per chunk
    for start in range(0, queries.shape[0], step):
        block = queries[start : start + step]
        hits = exceeds(points[None, :, :], block[:, None, :]).all(axis=2).any(axis=1)
        covered[start : start + step] = hits
    return covered


def count_in_box_union(samples: np.ndarray, points: np.ndarray) -> int:
    """Count samples covered by at least one point's box.

    A sample ``s`` is covered when some row ``p`` of ``points`` satisfies
    ``s <= p`` in every coordinate; the arrays are (n, M) and (k, M).
    """
    return int(_covered(samples, points, strict=False).sum())


def nondominated_mask(points: np.ndarray) -> np.ndarray:
    """Mask of points not strictly dominated by any other point (all coords greater)."""
    return ~_covered(points, points, strict=True)
