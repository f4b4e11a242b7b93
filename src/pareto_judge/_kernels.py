"""Strict dominance over arrays: the one rule every indicator and front uses.

SDR, NDR, the Pareto front and HV all rest on "strictly greater in every
coordinate"; this module is the only place that compares arrays that way.
``_strictly_above`` gives the full mask of which points exceed which
references, ``nondominated_mask`` the points that no other point exceeds,
and ``_exceeded`` the 2-D queries that some point exceeds. 2-D takes a sort
and a running maximum; other dimensions compare chunks of rows, each
comparison array holding at most ``_ELEMENTS`` booleans, so the result does
not depend on the chunking.
"""

from __future__ import annotations

import numpy as np

_ELEMENTS = 1 << 20


def _strictly_above(points: np.ndarray, refs: np.ndarray) -> np.ndarray:
    """(..., r, n) mask of points[..., j, :] > refs[..., k, :] in every coordinate.

    points and refs are (n, M) and (r, M) arrays, or stacks of them.
    """
    columns = [points[..., None, :, i] > refs[..., :, None, i] for i in range(points.shape[-1])]
    return np.logical_and.reduce(columns)


def _exceeded(points: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Mask of the finite (k, 2) queries that some of the finite (n, 2) points
    exceeds in both coordinates.

    A staircase lookup (Kung, Luccio and Preparata 1975): in order of
    descending x, the best y among the points whose x strictly exceeds q's
    decides whether q is exceeded.
    """
    negx = -points[:, 0]
    order = np.argsort(negx)
    best = np.concatenate(([-np.inf], np.maximum.accumulate(points[order, 1])))
    ahead = np.searchsorted(negx[order], -queries[:, 0], side="left")
    return best[ahead] > queries[:, 1]


def nondominated_mask(points: np.ndarray) -> np.ndarray:
    """Mask of the rows of the finite (n, M) points that no other row
    exceeds in every coordinate.

    Two coordinates take the staircase lookup of ``_exceeded``.
    """
    if points.shape[1] == 2:
        return ~_exceeded(points, points)
    mask = np.empty(points.shape[0], dtype=np.bool_)
    step = max(1, _ELEMENTS // max(1, points.size))  # rows per chunk
    for start in range(0, points.shape[0], step):
        chunk = points[start : start + step]
        mask[start : start + step] = ~_strictly_above(points, chunk).any(axis=-1)
    return mask
