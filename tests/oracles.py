"""Independent brute-force oracles used to cross-check the library.

These deliberately avoid the library's computation paths: dominance is an
explicit all-pairs check, hypervolume is a grid rasterization of the box
union, and the Monte Carlo hypervolume estimate tests its seeded draws box
by box with column comparisons, so agreement with the package is meaningful
evidence.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from pareto_judge.ingest_report import RecordTable, _body_rows, _counts_row, _record_columns, _table


def brute_force_front(coords: list[tuple[float, ...]]) -> list[tuple[float, ...]]:
    """All-pairs non-dominated filter with duplicate collapsing.

    A point is dropped when some other point is strictly greater in every
    coordinate. Output is sorted lexicographically.
    """
    unique = sorted(set(coords))
    survivors = []
    for p in unique:
        dominated = False
        for q in unique:
            if q != p and all(qi > pi for qi, pi in zip(q, p)):
                dominated = True
                break
        if not dominated:
            survivors.append(p)
    return survivors


def grid_hypervolume(coords, ref, resolution: int = 2000) -> float:
    """Cell-center rasterization of the union of boxes spanning [ref, p], in M-D.

    The grid has ``resolution`` cells per axis over the bounding box from ref
    to the coordinatewise maximum of the points that strictly exceed ref;
    every box covers a prefix block of cells, so painting prefix blocks
    reproduces the union exactly up to cells crossed by the union boundary.
    A down-set crosses at most one cell on each diagonal chain of cells, so
    the error is at most ``1 - (1 - 1/resolution)**M`` of the bounding box;
    it is zero when every box edge falls on a cell boundary.
    """
    pts = np.asarray(coords, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    eff = pts[(pts > ref).all(axis=1)]
    if eff.shape[0] == 0:
        return 0.0
    extent = eff.max(axis=0) - ref
    centers = ref[:, None] + (np.arange(resolution) + 0.5) / resolution * extent[:, None]
    covered = np.zeros((resolution,) * ref.size, dtype=bool)
    for p in eff:
        block = tuple(
            slice(0, int(np.searchsorted(axis, value, side="right")))
            for axis, value in zip(centers, p)
        )
        covered[block] = True
    return float(covered.sum()) * float(np.prod(extent / resolution))


def monte_carlo_hypervolume(coords, ref, samples: int, seed: int) -> float:
    """Monte Carlo estimate of the union of boxes spanning [ref, p], deterministic per seed.

    ``samples`` uniform draws from ``default_rng(seed)`` cover the box from
    ref to the coordinatewise maximum of the points; a degenerate box gives
    0. Only points strictly above ref span a box, and a box inside another
    is dropped; each draw is then tested box by box, one coordinate column
    at a time. The estimate is the box volume times the covered fraction.
    """
    pts = np.asarray(coords, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    extent = pts.max(axis=0) - ref
    if (extent <= 0.0).any():
        return 0.0
    corners = sorted({tuple(p) for p in pts.tolist() if all(c > r for c, r in zip(p, ref))})
    outer = [
        p for p in corners if not any(q != p and all(a >= b for a, b in zip(q, p)) for q in corners)
    ]
    draws = ref + np.random.default_rng(seed).random((samples, ref.size)) * extent
    covered = np.zeros(samples, dtype=bool)
    for corner in outer:
        inside = draws[:, 0] <= corner[0]
        for i in range(1, ref.size):
            inside &= draws[:, i] <= corner[i]
        covered |= inside
    return float(np.prod(extent)) * int(covered.sum()) / samples


def loop_hypervolume(points: np.ndarray, ref: np.ndarray) -> float:
    """The exact hypervolume as a per-point loop, in the package's float order.

    Not independent of the package: this is the sweep it ran before the
    staircase became array arithmetic, kept so that the array version can be
    checked against it with ``==``. 2-D sweeps the boxes in (-x, -y) order and
    adds a slab at each new best y; M >= 3 drops points not strictly above
    ref and strictly dominated points, then slices by the last objective.
    """
    eff = points[(points > ref).all(axis=1)]
    if points.shape[1] == 2:
        area, y_best = 0.0, float(ref[1])
        for x, y in eff[np.lexsort((-eff[:, 1], -eff[:, 0]))].tolist():
            if y > y_best:
                area += (x - float(ref[0])) * (y - y_best)
                y_best = y
        return area
    keep = [not any((q > p).all() for q in eff) for p in eff]
    eff = eff[np.asarray(keep, dtype=bool)]
    eff = eff[np.argsort(-eff[:, -1], kind="stable")]
    floors = np.append(eff[1:, -1], ref[-1])
    volume = 0.0
    for i in range(eff.shape[0]):
        depth = float(eff[i, -1]) - float(floors[i])
        if depth > 0.0:
            volume += depth * loop_hypervolume(eff[: i + 1, :-1], ref[:-1])
    return volume


def loop_generational_distance(points: np.ndarray, refs: np.ndarray) -> float:
    """Mean distance from each of the (n, M) points to its nearest of the (r, M) refs.

    Not independent of the package: this is the arithmetic generational
    distance had before the block function computed it (broadcast
    differences, a ``sum(axis=2)`` of their squares, the square root, the
    nearest reference per point, a sort, then the mean), kept so that the
    block's ED and GD can be checked against it with ``==``. ED against one
    reference r is this with refs = r[None].
    """
    diffs = points[:, None, :] - refs[None, :, :]
    nearest = np.sqrt((diffs * diffs).sum(axis=2)).min(axis=1)
    return float(np.sort(nearest).mean())


def loop_metrics(tp: int, fn: int, fp: int, tn: int, betas=()) -> list[tuple[float, bool]]:
    """(value, defined) of TPR, TNR, PPV, BAC, G-mean, then F-beta at each beta.

    Not independent of the package: this is the scalar arithmetic the metric
    functions ran before every metric came from one array function (Python
    int counts, ``/``, ``math.sqrt``, F-beta clipped at 1), kept so that the
    array version can be checked against it with ``==``. A zero denominator
    gives 0, undefined.
    """

    def ratio(num: int, den: int) -> tuple[float, bool]:
        return (num / den, True) if den else (0.0, False)

    (t, t_ok), (n, n_ok), (p, p_ok) = ratio(tp, tp + fn), ratio(tn, tn + fp), ratio(tp, tp + fp)
    both = t_ok and n_ok
    values = [(t, t_ok), (n, n_ok), (p, p_ok), ((t + n) / 2.0, both), (math.sqrt(t * n), both)]
    for beta in betas:
        b2 = beta * beta
        den = b2 * p + t
        values.append((min((b2 + 1.0) * p * t / den, 1.0), True) if den else (0.0, False))
    return values


def loop_envelope(rows, betas) -> list[tuple[float, bool, int]]:
    """(value, defined, winner) of the F-beta envelope of the (tp, fn, fp, tn)
    rows at each beta: a sweep of every member through ``loop_metrics``, the
    lowest index winning ties.

    Not independent of the package, as ``loop_metrics`` is not: this is the
    full sweep that ``fbeta_envelope`` ran before it swept candidates only,
    kept so that the candidate sweep can be checked against it with ``==``.
    """
    curves = [loop_metrics(*row, betas)[5:] for row in rows]
    envelope = []
    for j in range(len(betas)):
        best = max(curve[j][0] for curve in curves)
        winner = next(i for i, curve in enumerate(curves) if curve[j][0] == best)
        envelope.append((best, curves[winner][j][1], winner))
    return envelope


def loop_compare(front_lines, ref_lines, indicators, filter_front: bool, negate=()) -> list[tuple]:
    """The report rows of ``pareto-judge compare`` on two files given as lines.

    Independent of the package's pipeline: the lines are read with ``csv``,
    counts become (TPR, TNR) through ``loop_metrics``, each (dataset, fold)
    front is grouped in a dict and, with filter_front, reduced by
    ``brute_force_front``. HV and the pooled GD come from the loop oracles,
    ED, SDR and NDR from plain loops, and the fold mean and population std
    from ``math.fsum``. Rows are (indicator, reference, dataset, mean, std,
    fold_count) in the report's order: indicator, then reference, then dataset.
    """
    order = ("ED", "GD", "HV", "SDR", "NDR")
    wanted = [name for name in order if name in {n.upper() for n in indicators}]

    def points(lines):
        header, *rows = csv.reader(lines)
        sign = [-1.0 if column in negate else 1.0 for column in header[4:]]
        for dataset, method, fold, solution_id, *payload in rows:
            if header[4:] == ["tp", "fn", "fp", "tn"]:
                point = tuple(v for v, _ in loop_metrics(*map(int, payload))[:2])
            else:
                point = tuple(s * float(v) for s, v in zip(sign, payload))
            yield (dataset, int(fold)), method, int(solution_id), point

    fronts, refs = {}, {}
    for key, _, solution_id, point in points(front_lines):
        fronts.setdefault(key, {})[solution_id] = point
    for key, method, _, point in points(ref_lines):
        refs.setdefault(key, {})[method] = point

    series = {}
    for dataset, fold in sorted(fronts):
        front = [fronts[dataset, fold][i] for i in sorted(fronts[dataset, fold])]
        if filter_front:
            front = brute_force_front(front)
        methods = refs[dataset, fold]
        n, array = len(front), np.array(front)
        for name in wanted:
            if name == "GD":
                pooled = np.array([methods[m] for m in sorted(methods)])
                values = {"pooled": loop_generational_distance(array, pooled)}
            else:
                values = {}
                for method in sorted(methods):
                    r = methods[method]
                    if name == "ED":
                        dists = [math.sqrt(sum((a - b) ** 2 for a, b in zip(p, r))) for p in front]
                        values[method] = math.fsum(dists) / n
                    elif name == "HV":
                        values[method] = loop_hypervolume(array, np.array(r))
                    elif name == "SDR":
                        values[method] = sum(all(a > b for a, b in zip(p, r)) for p in front) / n
                    else:
                        dominated = sum(all(b > a for a, b in zip(p, r)) for p in front)
                        values[method] = (n - dominated) / n
            for label, value in values.items():
                series.setdefault((name, label, dataset), []).append(value)

    rows = []
    for key in sorted(series, key=lambda key: (order.index(key[0]), *key[1:])):
        values = series[key]
        mean = math.fsum(values) / len(values)
        std = math.sqrt(math.fsum((v - mean) ** 2 for v in values) / len(values))
        rows.append((*key, mean, std, len(values)))
    return rows


def parse_lines(body: bytes, path: str, payload_kind: str, dim: int) -> RecordTable:
    """A results body parsed one line at a time; raises ParseError at the first bad line.

    Not independent of the package: this is how counts and objectives
    bodies were read before the column reader, every line through the line
    checks that now run only on its first bad line, kept so that the column
    reader's table and error can be checked against it.
    """
    counts = payload_kind == "counts"
    columns = _record_columns(counts, dim)
    rows = _body_rows(body, path, columns, 4, "record key", _counts_row if counts else list)
    values = np.array([row[4:] for row in rows], dtype=np.int64 if counts else np.float64)
    return _table(*([row[i] for row in rows] for i in range(4)), values.reshape(len(rows), dim))
