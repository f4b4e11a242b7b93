"""Independent checks of what each benchmark command writes.

Every check recomputes the expected values with numpy from the generated
data, not with pareto_judge, and returns a list of problems (empty when the
output is correct). Formulas deliberately differ from the program's where a
choice exists: 2-D hypervolume sums vertical slabs, 3-D hypervolume slices by
z, and F-beta is evaluated as one array over members and betas.
"""

from __future__ import annotations

import math
import os
import xml.etree.ElementTree as ET

import numpy as np

REPORT_HEADER = "indicator,reference_method,dataset,mean,std,fold_count"
POOLED = "pooled"
EXACT_TOL = 1e-12
MC_SAMPLES = 1_000_000  # the CLI's default Monte Carlo sample count
MC_SIGMAS = 6.0

SVG_NS = "{http://www.w3.org/2000/svg}"
BETAS = np.logspace(-1.0, 1.0, 201)  # the fbeta-plot default grid
# pareto_judge._svg.FRAME maps F = 0 to y = 530 px and F = 1 to y = 40 px;
# coordinates are printed with two decimals.
FRAME_BOTTOM = 530.0
FRAME_HEIGHT = 490.0
PIXEL_TOL = 0.006


def hv2d(points: np.ndarray, ref: np.ndarray) -> float:
    """Area dominated by points and bounded below by ref, as vertical slabs."""
    eff = points[(points > ref).all(axis=1)]
    if len(eff) == 0:
        return 0.0
    eff = eff[np.argsort(-eff[:, 0], kind="stable")]
    widths = eff[:, 0] - np.append(eff[1:, 0], ref[0])
    heights = np.maximum.accumulate(eff[:, 1]) - ref[1]
    return float((widths * heights).sum())


def hv3d(points: np.ndarray, ref: np.ndarray) -> float:
    """Exact 3-D hypervolume: slice by z and sum 2-D areas times slab depth."""
    eff = points[(points > ref).all(axis=1)]
    eff = eff[np.argsort(-eff[:, 2], kind="stable")]
    z = np.append(eff[:, 2], ref[2])
    return float(
        sum((z[i] - z[i + 1]) * hv2d(eff[: i + 1, :2], ref[:2]) for i in range(len(eff)))
    )


def fold_indicators(front: np.ndarray, refs: np.ndarray, hv) -> dict[str, np.ndarray]:
    """Per-fold indicator values for one dataset.

    front is (folds, n, M) and refs (folds, r, M). ED, HV, SDR and NDR come
    back as (folds, r), one column per reference method; GD against the
    pooled references as (folds,).
    """
    diff = front[:, :, None, :] - refs[:, None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=-1))
    folds, _, n_refs = dist.shape
    return {
        "ED": dist.mean(axis=1),
        "GD": dist.min(axis=2).mean(axis=1),
        "HV": np.array([[hv(front[f], refs[f, r]) for r in range(n_refs)] for f in range(folds)]),
        "SDR": (diff > 0).all(axis=-1).mean(axis=1),
        "NDR": 1.0 - (diff < 0).all(axis=-1).mean(axis=1),
    }


def read_report(path: str) -> dict[tuple[str, str, str], tuple[float, float, int]]:
    with open(path, encoding="utf-8", newline="") as handle:
        lines = handle.read().split("\n")
    if lines[0] != REPORT_HEADER or lines[-1] != "":
        raise ValueError(f"{path}: bad header or missing final newline")
    cells = {}
    for line in lines[1:-1]:
        indicator, method, dataset, mean, std, count = line.split(",")
        cells[(indicator, method, dataset)] = (float(mean), float(std), int(count))
    return cells


def _compare_cells(cells, expected) -> list[str]:
    """expected maps a report key to (per-fold values, tolerance)."""
    problems = []
    for key in sorted(set(cells) ^ set(expected)):
        problems.append(f"report row {key} {'unexpected' if key in cells else 'missing'}")
    for key in sorted(set(cells) & set(expected)):
        mean, std, count = cells[key]
        values, tol = expected[key]
        want_mean = float(np.mean(values))
        want_std = math.sqrt(float(np.mean((values - want_mean) ** 2)))
        if abs(mean - want_mean) > tol:
            problems.append(f"{key}: mean {mean!r}, expected {want_mean!r} within {tol:g}")
        if abs(std - want_std) > tol:
            problems.append(f"{key}: std {std!r}, expected {want_std!r} within {tol:g}")
        if count != len(values):
            problems.append(f"{key}: fold_count {count}, expected {len(values)}")
    return problems


def _expected_cells(values: dict[str, np.ndarray], dataset: str, methods: list[str], tols):
    expected = {(("GD", POOLED, dataset)): (values["GD"], tols["GD"])}
    for name in ("ED", "HV", "SDR", "NDR"):
        for r, method in enumerate(methods):
            expected[(name, method, dataset)] = (values[name][:, r], tols[name][r])
    return expected


def _read_or_problem(path: str):
    try:
        return read_report(path), []
    except (OSError, ValueError) as exc:
        return None, [f"unreadable report: {exc}"]


def check_counts_report(path: str, data) -> list[str]:
    """Every cell of the counts compare report, all five indicators, to 1e-12."""
    cells, problems = _read_or_problem(path)
    if problems:
        return problems
    front, refs = data.points()
    methods = data.methods
    exact = {name: [EXACT_TOL] * len(methods) for name in ("ED", "HV", "SDR", "NDR")}
    exact["GD"] = EXACT_TOL
    expected = {}
    for d, dataset in enumerate(data.datasets):
        expected.update(
            _expected_cells(fold_indicators(front[d], refs[d], hv2d), dataset, methods, exact)
        )
    return _compare_cells(cells, expected)


def mc_tolerance(front: np.ndarray, ref: np.ndarray, exact: float) -> float:
    """MC_SIGMAS standard errors of the hit-or-miss estimate over the bounding box.

    An exact hypervolume is within this of the exact value too, so the check
    holds for both the estimator and an exact method.
    """
    box = float(np.prod(front.max(axis=0) - ref))
    if box <= 0.0:
        return EXACT_TOL
    p = min(max(exact / box, 0.0), 1.0)
    return MC_SIGMAS * box * math.sqrt(p * (1.0 - p) / MC_SAMPLES) + EXACT_TOL


def check_objectives_report(path: str, data) -> list[str]:
    """3-objective report: ED/GD/SDR/NDR to 1e-12, HV against exact slicing by z."""
    cells, problems = _read_or_problem(path)
    if problems:
        return problems
    front, refs = data.points()
    values = fold_indicators(front, refs, hv3d)
    methods = data.methods
    tols = {name: [EXACT_TOL] * len(methods) for name in ("ED", "SDR", "NDR")}
    tols["GD"] = EXACT_TOL
    # the fold mean and population std of per-fold estimates each differ from
    # their exact counterparts by at most the largest per-fold error
    tols["HV"] = [
        max(mc_tolerance(front[f], refs[f, r], values["HV"][f, r]) for f in range(len(front)))
        for r in range(len(methods))
    ]
    return _compare_cells(cells, _expected_cells(values, data.dataset, methods, tols))


def fbeta_values(tp: np.ndarray, fp: np.ndarray, positives: int) -> np.ndarray:
    """F-beta of each (tp, fp) pair on the BETAS grid; 0 where undefined."""
    tp = np.asarray(tp, dtype=np.float64)[:, None]
    fp = np.asarray(fp, dtype=np.float64)[:, None]
    predicted = tp + fp
    precision = np.divide(tp, predicted, out=np.zeros_like(predicted), where=predicted > 0)
    recall = tp / positives
    b2 = BETAS * BETAS
    den = b2 * precision + recall
    num = (1.0 + b2) * precision * recall
    return np.minimum(np.divide(num, den, out=np.zeros_like(num), where=den > 0), 1.0)


def _parse_svg(path: str):
    try:
        return ET.parse(path).getroot(), []
    except (OSError, ET.ParseError) as exc:
        return None, [f"{os.path.basename(path)}: not well-formed XML: {exc}"]


def check_fbeta_svg(path: str, data, dataset: int, fold: int) -> list[str]:
    """One 201-point polyline per reference method, then the front envelope."""
    root, problems = _parse_svg(path)
    if problems:
        return problems
    name = os.path.basename(path)
    order = sorted(range(len(data.methods)), key=lambda r: data.methods[r])
    refs = fbeta_values(data.ref_tp[dataset, fold], data.ref_fp[dataset, fold], data.positives)
    members = fbeta_values(data.front_tp[dataset, fold], data.front_fp[dataset, fold], data.positives)
    curves = [refs[r] for r in order] + [members.max(axis=0)]
    polylines = root.findall(f"{SVG_NS}polyline")
    if len(polylines) != len(curves):
        return [f"{name}: {len(polylines)} polylines, expected {len(curves)}"]
    for i, (polyline, curve) in enumerate(zip(polylines, curves)):
        try:
            pts = [tuple(map(float, p.split(","))) for p in polyline.get("points", "").split()]
        except ValueError:
            problems.append(f"{name}: polyline {i} has malformed points")
            continue
        if len(pts) != len(BETAS) or any(len(p) != 2 for p in pts):
            problems.append(f"{name}: polyline {i} has {len(pts)} points, expected {len(BETAS)}")
            continue
        ys = np.array([p[1] for p in pts])
        error = float(np.abs(ys - (FRAME_BOTTOM - FRAME_HEIGHT * curve)).max())
        if error > PIXEL_TOL:
            problems.append(f"{name}: polyline {i} is off by {error:.3f} px")
    return problems


def pareto_points(points: np.ndarray) -> np.ndarray:
    """Distinct points that no other point strictly exceeds in every coordinate."""
    unique = np.unique(points, axis=0)
    dominated = (unique[None, :, :] > unique[:, None, :]).all(axis=2).any(axis=1)
    return unique[~dominated]


def check_region_svg(path: str, data, dataset: int, fold: int, ref: int) -> list[str]:
    """Front size, SDR and NDR in the legend of a filtered dominance figure."""
    root, problems = _parse_svg(path)
    if problems:
        return problems
    front_all, refs = data.points()
    front = pareto_points(front_all[dataset, fold])
    point = refs[dataset, fold, ref]
    n = len(front)
    sdr = int((front > point).all(axis=1).sum()) / n
    ndr = (n - int((front < point).all(axis=1).sum())) / n
    texts = {el.text for el in root.iter(f"{SVG_NS}text")}
    name = os.path.basename(path)
    for want in (f"front ({n} points)", f"dominating (SDR = {sdr:.2f})", f"dominated (NDR = {ndr:.2f})"):
        if want not in texts:
            problems.append(f"{name}: legend lacks {want!r}")
    circles = len(root.findall(f"{SVG_NS}circle"))
    if circles != n:
        problems.append(f"{name}: {circles} front markers, expected {n}")
    return problems


def _check_dir(path: str, files: dict[str, object]) -> list[str]:
    try:
        present = set(os.listdir(path))
    except OSError as exc:
        return [f"missing output directory: {exc}"]
    problems = [f"unexpected file {f}" for f in sorted(present - set(files))]
    problems += [f"missing file {f}" for f in sorted(set(files) - present)]
    for filename, check in sorted(files.items()):
        if filename in present:
            problems += check(os.path.join(path, filename))
    return problems


def check_fbeta_dir(path: str, data, fold: int) -> list[str]:
    return _check_dir(
        path,
        {
            f"{name}_fbeta.svg": (lambda p, d=d: check_fbeta_svg(p, data, d, fold))
            for d, name in enumerate(data.datasets)
        },
    )


def check_region_dir(path: str, data, fold: int, ref: int) -> list[str]:
    return _check_dir(
        path,
        {
            f"{name}_region-dominance.svg": (lambda p, d=d: check_region_svg(p, data, d, fold, ref))
            for d, name in enumerate(data.datasets)
        },
    )

