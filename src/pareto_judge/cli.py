"""Command-line interface wiring ingestion, indicators, and figures together.

Exit codes: 0 on success, 1 on input or validation errors, 2 on usage
errors. Outputs are written atomically and only on success; identical
arguments and input files always produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from ._io import atomic_write_text
from .confusion_metrics import ratio_array
from .fbeta_analysis import (
    BetaGrid,
    ISOCURVE_METRICS,
    REGION_MODES,
    _fbeta_sweep,
    fbeta_curves,
    fbeta_envelope,
    render_fbeta_plot,
    render_isocurves,
    render_region_plot,
)
from .indicators import INDICATOR_NAMES
from .ingest_report import (
    REPORT_FORMATS,
    ParseError,
    RecordTable,
    aggregate,
    parse_datasets,
    parse_records,
    read_report_csv,
    render_dataset_table,
    render_report,
)
from .objective_space import front_rows

METRICS_HEADER = "dataset,method,fold,solution_id,tpr,tnr,ppv,bac,gmean,f1,degenerate"


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _require_file(path: str, role: str) -> None:
    if not os.path.isfile(path):
        raise ValueError(f"{role} file not found: {path}")


def _parse_indicator_list(raw: str) -> list[str]:
    names = [item.strip() for item in raw.split(",") if item.strip()]
    if not names:
        raise ValueError(f"no indicators given in {raw!r}")
    unknown = sorted({name.upper() for name in names} - set(INDICATOR_NAMES))
    if unknown:
        raise ValueError(f"--indicators: unknown {unknown}; expected from {INDICATOR_NAMES}")
    return names


def _parse_level_list(raw: str) -> list[float]:
    try:
        levels = [float(item) for item in raw.split(",") if item.strip()]
    except ValueError:
        raise ValueError(f"levels must be a comma-separated list of numbers, got {raw!r}")
    if not levels:
        raise ValueError(f"no levels given in {raw!r}")
    return levels


def _load_records(path: str, payload_kind: str, role: str, fold: int | None, negate=()):
    _require_file(path, role)
    table = parse_records(path, payload_kind, negate)
    if fold is None:
        return table
    subset = table.take(table.fold == fold)
    if not subset:
        raise ValueError(f"no {role} records for fold {fold}")
    return subset


def _parse_negate(raw: str | None) -> tuple[str, ...]:
    if not raw:
        return ()
    return tuple(item.strip() for item in raw.split(",") if item.strip())


def _rows_by_dataset(table: RecordTable) -> dict[str, dict[str, list[int]]]:
    """Row indices per dataset and method, each ordered by solution_id."""
    grouped: dict[str, dict[str, list[int]]] = {}
    for rows in table.groups("dataset", "method"):
        dataset = table.dataset_names[table.dataset[rows[0]]]
        method = table.method_names[table.method[rows[0]]]
        grouped.setdefault(dataset, {})[method] = rows.tolist()
    return grouped


def _matching_datasets(front: dict, refs: dict) -> list[str]:
    if set(front) != set(refs):
        raise ValueError(
            f"front and reference files cover different datasets: "
            f"{sorted(set(front) ^ set(refs))}"
        )
    return sorted(front)


def _cmd_metrics(args: argparse.Namespace) -> int:
    table = _load_records(args.input, "counts", "input", args.fold)
    tp, fn, fp, tn = table.values.T
    t, n, p = ratio_array(tp, tp + fn), ratio_array(tn, tn + fp), ratio_array(tp, tp + fp)
    f1, _ = _fbeta_sweep(table.values, (1.0,))
    # the same operations as tpr, tnr, ppv, bac, gmean and fbeta(m, 1.0)
    values = np.stack([t, n, p, (t + n) / 2.0, np.sqrt(t * n), f1[:, 0]], axis=1)
    degenerate = (tp + fn == 0) | (tn + fp == 0) | (tp + fp == 0)
    lines = [METRICS_HEADER]
    columns = (table.dataset.tolist(), table.method.tolist(), table.fold.tolist())
    for d, m, fold, solution_id, row, flag in zip(
        *columns, table.solution_id.tolist(), values.tolist(), degenerate.tolist()
    ):
        cells = ",".join(map(repr, row))
        dataset, method = table.dataset_names[d], table.method_names[m]
        lines.append(f"{dataset},{method},{fold},{solution_id},{cells},{int(flag)}")
    atomic_write_text(args.out, "\n".join(lines) + "\n")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    negate = _parse_negate(args.negate)
    indicators = _parse_indicator_list(args.indicators)
    front = _load_records(args.front, args.payload, "front", args.fold, negate)
    refs = _load_records(args.refs, args.payload, "reference", args.fold, negate)
    try:
        report = aggregate(front, refs, indicators, filter_front=args.filter_front)
    except ValueError as exc:
        # aggregate checks the two files' records against each other
        raise ValueError(f"{args.front} with {args.refs}: {exc}") from None
    render_report(report, args.format, args.out)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    _require_file(args.input, "report")
    render_report(read_report_csv(args.input), args.format, args.out)
    return 0


def _cmd_fbeta_plot(args: argparse.Namespace) -> int:
    front_table = _load_records(args.front, "counts", "front", args.fold)
    front = _rows_by_dataset(front_table)
    refs_table = _load_records(args.refs, "counts", "reference", args.fold)
    refs = _rows_by_dataset(refs_table)
    grid = BetaGrid.log_spaced(args.beta_min, args.beta_max, args.beta_count)
    plots = []
    for dataset in _matching_datasets(front, refs):
        front_methods = sorted(front[dataset])
        if len(front_methods) != 1:
            raise ValueError(f"front file must hold one method, got {front_methods}")
        members = front_table.values[front[dataset][front_methods[0]]]
        methods = sorted(refs[dataset])
        for method in methods:
            group = refs[dataset][method]
            if len(group) != 1:
                raise ValueError(
                    f"reference method {method!r} has {len(group)} solutions for "
                    f"dataset {dataset!r} fold {args.fold}"
                )
        rows = [refs[dataset][method][0] for method in methods]
        curves = fbeta_curves(refs_table.values[rows], grid, methods)
        curves.append(fbeta_envelope(members, grid, label=f"{front_methods[0]} envelope"))
        plots.append((os.path.join(args.out, f"{dataset}_fbeta.svg"), curves))
    os.makedirs(args.out, exist_ok=True)
    for path, curves in plots:
        render_fbeta_plot(curves, path)
    return 0


def _cmd_region_plot(args: argparse.Namespace) -> int:
    negate = _parse_negate(args.negate)
    front_table = _load_records(args.front, args.payload, "front", args.fold, negate)
    front = _rows_by_dataset(front_table)
    refs_table = _load_records(args.refs, args.payload, "reference", args.fold, negate)
    refs = _rows_by_dataset(refs_table)
    front_points, ref_points = front_table.points(), refs_table.points()
    # checked before the output directory is made, so a failed run leaves none
    if front_points.shape[1] != 2:
        raise ValueError(
            f"region plot requires 2 objectives, got a front of shape {front_points.shape}"
        )
    if ref_points.shape[1] != 2:
        raise ValueError(
            f"region plot requires 2 objectives, got a reference of shape {ref_points.shape[1:]}"
        )
    plots = []
    for dataset in _matching_datasets(front, refs):
        front_methods = sorted(front[dataset])
        if len(front_methods) != 1:
            raise ValueError(f"front file must hold one method, got {front_methods}")
        methods = sorted(refs[dataset])
        if args.ref_method is not None:
            if args.ref_method not in refs[dataset]:
                raise ValueError(
                    f"reference method {args.ref_method!r} not present for dataset {dataset!r}"
                )
            method = args.ref_method
        elif len(methods) == 1:
            method = methods[0]
        else:
            raise ValueError(
                f"dataset {dataset!r} has several reference methods {methods}; "
                f"pick one with --ref-method"
            )
        group = refs[dataset][method]
        if len(group) != 1:
            raise ValueError(
                f"reference method {method!r} has {len(group)} solutions for "
                f"dataset {dataset!r} fold {args.fold}"
            )
        points = front_points[front[dataset][front_methods[0]]]
        if args.filter_front:
            points = front_rows(points)
        path = os.path.join(args.out, f"{dataset}_region-{args.mode}.svg")
        plots.append((path, points, ref_points[group[0]]))
    os.makedirs(args.out, exist_ok=True)
    for path, points, ref in plots:
        render_region_plot(points, ref, args.mode, path)
    return 0


def _cmd_isocurves(args: argparse.Namespace) -> int:
    render_isocurves(args.metric, _parse_level_list(args.levels), args.out)
    return 0


def _cmd_datasets(args: argparse.Namespace) -> int:
    _require_file(args.input, "datasets")
    text = render_dataset_table(parse_datasets(args.input), args.format)
    if args.out:
        atomic_write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pareto-judge",
        description="Compare single-solution classifiers against multi-objective solution fronts.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_fold(p: argparse.ArgumentParser, required: bool) -> None:
        p.add_argument(
            "--fold",
            type=int,
            required=required,
            default=None,
            help="restrict to one fold" + ("" if required else " (default: all folds)"),
        )

    p = sub.add_parser("metrics", help="per-record base and aggregated metrics from counts")
    p.add_argument("--in", dest="input", required=True, help="counts csv")
    add_fold(p, required=False)
    p.add_argument("--out", required=True, help="output csv path")
    p.set_defaults(handler=_cmd_metrics)

    p = sub.add_parser("compare", help="aggregate front-vs-reference indicators over folds")
    p.add_argument("--front", required=True, help="front results csv")
    p.add_argument("--refs", required=True, help="reference results csv")
    p.add_argument("--payload", choices=("counts", "objectives"), default="counts")
    p.add_argument(
        "--negate",
        default=None,
        help="objective columns to sign-flip on load (minimization criteria), e.g. obj_2",
    )
    p.add_argument(
        "--indicators",
        default="ed,hv,sdr,ndr",
        help="comma-separated subset of ed,gd,hv,sdr,ndr (default: ed,hv,sdr,ndr)",
    )
    add_fold(p, required=False)
    p.add_argument("--filter-front", action="store_true", help="drop dominated front points first")
    p.add_argument("--format", choices=REPORT_FORMATS, default="csv")
    p.add_argument("--out", required=True, help="output report path")
    p.set_defaults(handler=_cmd_compare)

    p = sub.add_parser("report", help="render a saved csv report as a table")
    p.add_argument("--in", dest="input", required=True, help="report csv")
    p.add_argument("--format", choices=REPORT_FORMATS, default="markdown")
    p.add_argument("--out", required=True, help="output path")
    p.set_defaults(handler=_cmd_report)

    p = sub.add_parser("fbeta-plot", help="preference-sweep figure per dataset")
    p.add_argument("--front", required=True, help="front counts csv")
    p.add_argument("--refs", required=True, help="reference counts csv")
    add_fold(p, required=True)
    p.add_argument("--beta-min", type=float, default=0.1)
    p.add_argument("--beta-max", type=float, default=10.0)
    p.add_argument("--beta-count", type=int, default=201)
    p.add_argument("--out", required=True, help="output directory for <dataset>_fbeta.svg")
    p.set_defaults(handler=_cmd_fbeta_plot)

    p = sub.add_parser("region-plot", help="hypervolume or dominance region figure per dataset")
    p.add_argument("--front", required=True, help="front results csv")
    p.add_argument("--refs", required=True, help="reference results csv")
    p.add_argument("--payload", choices=("counts", "objectives"), default="counts")
    p.add_argument(
        "--negate",
        default=None,
        help="objective columns to sign-flip on load (minimization criteria), e.g. obj_2",
    )
    p.add_argument("--mode", choices=REGION_MODES, required=True)
    add_fold(p, required=True)
    p.add_argument("--ref-method", default=None, help="reference method to plot against")
    p.add_argument("--filter-front", action="store_true", help="drop dominated front points first")
    p.add_argument("--out", required=True, help="output directory for <dataset>_region-<mode>.svg")
    p.set_defaults(handler=_cmd_region_plot)

    p = sub.add_parser("isocurves", help="level sets of an aggregate metric")
    p.add_argument("--metric", choices=ISOCURVE_METRICS, required=True)
    p.add_argument("--levels", required=True, help="comma-separated levels in (0, 1)")
    p.add_argument("--out", required=True, help="output svg path")
    p.set_defaults(handler=_cmd_isocurves)

    p = sub.add_parser("datasets", help="dataset characteristics with imbalance ratios")
    p.add_argument("--in", dest="input", required=True, help="datasets csv")
    p.add_argument("--format", choices=REPORT_FORMATS, default="markdown")
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.set_defaults(handler=_cmd_datasets)

    return parser


def run(argv: list[str] | None = None) -> int:
    """Parse argv and execute one subcommand; returns the exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.handler(args)
    except ParseError as exc:
        return _fail(str(exc))
    except (ValueError, OSError) as exc:
        return _fail(str(exc))


def main() -> None:
    sys.exit(run(sys.argv[1:]))
