"""Command-line interface wiring ingestion, indicators, and figures together.

Exit codes: 0 on success, 1 on input or validation errors, 2 on usage
errors. Outputs are written atomically and only on success; identical
arguments and input files always produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from ._io import atomic_write_text
from .confusion_metrics import metric_table
from .fbeta_analysis import (
    BetaGrid,
    ISOCURVE_METRICS,
    REGION_MODES,
    fbeta_curves,
    fbeta_envelope,
    render_fbeta_plot,
    render_isocurves,
    render_region_plot,
)
from .indicators import INDICATOR_NAMES
from .ingest_report import (
    PAYLOAD_KINDS,
    REPORT_FORMATS,
    aggregate,
    pair_blocks,
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


@contextlib.contextmanager
def _naming_both_files(args: argparse.Namespace):
    """Prefix the front and reference paths to a ValueError that checks one against the other."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{args.front} with {args.refs}: {exc}") from None


def _cmd_metrics(args: argparse.Namespace) -> int:
    table = _load_records(args.input, "counts", "input", args.fold)
    values, defined = metric_table(table.values, (1.0,))
    degenerate = ~defined[:, :3].all(axis=1)  # TPR, TNR or PPV undefined
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
    with _naming_both_files(args):
        report = aggregate(front, refs, indicators, filter_front=args.filter_front)
    render_report(report, args.format, args.out)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    _require_file(args.input, "report")
    render_report(read_report_csv(args.input), args.format, args.out)
    return 0


def _cmd_fbeta_plot(args: argparse.Namespace) -> int:
    front = _load_records(args.front, "counts", "front", args.fold)
    refs = _load_records(args.refs, "counts", "reference", args.fold)
    grid = BetaGrid.log_spaced(args.beta_min, args.beta_max, args.beta_count)
    with _naming_both_files(args):
        moo_method, blocks = pair_blocks(front, refs)
    plots = []
    for block in blocks:
        curves = fbeta_curves(refs.values[block.ref_rows], grid, block.methods)
        members = front.values[block.front_rows]
        curves.append(fbeta_envelope(members, grid, label=f"{moo_method} envelope"))
        plots.append((os.path.join(args.out, f"{block.dataset}_fbeta.svg"), curves))
    os.makedirs(args.out, exist_ok=True)
    for path, curves in plots:
        render_fbeta_plot(curves, path)
    return 0


def _cmd_region_plot(args: argparse.Namespace) -> int:
    negate = _parse_negate(args.negate)
    front = _load_records(args.front, args.payload, "front", args.fold, negate)
    refs = _load_records(args.refs, args.payload, "reference", args.fold, negate)
    front_points, ref_points = front.points(), refs.points()
    # checked before the output directory is made, so a failed run leaves none
    if front_points.shape[1] != 2:
        raise ValueError(
            f"region plot requires 2 objectives, got a front of shape {front_points.shape}"
        )
    if ref_points.shape[1] != 2:
        raise ValueError(
            f"region plot requires 2 objectives, got a reference of shape {ref_points.shape[1:]}"
        )
    with _naming_both_files(args):
        _, blocks = pair_blocks(front, refs)
    plots = []
    for block in blocks:
        if args.ref_method is None and len(block.methods) > 1:
            raise ValueError(
                f"dataset {block.dataset!r} has several reference methods {block.methods}; "
                f"pick one with --ref-method"
            )
        method = block.methods[0] if args.ref_method is None else args.ref_method
        if method not in block.methods:
            raise ValueError(
                f"reference method {method!r} not present for dataset {block.dataset!r}"
            )
        points = front_points[block.front_rows]
        if args.filter_front:
            points = front_rows(points)
        path = os.path.join(args.out, f"{block.dataset}_region-{args.mode}.svg")
        plots.append((path, points, ref_points[block.ref_rows[block.methods.index(method)]]))
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
    p.add_argument("--payload", choices=PAYLOAD_KINDS, default="counts")
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
    p.add_argument("--payload", choices=PAYLOAD_KINDS, default="counts")
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
    except (ValueError, OSError) as exc:
        return _fail(str(exc))


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
