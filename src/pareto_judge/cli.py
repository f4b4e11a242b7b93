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
from .confusion_metrics import (
    DEFAULT_BETA_COUNT,
    DEFAULT_BETA_MAX,
    DEFAULT_BETA_MIN,
    ISOCURVE_METRICS,
)
from .indicators import INDICATOR_NAMES, REGION_MODES
from .ingest_report import (
    DEFAULT_INDICATORS,
    PAYLOAD_KINDS,
    REPORT_FORMATS,
    aggregate,
    pair_blocks,
    parse_datasets,
    parse_records,
    read_report_csv,
    render_dataset_table,
    render_metrics_table,
    render_report,
)
from .objective_space import front_rows


# e2ebench/spans.py traces these three calls by wrapping these names on this
# module, so they stay module functions that load the figure code when called.
# They become imports in the command bodies once the benchmark reads a trace
# that the program writes itself.
def fbeta_envelope(front_matrices, grid, label):
    from .fbeta_analysis import fbeta_envelope

    return fbeta_envelope(front_matrices, grid, label)


def render_fbeta_plot(curves, out):
    from .fbeta_analysis import render_fbeta_plot

    render_fbeta_plot(curves, out)


def render_region_plot(front, ref, mode, out):
    from .fbeta_analysis import render_region_plot

    render_region_plot(front, ref, mode, out)


def _require_file(path: str, role: str) -> None:
    if not os.path.isfile(path):
        raise ValueError(f"{role} file not found: {path}")


def _items(raw: str | None) -> list[str]:
    return [item.strip() for item in (raw or "").split(",") if item.strip()]


def _parse_indicator_list(raw: str) -> list[str]:
    names = _items(raw)
    if not names:
        raise ValueError(f"no indicators given in {raw!r}")
    unknown = sorted({name.upper() for name in names} - set(INDICATOR_NAMES))
    if unknown:
        raise ValueError(f"--indicators: unknown {unknown}; expected from {INDICATOR_NAMES}")
    return names


def _parse_level_list(raw: str) -> list[float]:
    try:
        levels = [float(item) for item in _items(raw)]
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


def _load_pair(args: argparse.Namespace, payload: str, negate: str | None = None):
    """The front and reference tables of a paired command, each cut to --fold when given."""
    columns = _items(negate)
    front = _load_records(args.front, payload, "front", args.fold, columns)
    return front, _load_records(args.refs, payload, "reference", args.fold, columns)


@contextlib.contextmanager
def _naming_both_files(args: argparse.Namespace):
    """Prefix the front and reference paths to a ValueError that checks one against the other."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{args.front} with {args.refs}: {exc}") from None


def _cmd_metrics(args: argparse.Namespace) -> int:
    table = _load_records(args.input, "counts", "input", args.fold)
    atomic_write_text(args.out, render_metrics_table(table))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    indicators = _parse_indicator_list(args.indicators)
    front, refs = _load_pair(args, args.payload, args.negate)
    with _naming_both_files(args):
        report = aggregate(front, refs, indicators, filter_front=args.filter_front)
    render_report(report, args.format, args.out)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    _require_file(args.input, "report")
    render_report(read_report_csv(args.input), args.format, args.out)
    return 0


def _cmd_fbeta_plot(args: argparse.Namespace) -> int:
    from .fbeta_analysis import BetaGrid, fbeta_curves

    front, refs = _load_pair(args, "counts")
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
    from .fbeta_analysis import check_region_operands

    front, refs = _load_pair(args, args.payload, args.negate)
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
        ref = ref_points[block.ref_rows[block.methods.index(method)]]
        check_region_operands(points, ref, args.mode)
        path = os.path.join(args.out, f"{block.dataset}_region-{args.mode}.svg")
        plots.append((path, points, ref))
    os.makedirs(args.out, exist_ok=True)
    for path, points, ref in plots:
        render_region_plot(points, ref, args.mode, path)
    return 0


def _cmd_isocurves(args: argparse.Namespace) -> int:
    from .fbeta_analysis import render_isocurves

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

    def add_pair(p: argparse.ArgumentParser, what: str, payload: bool) -> None:
        p.add_argument("--front", required=True, help=f"front {what} csv")
        p.add_argument("--refs", required=True, help=f"reference {what} csv")
        if payload:
            p.add_argument("--payload", choices=PAYLOAD_KINDS, default="counts")
            p.add_argument(
                "--negate",
                default=None,
                help="objective columns to sign-flip on load (minimization criteria), e.g. obj_2",
            )

    p = sub.add_parser("metrics", help="per-record base and aggregated metrics from counts")
    p.add_argument("--in", dest="input", required=True, help="counts csv")
    add_fold(p, required=False)
    p.add_argument("--out", required=True, help="output csv path")
    p.set_defaults(handler=_cmd_metrics)

    p = sub.add_parser("compare", help="aggregate front-vs-reference indicators over folds")
    add_pair(p, "results", payload=True)
    default = ",".join(DEFAULT_INDICATORS).lower()
    p.add_argument(
        "--indicators",
        default=default,
        help=f"comma-separated subset of {','.join(INDICATOR_NAMES).lower()} (default: {default})",
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
    add_pair(p, "counts", payload=False)
    add_fold(p, required=True)
    p.add_argument("--beta-min", type=float, default=DEFAULT_BETA_MIN)
    p.add_argument("--beta-max", type=float, default=DEFAULT_BETA_MAX)
    p.add_argument("--beta-count", type=int, default=DEFAULT_BETA_COUNT)
    p.add_argument("--out", required=True, help="output directory for <dataset>_fbeta.svg")
    p.set_defaults(handler=_cmd_fbeta_plot)

    p = sub.add_parser("region-plot", help="hypervolume or dominance region figure per dataset")
    add_pair(p, "results", payload=True)
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
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
