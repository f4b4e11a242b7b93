"""CSV ingestion of experiment results, fold aggregation, and report tables.

File schemas (comma-separated, UTF-8, LF, dot decimal point, never quoted;
identifiers restricted to ``[A-Za-z0-9_-]``):

- counts:     ``dataset,method,fold,solution_id,tp,fn,fp,tn``
- objectives: ``dataset,method,fold,solution_id,obj_1,...,obj_M``
- datasets:   ``name,n_features,n_samples,n_minority``
- report:     ``indicator,reference_method,dataset,mean,std,fold_count``
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from ._io import atomic_write_text
from .confusion_metrics import ConfusionMatrix, objective_point_of
from .indicators import INDICATOR_NAMES, evaluate_indicator
from .objective_space import ObjectivePoint, SolutionSet, pareto_front

__all__ = [
    "ParseError",
    "ExperimentRecord",
    "DatasetInfo",
    "ReportCell",
    "ComparisonReport",
    "DEFAULT_INDICATORS",
    "POOLED_REFERENCE_LABEL",
    "parse_records",
    "emit_records",
    "parse_datasets",
    "imbalance_ratio",
    "render_dataset_table",
    "aggregate",
    "render_report",
    "read_report_csv",
]

COUNTS_HEADER = ("dataset", "method", "fold", "solution_id", "tp", "fn", "fp", "tn")
KEY_HEADER = ("dataset", "method", "fold", "solution_id")
DATASETS_HEADER = ("name", "n_features", "n_samples", "n_minority")
REPORT_HEADER = ("indicator", "reference_method", "dataset", "mean", "std", "fold_count")

DEFAULT_INDICATORS = ("ED", "HV", "SDR", "NDR")
POOLED_REFERENCE_LABEL = "pooled"

REPORT_FORMATS = ("csv", "markdown")

_IDENT_RE = re.compile(r"[A-Za-z0-9_-]+\Z")


class ParseError(ValueError):
    """A malformed input file, pointing at the offending path and line."""

    def __init__(self, path: str, line: int, message: str) -> None:
        super().__init__(f"{path}:{line}: {message}")
        self.path = path
        self.line = line


@dataclass(frozen=True)
class ExperimentRecord:
    """One solution of one method on one fold of one dataset."""

    dataset: str
    method: str
    fold: int
    solution_id: int
    payload: ConfusionMatrix | ObjectivePoint

    @property
    def key(self) -> tuple[str, str, int, int]:
        return (self.dataset, self.method, self.fold, self.solution_id)

    def point(self) -> ObjectivePoint:
        if isinstance(self.payload, ConfusionMatrix):
            return objective_point_of(self.payload)
        return self.payload


@dataclass(frozen=True)
class DatasetInfo:
    """Size characteristics of a binary dataset with a minority class."""

    name: str
    n_features: int
    n_samples: int
    n_minority: int

    def __post_init__(self) -> None:
        if not _IDENT_RE.match(self.name):
            raise ValueError(f"dataset name must match [A-Za-z0-9_-]+, got {self.name!r}")
        if self.n_features < 1:
            raise ValueError(f"n_features must be positive, got {self.n_features}")
        if self.n_minority < 1:
            raise ValueError(f"n_minority must be positive, got {self.n_minority}")
        if 2 * self.n_minority > self.n_samples:
            raise ValueError(
                f"minority class of {self.name!r} exceeds half the samples "
                f"({self.n_minority} of {self.n_samples})"
            )


def imbalance_ratio(d: DatasetInfo) -> float:
    """Majority class size over minority class size."""
    return (d.n_samples - d.n_minority) / d.n_minority


def _check_ident(value: str, path: str, line: int, column: str) -> str:
    if not _IDENT_RE.match(value):
        raise ParseError(path, line, f"column {column}: invalid identifier {value!r}")
    return value


def _check_int(value: str, path: str, line: int, column: str) -> int:
    try:
        parsed = int(value)
    except ValueError:
        raise ParseError(path, line, f"column {column}: expected an integer, got {value!r}")
    if parsed < 0:
        raise ParseError(path, line, f"column {column}: must be non-negative, got {parsed}")
    return parsed


def _check_float(value: str, path: str, line: int, column: str) -> float:
    try:
        parsed = float(value)
    except ValueError:
        raise ParseError(path, line, f"column {column}: expected a number, got {value!r}")
    if not math.isfinite(parsed):
        raise ParseError(path, line, f"column {column}: must be finite, got {value!r}")
    return parsed


def _split_line(raw: bytes, path: str, line: int) -> tuple[str, ...]:
    """Fields of one raw line, enforcing UTF-8, LF line endings and no quoting.

    A tuple, not the list ``str.split`` returns: that list is over-allocated,
    which costs about 32 bytes a row on files held whole in memory.
    """
    try:
        text = raw.decode("utf-8").rstrip("\n")
    except UnicodeDecodeError as exc:
        raise ParseError(
            path, line, f"not valid UTF-8: byte 0x{raw[exc.start]:02x} at offset {exc.start}"
        )
    if "\r" in text:
        raise ParseError(path, line, "carriage return found; lines must end in LF only")
    if '"' in text:
        raise ParseError(path, line, "quote character found; fields are never quoted")
    return tuple(text.split(",")) if text else ()


def _read_rows(path: str, expected_header: Sequence[str] | None = None):
    """Return (line_number, row) for every data row after validating the header."""
    with open(path, "rb") as handle:
        lines = enumerate(handle, start=1)
        try:
            _, raw = next(lines)
        except StopIteration:
            raise ParseError(path, 1, "missing header row")
        header = _split_line(raw, path, 1)
        if expected_header is not None and tuple(header) != tuple(expected_header):
            raise ParseError(
                path, 1, f"expected header {','.join(expected_header)}, got {','.join(header)}"
            )
        rows = [(line, _split_line(raw, path, line)) for line, raw in lines]
    if expected_header is None:
        return header, rows
    return rows


def _objectives_header(header: Sequence[str], path: str) -> int:
    if tuple(header[:4]) != KEY_HEADER:
        raise ParseError(
            path, 1, f"expected header to start with {','.join(KEY_HEADER)}, got {','.join(header)}"
        )
    objectives = header[4:]
    if not objectives:
        raise ParseError(path, 1, "objectives schema needs at least one obj_i column")
    expected = [f"obj_{i}" for i in range(1, len(objectives) + 1)]
    if list(objectives) != expected:
        raise ParseError(path, 1, f"objective columns must be {','.join(expected)}")
    return len(objectives)


def parse_records(
    path: str, payload_kind: str, negate: Sequence[str] = ()
) -> list[ExperimentRecord]:
    """Parse an experiment results file into validated records.

    payload_kind selects the schema: 'counts' rows carry confusion-matrix
    counts, 'objectives' rows carry raw criterion values. Duplicate
    (dataset, method, fold, solution_id) keys are rejected. Objective
    columns named in negate are sign-flipped on load, turning minimization
    criteria into the maximization orientation used everywhere else.
    """
    if payload_kind not in ("counts", "objectives"):
        raise ValueError(f"payload_kind must be 'counts' or 'objectives', got {payload_kind!r}")
    if negate and payload_kind != "objectives":
        raise ValueError("negate applies only to the objectives payload")
    if payload_kind == "counts":
        rows = _read_rows(path, COUNTS_HEADER)
        n_fields = len(COUNTS_HEADER)
        dim = 4
        flip = ()
    else:
        header, rows = _read_rows(path)
        dim = _objectives_header(header, path)
        n_fields = 4 + dim
        known = {f"obj_{i}" for i in range(1, dim + 1)}
        unknown = set(negate) - known
        if unknown:
            raise ValueError(f"negate names unknown objective columns: {sorted(unknown)}")
        flip = tuple(f"obj_{i}" in set(negate) for i in range(1, dim + 1))

    records: list[ExperimentRecord] = []
    seen: set[tuple[str, str, int, int]] = set()
    for line, row in rows:
        if len(row) != n_fields:
            raise ParseError(path, line, f"expected {n_fields} fields, got {len(row)}")
        dataset = _check_ident(row[0], path, line, "dataset")
        method = _check_ident(row[1], path, line, "method")
        fold = _check_int(row[2], path, line, "fold")
        solution_id = _check_int(row[3], path, line, "solution_id")
        key = (dataset, method, fold, solution_id)
        if key in seen:
            raise ParseError(path, line, f"duplicate record key {key!r}")
        seen.add(key)
        if payload_kind == "counts":
            counts = [
                _check_int(row[4 + i], path, line, name)
                for i, name in enumerate(("tp", "fn", "fp", "tn"))
            ]
            try:
                payload: ConfusionMatrix | ObjectivePoint = ConfusionMatrix(*counts)
            except ValueError as exc:
                raise ParseError(path, line, str(exc))
        else:
            coords = tuple(
                -value if flip[i] else value
                for i, value in enumerate(
                    _check_float(row[4 + i], path, line, f"obj_{i + 1}") for i in range(dim)
                )
            )
            payload = ObjectivePoint(coords)
        records.append(ExperimentRecord(dataset, method, fold, solution_id, payload))
    return records


def emit_records(
    records: Sequence[ExperimentRecord], path: str, payload_kind: str | None = None
) -> None:
    """Write records back out in the schema matching their payload kind.

    The kind is inferred from the records; pass payload_kind explicitly only
    to emit a header-only file from an empty sequence.
    """
    if not records:
        if payload_kind == "counts":
            atomic_write_text(path, ",".join(COUNTS_HEADER) + "\n")
            return
        if payload_kind == "objectives":
            atomic_write_text(path, ",".join(KEY_HEADER) + ",obj_1\n")
            return
        raise ValueError("emitting an empty record list requires an explicit payload_kind")

    counts = isinstance(records[0].payload, ConfusionMatrix)
    seen: set[tuple[str, str, int, int]] = set()
    lines: list[str] = []
    dim: int | None = None
    for rec in records:
        if isinstance(rec.payload, ConfusionMatrix) != counts:
            raise ValueError("cannot mix confusion counts and objective payloads in one file")
        if rec.key in seen:
            raise ValueError(f"duplicate record key {rec.key!r}")
        seen.add(rec.key)
        for name, value in (("dataset", rec.dataset), ("method", rec.method)):
            if not _IDENT_RE.match(value):
                raise ValueError(f"{name} must match [A-Za-z0-9_-]+, got {value!r}")
        prefix = f"{rec.dataset},{rec.method},{rec.fold},{rec.solution_id}"
        if counts:
            m = rec.payload
            lines.append(f"{prefix},{m.tp},{m.fn},{m.fp},{m.tn}")
        else:
            if dim is None:
                dim = rec.payload.dim
            elif rec.payload.dim != dim:
                raise ValueError(f"mixed objective dimensionality: {dim} vs {rec.payload.dim}")
            values = ",".join(repr(c) for c in rec.payload.coords)
            lines.append(f"{prefix},{values}")
    if counts:
        header = ",".join(COUNTS_HEADER)
    else:
        header = ",".join(KEY_HEADER) + "," + ",".join(f"obj_{i + 1}" for i in range(dim or 1))
    atomic_write_text(path, header + "\n" + "\n".join(lines) + "\n")


def parse_datasets(path: str) -> list[DatasetInfo]:
    """Parse a dataset characteristics file."""
    rows = _read_rows(path, DATASETS_HEADER)
    infos: list[DatasetInfo] = []
    seen: set[str] = set()
    for line, row in rows:
        if len(row) != len(DATASETS_HEADER):
            raise ParseError(path, line, f"expected {len(DATASETS_HEADER)} fields, got {len(row)}")
        name = _check_ident(row[0], path, line, "name")
        if name in seen:
            raise ParseError(path, line, f"duplicate dataset {name!r}")
        seen.add(name)
        values = [
            _check_int(row[1 + i], path, line, column)
            for i, column in enumerate(("n_features", "n_samples", "n_minority"))
        ]
        try:
            infos.append(DatasetInfo(name, *values))
        except ValueError as exc:
            raise ParseError(path, line, str(exc))
    return infos


def render_dataset_table(infos: Sequence[DatasetInfo], fmt: str) -> str:
    """Characteristics table with the imbalance ratio, as csv or markdown."""
    if fmt not in REPORT_FORMATS:
        raise ValueError(f"unknown format {fmt!r}; expected one of {REPORT_FORMATS}")
    if not infos:
        raise ValueError("no datasets to render")
    header = ("name", "n_features", "n_samples", "n_minority", "ir")
    rows = [
        (d.name, str(d.n_features), str(d.n_samples), str(d.n_minority), f"{imbalance_ratio(d):.2f}")
        for d in infos
    ]
    if fmt == "csv":
        return "\n".join([",".join(header)] + [",".join(r) for r in rows]) + "\n"
    lines = ["| " + " | ".join(header) + " |", "|" + " --- |" * len(header)]
    lines += ["| " + " | ".join(r) + " |" for r in rows]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ReportCell:
    """Mean and population standard deviation of one indicator over folds."""

    mean: float
    std: float
    fold_count: int

    def __post_init__(self) -> None:
        if self.std < 0.0:
            raise ValueError(f"standard deviation must be non-negative, got {self.std}")
        if self.fold_count < 1:
            raise ValueError(f"fold_count must be at least 1, got {self.fold_count}")


@dataclass
class ComparisonReport:
    """Per (indicator, reference method, dataset) fold statistics."""

    moo_method: str
    cells: dict[tuple[str, str, str], ReportCell] = field(default_factory=dict)

    def indicators(self) -> list[str]:
        present = {key[0] for key in self.cells}
        return [name for name in INDICATOR_NAMES if name in present]

    def reference_methods(self, indicator: str) -> list[str]:
        return sorted({key[1] for key in self.cells if key[0] == indicator})

    def datasets(self, indicator: str) -> list[str]:
        return sorted({key[2] for key in self.cells if key[0] == indicator})

    @property
    def fold_count(self) -> int:
        return max(cell.fold_count for cell in self.cells.values())


def _normalize_indicators(indicators: Iterable[str]) -> list[str]:
    requested = {name.upper() for name in indicators}
    unknown = requested - set(INDICATOR_NAMES)
    if unknown:
        raise ValueError(f"unknown indicators: {sorted(unknown)}; expected from {INDICATOR_NAMES}")
    if not requested:
        raise ValueError("at least one indicator must be requested")
    return [name for name in INDICATOR_NAMES if name in requested]


def _cell_stats(values: list[float], fold_count: int) -> ReportCell:
    arr = np.asarray(values, dtype=np.float64)
    return ReportCell(mean=float(arr.mean()), std=float(arr.std()), fold_count=fold_count)


def aggregate(
    front_records: Sequence[ExperimentRecord],
    reference_records: Sequence[ExperimentRecord],
    indicators: Iterable[str] = DEFAULT_INDICATORS,
    *,
    filter_front: bool = False,
) -> ComparisonReport:
    """Cross-fold comparison of a solution front against reference methods.

    For every (dataset, reference method, fold) the front is compared to the
    reference point with each requested single-point indicator; statistics
    are the mean and population standard deviation over whatever folds are
    present. GD, when requested, is computed against the pooled set of all
    reference points of the fold and reported under the synthetic reference
    label 'pooled'. filter_front drops dominated front points first, which
    changes the denominators of SDR and NDR; fronts are otherwise used
    exactly as given.
    """
    if not front_records:
        raise ValueError("no front records to aggregate")
    if not reference_records:
        raise ValueError("no reference records to aggregate")
    ordered = _normalize_indicators(indicators)

    moo_methods = sorted({rec.method for rec in front_records})
    if len(moo_methods) != 1:
        raise ValueError(f"front records must come from one method, got {moo_methods}")
    moo_method = moo_methods[0]

    dims = {rec.point().dim for rec in front_records} | {
        rec.point().dim for rec in reference_records
    }
    if len(dims) != 1:
        raise ValueError(f"front and reference records mix dimensionalities: {sorted(dims)}")

    fronts: dict[tuple[str, int], SolutionSet] = {}
    grouped: dict[tuple[str, int], list[ExperimentRecord]] = {}
    for rec in front_records:
        grouped.setdefault((rec.dataset, rec.fold), []).append(rec)
    for key, group in grouped.items():
        group.sort(key=lambda rec: rec.solution_id)
        front = SolutionSet(moo_method, tuple(rec.point() for rec in group))
        fronts[key] = pareto_front(front) if filter_front else front

    ref_points: dict[tuple[str, str, int], ObjectivePoint] = {}
    for rec in reference_records:
        key = (rec.dataset, rec.method, rec.fold)
        if key in ref_points:
            raise ValueError(
                f"reference method {rec.method!r} has multiple solutions for "
                f"dataset {rec.dataset!r} fold {rec.fold}"
            )
        ref_points[key] = rec.point()

    front_pairs = set(fronts)
    ref_pairs = {(dataset, fold) for dataset, _, fold in ref_points}
    if front_pairs != ref_pairs:
        missing = sorted(front_pairs ^ ref_pairs)
        raise ValueError(f"front and reference files cover different (dataset, fold) pairs: {missing}")

    datasets = sorted({dataset for dataset, _ in front_pairs})
    methods = sorted({method for _, method, _ in ref_points})
    folds_by_dataset = {
        dataset: sorted({fold for d, fold in front_pairs if d == dataset}) for dataset in datasets
    }

    cells: dict[tuple[str, str, str], ReportCell] = {}
    point_indicators = [name for name in ordered if name != "GD"]
    for dataset in datasets:
        folds = folds_by_dataset[dataset]
        for method in methods:
            method_folds = [fold for fold in folds if (dataset, method, fold) in ref_points]
            if not method_folds:
                continue
            for name in point_indicators:
                values = [
                    evaluate_indicator(
                        name,
                        fronts[(dataset, fold)],
                        SolutionSet(method, (ref_points[(dataset, method, fold)],)),
                    ).value
                    for fold in method_folds
                ]
                cells[(name, method, dataset)] = _cell_stats(values, len(values))
        if "GD" in ordered:
            values = []
            for fold in folds:
                pooled = SolutionSet(
                    POOLED_REFERENCE_LABEL,
                    tuple(
                        ref_points[(dataset, method, fold)]
                        for method in methods
                        if (dataset, method, fold) in ref_points
                    ),
                )
                values.append(evaluate_indicator("GD", fronts[(dataset, fold)], pooled).value)
            cells[("GD", POOLED_REFERENCE_LABEL, dataset)] = _cell_stats(values, len(values))

    return ComparisonReport(moo_method=moo_method, cells=cells)


def _markdown_blocks(report: ComparisonReport) -> str:
    blocks: list[str] = []
    for indicator in report.indicators():
        scale = 1000.0 if indicator == "HV" else 1.0
        title = "HV (×10³)" if indicator == "HV" else indicator
        datasets = report.datasets(indicator)
        lines = [f"## {title}", ""]
        lines.append("| reference | " + " | ".join(datasets) + " |")
        lines.append("|" + " --- |" * (len(datasets) + 1))
        for method in report.reference_methods(indicator):
            cells = []
            for dataset in datasets:
                cell = report.cells.get((indicator, method, dataset))
                if cell is None:
                    cells.append("-")
                else:
                    cells.append(f"{cell.mean * scale:.2f} ({cell.std * scale:.2f})")
            lines.append(f"| {method} | " + " | ".join(cells) + " |")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def _report_csv(report: ComparisonReport) -> str:
    lines = [",".join(REPORT_HEADER)]
    order = {name: i for i, name in enumerate(INDICATOR_NAMES)}
    for (indicator, method, dataset), cell in sorted(
        report.cells.items(), key=lambda item: (order[item[0][0]], item[0][1], item[0][2])
    ):
        lines.append(
            f"{indicator},{method},{dataset},{cell.mean!r},{cell.std!r},{cell.fold_count}"
        )
    return "\n".join(lines) + "\n"


def render_report(report: ComparisonReport, fmt: str, out: str) -> None:
    """Write the report as machine-readable csv or publication-style markdown blocks.

    The csv format carries raw full-precision values in the report schema.
    The markdown format emits one block per indicator with reference methods
    as rows, datasets as columns, and 'mean (std)' cells rounded to two
    decimals; HV cells are presented scaled by 10^3.
    """
    if fmt not in REPORT_FORMATS:
        raise ValueError(f"unknown format {fmt!r}; expected one of {REPORT_FORMATS}")
    if not report.cells:
        raise ValueError("cannot render an empty report")
    text = _report_csv(report) if fmt == "csv" else _markdown_blocks(report)
    atomic_write_text(out, text)


def read_report_csv(path: str) -> ComparisonReport:
    """Load a report previously written in the csv format."""
    rows = _read_rows(path, REPORT_HEADER)
    cells: dict[tuple[str, str, str], ReportCell] = {}
    for line, row in rows:
        if len(row) != len(REPORT_HEADER):
            raise ParseError(path, line, f"expected {len(REPORT_HEADER)} fields, got {len(row)}")
        indicator = row[0]
        if indicator not in INDICATOR_NAMES:
            raise ParseError(path, line, f"column indicator: unknown indicator {indicator!r}")
        method = _check_ident(row[1], path, line, "reference_method")
        dataset = _check_ident(row[2], path, line, "dataset")
        mean = _check_float(row[3], path, line, "mean")
        std = _check_float(row[4], path, line, "std")
        fold_count = _check_int(row[5], path, line, "fold_count")
        key = (indicator, method, dataset)
        if key in cells:
            raise ParseError(path, line, f"duplicate report row {key!r}")
        try:
            cells[key] = ReportCell(mean, std, fold_count)
        except ValueError as exc:
            raise ParseError(path, line, str(exc))
    return ComparisonReport(moo_method="", cells=cells)
