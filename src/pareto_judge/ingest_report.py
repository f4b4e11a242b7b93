"""CSV ingestion of experiment results, fold aggregation, and report tables.

File schemas (comma-separated, UTF-8, LF, dot decimal point, never quoted;
identifiers restricted to ``[A-Za-z0-9_-]``):

- counts:     ``dataset,method,fold,solution_id,tp,fn,fp,tn``
- objectives: ``dataset,method,fold,solution_id,obj_1,...,obj_M``
- datasets:   ``name,n_features,n_samples,n_minority``
- report:     ``indicator,reference_method,dataset,mean,std,fold_count``

Integer fields are ASCII digits ``[0-9]+`` with a value below 2**63, and the
four counts of a row sum to at most 2**53; number fields match
``-?[0-9]+(\\.[0-9]+)?([eE][-+]?[0-9]+)?`` and must be finite.

Every file is read whole (``_read_file``), and one row reader
(``_body_rows``) checks the lines of all four schemas, each given as its
(column name, check) pairs; ``_record_columns`` gives those of results
files. Counts and objectives bodies are first checked whole and read
straight into numpy columns (``_scan_body``): a counts body as one byte
array, by its comma and LF positions and each column's byte class, even
with one very long name; an objectives body by one regular expression over
LF-aligned chunks of about 64 KiB, then ``loadtxt``. The row reader
(``_parse_lines``) reads only a body that fails a check, to name its first
bad ``file:line``. ``parse_records`` negates the ``negate`` columns of the
table read. ``emit_records`` checks its lines the same way before writing,
and ``_table_text`` lays out every table written, as csv or markdown.
"""

from __future__ import annotations

import io
import itertools
import math
import re
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ._io import atomic_write_text
from .confusion_metrics import (
    ConfusionMatrix,
    _check_row,
    check_counts,
    counts_array,
    metric_table,
    objective_point_of,
)
from .indicators import INDICATOR_NAMES, _block_indicators
from .objective_space import ObjectivePoint, front_rows

__all__ = [
    "ParseError",
    "ExperimentRecord",
    "RecordTable",
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
    "PairedBlock",
    "pair_blocks",
    "aggregate",
    "render_report",
    "read_report_csv",
]

COUNTS_HEADER = ("dataset", "method", "fold", "solution_id", "tp", "fn", "fp", "tn")
DATASETS_HEADER = ("name", "n_features", "n_samples", "n_minority")
REPORT_HEADER = ("indicator", "reference_method", "dataset", "mean", "std", "fold_count")

DEFAULT_INDICATORS = ("ED", "HV", "SDR", "NDR")
POOLED_REFERENCE_LABEL = "pooled"

PAYLOAD_KINDS = ("counts", "objectives")
REPORT_FORMATS = ("csv", "markdown")

_IDENT = r"[A-Za-z0-9_-]+"
_UINT = r"[0-9]+"
_NUMBER = r"-?[0-9]+(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?"
_IDENT_RE = re.compile(_IDENT + r"\Z")
_UINT_RE = re.compile(_UINT + r"\Z")
_NUMBER_RE = re.compile(_NUMBER + r"\Z")
# rejected forms that still get a specific message
_NEGATIVE_RE = re.compile(r"-[0-9]+\Z")
_NON_FINITE_RE = re.compile(r"[-+]?(?:inf|infinity|nan)\Z", re.IGNORECASE)

INT_LIMIT = 2**63  # integer fields must stay below it, so they fit int64


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


def _factorize(names: Sequence[str] | Sequence[bytes]) -> tuple[tuple, np.ndarray]:
    """Sorted distinct names, and each name's index into them."""
    ordered = sorted(set(names))
    index = {name: i for i, name in enumerate(ordered)}
    codes = np.fromiter(map(index.__getitem__, names), dtype=np.int64, count=len(names))
    return tuple(ordered), codes


def _compact(names: tuple[str, ...], codes: np.ndarray) -> tuple[tuple[str, ...], np.ndarray]:
    used, codes = np.unique(codes, return_inverse=True)
    return tuple(names[i] for i in used.tolist()), codes


def _run_starts(sorted_keys: Sequence[np.ndarray]) -> np.ndarray:
    """Positions where a run of equal rows starts in lexicographically sorted keys."""
    new = np.zeros(len(sorted_keys[0]), dtype=np.bool_)
    new[:1] = True
    for key in sorted_keys:
        new[1:] |= key[1:] != key[:-1]
    return np.flatnonzero(new)


@dataclass(frozen=True, eq=False)
class RecordTable(Sequence):
    """The records of one file as columns, in file order.

    ``dataset`` and ``method`` hold indices into ``dataset_names`` and
    ``method_names``, the sorted names present. ``values`` holds int64
    (tp, fn, fp, tn) rows for the counts payload and float64 objective rows,
    already negated, for the objectives payload. Indexing and iteration build
    ExperimentRecord values, so the table serves wherever a sequence of
    records is expected; batch code reads the columns.
    """

    dataset_names: tuple[str, ...]
    method_names: tuple[str, ...]
    dataset: np.ndarray
    method: np.ndarray
    fold: np.ndarray
    solution_id: np.ndarray
    values: np.ndarray

    @classmethod
    def from_records(cls, records: Sequence[ExperimentRecord]) -> RecordTable:
        """The records as a table; a table is returned as it is."""
        if isinstance(records, RecordTable):
            return records
        if all(isinstance(rec.payload, ConfusionMatrix) for rec in records):
            values = counts_array([rec.payload for rec in records])
        else:
            coords = [rec.point().coords for rec in records]
            dims = sorted({len(c) for c in coords})
            if len(dims) > 1:
                raise ValueError(f"records mix dimensionalities: {dims}")
            values = np.array(coords, dtype=np.float64)
        return _table(
            [rec.dataset for rec in records],
            [rec.method for rec in records],
            [rec.fold for rec in records],
            [rec.solution_id for rec in records],
            values,
        )

    @property
    def is_counts(self) -> bool:
        return self.values.dtype.kind == "i"

    @property
    def dim(self) -> int:
        """Dimensionality of the objective points."""
        return 2 if self.is_counts else self.values.shape[1]

    def points(self) -> np.ndarray:
        """(n, dim) objective points: (TPR, TNR) for counts, the objectives otherwise."""
        return metric_table(self.values)[0][:, :2].copy() if self.is_counts else self.values

    def take(self, rows: np.ndarray) -> RecordTable:
        """The rows selected by a boolean mask or an index array, in that order."""
        dataset_names, dataset = _compact(self.dataset_names, self.dataset[rows])
        method_names, method = _compact(self.method_names, self.method[rows])
        return RecordTable(
            dataset_names,
            method_names,
            dataset,
            method,
            self.fold[rows],
            self.solution_id[rows],
            self.values[rows],
        )

    def groups(self, *columns: str) -> list[np.ndarray]:
        """Row indices of each distinct value of the named columns, in key order.

        Within a group rows are ordered by solution_id, ties in file order.
        """
        if not len(self):
            return []
        keys = [getattr(self, name) for name in columns]
        order = np.lexsort([self.solution_id, *keys[::-1]])
        return np.split(order, _run_starts([key[order] for key in keys])[1:])

    def _has_duplicate_keys(self) -> bool:
        keys = [self.dataset, self.method, self.fold, self.solution_id]
        order = np.lexsort(keys[::-1])
        return len(self) > 0 and len(_run_starts([key[order] for key in keys])) < len(self)

    def __len__(self) -> int:
        return len(self.fold)

    def __iter__(self):
        if self.is_counts:
            payloads = (ConfusionMatrix(*row) for row in self.values.tolist())
        else:
            payloads = (ObjectivePoint(tuple(row)) for row in self.values.tolist())
        columns = (self.dataset.tolist(), self.method.tolist(), self.fold.tolist())
        for d, m, fold, solution_id, payload in zip(
            *columns, self.solution_id.tolist(), payloads
        ):
            yield ExperimentRecord(
                self.dataset_names[d], self.method_names[m], fold, solution_id, payload
            )

    def __getitem__(self, index):
        rows = np.arange(len(self))[index]
        if isinstance(index, slice):
            return self.take(rows)
        return next(iter(self.take(rows[None])))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


def _table(datasets, methods, folds, solution_ids, values: np.ndarray) -> RecordTable:
    dataset_names, dataset = _factorize(datasets)
    method_names, method = _factorize(methods)
    return RecordTable(
        dataset_names,
        method_names,
        dataset,
        method,
        np.asarray(folds, dtype=np.int64),
        np.asarray(solution_ids, dtype=np.int64),
        values,
    )


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
    if not _UINT_RE.match(value):
        if _NEGATIVE_RE.match(value) and int(value) < 0:
            raise ParseError(
                path, line, f"column {column}: must be non-negative, got {int(value)}"
            )
        raise ParseError(path, line, f"column {column}: expected an integer, got {value!r}")
    parsed = int(value)
    if parsed >= INT_LIMIT:
        raise ParseError(path, line, f"column {column}: must be below 2**63, got {parsed}")
    return parsed


def _check_float(value: str, path: str, line: int, column: str) -> float:
    if _NUMBER_RE.match(value):
        parsed = float(value)
        if math.isfinite(parsed):
            return parsed
    elif not _NON_FINITE_RE.match(value):
        raise ParseError(path, line, f"column {column}: expected a number, got {value!r}")
    raise ParseError(path, line, f"column {column}: must be finite, got {value!r}")


def _split_line(raw: bytes, path: str, line: int) -> tuple[str, ...]:
    """Fields of one raw line, enforcing UTF-8, LF line endings and no quoting."""
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


def _check_header(header: tuple[str, ...], columns: Sequence[tuple], path: str) -> None:
    expected = tuple(name for name, _ in columns)
    if header != expected:
        raise ParseError(path, 1, f"expected header {','.join(expected)}, got {','.join(header)}")


def _read_file(path: str) -> tuple[tuple[str, ...], bytes]:
    """The header fields and the body bytes of a file."""
    with open(path, "rb") as handle:
        data = handle.read()
    if not data:
        raise ParseError(path, 1, "missing header row")
    first, _, body = data.partition(b"\n")
    return _split_line(first, path, 1), body


def _check_indicator(value: str, path: str, line: int, column: str) -> str:
    if value not in INDICATOR_NAMES:
        raise ParseError(path, line, f"column {column}: unknown indicator {value!r}")
    return value


_COUNTS_COLUMNS = tuple(zip(COUNTS_HEADER, (_check_ident, _check_ident, *[_check_int] * 6)))
_DATASET_COLUMNS = tuple(zip(DATASETS_HEADER, (_check_ident, *[_check_int] * 3)))
_REPORT_COLUMNS = tuple(
    zip(REPORT_HEADER, (_check_indicator, *[_check_ident] * 2, *[_check_float] * 2, _check_int))
)


def _body_rows(
    body: bytes, path: str, columns: Sequence[tuple[str, Callable]], key_width: int, what: str,
    make_row: Callable[[list], object],
) -> list:
    """``make_row(values)`` of every line of the body, its values checked by
    the (column name, check) pairs of the schema; raises ParseError at the
    first bad line.

    A line's first key_width columns are checked first, then its key against
    the earlier lines (a repeat is a duplicate ``what``), then its other
    columns. A ValueError from make_row is an error of that line.
    """
    lines = body.split(b"\n")
    if lines[-1] == b"":
        lines.pop()
    rows = []
    seen: set[tuple] = set()
    for line, raw in enumerate(lines, start=2):
        fields = _split_line(raw, path, line)
        if len(fields) != len(columns):
            raise ParseError(path, line, f"expected {len(columns)} fields, got {len(fields)}")
        checks = (check(text, path, line, name) for text, (name, check) in zip(fields, columns))
        key = tuple(itertools.islice(checks, key_width))
        if key in seen:
            raise ParseError(path, line, f"duplicate {what} {key if key_width > 1 else key[0]!r}")
        seen.add(key)
        values = [*key, *checks]
        try:
            rows.append(make_row(values))
        except ValueError as exc:
            raise ParseError(path, line, str(exc))
    return rows


def _record_columns(counts: bool, dim: int) -> tuple[tuple[str, Callable], ...]:
    """The (column name, check) pairs of a counts file or a dim-objective file."""
    if counts:
        return _COUNTS_COLUMNS
    return (*_COUNTS_COLUMNS[:4], *((f"obj_{i}", _check_float) for i in range(1, dim + 1)))


def _objectives_pattern(dim: int) -> bytes:
    """Every data line of the objectives schema, as one pattern over a run of
    whole lines: the last line may lack its LF, and no line may be empty."""
    row = ",".join([_IDENT, _IDENT, _UINT, _UINT] + [_NUMBER] * dim)
    return f"(?:{row}\n)*(?:{row})?".encode()


# bytes per objectives match; the matcher keeps about 2 kB of state per line
# it repeats over, so matching whole bodies took 30 times the file
_MATCH_CHUNK = 1 << 16


def _lines_match(pattern: re.Pattern, body: bytes) -> bool:
    """Whether the pattern fully matches every chunk of whole lines of the body,
    each chunk ending at the first LF from ``_MATCH_CHUNK`` bytes on."""
    start = 0
    while start < len(body):
        end = body.find(b"\n", start + _MATCH_CHUNK - 1) + 1 or len(body)
        if not pattern.fullmatch(body, start, end):
            return False
        start = end
    return True


_COMMA, _LF, _ZERO = ord(","), ord("\n"), ord("0")
# the bytes of [A-Za-z0-9_-], as a lookup table over byte values
_IDENT_BYTES = np.zeros(256, dtype=np.bool_)
_IDENT_BYTES[list(b"-0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ_abcdefghijklmnopqrstuvwxyz")] = True
_UINT_DIGITS = 19  # the most decimal digits that always fit uint64


def _ident_column(
    buf: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> tuple[tuple[str, ...], np.ndarray] | None:
    """Sorted distinct identifiers of the fields ``buf[starts:ends]`` and each
    field's index into them, or None if a field is empty or holds a byte
    outside ``[A-Za-z0-9_-]``.

    The fields are copied left-aligned into a zero-padded (n, width) array
    and factorized with ``np.unique`` on its rows as ``S`` strings. A column
    whose widest field would make that array larger than the body is
    factorized from the fields' own bytes instead.
    """
    widths = ends - starts
    longest = int(widths.max())
    if widths.min() < 1:
        return None
    if len(widths) * longest > buf.size:
        data = buf.data
        fields = [data[a:b].tobytes() for a, b in zip(starts.tolist(), ends.tolist())]
        names, codes = _factorize(fields)
        if not all(_IDENT_BYTES.take(np.frombuffer(name, np.uint8)).all() for name in names):
            return None
        return tuple(name.decode("ascii") for name in names), codes
    window = np.zeros((len(widths), longest), np.uint8)
    for k in range(longest):
        column = buf.take(starts + k, mode="clip")
        column[widths <= k] = 0
        window[:, k] = column
    # the zero padding is no identifier byte, so every field byte is one
    # exactly when the identifier bytes number the summed widths
    if np.count_nonzero(_IDENT_BYTES.take(window)) != widths.sum():
        return None
    # return_index makes np.unique argsort with its stable sort, which runs two
    # to three times faster than the default quicksort on a column of few names
    names, _, codes = np.unique(
        window.view(f"S{longest}").ravel(), return_index=True, return_inverse=True
    )
    return tuple(name.decode("ascii") for name in names.tolist()), codes


def _uint_column(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray | None:
    """int64 values of the digit fields ``buf[starts:ends]``, or None if a field
    is empty, holds a byte other than ``0-9`` or is 2**63 or more.

    Digits are accumulated from right-aligned windows, most significant
    first; 19 digits always fit uint64, so the bound is checked after. A
    field wider than 19 digits is valid only with zeros before its last 19,
    which are checked field by field.
    """
    widths = ends - starts
    if widths.min() < 1:
        return None
    for row in np.flatnonzero(widths > _UINT_DIGITS).tolist():
        if (buf[starts[row] : ends[row] - _UINT_DIGITS] != _ZERO).any():
            return None
    widths = np.minimum(widths, _UINT_DIGITS)
    value = np.zeros(len(ends), np.uint64)
    for k in range(int(widths.max()), 0, -1):
        digit = buf.take(ends - k, mode="clip") - np.uint8(_ZERO)
        digit[widths < k] = 0
        if digit.max() > 9:  # any other byte wraps around to above 9
            return None
        value = value * 10 + digit
    return None if (value >= INT_LIMIT).any() else value.astype(np.int64)


def _field_columns(body: bytes, n_fields: int, n_read: int) -> list | None:
    """The first n_read columns of an LF-terminated body of n_fields-field lines.

    Columns 0 and 1 come as ``_ident_column`` results and the others as
    ``_uint_column`` results. Returns None if a line has another number of
    fields or a field read fails its column's grammar.
    """
    buf = np.frombuffer(body, np.uint8)
    seps = np.flatnonzero((buf == _COMMA) | (buf == _LF))
    if len(seps) % n_fields:
        return None
    seps = seps.reshape(-1, n_fields)
    if not (buf[seps] == [_COMMA] * (n_fields - 1) + [_LF]).all():
        return None
    line_starts = np.zeros(len(seps), np.int64)
    line_starts[1:] = seps[:-1, -1] + 1
    columns = []
    for j in range(n_read):
        read = _ident_column if j < 2 else _uint_column
        column = read(buf, seps[:, j - 1] + 1 if j else line_starts, seps[:, j])
        if column is None:
            return None
        columns.append(column)
    return columns


def _scan_body(body: bytes, payload_kind: str, dim: int) -> RecordTable | None:
    """The whole body checked at once and read into columns.

    Returns None when any check fails; the line-by-line parse then names the
    first bad line. Accepts exactly what ``_parse_lines`` accepts.
    """
    counts = payload_kind == "counts"
    if not counts and not _lines_match(re.compile(_objectives_pattern(dim)), body):
        return None
    if not body:
        return _table((), (), (), (), np.zeros((0, dim), np.int64 if counts else np.float64))
    if not body.endswith(b"\n"):
        body += b"\n"
    n_fields = 4 + dim
    columns = _field_columns(body, n_fields, n_fields if counts else 4)
    if columns is None:
        return None
    (dataset_names, dataset), (method_names, method), fold, solution_id, *payload = columns
    if counts:
        values = np.stack(payload, axis=1)
        try:
            check_counts(values)
        except ValueError:
            return None
    else:
        values = np.loadtxt(
            io.BytesIO(body), delimiter=",", usecols=range(4, n_fields), ndmin=2, comments=None
        )
        if not np.isfinite(values).all():
            return None
    table = RecordTable(dataset_names, method_names, dataset, method, fold, solution_id, values)
    return None if table._has_duplicate_keys() else table


def _counts_row(values: list) -> list:
    _check_row(values[4:])
    return values


def _parse_lines(body: bytes, path: str, payload_kind: str, dim: int) -> RecordTable:
    """The body parsed one line at a time; raises ParseError at the first bad line."""
    counts = payload_kind == "counts"
    columns = _record_columns(counts, dim)
    rows = _body_rows(body, path, columns, 4, "record key", _counts_row if counts else list)
    values = np.array([row[4:] for row in rows], dtype=np.int64 if counts else np.float64)
    return _table(*([row[i] for row in rows] for i in range(4)), values.reshape(len(rows), dim))


def _body_table(body: bytes, path: str, payload_kind: str, dim: int) -> RecordTable:
    """The body read by ``_scan_body``, or by ``_parse_lines`` to name the
    first bad line when the whole-body check fails."""
    table = _scan_body(body, payload_kind, dim)
    return _parse_lines(body, path, payload_kind, dim) if table is None else table


def parse_records(path: str, payload_kind: str, negate: Sequence[str] = ()) -> RecordTable:
    """Parse an experiment results file into a table of validated records.

    payload_kind selects the schema: 'counts' rows carry confusion-matrix
    counts, 'objectives' rows carry raw criterion values. Duplicate
    (dataset, method, fold, solution_id) keys are rejected. Objective
    columns named in negate are sign-flipped on load, turning minimization
    criteria into the maximization orientation used everywhere else; they are
    negated once the whole body has been read. The table is a sequence of
    ExperimentRecord values in file order.
    """
    if payload_kind not in PAYLOAD_KINDS:
        raise ValueError(f"payload_kind must be one of {PAYLOAD_KINDS}, got {payload_kind!r}")
    counts = payload_kind == "counts"
    if negate and counts:
        raise ValueError("negate applies only to the objectives payload")
    header, body = _read_file(path)
    dim = 4 if counts else max(len(header) - 4, 1)
    columns = _record_columns(counts, dim)
    _check_header(header, columns, path)
    objectives = [name for name, _ in columns[4:]]
    unknown = set(negate) - set(objectives)
    if unknown:
        raise ValueError(f"negate names unknown objective columns: {sorted(unknown)}")
    table = _body_table(body, path, payload_kind, dim)
    flip = [i for i, name in enumerate(objectives) if name in negate]
    table.values[:, flip] = -table.values[:, flip]
    return table


def emit_records(
    records: Sequence[ExperimentRecord], path: str, payload_kind: str | None = None
) -> None:
    """Write records back out in the schema matching their payload kind.

    The kind is inferred from the records; pass payload_kind explicitly only
    to emit a header-only file from an empty sequence. The lines are checked
    as ``parse_records`` checks them before anything is written: a record it
    would reject raises its ParseError, naming path and line, and records it
    would not read back equal raise ValueError; either way no file is written.
    """
    if records:
        payload_kind = "counts" if isinstance(records[0].payload, ConfusionMatrix) else "objectives"
    elif payload_kind not in PAYLOAD_KINDS:
        raise ValueError("emitting an empty record list requires an explicit payload_kind")
    counts = payload_kind == "counts"
    if any(isinstance(rec.payload, ConfusionMatrix) != counts for rec in records):
        raise ValueError("cannot mix confusion counts and objective payloads in one file")
    dim = 4 if counts else records[0].payload.dim if records else 1
    rows = []
    for rec in records:
        m = rec.payload
        values = (m.tp, m.fn, m.fp, m.tn) if counts else m.coords
        rows.append((*map(str, rec.key), *map(repr, values)))
    text = _table_text([name for name, _ in _record_columns(counts, dim)], rows, "csv")
    if _body_table(text.partition("\n")[2].encode(), path, payload_kind, dim) != records:
        raise ValueError(f"{path}: records would read back changed: a field's type or a line break")
    atomic_write_text(path, text)


def parse_datasets(path: str) -> list[DatasetInfo]:
    """Parse a dataset characteristics file."""
    header, body = _read_file(path)
    _check_header(header, _DATASET_COLUMNS, path)
    return _body_rows(body, path, _DATASET_COLUMNS, 1, "dataset", lambda row: DatasetInfo(*row))


def _table_text(header: Sequence[str], rows: Iterable[Sequence[str]], fmt: str) -> str:
    """The header and rows of text fields as csv lines or as a markdown table."""
    if fmt == "csv":
        return "".join(",".join(row) + "\n" for row in (header, *rows))
    lines = ["| " + " | ".join(row) + " |" for row in (header, *rows)]
    lines.insert(1, "|" + " --- |" * len(header))
    return "\n".join(lines) + "\n"


def render_dataset_table(infos: Sequence[DatasetInfo], fmt: str) -> str:
    """Characteristics table with the imbalance ratio, as csv or markdown."""
    if fmt not in REPORT_FORMATS:
        raise ValueError(f"unknown format {fmt!r}; expected one of {REPORT_FORMATS}")
    if not infos:
        raise ValueError("no datasets to render")
    rows = [
        (d.name, str(d.n_features), str(d.n_samples), str(d.n_minority), f"{imbalance_ratio(d):.2f}")
        for d in infos
    ]
    return _table_text((*DATASETS_HEADER, "ir"), rows, fmt)


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


def _normalize_indicators(indicators: Iterable[str]) -> list[str]:
    requested = {name.upper() for name in indicators}
    unknown = requested - set(INDICATOR_NAMES)
    if unknown:
        raise ValueError(f"unknown indicators: {sorted(unknown)}; expected from {INDICATOR_NAMES}")
    if not requested:
        raise ValueError("at least one indicator must be requested")
    return [name for name in INDICATOR_NAMES if name in requested]


def _fold_stats(
    series: dict[tuple[str, str, str], list[float]],
) -> dict[tuple[str, str, str], ReportCell]:
    """Mean and population std of each key's fold values, in the order of series.

    Keys with the same fold count are stacked into one C-contiguous array, so
    each row is reduced by numpy's pairwise sum exactly as a 1-D array is.
    """
    by_count: dict[int, list[tuple[str, str, str]]] = {}
    for key, values in series.items():
        by_count.setdefault(len(values), []).append(key)
    cells: dict[tuple[str, str, str], ReportCell] = {}
    for count, keys in by_count.items():
        table = np.array([series[key] for key in keys], dtype=np.float64)
        stats = zip(keys, table.mean(axis=1).tolist(), table.std(axis=1).tolist())
        for key, mean, std in stats:
            cells[key] = ReportCell(mean=mean, std=std, fold_count=count)
    return {key: cells[key] for key in series}


# Largest stack of blocks evaluated at once, counted in front points times
# references; it bounds the (B, n, r) intermediates of _block_indicators.
_BATCH_ELEMENTS = 1 << 16


class PairedBlock(NamedTuple):
    """One (dataset, fold) of a front and the reference rows it is compared with."""

    dataset: str
    fold: int
    front_rows: np.ndarray  # ordered by solution_id
    methods: list[str]  # sorted reference methods
    ref_rows: list[int]  # the one row of each method


def pair_blocks(front: RecordTable, refs: RecordTable) -> tuple[str, list[PairedBlock]]:
    """The front's method and its (dataset, fold) blocks, in key order, with their references.

    Raises ValueError unless the front holds one method, both tables have
    one dimensionality, each reference method has one solution per
    (dataset, fold), and both tables cover the same (dataset, fold) pairs.
    """
    if len(front.method_names) != 1:
        methods = list(front.method_names)
        raise ValueError(f"front records must come from one method, got {methods}")
    dims = {front.dim, refs.dim}
    if len(dims) != 1:
        raise ValueError(f"front and reference records mix dimensionalities: {sorted(dims)}")
    # reference rows by (dataset, fold, method); lexsort keeps equal keys in file order
    order = np.lexsort((refs.method, refs.fold, refs.dataset))
    dataset, fold, method = refs.dataset[order], refs.fold[order], refs.method[order]
    same = (dataset[1:] == dataset[:-1]) & (fold[1:] == fold[:-1]) & (method[1:] == method[:-1])
    if same.any():
        row = order[1:][same].min()  # the first row that repeats an earlier row's key
        raise ValueError(
            f"reference method {refs.method_names[refs.method[row]]!r} has multiple solutions "
            f"for dataset {refs.dataset_names[refs.dataset[row]]!r} fold {refs.fold[row]}"
        )
    references: dict[tuple[str, int], tuple[list[str], list[int]]] = {}
    for rows in np.split(order, _run_starts([dataset, fold])[1:]) if len(order) else ():
        key = (refs.dataset_names[refs.dataset[rows[0]]], int(refs.fold[rows[0]]))
        methods = [refs.method_names[m] for m in refs.method[rows].tolist()]
        references[key] = (methods, rows.tolist())
    fronts = {
        (front.dataset_names[front.dataset[rows[0]]], int(front.fold[rows[0]])): rows
        for rows in front.groups("dataset", "fold")
    }
    if set(fronts) != set(references):
        missing = sorted(set(fronts) ^ set(references))
        raise ValueError(f"front and reference files cover different (dataset, fold) pairs: {missing}")
    blocks = [PairedBlock(*key, rows, *references[key]) for key, rows in fronts.items()]
    return front.method_names[0], blocks


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
    exactly as given. Records may be RecordTable values or any sequence of
    ExperimentRecord; either way they are paired by ``pair_blocks`` and each
    (dataset, fold) block is evaluated as arrays.
    """
    if not front_records:
        raise ValueError("no front records to aggregate")
    if not reference_records:
        raise ValueError("no reference records to aggregate")
    ordered = _normalize_indicators(indicators)
    front = RecordTable.from_records(front_records)
    refs = RecordTable.from_records(reference_records)
    moo_method, blocks = pair_blocks(front, refs)

    points, ref_points = front.points(), refs.points()
    fronts = [points[block.front_rows] for block in blocks]
    if filter_front:
        fronts = [front_rows(front_points) for front_points in fronts]

    # blocks of equal (n, r) shape are stacked and evaluated together
    by_shape: dict[tuple[int, int], list[int]] = {}
    for i, block in enumerate(blocks):
        by_shape.setdefault((len(fronts[i]), len(block.methods)), []).append(i)
    results: list[dict[str, list[float]]] = [{} for _ in blocks]
    for (n, r), members in by_shape.items():
        step = max(1, _BATCH_ELEMENTS // (n * r))
        for start in range(0, len(members), step):
            chunk = members[start : start + step]
            stack = np.stack([fronts[i] for i in chunk])
            ref_stack = ref_points[[blocks[i].ref_rows for i in chunk]]
            values = _block_indicators(stack, ref_stack, ordered)
            for name, block_values in values.items():
                for i, row in zip(chunk, block_values.tolist()):
                    results[i][name] = row

    # values per (indicator, reference label, dataset), appended in fold order
    series: dict[tuple[str, str, str], list[float]] = {}
    for block, values in zip(blocks, results):
        for name, block_values in values.items():
            labels = [POOLED_REFERENCE_LABEL] if name == "GD" else block.methods
            for label, value in zip(labels, block_values):
                series.setdefault((name, label, block.dataset), []).append(value)
    return ComparisonReport(moo_method=moo_method, cells=_fold_stats(series))


def _markdown_blocks(report: ComparisonReport) -> str:
    blocks: list[str] = []
    for indicator in report.indicators():
        scale = 1000.0 if indicator == "HV" else 1.0
        title = "HV (×10³)" if indicator == "HV" else indicator
        datasets = report.datasets(indicator)
        text = {
            key[1:]: f"{cell.mean * scale:.2f} ({cell.std * scale:.2f})"
            for key, cell in report.cells.items()
            if key[0] == indicator
        }
        rows = [
            (method, *(text.get((method, dataset), "-") for dataset in datasets))
            for method in report.reference_methods(indicator)
        ]
        table = _table_text(("reference", *datasets), rows, "markdown")
        blocks.append(f"## {title}\n\n{table}")
    return "\n".join(blocks)


def _report_csv(report: ComparisonReport) -> str:
    order = {name: i for i, name in enumerate(INDICATOR_NAMES)}
    cells = sorted(report.cells.items(), key=lambda item: (order[item[0][0]], *item[0][1:]))
    rows = [(*key, repr(c.mean), repr(c.std), str(c.fold_count)) for key, c in cells]
    return _table_text(REPORT_HEADER, rows, "csv")


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
    header, body = _read_file(path)
    _check_header(header, _REPORT_COLUMNS, path)
    rows = _body_rows(
        body, path, _REPORT_COLUMNS, 3, "report row",
        lambda row: (tuple(row[:3]), ReportCell(*row[3:])),
    )
    return ComparisonReport(moo_method="", cells=dict(rows))
