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
(``_body_rows``) holds the line checks of all four schemas, each given as
its (column name, check) pairs; ``_record_columns`` gives those of results
files. It reads the datasets and report files line by line. Counts and
objectives bodies are read once into numpy columns (``_body_table``): the
comma and LF positions give each line's field count and each field's bytes,
and each column reader returns a mask of the fields that fail its grammar
(identifier and integer bytes, and numbers through a byte automaton); then
the counts row rule, finite objectives (read by ``loadtxt``) and repeated
keys flag rows too. The line checks then run on the first flagged line
alone, so an error costs about one read and names its ``file:line``.
``parse_records`` negates the ``negate`` columns of the table read.
``emit_records`` checks its lines the same way before writing, and
``_table_text`` lays out every table written, as csv or markdown.
Records and table columns convert in one place, ``_record_fields``, for
``RecordTable.from_records``, iteration and equality and ``emit_records``;
it decodes a table's keys through ``_key_columns``, which the metrics table
reads alone.
"""

from __future__ import annotations

import io
import itertools
import math
import re
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ._io import atomic_write_text
from .confusion_metrics import (
    ConfusionMatrix,
    _bad_count_rows,
    _check_row,
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
    "render_metrics_table",
    "PairedBlock",
    "pair_blocks",
    "aggregate",
    "render_report",
    "read_report_csv",
]

COUNTS_HEADER = ("dataset", "method", "fold", "solution_id", "tp", "fn", "fp", "tn")
DATASETS_HEADER = ("name", "n_features", "n_samples", "n_minority")
METRICS_HEADER = (*COUNTS_HEADER[:4], "tpr", "tnr", "ppv", "bac", "gmean", "f1", "degenerate")
REPORT_HEADER = ("indicator", "reference_method", "dataset", "mean", "std", "fold_count")

DEFAULT_INDICATORS = ("ED", "HV", "SDR", "NDR")
POOLED_REFERENCE_LABEL = "pooled"

PAYLOAD_KINDS = ("counts", "objectives")
REPORT_FORMATS = ("csv", "markdown")

_IDENT_RE = re.compile(r"[A-Za-z0-9_-]+\Z")
_UINT_RE = re.compile(r"[0-9]+\Z")
_NUMBER_RE = re.compile(r"-?[0-9]+(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?\Z")
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
    records is expected; equality and batch code read the columns.
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
        """The records as a table; a table is returned as it is.

        Raises ValueError when the records mix confusion counts and objective
        points or objective dimensionalities, when a fold or solution_id is not
        an int in [0, 2**63), or when a (dataset, method, fold, solution_id)
        key repeats.
        """
        if isinstance(records, RecordTable):
            return records
        kinds, datasets, methods, folds, solution_ids, values = _record_fields(records)
        objectives = _payload_kind(kinds) == "objectives"
        dims = sorted({len(row) for row in values}) or [4]  # no records make a counts table
        if len(dims) > 1:
            raise ValueError(f"records mix dimensionalities: {dims}")
        for name, column in (("fold", folds), ("solution_id", solution_ids)):
            for value in column:
                if type(value) is not int or not 0 <= value < INT_LIMIT:
                    raise ValueError(f"{name} must be an int in [0, 2**63), got {value!r}")
        values = np.array(values, np.float64 if objectives else np.int64)
        table = _table(datasets, methods, folds, solution_ids, values.reshape(-1, dims[0]))
        row = _first_repeat([table.dataset, table.method, table.fold, table.solution_id])
        if row < len(table):
            key = (datasets[row], methods[row], folds[row], solution_ids[row])
            raise ValueError(f"duplicate record key {key!r}")
        return table

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

    def __len__(self) -> int:
        return len(self.fold)

    def __iter__(self):
        counts = self.is_counts
        _, *keys, values = _record_fields(self)
        for *key, row in zip(*keys, values):
            yield ExperimentRecord(*key, ConfusionMatrix(*row) if counts else ObjectivePoint(row))

    def __getitem__(self, index):
        rows = np.arange(len(self))[index]
        if isinstance(index, slice):
            return self.take(rows)
        return next(iter(self.take(rows[None])))

    def __eq__(self, other: object) -> bool:
        """Whether other holds equal records in the same order, read from the columns."""
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        # a table holds records only, so only another sequence is scanned for a non-record
        return (
            len(self) == len(other)
            and (isinstance(other, RecordTable) or all(type(r) is ExperimentRecord for r in other))
            and _record_fields(self) == _record_fields(other)
        )


def _record_fields(records: Iterable[ExperimentRecord]) -> tuple:
    """The payload classes present, then the dataset, method, fold,
    solution_id and payload-value columns as lists; a payload's values are
    its (tp, fn, fp, tn) or its coordinates, as a tuple. A table's are read
    from its columns, other records in one pass over them."""
    if isinstance(records, RecordTable):
        return (
            {ConfusionMatrix if records.is_counts else ObjectivePoint} if len(records) else set(),
            *_key_columns(records),
            list(map(tuple, records.values.tolist())),
        )
    rows = [
        (type(m := rec.payload), rec.dataset, rec.method, rec.fold, rec.solution_id,
         (m.tp, m.fn, m.fp, m.tn) if isinstance(m, ConfusionMatrix) else m.coords)
        for rec in records
    ]
    kinds, *columns = (list(column) for column in zip(*rows)) if rows else [[] for _ in range(6)]
    return (set(kinds), *columns)


def _key_columns(table: RecordTable) -> list[list]:
    """The table's dataset and method names, folds and solution_ids as lists."""
    return [
        [table.dataset_names[d] for d in table.dataset.tolist()],
        [table.method_names[m] for m in table.method.tolist()],
        table.fold.tolist(),
        table.solution_id.tolist(),
    ]


def _payload_kind(kinds: set[type]) -> str | None:
    """'counts' or 'objectives' for the payload classes present, None for none."""
    counts = {issubclass(kind, ConfusionMatrix) for kind in kinds}
    if len(counts) > 1:
        raise ValueError("cannot mix confusion counts and objective payloads in one file")
    return ("counts" if counts.pop() else "objectives") if counts else None


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
    make_row: Callable[[list], object], line: int = 2, seen: Iterable[tuple] = (),
) -> list:
    """``make_row(values)`` of every line of the body, numbered from ``line``,
    its values checked by the (column name, check) pairs of the schema; raises
    ParseError at the first bad line.

    A line's first key_width columns are checked first, then its key against
    ``seen`` and the earlier lines (a repeat is a duplicate ``what``), then
    its other columns. A ValueError from make_row is an error of that line.
    """
    lines = body.split(b"\n")
    if lines[-1] == b"":
        lines.pop()
    rows = []
    seen = set(seen)
    for line, raw in enumerate(lines, start=line):
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


def _counts_row(values: list) -> list:
    _check_row(values[4:])
    return values


_COMMA, _LF, _ZERO = ord(","), ord("\n"), ord("0")
# the bytes of [A-Za-z0-9_-], as a lookup table over byte values
_IDENT_BYTES = np.zeros(256, dtype=np.bool_)
_IDENT_BYTES[list(b"-0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ_abcdefghijklmnopqrstuvwxyz")] = True
_UINT_DIGITS = 19  # the most decimal digits that always fit uint64
_ACCEPT, _REJECT = 8, 9  # the last states of the number automaton


def _number_moves() -> np.ndarray:
    """The number grammar as an automaton over the bytes of a field and the
    separator after it: state s reads byte b into state ``moves[s + b]``.
    States are multiples of 256, so a move is one add and one lookup; the
    accepting and rejecting states keep whatever bytes follow."""
    digits = b"0123456789"
    grammar = {  # state: (bytes, next state) pairs; every other move rejects
        0: ((b"-", 1), (digits, 2)),  # start
        1: ((digits, 2),),  # after the sign
        2: ((digits, 2), (b".", 3), (b"eE", 5), (b",\n", 8)),  # integer digits
        3: ((digits, 4),),  # after the point
        4: ((digits, 4), (b"eE", 5), (b",\n", 8)),  # fraction digits
        5: ((b"-+", 6), (digits, 7)),  # after the exponent mark
        6: ((digits, 7),),  # after the exponent sign
        7: ((digits, 7), (b",\n", 8)),  # exponent digits
    }
    moves = np.full((_REJECT + 1, 256), _REJECT, np.intp)
    moves[_ACCEPT] = _ACCEPT
    for state, edges in grammar.items():
        for chars, target in edges:
            moves[state, list(chars)] = target
    return (moves * 256).ravel()


_NUMBER_MOVES = _number_moves()
_NUMBER_RUN = 64  # bytes read per field between drops of the finished fields


def _ident_column(
    buf: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """Sorted distinct fields ``buf[starts:ends]``, each field's index into
    them, and the mask of the fields that are empty or hold a byte outside
    ``[A-Za-z0-9_-]``. Names are decoded byte for character, which is ASCII
    for every field the mask passes.

    The fields are copied left-aligned into a zero-padded (n, width) array
    and factorized with ``np.unique`` on its rows as ``S`` strings. A column
    whose widest field would make that array larger than the body is
    factorized from the fields' own bytes instead.
    """
    widths = ends - starts
    longest = max(int(widths.max(initial=0)), 1)
    if len(widths) * longest > buf.size:
        data = buf.data
        fields = [data[a:b].tobytes() for a, b in zip(starts.tolist(), ends.tolist())]
        names, codes = _factorize(fields)
        bad_names = [not _IDENT_BYTES.take(np.frombuffer(name, np.uint8)).all() for name in names]
        bad = np.array(bad_names, np.bool_)[codes] | (widths < 1)
    else:
        window = np.zeros((len(widths), longest), np.uint8)
        for k in range(longest):
            column = buf.take(starts + k, mode="clip")
            column[widths <= k] = 0
            window[:, k] = column
        # the zero padding is no identifier byte, so a field is one exactly
        # when its row holds its width of identifier bytes, and every field
        # is when the whole window holds the summed widths
        ident = _IDENT_BYTES.take(window)
        whole = np.count_nonzero(ident) == widths.sum()
        held = widths if whole else np.count_nonzero(ident, axis=1)
        bad = (held != widths) | (widths < 1)
        # return_index makes np.unique argsort with its stable sort, which runs two
        # to three times faster than the default quicksort on a column of few names
        names, _, codes = np.unique(
            window.view(f"S{longest}").ravel(), return_index=True, return_inverse=True
        )
        names = names.tolist()
    return tuple(name.decode("latin-1") for name in names), codes, bad


def _uint_column(
    buf: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """int64 values of the digit fields ``buf[starts:ends]``, and the mask of
    the fields that are empty, hold a byte other than ``0-9`` or are 2**63
    or more.

    Digits are accumulated from right-aligned windows, most significant
    first; 19 digits always fit uint64, so the bound is checked after. A
    field wider than 19 digits is valid only with zeros before its last 19,
    which are checked field by field.
    """
    widths = ends - starts
    bad = widths < 1
    for row in np.flatnonzero(widths > _UINT_DIGITS).tolist():
        bad[row] = (buf[starts[row] : ends[row] - _UINT_DIGITS] != _ZERO).any()
    widths = np.minimum(widths, _UINT_DIGITS)
    value = np.zeros(len(ends), np.uint64)
    for k in range(int(widths.max(initial=0)), 0, -1):
        digit = buf.take(ends - k, mode="clip") - np.uint8(_ZERO)
        digit[widths < k] = 0
        bad |= digit > 9  # any other byte wraps around to above 9
        value = value * 10 + digit
    return value.astype(np.int64), bad | (value >= INT_LIMIT)


def _number_column(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The mask of the fields ``buf[starts:ends]`` that fail the number grammar.

    Every field moves the automaton of ``_NUMBER_MOVES`` one byte per step,
    from its first byte through the separator at ``ends``. The fields still
    unread are kept every ``_NUMBER_RUN`` steps, so one wide field costs its
    own bytes, not its width times the rows.
    """
    state = np.zeros(len(starts), np.intp)
    rows = np.arange(len(starts))
    run = min(int((ends - starts).max(initial=0)) + 1, _NUMBER_RUN)
    offset = 0
    while len(rows):
        at, moved = starts[rows] + offset, state[rows]
        for k in range(run):
            moved = _NUMBER_MOVES.take(moved + buf.take(at + k, mode="clip"))
        state[rows] = moved
        offset += run
        rows = rows[ends[rows] >= starts[rows] + offset]
    return state != _ACCEPT * 256


def _fields(seps: np.ndarray, line_starts: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(starts, ends) of the fields of each column, as contiguous arrays, from
    the (n, n_fields) separator positions of n lines and their starts."""
    ends = line_starts - 1
    for j in range(seps.shape[1]):
        starts, ends = ends + 1, seps[:, j].copy()
        yield starts, ends


def _first(mask: np.ndarray) -> int:
    """The index of the first True of the mask, or its length."""
    return int(mask.argmax()) if mask.any() else len(mask)


def _first_repeat(keys: Sequence[np.ndarray]) -> int:
    """The lowest row index whose key columns repeat an earlier row's, or the row count."""
    order = np.lexsort(keys[::-1])  # stable, so each run of equal keys starts at its first row
    starts = _run_starts([key[order] for key in keys])
    if len(starts) == len(order):
        return len(order)
    repeats = np.ones(len(order), np.bool_)
    repeats[starts] = False
    return int(order[repeats].min())


def _body_table(body: bytes, path: str, payload_kind: str, dim: int) -> RecordTable:
    """The body read into columns; raises ParseError at its first bad line.

    A line is bad when its separators give another field count, when a
    field fails its column's mask, when its counts fail the row rule or its
    objectives are not finite, or when its key repeats an earlier line's.
    The line checks of ``_body_rows`` then run on the first bad line alone,
    with its key as seen when a line before it holds it, so they raise its
    ParseError.
    """
    counts = payload_kind == "counts"
    if body and not body.endswith(b"\n"):
        body += b"\n"
    n_fields = 4 + dim
    buf = np.frombuffer(body, np.uint8)
    seps = np.flatnonzero((buf == _COMMA) | (buf == _LF))
    lfs = np.flatnonzero(buf[seps] == _LF)  # each line's LF, as an index into seps
    line_starts = np.append(0, seps[lfs] + 1)
    wrong = np.flatnonzero(np.diff(lfs, prepend=-1) != n_fields)
    n = int(wrong[0]) if len(wrong) else len(lfs)  # the lines before one of another field count
    fields = _fields(seps[: n * n_fields].reshape(n, n_fields), line_starts[:n])
    del seps  # held by fields alone, so freed once every column is read
    (dataset_names, dataset, bad), (method_names, method, bad_method) = (
        _ident_column(buf, *next(fields)) for _ in range(2)
    )
    (fold, bad_fold), (solution_id, bad_id) = (_uint_column(buf, *next(fields)) for _ in range(2))
    bad = bad | bad_method | bad_fold | bad_id
    if counts:
        values, masks = zip(*(_uint_column(buf, *field) for field in fields))
        values = np.stack(values, axis=1)
        first = _first(np.logical_or.reduce([bad, *masks, _bad_count_rows(values)]))
    else:  # the number fields column after column, through one run of the automaton
        starts, ends = map(np.concatenate, zip(*fields))
        first = _first(bad | _number_column(buf, starts, ends).reshape(dim, n).any(0))
        # the lines before the first bad field hold numbers only; one that
        # overflows reads as infinite
        values = np.zeros((0, dim))
        if first:
            values = np.loadtxt(
                io.BytesIO(body[: line_starts[first]]),
                delimiter=",", usecols=range(4, n_fields), ndmin=2, comments=None,
            )
        first = _first(~np.isfinite(values).all(axis=1))
    keys = [dataset, method, fold, solution_id]
    first = min(first, _first_repeat([key[:first] for key in keys]))
    if first < len(lfs):
        seen = []  # the earlier keys are distinct, so one can only be the line's own
        if first < n and np.logical_and.reduce([key[:first] == key[first] for key in keys]).any():
            d, m, f, s = (key[first].item() for key in keys)
            seen = [(dataset_names[d], method_names[m], f, s)]
        _body_rows(
            body[line_starts[first] : line_starts[first + 1]], path, _record_columns(counts, dim),
            4, "record key", _counts_row if counts else list, first + 2, seen,
        )
        raise AssertionError(f"{path}:{first + 2}: line passed the checks that flagged it")
    return RecordTable(dataset_names, method_names, dataset, method, fold, solution_id, values)


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
    if isinstance(negate, str):
        raise ValueError(f"negate takes a sequence of column names, not the string {negate!r}")
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
    fields = kinds, *keys, values = _record_fields(records)
    payload_kind = _payload_kind(kinds) or payload_kind
    if payload_kind not in PAYLOAD_KINDS:
        raise ValueError("emitting an empty record list requires an explicit payload_kind")
    counts = payload_kind == "counts"
    dim = 4 if counts else len(values[0]) if values else 1
    rows = [(*map(str, key), *map(repr, row)) for *key, row in zip(*keys, values)]
    text = _table_text([name for name, _ in _record_columns(counts, dim)], rows, "csv")
    back = _body_table(text.partition("\n")[2].encode(), path, payload_kind, dim)
    if _record_fields(back) != fields:
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


def render_metrics_table(table: RecordTable) -> str:
    """Each counts row's keys, metrics and degenerate flag (TPR, TNR or PPV undefined) as csv."""
    if not table.is_counts:
        raise ValueError("metrics need a counts table, got an objectives table")
    values, defined = metric_table(table.values, (1.0,))
    degenerate = 1 - defined[:, :3].all(axis=1)
    datasets, methods, *numbers = _key_columns(table)
    numbers += [c.tolist() for c in (*values.T, degenerate)]
    rows = [(d, m, *map(repr, rest)) for d, m, *rest in zip(datasets, methods, *numbers)]
    return _table_text(METRICS_HEADER, rows, "csv")


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
    if isinstance(indicators, str):
        raise ValueError(
            f"indicators takes a sequence of indicator names, not the string {indicators!r}"
        )
    requested = {name.upper() for name in indicators}
    unknown = requested - set(INDICATOR_NAMES)
    if unknown:
        raise ValueError(f"unknown indicators: {sorted(unknown)}; expected from {INDICATOR_NAMES}")
    if not requested:
        raise ValueError("at least one indicator must be requested")
    return [name for name in INDICATOR_NAMES if name in requested]


def _not_finite(key: tuple[str, str, str], what: str) -> ValueError:
    indicator, reference, dataset = key
    return ValueError(
        f"indicator {indicator} against reference {reference!r} on dataset {dataset!r} "
        f"is not finite: {what}"
    )


def _fold_stats(
    series: dict[tuple[str, str, str], list[float]],
) -> dict[tuple[str, str, str], ReportCell]:
    """Mean and population std of each key's fold values, in the order of series.

    Keys with the same fold count are stacked into one C-contiguous array, so
    each row is reduced by numpy's pairwise sum exactly as a 1-D array is.
    Raises ValueError naming a key whose mean or std overflows.
    """
    by_count: dict[int, list[tuple[str, str, str]]] = {}
    for key, values in series.items():
        by_count.setdefault(len(values), []).append(key)
    cells: dict[tuple[str, str, str], ReportCell] = {}
    for count, keys in by_count.items():
        table = np.array([series[key] for key in keys], dtype=np.float64)
        with np.errstate(over="ignore", invalid="ignore"):
            stats = zip(keys, table.mean(axis=1).tolist(), table.std(axis=1).tolist())
        for key, mean, std in stats:
            if not (math.isfinite(mean) and math.isfinite(std)):
                raise _not_finite(key, f"its fold mean is {mean!r} and std {std!r}")
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


def _blocks(table: RecordTable, within: np.ndarray) -> dict[tuple[str, int], np.ndarray]:
    """Row indices of each (dataset, fold) of the table, in key order, each
    block's rows ordered by the ``within`` column, ties in file order."""
    order = np.lexsort((within, table.fold, table.dataset))
    starts = _run_starts([table.dataset[order], table.fold[order]])
    return {
        (table.dataset_names[table.dataset[rows[0]]], int(table.fold[rows[0]])): rows
        for rows in (np.split(order, starts[1:]) if len(order) else ())
    }


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
    row = _first_repeat([refs.dataset, refs.fold, refs.method])
    if row < len(refs):
        raise ValueError(
            f"reference method {refs.method_names[refs.method[row]]!r} has multiple solutions "
            f"for dataset {refs.dataset_names[refs.dataset[row]]!r} fold {refs.fold[row]}"
        )
    fronts = _blocks(front, front.solution_id)
    references = _blocks(refs, refs.method)
    if set(fronts) != set(references):
        missing = sorted(set(fronts) ^ set(references))
        raise ValueError(f"front and reference files cover different (dataset, fold) pairs: {missing}")
    blocks = []
    for key, rows in fronts.items():
        ref_rows = references[key]
        methods = [refs.method_names[m] for m in refs.method[ref_rows].tolist()]
        blocks.append(PairedBlock(*key, rows, methods, ref_rows.tolist()))
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
            # an indicator that overflows comes back inf and is named below, by its cell
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
                key = (name, label, block.dataset)
                if not math.isfinite(value):
                    raise _not_finite(key, f"{value!r} on fold {block.fold}")
                series.setdefault(key, []).append(value)
    return ComparisonReport(moo_method=moo_method, cells=_fold_stats(series))


def _markdown_cell(key: tuple[str, str, str], cell: ReportCell, scale: float) -> str:
    """'mean (std)' of the cell scaled; ValueError naming the cell if the scaling overflows."""
    mean, std = cell.mean * scale, cell.std * scale
    if not (math.isfinite(mean) and math.isfinite(std)):
        what = f"its mean {cell.mean!r} and std {cell.std!r} overflow scaled by {scale:g}"
        raise _not_finite(key, what)
    return f"{mean:.2f} ({std:.2f})"


def _markdown_blocks(report: ComparisonReport) -> str:
    blocks: list[str] = []
    for indicator in report.indicators():
        scale = 1000.0 if indicator == "HV" else 1.0
        title = "HV (×10³)" if indicator == "HV" else indicator
        datasets = report.datasets(indicator)
        text = {
            key[1:]: _markdown_cell(key, cell, scale)
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
    decimals; HV cells are presented scaled by 10^3, and a cell that the
    scaling overflows raises ValueError before anything is written.
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
