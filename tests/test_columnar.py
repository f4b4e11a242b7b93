"""The columnar batch path against the per-record library API it replaces.

The CLI reads counts and objectives bodies into columns (``_body_table``)
and evaluates indicators and F-beta sweeps on arrays. These properties
require the reader to accept exactly what a parse of every line
(``oracles.parse_lines``) accepts, to fail at the same line with the same
message, and to give values equal bit for bit to per-cell fold statistics,
to the loop oracles of ``oracles.py`` for the metrics and, for the
indicators, to a per-cell ``evaluate_indicator`` loop, brute-force
dominance counts and the loop oracles.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import loop_generational_distance, loop_hypervolume, loop_metrics, parse_lines
from pareto_judge import ingest_report
from pareto_judge.cli import run
from pareto_judge.confusion_metrics import ConfusionMatrix
from pareto_judge.fbeta_analysis import BetaGrid, fbeta_curve, fbeta_envelope
from pareto_judge.indicators import _block_indicators, _distances, _exact_hv, evaluate_indicator
from pareto_judge.ingest_report import (
    COUNTS_HEADER,
    ExperimentRecord,
    ParseError,
    RecordTable,
    _NUMBER_RUN,
    _body_table,
    _fold_stats,
    aggregate,
    parse_records,
)
from pareto_judge.objective_space import (
    ObjectivePoint,
    SolutionSet,
    pareto_front,
    strictly_dominates,
)

_ident = st.text(alphabet="aZ09_-", min_size=1, max_size=3)
# leading zeros and the largest id the format allows are valid integer text,
# also when zero padding makes a field wider than 19 digits
_WIDE_ID = "0000" + str(2**63 - 1)
_WIDE_COUNT = "0" * 24 + "1"
_id_text = st.one_of(
    st.integers(0, 30).map(str),
    st.integers(0, 9).map(lambda v: f"00{v}"),
    st.just(str(2**63 - 1)),
    st.just(_WIDE_ID),
)
_count_text = st.one_of(
    st.integers(0, 60).map(str),
    st.integers(0, 9).map(lambda v: f"0{v}"),
    st.just(_WIDE_COUNT),
)
_number_text = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(("0", "-0", "007", "1E5", "3.0e0", "-2.5E-3", "1e-400")),
)


@st.composite
def _valid_body(draw, payload_kind: str, dim: int) -> bytes:
    """Lines of the schema with distinct keys; the final LF is optional."""
    keys = draw(
        st.lists(
            st.tuples(_ident, _ident, _id_text, _id_text),
            max_size=12,
            unique_by=lambda key: (key[0], key[1], int(key[2]), int(key[3])),
        )
    )
    lines = []
    for key in keys:
        if payload_kind == "counts":
            values = draw(st.lists(_count_text, min_size=4, max_size=4))
            assume(any(int(v) for v in values))
        else:
            values = draw(st.lists(_number_text, min_size=dim, max_size=dim))
        lines.append(",".join((*key, *values)))
    ending = "\n" if lines and draw(st.booleans()) else ""
    return ("\n".join(lines) + ending).encode()


def _dim(payload_kind: str, dim: int) -> int:
    """The dim argument of the body readers for a schema."""
    return 4 if payload_kind == "counts" else dim


def _assert_same_table(a: RecordTable, b: RecordTable) -> None:
    assert a.dataset_names == b.dataset_names and a.method_names == b.method_names
    for column in ("dataset", "method", "fold", "solution_id", "values"):
        x, y = getattr(a, column), getattr(b, column)
        # bytes, so -0.0 and 0.0 differ
        assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), column


def _header(payload_kind: str, dim: int) -> bytes:
    if payload_kind == "counts":
        return ",".join(COUNTS_HEADER).encode()
    objectives = ",".join(f"obj_{i}" for i in range(1, dim + 1))
    return f"dataset,method,fold,solution_id,{objectives}".encode()


def _line_error(body: bytes, path: str, payload_kind: str, dim: int) -> ParseError:
    with pytest.raises(ParseError) as err:
        parse_lines(body, path, payload_kind, dim)
    return err.value


def _read(read, body: bytes, payload_kind: str, dim: int) -> RecordTable | str:
    """The table a body reader gives, or the text of its ParseError."""
    try:
        return read(body, "f.csv", payload_kind, dim)
    except ParseError as exc:
        return str(exc)


def _assert_same_reading(body: bytes, payload_kind: str, dim: int) -> None:
    """The column reader gives the line reader's table or its ParseError text."""
    table = _read(_body_table, body, payload_kind, dim)
    expected = _read(parse_lines, body, payload_kind, dim)
    if isinstance(expected, str):
        assert table == expected
    else:
        _assert_same_table(table, expected)


# field texts, most of them invalid in every column: bad UTF-8, a CR, a
# quote, an empty field, a non-identifier byte, a negative integer, a word,
# 2**63, a wide field of leading zeros, numbers without digits on a side of
# the point, a trailing byte and a non-finite number
_CORRUPT_FIELDS = [
    b"\xff", b"1\r", b'"a"', b"", b"a b", b"-4", b"x", str(2**63).encode(), b"0" * 30 + b"7",
    b".5", b"5.", b"1e5x", b"inf", b"1e999",
]

_SCHEMAS = [("counts", 4, ()), ("objectives", 1, ()), ("objectives", 3, ("obj_2",))]


@pytest.mark.parametrize("payload_kind,dim,negate", _SCHEMAS)
class TestFastAndLocatingParse:
    @settings(deadline=None, max_examples=25)
    @given(data=st.data())
    def test_valid_body_gives_the_same_table(self, payload_kind, dim, negate, data):
        dim = _dim(payload_kind, dim)
        body = data.draw(_valid_body(payload_kind, dim))
        _assert_same_table(
            _body_table(body, "f.csv", payload_kind, dim),
            parse_lines(body, "f.csv", payload_kind, dim),
        )

    @settings(deadline=None, max_examples=30)
    @given(data=st.data())
    def test_one_corrupted_line_fails_there(self, payload_kind, dim, negate, data):
        dim = _dim(payload_kind, dim)
        lines = data.draw(_valid_body(payload_kind, dim)).rstrip(b"\n").split(b"\n")
        assume(lines != [b""])
        k = data.draw(st.integers(0, len(lines) - 1))
        fields = lines[k].split(b",")
        numeric = data.draw(st.integers(2, len(fields) - 1))
        bad_number = (
            [b"1_0", "٣".encode(), b"+2", b" 5", b"-1", b"1.5", b"0x1", b"", b"1e2"]
            if numeric < 4 or payload_kind == "counts"
            else [b"1_0", "٣".encode(), b"+2", b" 5", b".5", b"5.", b"inf", b"nan", b"1e999", b""]
        )
        corruptions = {
            "byte": lambda: [fields[0] + b"\xff", *fields[1:]],
            "cr": lambda: [*fields[:-1], fields[-1] + b"\r"],
            "quote": lambda: [b'"' + fields[0] + b'"', *fields[1:]],
            "ident": lambda: [b"a b", *fields[1:]],
            "number": lambda: [
                *fields[:numeric], data.draw(st.sampled_from(bad_number)), *fields[numeric + 1 :]
            ],
            "id-range": lambda: [*fields[:2], str(2**63).encode(), *fields[3:]],
            "too-few": lambda: fields[:-1],
            "too-many": lambda: [*fields, fields[-1]],
            "empty": lambda: [],
        }
        if payload_kind == "counts":
            corruptions["zero"] = lambda: [*fields[:4], b"0", b"0", b"0", b"000"]
            half = str(2**52).encode()
            corruptions["sum"] = lambda: [*fields[:4], half, half, b"1", b"0"]
        if k > 0:
            corruptions["duplicate"] = lambda: [*lines[0].split(b",")[:4], *fields[4:]]
        kind = data.draw(st.sampled_from(sorted(corruptions)))
        lines[k] = b",".join(corruptions[kind]())
        body = b"\n".join(lines) + b"\n"

        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "f.csv")
            with open(path, "wb") as handle:
                handle.write(_header(payload_kind, dim) + b"\n" + body)
            with pytest.raises(ParseError) as err:
                parse_records(path, payload_kind, negate)
            expected = _line_error(body, path, payload_kind, dim)
        assert err.value.line == expected.line == k + 2  # the header is line 1
        assert str(err.value) == str(expected)

    @settings(deadline=None, max_examples=60)
    @given(data=st.data())
    def test_corrupted_body_reads_as_the_line_reader_reads_it(
        self, payload_kind, dim, negate, data
    ):
        dim = _dim(payload_kind, dim)
        body = data.draw(_valid_body(payload_kind, dim))
        lines = [line.split(b",") for line in body.rstrip(b"\n").split(b"\n")]
        assume(lines != [[b""]])
        for _ in range(data.draw(st.integers(1, 3))):
            k = data.draw(st.integers(0, len(lines) - 1))
            kinds = ["field", "field", "count"] + ["duplicate"] * (k > 0)
            kinds += ["zero", "sum"] if payload_kind == "counts" else []
            kind = data.draw(st.sampled_from(kinds))
            if kind == "field":
                j = data.draw(st.integers(0, len(lines[k]) - 1))
                lines[k][j] = data.draw(st.sampled_from(_CORRUPT_FIELDS))
            elif kind == "count":
                lines[k] = lines[k][:-1] if data.draw(st.booleans()) else [*lines[k], b"1"]
            elif kind == "duplicate":
                lines[k][:4] = lines[data.draw(st.integers(0, k - 1))][:4]
            else:
                half = str(2**52).encode()
                lines[k][4:] = [b"0"] * 4 if kind == "zero" else [half, half, b"1", b"0"]
        ending = b"\n" if data.draw(st.booleans()) else b""
        _assert_same_reading(b"\n".join(map(b",".join, lines)) + ending, payload_kind, dim)

    @settings(deadline=None, max_examples=60)
    @given(data=st.data())
    def test_both_readers_accept_the_same_language(self, payload_kind, dim, negate, data):
        dim = _dim(payload_kind, dim)
        token = st.sampled_from(
            ["ds1", "m", "0", "1", "7", "-1", "0.5", "1e3", "", "+1", "1_0", "inf", "a b", "x\r"]
        )
        line = st.lists(token, min_size=dim + 3, max_size=dim + 5).map(",".join)
        body = "\n".join(data.draw(st.lists(line, max_size=4))).encode()
        _assert_same_reading(body, payload_kind, dim)


@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_negate_equals_negating_the_parsed_columns(data):
    dim = data.draw(st.integers(1, 4))
    body = data.draw(_valid_body("objectives", dim))
    negate = data.draw(st.sets(st.sampled_from([f"obj_{i}" for i in range(1, dim + 1)])))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.csv")
        with open(path, "wb") as handle:
            handle.write(_header("objectives", dim) + b"\n" + body)
        negated = parse_records(path, "objectives", tuple(negate))
        table = parse_records(path, "objectives")
    sign = [-1.0 if f"obj_{i}" in negate else 1.0 for i in range(1, dim + 1)]
    expected = RecordTable(
        table.dataset_names, table.method_names, table.dataset, table.method, table.fold,
        table.solution_id, table.values * sign,
    )
    _assert_same_table(negated, expected)  # by bytes, so 0.0 must turn into -0.0


@pytest.mark.parametrize("payload_kind,dim", [("counts", 4), ("objectives", 2)])
@pytest.mark.parametrize("column", [0, 1])
class TestOneLongIdentifier:
    """One name so long that a window of every field at its width would
    outgrow the body: the column is still read by ``_body_table``."""

    def _body(self, payload_kind: str, column: int, name: str) -> bytes:
        values = "1,2,3,4" if payload_kind == "counts" else "0.5,-1e3"
        lines = [[f"d{k % 7}", f"m{k % 3}", "0", str(k), values] for k in range(50)]
        lines[17][column] = name
        body = "".join(",".join(line) + "\n" for line in lines).encode()
        assert 50 * len(name.encode()) > len(body)
        return body

    def test_read_as_columns_into_the_line_readers_table(self, payload_kind, dim, column):
        body = self._body(payload_kind, column, "x" * 100)
        table = _body_table(body, "f.csv", payload_kind, dim)
        _assert_same_table(table, parse_lines(body, "f.csv", payload_kind, dim))
        names = table.dataset_names if column == 0 else table.method_names
        assert "x" * 100 in names

    @pytest.mark.parametrize("name", ["a b" + "x" * 100, "x" * 100 + "é"])
    def test_bad_long_name_fails_at_its_line(self, tmp_path, payload_kind, dim, column, name):
        body = self._body(payload_kind, column, name)
        path = tmp_path / "f.csv"
        path.write_bytes(_header(payload_kind, dim) + b"\n" + body)
        with pytest.raises(ParseError) as err:
            parse_records(str(path), payload_kind)
        expected = _line_error(body, str(path), payload_kind, dim)
        assert err.value.line == expected.line == 19  # body line 18 after the header
        assert str(err.value) == str(expected)
        assert "invalid identifier" in str(err.value)


class TestCountsFieldEdges:
    """Counts fields at the edges of the byte-array reader's checks."""

    def _parse(self, tmp_path, body: str) -> RecordTable:
        path = tmp_path / "counts.csv"
        path.write_bytes(",".join(COUNTS_HEADER).encode() + b"\n" + body.encode())
        return parse_records(str(path), "counts")

    @pytest.mark.parametrize(
        "bad",
        [
            ",m,0,1,1,2,3,4",  # empty identifiers
            "d,,0,1,1,2,3,4",
            "d,m,,1,1,2,3,4",  # empty integers
            "d,m,0,1,1,2,3,",
            "d,m,0,1,1,2,3 4",  # a space taken for a separator
            "d,m,0,1,1,2,3,4,5\n6,7,8,9,1,2,3",  # 9 then 7 fields, 16 in all
            "d,m,0," + "1" + "0" * 18 + "7" + ",1,2,3,4",  # 20 digits, above 2**63
        ],
    )
    def test_bad_line_rejected_by_both_readers(self, tmp_path, bad):
        body = "d,m,0,0,1,2,3,4\n" + bad + "\n"
        with pytest.raises(ParseError) as err:
            self._parse(tmp_path, body)
        expected = _line_error(body.encode(), err.value.path, "counts", 4)
        assert err.value.line == expected.line == 3
        assert str(err.value) == str(expected)

    def test_zero_padded_wide_integers_keep_their_values(self, tmp_path):
        table = self._parse(tmp_path, f"d,m,{_WIDE_COUNT},{_WIDE_ID},{_WIDE_COUNT},0,0,0\n")
        assert table.fold.tolist() == [1]
        assert table.solution_id.tolist() == [2**63 - 1]
        assert table.values.tolist() == [[1, 0, 0, 0]]

    @pytest.mark.parametrize("wide", [f"0000{2**63}", "1" + "0" * 18 + "7"])
    def test_wide_integer_of_two_to_the_63_or_more_fails_at_its_line(self, tmp_path, wide):
        body = f"d,m,0,0,1,0,0,0\nd,m,0,{wide},1,0,0,0\n"
        with pytest.raises(ParseError) as err:
            self._parse(tmp_path, body)
        assert err.value.line == 3
        assert str(err.value).endswith(f"column solution_id: must be below 2**63, got {int(wide)}")

    @pytest.mark.parametrize("width", [20, 4300, 4301, 5000])
    @pytest.mark.parametrize(
        "field, message",
        [
            (lambda w: "1" * w, lambda w: "must be below 2**63, got " + "1" * w),
            (lambda w: "0" * (w - 20) + "9" * 20, lambda w: "must be below 2**63, got " + "9" * 20),
            (lambda w: "-" + "1" * w, lambda w: "must be non-negative, got -" + "1" * w),
            (lambda w: "-" + "0" * (w - 1) + "7", lambda w: "must be non-negative, got -7"),
            (lambda w: "0" * (w - 1) + "7", None),
        ],
        ids=["digits", "zero-padded", "negative", "negative-zero-padded", "zero-padded-valid"],
    )
    def test_a_field_of_many_digits_gets_its_rule_message(self, tmp_path, width, field, message):
        # above 4300 digits int() once refused the field with its own message
        body = f"d,m,0,0,1,0,0,0\nd,m,{field(width)},0,1,0,0,0\n"
        _assert_same_reading(body.encode(), "counts", 4)
        if message is None:
            assert self._parse(tmp_path, body).fold.tolist() == [0, 7]
            return
        with pytest.raises(ParseError) as err:
            self._parse(tmp_path, body)
        assert err.value.line == 3
        assert str(err.value).endswith(": column fold: " + message(width))

    def test_body_without_final_lf(self, tmp_path):
        body = "d,m,0,0,1,2,3,4\nd,m,0,1,5,6,7,8"
        _assert_same_table(self._parse(tmp_path, body), self._parse(tmp_path, body + "\n"))
        assert self._parse(tmp_path, body).values.tolist() == [[1, 2, 3, 4], [5, 6, 7, 8]]


class TestObjectivesLongBody:
    """Bad objectives lines at the start, the middle and the end of a body of
    about 200 KiB."""

    LINE = "dsA,moo,0,{:06d},0.250,0.750,0.500\n"
    # loadtxt reads ".2500", so only the number grammar can refuse it; same width
    BAD = "dsA,moo,0,{:06d},.2500,0.750,0.500\n"
    WIDTH = len(LINE.format(0))
    BLOCK = 1 << 16
    # the 1-based body line holding the first LF from BLOCK bytes on
    LAST = -(-BLOCK // WIDTH)
    ROWS = 3 * LAST + 5

    @pytest.mark.parametrize(
        "bad_line", [1, LAST - 1, LAST, LAST + 1, LAST + 2, 2 * LAST, 2 * LAST + 1, ROWS]
    )
    def test_bad_line_fails_at_its_line(self, tmp_path, bad_line):
        lines = [
            (self.BAD if k == bad_line else self.LINE).format(k) for k in range(1, self.ROWS + 1)
        ]
        body = "".join(lines).encode()
        assert len(body) > 3 * self.BLOCK
        path = tmp_path / "objectives.csv"
        path.write_bytes(_header("objectives", 3) + b"\n" + body)
        with pytest.raises(ParseError) as err:
            parse_records(str(path), "objectives")
        assert err.value.line == bad_line + 1  # the header is line 1
        assert "column obj_1" in str(err.value)

    def test_valid_long_body_reads_every_line(self, tmp_path):
        body = "".join(self.LINE.format(k) for k in range(1, self.ROWS + 1)).encode()
        path = tmp_path / "objectives.csv"
        path.write_bytes(_header("objectives", 3) + b"\n" + body[:-1])  # no final LF
        table = parse_records(str(path), "objectives")
        assert table.solution_id.tolist() == list(range(1, self.ROWS + 1))


class TestLineChecksOnTheBadLineAlone:
    """The line checks read the header and, on an error, the first bad line
    and no other, whatever its place in the body."""

    def _lines_checked(self, tmp_path, monkeypatch, body: str) -> tuple[list[int], str | None]:
        path = tmp_path / "counts.csv"
        path.write_text(",".join(COUNTS_HEADER) + "\n" + body, encoding="utf-8")
        checked, split_line = [], ingest_report._split_line

        def counting(raw: bytes, path: str, line: int) -> tuple[str, ...]:
            checked.append(line)
            return split_line(raw, path, line)

        monkeypatch.setattr(ingest_report, "_split_line", counting)
        try:
            parse_records(str(path), "counts")
        except ParseError as exc:
            return checked, str(exc).split(": ", 1)[1]
        return checked, None

    def _body(self, rows: int = 2000) -> list[str]:
        return [f"d{k % 3},m{k % 2},{k % 5},{k},1,2,3,4\n" for k in range(rows)]

    def test_valid_body_checks_only_the_header(self, tmp_path, monkeypatch):
        assert self._lines_checked(tmp_path, monkeypatch, "".join(self._body())) == ([1], None)

    @pytest.mark.parametrize(
        "row,line,message",
        [
            (1999, "d1,m1,4,1999,1,2,3,-4", "column tn: must be non-negative, got -4"),
            (1000, "d1,m0,0,1000,x,2,3,4", "column tp: expected an integer, got 'x'"),
            (1500, "d0,m0,0,0,1,2,3", "expected 8 fields, got 7"),
            # the key of row 0, so the duplicate is found before the bad tp
            (700, "d0,m0,0,0,x,2,3,4", "duplicate record key ('d0', 'm0', 0, 0)"),
        ],
    )
    def test_error_checks_the_bad_line_alone(self, tmp_path, monkeypatch, row, line, message):
        body = self._body()
        body[row] = line + "\n"
        body[row + 1 :] = ["a bad line\n"] * (len(body) - row - 1)
        checked, error = self._lines_checked(tmp_path, monkeypatch, "".join(body))
        assert checked == [1, row + 2] and error == message


@pytest.mark.parametrize(
    "width", [_NUMBER_RUN - 2, _NUMBER_RUN - 1, _NUMBER_RUN, _NUMBER_RUN + 1, 3 * _NUMBER_RUN + 5]
)
class TestWideNumbers:
    """A number field read across several runs of ``_NUMBER_RUN`` bytes of
    the automaton, among narrow fields of the same column."""

    def _body(self, wide: str) -> bytes:
        lines = [f"d,m,0,{k},0.5,{wide if k == 3 else '-1e3'}\n" for k in range(6)]
        return "".join(lines).encode()

    def test_valid_wide_number_is_read(self, width):
        wide = "0." + "1" * (width - 2)
        table = _body_table(self._body(wide), "f.csv", "objectives", 2)
        assert table.values[3, 1] == float(wide) and table.values[4, 1] == -1e3

    @pytest.mark.parametrize("position", [2, -1])
    def test_bad_byte_fails_at_its_line(self, width, position):
        chars = list("0." + "1" * (width - 2))
        chars[position] = "x"
        body = self._body("".join(chars))
        with pytest.raises(ParseError, match=r"f\.csv:5: column obj_2: expected a number"):
            _body_table(body, "f.csv", "objectives", 2)
        _assert_same_reading(body, "objectives", 2)


def _reference_cells(front_records, reference_records, names, filter_front):
    """aggregate as a loop over (dataset, reference, fold) cells of evaluate_indicator."""
    fronts = {}
    for rec in sorted(front_records, key=lambda r: r.solution_id):
        fronts.setdefault((rec.dataset, rec.fold), []).append(rec.point())
    fronts = {key: SolutionSet("front", tuple(points)) for key, points in fronts.items()}
    if filter_front:
        fronts = {key: pareto_front(front) for key, front in fronts.items()}
    refs = {(r.dataset, r.method, r.fold): r.point() for r in reference_records}
    cells = {}
    for dataset, method in sorted({(d, m) for d, m, _ in refs}):
        folds = sorted(f for d, m, f in refs if (d, m) == (dataset, method))
        for name in names:
            if name != "GD":
                values = [
                    evaluate_indicator(
                        name, fronts[(dataset, f)], SolutionSet(method, (refs[dataset, method, f],))
                    ).value
                    for f in folds
                ]
                cells[(name, method, dataset)] = values
    if "GD" in names:
        for dataset, fold in sorted(fronts):
            points = [p for (d, _, f), p in sorted(refs.items()) if (d, f) == (dataset, fold)]
            pooled = SolutionSet("pooled", tuple(points))
            value = evaluate_indicator("GD", fronts[(dataset, fold)], pooled).value
            cells.setdefault(("GD", "pooled", dataset), []).append(value)
    return {
        key: (float(np.mean(values)), float(np.std(values)), len(values))
        for key, values in cells.items()
    }


_lattice = st.sampled_from((0.0, 0.25, 0.5, 0.75, 1.0))


@st.composite
def _comparison(draw, payload_kind: str):
    """Front and reference records over ragged folds, with duplicate front points."""
    datasets = draw(st.sampled_from((("d1",), ("d1", "d2"))))
    methods = draw(st.sampled_from((("r1",), ("r1", "r2", "r3"))))
    if payload_kind == "counts":
        small = st.integers(0, 6)
        payload = st.tuples(small, small, small, small).filter(any).map(
            lambda c: ConfusionMatrix(*c)
        )
    else:
        payload = st.tuples(*[st.one_of(_lattice, st.floats(0, 1))] * 3).map(ObjectivePoint)
    front, refs = [], []
    for dataset in datasets:
        for fold in range(draw(st.integers(1, 3))):
            points = draw(st.lists(payload, min_size=1, max_size=9))
            points += draw(st.lists(st.sampled_from(points), max_size=2))  # duplicates
            order = draw(st.permutations(range(len(points))))
            front += [ExperimentRecord(dataset, "moo", fold, sid, points[sid]) for sid in order]
            present = draw(st.lists(st.sampled_from(methods), min_size=1, unique=True))
            refs += [ExperimentRecord(dataset, m, fold, 0, draw(payload)) for m in present]
    return draw(st.permutations(front)), draw(st.permutations(refs))


class TestAggregateMatchesReference:
    @pytest.mark.parametrize("payload_kind", ["counts", "objectives"])
    @settings(deadline=None, max_examples=25)
    @given(data=st.data())
    def test_cells_equal_per_cell_evaluation(self, payload_kind, data):
        front, refs = data.draw(_comparison(payload_kind))
        filter_front = data.draw(st.booleans())
        names = ("ED", "GD", "HV", "SDR", "NDR")
        report = aggregate(front, refs, names, filter_front=filter_front)
        cells = {
            key: (cell.mean, cell.std, cell.fold_count) for key, cell in report.cells.items()
        }
        assert cells == _reference_cells(front, refs, names, filter_front)

    def test_records_and_their_table_give_the_same_report(self):
        rng = np.random.default_rng(5)
        front = [
            ExperimentRecord("d", "moo", f, sid, ConfusionMatrix(*rng.integers(1, 9, 4).tolist()))
            for f in range(3)
            for sid in range(20)
        ]
        refs = [ExperimentRecord("d", "r", f, 0, ConfusionMatrix(3, 3, 3, 3)) for f in range(3)]
        table = RecordTable.from_records(front)
        assert list(table) == front
        assert aggregate(table, refs).cells == aggregate(front, refs).cells


@st.composite
def _front_and_refs(draw):
    """A 2-D front with ties and duplicates, often a staircase, and 1..6 references.

    References are free points, front points themselves, points sharing one
    coordinate with a front point, and the coordinatewise maximum of the
    front, which no point lies strictly above.
    """
    coord = st.one_of(_lattice, st.floats(0, 1))
    point = st.tuples(coord, coord)
    if draw(st.booleans()):
        # a staircase, where every point adds a slab of its own; past 8 slabs
        # a pairwise sum would add them in another order than the loop did
        steps = draw(st.lists(point, min_size=9, max_size=30))
        front = list(zip(sorted(p[0] for p in steps), sorted((p[1] for p in steps), reverse=True)))
    else:
        front = draw(st.lists(point, min_size=1, max_size=12))
    front += draw(st.lists(st.sampled_from(front), max_size=3))
    xs, ys = [p[0] for p in front], [p[1] for p in front]
    ref = st.one_of(
        point,
        st.sampled_from(front),
        st.tuples(st.sampled_from(xs), coord),
        st.tuples(coord, st.sampled_from(ys)),
        st.just((max(xs), max(ys))),
    )
    refs = draw(st.lists(ref, min_size=1, max_size=6))
    return np.asarray(front, dtype=np.float64), np.asarray(refs, dtype=np.float64)


class TestBlockStaircase:
    @settings(deadline=None)
    @given(_front_and_refs())
    def test_block_hv_equals_hypervolume_per_reference(self, drawn):
        front, refs = drawn
        expected = [loop_hypervolume(front, ref) for ref in refs]
        assert [_exact_hv(front, ref) for ref in refs] == expected
        assert _block_indicators(front[None], refs[None], ["HV"])["HV"][0].tolist() == expected

    @settings(deadline=None)
    @given(_front_and_refs())
    def test_sdr_from_the_shared_mask(self, drawn):
        front, refs = drawn
        values = _block_indicators(front[None], refs[None], ["HV", "SDR"])
        members = [ObjectivePoint(tuple(p)) for p in front.tolist()]
        dominating = [
            sum(strictly_dominates(p, ObjectivePoint(tuple(r))) for p in members)
            for r in refs.tolist()
        ]
        assert values["SDR"][0].tolist() == [count / len(members) for count in dominating]
        assert values["HV"][0].tolist() == [loop_hypervolume(front, ref) for ref in refs]


_ALL_NAMES = ["ED", "GD", "HV", "SDR", "NDR"]


_spread_coord = st.tuples(st.floats(-1e6, 1e6), st.integers(-12, 0)).map(
    lambda c: c[0] * 10.0 ** c[1]
)


def _spread_points(data, shape):
    """Points whose magnitudes spread over 18 decades, so that any change in
    the order of a coordinate sum shows in the last bits."""
    size = int(np.prod(shape))
    return np.array(data.draw(st.lists(_spread_coord, min_size=size, max_size=size))).reshape(
        shape
    )


class TestDistances:
    @settings(deadline=None, max_examples=60)
    @given(data=st.data())
    def test_equal_to_the_broadcast_formula(self, data):
        # up to 7 coordinates numpy sums in order, from 8 on pairwise
        dim = data.draw(st.integers(1, 10))
        b, n, k = (data.draw(st.integers(1, top)) for top in (3, 6, 4))
        points, others = _spread_points(data, (b, n, dim)), _spread_points(data, (b, k, dim))
        stacked = _distances(points, others)
        for i in range(b):
            diffs = points[i][:, None, :] - others[i][None, :, :]
            expected = np.sqrt((diffs * diffs).sum(axis=2))
            assert stacked[i].tobytes() == expected.tobytes()
            assert _distances(others[i], points[i]).tobytes() == expected.T.copy().tobytes()

    @pytest.mark.parametrize("dim", range(1, 11))
    @settings(deadline=None, max_examples=30)
    @given(data=st.data())
    def test_block_ed_and_gd_equal_the_loop_oracle(self, dim, data):
        b, n, r = (data.draw(st.integers(1, top)) for top in (3, 6, 4))
        fronts, refs = _spread_points(data, (b, n, dim)), _spread_points(data, (b, r, dim))
        values = _block_indicators(fronts, refs, ["ED", "GD"])
        for i in range(b):
            assert values["ED"][i].tolist() == [
                loop_generational_distance(fronts[i], ref[None]) for ref in refs[i]
            ]
            assert values["GD"][i].tolist() == [loop_generational_distance(fronts[i], refs[i])]


@st.composite
def _block_stack(draw, dim: int):
    """B blocks of n front points and r references each, on a lattice or free."""
    b, n, r = draw(st.integers(1, 5)), draw(st.integers(1, 9)), draw(st.integers(1, 4))
    coord = st.one_of(_lattice, st.floats(0, 1))
    values = st.lists(coord, min_size=b * (n + r) * dim, max_size=b * (n + r) * dim)
    points = np.array(draw(values), dtype=np.float64).reshape(b, n + r, dim)
    return np.ascontiguousarray(points[:, :n]), np.ascontiguousarray(points[:, n:])


class TestBatchedBlocks:
    @pytest.mark.parametrize("dim", [2, 3])
    @settings(deadline=None, max_examples=40)
    @given(data=st.data())
    def test_stack_equals_blocks_one_at_a_time(self, dim, data):
        fronts, refs = data.draw(_block_stack(dim))
        stacked = _block_indicators(fronts, refs, _ALL_NAMES)
        assert list(stacked) == _ALL_NAMES
        for b in range(len(fronts)):
            alone = _block_indicators(fronts[b : b + 1], refs[b : b + 1], _ALL_NAMES)
            for name in _ALL_NAMES:
                # bytes, so -0.0 and 0.0 differ
                assert stacked[name][b].tobytes() == alone[name][0].tobytes(), name

    @pytest.mark.parametrize("payload_kind", ["counts", "objectives"])
    def test_budget_crossed_mid_group_gives_the_same_report(self, payload_kind, monkeypatch):
        # seven (dataset, fold) blocks of 5 points against 2 references, and
        # one block of another shape
        rng = np.random.default_rng(11)

        def payload():
            if payload_kind == "counts":
                return ConfusionMatrix(*rng.integers(1, 9, 4).tolist())
            return ObjectivePoint(tuple(rng.random(3).tolist()))

        front, refs = [], []
        for dataset, folds in (("d1", 4), ("d2", 3), ("d3", 1)):
            for fold in range(folds):
                size = 6 if dataset == "d3" else 5
                front += [ExperimentRecord(dataset, "moo", fold, s, payload()) for s in range(size)]
                refs += [ExperimentRecord(dataset, m, fold, 0, payload()) for m in ("r1", "r2")]
        whole = aggregate(front, refs, _ALL_NAMES)
        for budget in (1, 3 * 5 * 2):
            monkeypatch.setattr(ingest_report, "_BATCH_ELEMENTS", budget)
            assert list(aggregate(front, refs, _ALL_NAMES).cells.items()) == list(
                whole.cells.items()
            )


_fold_value = st.one_of(
    _lattice, st.floats(0, 1), st.floats(-1e9, 1e9, allow_subnormal=False), st.floats(0, 1e-9)
)


def _per_cell_stats(series):
    return {
        key: (float(np.mean(values)), float(np.std(values)), len(values))
        for key, values in series.items()
    }


class TestFoldStats:
    """Fold statistics stacked by fold count against per-cell np.mean/np.std."""

    @settings(deadline=None)
    @given(st.lists(st.lists(_fold_value, min_size=1, max_size=17), min_size=1, max_size=12))
    def test_batched_equal_per_cell(self, columns):
        series = {("HV", f"r{i}", "d"): values for i, values in enumerate(columns)}
        cells = _fold_stats(series)
        assert list(cells) == list(series)
        stats = {key: (c.mean, c.std, c.fold_count) for key, c in cells.items()}
        assert stats == _per_cell_stats(series)

    def test_every_fold_count_to_17_in_one_report(self):
        # values of mixed magnitude make the summation order visible in the
        # last bits; counts past 8 cross numpy's unrolled pairwise sum
        rng = np.random.default_rng(17)
        series = {}
        for i in rng.permutation(3 * 17).tolist():
            count = i % 17 + 1
            scale = 10.0 ** rng.integers(-8, 9, count)
            series[("ED", f"r{i}", f"d{count}")] = (rng.random(count) * scale).tolist()
        stats = {key: (c.mean, c.std, c.fold_count) for key, c in _fold_stats(series).items()}
        assert stats == _per_cell_stats(series)

    def test_aggregate_with_up_to_17_ragged_folds(self):
        rng = np.random.default_rng(23)
        front, refs = [], []
        for dataset, folds in (("d1", 17), ("d2", 9), ("d3", 1)):
            for fold in range(folds):
                for sid in range(5):
                    m = ConfusionMatrix(*rng.integers(0, 40, 4).tolist())
                    front.append(ExperimentRecord(dataset, "moo", fold, sid, m))
                for method in ("r1", "r2"):
                    if method == "r2" and fold % 4 == 3:
                        continue  # ragged: r2 lacks some folds
                    m = ConfusionMatrix(*rng.integers(1, 40, 4).tolist())
                    refs.append(ExperimentRecord(dataset, method, fold, 0, m))
        names = ("ED", "GD", "HV", "SDR", "NDR")
        report = aggregate(front, refs, names)
        cells = {key: (c.mean, c.std, c.fold_count) for key, c in report.cells.items()}
        assert cells == _reference_cells(front, refs, names, False)
        assert {c.fold_count for c in report.cells.values()} == {17, 13, 9, 7, 1}


_matrix = st.tuples(*[st.integers(0, 30)] * 4).filter(any).map(lambda c: ConfusionMatrix(*c))
# degenerate matrices: no positives, no negatives, no predicted positives
_degenerate = st.sampled_from(
    [ConfusionMatrix(0, 0, 3, 4), ConfusionMatrix(2, 5, 0, 0), ConfusionMatrix(0, 4, 0, 6)]
)
_betas = st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=12, unique=True).map(
    lambda betas: BetaGrid(tuple(sorted(betas)))
)


def _loop_fbeta(m: ConfusionMatrix, grid: BetaGrid) -> list[tuple[float, bool]]:
    return loop_metrics(m.tp, m.fn, m.fp, m.tn, grid.betas)[5:]


class TestFbetaSweep:
    @settings(deadline=None, max_examples=40)
    @given(members=st.lists(st.one_of(_matrix, _degenerate), min_size=1, max_size=8), grid=_betas)
    def test_envelope_equals_loop_metrics(self, members, grid):
        # scaled copies tie exactly, so the lowest index must win
        scaled = [ConfusionMatrix(2 * m.tp, 2 * m.fn, 2 * m.fp, 2 * m.tn) for m in members]
        members = members + scaled
        envelope = fbeta_envelope(members, grid)
        curves = [_loop_fbeta(m, grid) for m in members]
        for j in range(len(grid)):
            best = max(curve[j][0] for curve in curves)
            winner = next(i for i, curve in enumerate(curves) if curve[j][0] == best)
            assert envelope.argmax[j] == winner < len(members) // 2
            assert envelope.values[j] == best
            assert envelope.defined[j] == curves[winner][j][1]
        counts = np.array([(m.tp, m.fn, m.fp, m.tn) for m in members])
        assert fbeta_envelope(counts, grid) == envelope

    @settings(deadline=None, max_examples=40)
    @given(m=st.one_of(_matrix, _degenerate), grid=_betas)
    def test_curve_equals_loop_metrics(self, m, grid):
        curve = fbeta_curve(m, grid)
        assert list(zip(curve.values, curve.defined)) == _loop_fbeta(m, grid)


def _loop_metrics_line(dataset: str, fold: int, solution_id: int, m: ConfusionMatrix) -> str:
    """One ``metrics`` output line built from the loop oracle."""
    values = loop_metrics(m.tp, m.fn, m.fp, m.tn, (1.0,))
    degenerate = int(not all(defined for _, defined in values[:3]))
    cells = ",".join(repr(value) for value, _ in values)
    return f"{dataset},moo,{fold},{solution_id},{cells},{degenerate}"


def _counts_file(directory: str, rows) -> str:
    path = os.path.join(directory, "in.csv")
    body = "".join(
        f"{d},moo,{fold},{sid},{m.tp},{m.fn},{m.fp},{m.tn}\n" for d, fold, sid, m in rows
    )
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(",".join(COUNTS_HEADER) + "\n" + body)
    return path


# small counts make every kind of zero denominator, alone or together
_metrics_rows = st.lists(st.one_of(_matrix, _degenerate), min_size=1, max_size=30).map(
    lambda matrices: [(f"d{i % 3}", i % 2, i, m) for i, m in enumerate(matrices)]
)


class TestMetricsRows:
    @settings(deadline=None, max_examples=40)
    @given(rows=_metrics_rows)
    def test_rows_equal_loop_metrics(self, rows):
        with tempfile.TemporaryDirectory() as directory:
            path, out = _counts_file(directory, rows), os.path.join(directory, "out.csv")
            assert run(["metrics", "--in", path, "--out", out]) == 0
            with open(out, encoding="utf-8") as handle:
                lines = handle.read().splitlines()[1:]
        assert lines == [_loop_metrics_line(*row) for row in rows]

    @settings(deadline=None, max_examples=40)
    @given(rows=_metrics_rows)
    def test_library_table_equals_loop_metrics(self, rows):
        with tempfile.TemporaryDirectory() as directory:
            table = parse_records(_counts_file(directory, rows), "counts")
        header = "dataset,method,fold,solution_id,tpr,tnr,ppv,bac,gmean,f1,degenerate"
        expected = [header] + [_loop_metrics_line(*row) for row in rows]
        assert ingest_report.render_metrics_table(table).splitlines() == expected
        # one fold's rows, with the dataset names the fold does not hold compacted away
        expected = [header] + [_loop_metrics_line(*row) for row in rows if row[1] == 1]
        fold_one = ingest_report.render_metrics_table(table.take(table.fold == 1))
        assert fold_one.splitlines() == expected

    def test_library_table_rejects_objectives(self):
        point = ObjectivePoint((0.5, 0.25))
        table = RecordTable.from_records([ExperimentRecord("d", "moo", 0, 0, point)])
        with pytest.raises(ValueError, match="counts table"):
            ingest_report.render_metrics_table(table)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)  # 0.0 and -0.0 among them
_POINT = ObjectivePoint((0.5,))
_VARIANTS = ("equal", "key", "value", "swap", "names", "as-objectives", "empty", "non-record")


@st.composite
def _records_and_variant(draw):
    """Records with distinct keys, counts or 1 to 3 objectives, and a variant of them
    named by one of ``_VARIANTS``, which may hold a non-record."""
    dim = draw(st.sampled_from([0, 1, 2, 3]))  # 0 for counts
    payload = _matrix if dim == 0 else st.tuples(*[_FINITE] * dim).map(ObjectivePoint)
    keys = draw(
        st.lists(st.tuples(_ident, _ident, st.integers(0, 3), st.integers(0, 3)), unique=True)
    )
    records = [ExperimentRecord(*key, draw(payload)) for key in keys]
    variant = draw(st.sampled_from(_VARIANTS))
    other = list(records)
    if variant == "key" and other:
        i, field = draw(st.integers(0, len(other) - 1)), draw(st.integers(0, 3))
        key = list(keys[i])
        key[field] = draw(_ident) if field < 2 else draw(st.integers(0, 3))
        other[i] = ExperimentRecord(*key, records[i].payload)
    elif variant == "value" and other:
        i = draw(st.integers(0, len(other) - 1))
        values = list(_values(records[i].payload))
        j = draw(st.integers(0, len(values) - 1))
        values[j] = draw(_FINITE) if dim else values[j] + 1
        payload = ObjectivePoint(tuple(values)) if dim else ConfusionMatrix(*values)
        other[i] = ExperimentRecord(*keys[i], payload)
    elif variant == "swap" and len(other) > 1:
        i, j = draw(st.lists(st.integers(0, len(other) - 1), min_size=2, max_size=2, unique=True))
        other[i], other[j] = other[j], other[i]
    elif variant == "names":  # a dataset named apart, so the name sets and codes differ
        old, new = keys[0][0] if keys else "", draw(_ident)
        other = [
            ExperimentRecord(new if r.dataset == old else r.dataset, *r.key[1:], r.payload)
            for r in records
        ]
    elif variant == "as-objectives" and dim == 0:  # the same numbers as four objectives
        other = [ExperimentRecord(*r.key, ObjectivePoint(_values(r.payload))) for r in records]
    elif variant == "empty":
        other = []
    elif variant == "non-record" and other:
        i = draw(st.integers(0, len(other) - 1))
        other[i] = draw(st.sampled_from([records[i].key, records[i].payload, None]))
    return records, other


def _values(payload) -> tuple:
    if isinstance(payload, ConfusionMatrix):
        return (payload.tp, payload.fn, payload.fp, payload.tn)
    return payload.coords


def _as_table(records: list) -> RecordTable | None:
    """The records' table, or None where they make none."""
    try:
        return RecordTable.from_records(records)
    except (ValueError, AttributeError):
        return None


def _empty_tables() -> list[RecordTable]:
    """Empty tables of the counts payload and of 1 to 4 objectives."""
    counts = RecordTable.from_records([])
    objectives = [
        RecordTable((), (), *[np.zeros(0, np.int64)] * 4, np.zeros((0, dim)))
        for dim in range(1, 5)
    ]
    return [counts, *objectives]


class TestTableEquality:
    """``table == other`` reads columns, and equals comparing record by record."""

    @settings(deadline=None, max_examples=150)
    @given(pair=_records_and_variant())
    def test_equals_record_by_record_equality(self, pair):
        records, other = pair
        table = RecordTable.from_records(records)
        expected = records == other  # ExperimentRecord.__eq__ for each pair of rows
        assert (table == other) is expected
        assert (other == table) is expected
        assert (table != other) is not expected
        other_table = _as_table(other)
        if other_table is not None:
            assert (table == other_table) is expected
            assert (other_table == table) is expected

    @pytest.mark.parametrize("a", range(5))
    @pytest.mark.parametrize("b", range(5))
    def test_empty_tables_of_any_kind_are_equal(self, a, b):
        tables = _empty_tables()
        assert tables[a] == tables[b]
        assert tables[a] == [] and tables[a] != [ExperimentRecord("d", "m", 0, 0, _POINT)]

    def test_counts_differ_from_four_objectives_of_the_same_numbers(self):
        record = ExperimentRecord("d", "m", 0, 0, ConfusionMatrix(1, 2, 3, 4))
        counts = RecordTable.from_records([record])
        objectives = RecordTable(
            counts.dataset_names, counts.method_names, counts.dataset, counts.method,
            counts.fold, counts.solution_id, counts.values.astype(np.float64),
        )
        assert counts.values.tolist() == objectives.values.tolist()
        assert counts != objectives and objectives != counts
        assert counts != list(objectives) and list(counts) != objectives

    def test_tables_compare_and_emit_without_building_records(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(11)
        records = [
            ExperimentRecord(f"d{i % 7}", f"m{i % 3}", i % 5, i, ConfusionMatrix(*counts))
            for i, counts in enumerate((rng.integers(0, 50, (300, 4)) + 1).tolist())
        ]
        table, same = RecordTable.from_records(records), RecordTable.from_records(records)
        last = records[-1]
        renamed = ExperimentRecord("d9", *last.key[1:], last.payload)
        changed = RecordTable.from_records([*records[:-1], renamed])
        built = []
        held = ingest_report._held  # a table makes its records from its checked columns

        def counting_held(cls, *values):
            if cls is ExperimentRecord:
                built.append(1)
            return held(cls, *values)

        monkeypatch.setattr(ingest_report, "_held", counting_held)
        assert table == same and same == table
        assert table != changed and table == records and records == table
        emit_path = str(tmp_path / "out.csv")
        ingest_report.emit_records(table, emit_path)
        assert parse_records(emit_path, "counts") == table
        assert built == []
        assert table[0] == records[0] and len(built) == 1  # indexing builds its record
