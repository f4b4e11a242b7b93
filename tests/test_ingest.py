from __future__ import annotations

import os
import string
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pareto_judge.confusion_metrics import ConfusionMatrix
from pareto_judge.ingest_report import (
    COUNTS_HEADER,
    DatasetInfo,
    ExperimentRecord,
    ParseError,
    RecordTable,
    emit_records,
    imbalance_ratio,
    parse_datasets,
    parse_records,
    read_report_csv,
    render_dataset_table,
)
from pareto_judge.objective_space import ObjectivePoint


def _write(path, text: str):
    path.write_text(text, encoding="utf-8")
    return str(path)


def _random_records(rng: np.random.Generator, n: int, kind: str) -> list[ExperimentRecord]:
    records = []
    keys = set()
    while len(records) < n:
        key = (
            f"ds{rng.integers(0, 5)}",
            f"m{rng.integers(0, 5)}",
            int(rng.integers(0, 10)),
            int(rng.integers(0, 20)),
        )
        if key in keys:
            continue
        keys.add(key)
        if kind == "counts":
            counts = [int(v) for v in rng.integers(0, 100, size=4)]
            if sum(counts) == 0:
                counts[0] = 1
            payload = ConfusionMatrix(*counts)
        else:
            payload = ObjectivePoint(tuple(rng.random(3)))
        records.append(ExperimentRecord(*key, payload))
    return records


class TestParseRecords:
    def test_header_only_file_is_empty(self, tmp_path):
        path = _write(tmp_path / "empty.csv", "dataset,method,fold,solution_id,tp,fn,fp,tn\n")
        assert parse_records(path, "counts") == []

    def test_counts_row(self, tmp_path):
        path = _write(
            tmp_path / "one.csv",
            "dataset,method,fold,solution_id,tp,fn,fp,tn\npima,base,0,0,4,6,1,9\n",
        )
        (rec,) = parse_records(path, "counts")
        assert rec.key == ("pima", "base", 0, 0)
        assert rec.payload == ConfusionMatrix(4, 6, 1, 9)
        assert rec.point().coords == (0.4, 0.9)

    def test_negative_count_names_line_and_column(self, tmp_path):
        path = _write(
            tmp_path / "neg.csv",
            "dataset,method,fold,solution_id,tp,fn,fp,tn\nds,base,0,0,-1,6,1,9\n",
        )
        with pytest.raises(ParseError) as err:
            parse_records(path, "counts")
        assert "tp" in str(err.value) and ":2:" in str(err.value)

    def test_duplicate_key_rejected(self, tmp_path):
        path = _write(
            tmp_path / "dup.csv",
            "dataset,method,fold,solution_id,tp,fn,fp,tn\n"
            "ds,base,0,0,1,6,1,9\nds,base,0,0,2,6,1,9\n",
        )
        with pytest.raises(ParseError, match="duplicate"):
            parse_records(path, "counts")

    def test_wrong_header_rejected(self, tmp_path):
        path = _write(tmp_path / "bad.csv", "a,b,c\n")
        with pytest.raises(ParseError, match="header"):
            parse_records(path, "counts")

    def test_empty_file_rejected(self, tmp_path):
        path = _write(tmp_path / "none.csv", "")
        with pytest.raises(ParseError, match="missing header"):
            parse_records(path, "counts")

    def test_field_count_mismatch_names_line(self, tmp_path):
        path = _write(
            tmp_path / "short.csv",
            "dataset,method,fold,solution_id,tp,fn,fp,tn\nds,base,0,0,1,2,3\n",
        )
        with pytest.raises(ParseError, match="expected 8 fields"):
            parse_records(path, "counts")

    def test_invalid_identifier_rejected(self, tmp_path):
        path = _write(
            tmp_path / "ident.csv",
            "dataset,method,fold,solution_id,tp,fn,fp,tn\nds one,base,0,0,1,2,3,4\n",
        )
        with pytest.raises(ParseError, match="identifier"):
            parse_records(path, "counts")

    def test_objectives_schema(self, tmp_path):
        path = _write(
            tmp_path / "obj.csv",
            "dataset,method,fold,solution_id,obj_1,obj_2\nds,base,0,0,0.25,0.75\n",
        )
        (rec,) = parse_records(path, "objectives")
        assert rec.payload == ObjectivePoint((0.25, 0.75))

    def test_objectives_header_naming_enforced(self, tmp_path):
        path = _write(
            tmp_path / "obj.csv", "dataset,method,fold,solution_id,obj_1,obj_3\nds,b,0,0,0.1,0.2\n"
        )
        with pytest.raises(ParseError, match="obj_2"):
            parse_records(path, "objectives")

    def test_non_finite_objective_rejected(self, tmp_path):
        path = _write(
            tmp_path / "obj.csv", "dataset,method,fold,solution_id,obj_1\nds,b,0,0,inf\n"
        )
        with pytest.raises(ParseError, match="finite"):
            parse_records(path, "objectives")

    def test_unknown_payload_kind(self, tmp_path):
        with pytest.raises(ValueError, match="payload_kind"):
            parse_records(str(tmp_path / "x.csv"), "rates")

    def test_negation_flips_minimization_columns(self, tmp_path):
        path = _write(
            tmp_path / "obj.csv",
            "dataset,method,fold,solution_id,obj_1,obj_2\nds,base,0,0,0.25,0.75\n",
        )
        (rec,) = parse_records(path, "objectives", negate=("obj_2",))
        assert rec.payload == ObjectivePoint((0.25, -0.75))

    def test_negation_rejects_unknown_column(self, tmp_path):
        path = _write(
            tmp_path / "obj.csv", "dataset,method,fold,solution_id,obj_1\nds,b,0,0,0.1\n"
        )
        with pytest.raises(ValueError, match="obj_9"):
            parse_records(path, "objectives", negate=("obj_9",))

    def test_negation_rejects_a_bare_string(self, tmp_path):
        # a string is a sequence of one-letter names; it must not be read so
        path = _write(
            tmp_path / "obj.csv", "dataset,method,fold,solution_id,obj_1,obj_2\nds,b,0,0,0.1,0.2\n"
        )
        with pytest.raises(ValueError, match="not the string 'obj_2'"):
            parse_records(path, "objectives", "obj_2")

    def test_table_is_a_sequence_of_records(self, tmp_path):
        path = _write(
            tmp_path / "c.csv",
            "dataset,method,fold,solution_id,tp,fn,fp,tn\n"
            "zz,b,1,0,1,1,1,1\nds,a,0,3,2,1,1,1\nds,b,1,2,3,1,1,1\n",
        )
        table = parse_records(path, "counts")
        records = list(table)
        assert len(table) == 3 and table == records
        assert not table == 3 and table != 3 and not table == "zz"
        assert table[-1] == records[2]
        assert records[2] == ExperimentRecord("ds", "b", 1, 2, ConfusionMatrix(3, 1, 1, 1))
        assert table[1:] == records[1:]
        assert (table.dataset_names, table.method_names) == (("ds", "zz"), ("a", "b"))
        fold_one = table.take(table.fold == 1)
        assert fold_one == [records[0], records[2]]
        assert (fold_one.dataset_names, fold_one.method_names) == (("ds", "zz"), ("b",))

    def test_negation_rejected_for_counts(self, tmp_path):
        path = _write(
            tmp_path / "c.csv", "dataset,method,fold,solution_id,tp,fn,fp,tn\nds,b,0,0,1,1,1,1\n"
        )
        with pytest.raises(ValueError, match="objectives"):
            parse_records(path, "counts", negate=("tp",))


# One valid header and data row per schema, with the reader that parses it.
SCHEMAS = {
    "counts": (
        lambda path: parse_records(path, "counts"),
        "dataset,method,fold,solution_id,tp,fn,fp,tn",
        "ds1,base,0,0,1,2,3,4",
    ),
    "objectives": (
        lambda path: parse_records(path, "objectives"),
        "dataset,method,fold,solution_id,obj_1,obj_2",
        "ds1,base,0,0,0.5,0.25",
    ),
    "datasets": (parse_datasets, "name,n_features,n_samples,n_minority", "ds1,8,768,268"),
    "report": (
        read_report_csv,
        "indicator,reference_method,dataset,mean,std,fold_count",
        "HV,base,ds1,0.5,0.1,10",
    ),
}


# Per schema, a column holding an integer and one holding a number (if any).
INT_COLUMN = {"counts": 2, "objectives": 3, "datasets": 1, "report": 5}
NUMBER_COLUMN = {"objectives": 4, "report": 3}


def _with_field(row: str, column: int, value: str) -> str:
    fields = row.split(",")
    fields[column] = value
    return ",".join(fields)


def _format_error(tmp_path, schema: str, data: bytes) -> tuple[int, str]:
    """(line, message after the file:line prefix) of the ParseError raised."""
    reader, _, _ = SCHEMAS[schema]
    path = str(tmp_path / f"{schema}.csv")
    with open(path, "wb") as handle:
        handle.write(data)
    with pytest.raises(ParseError) as err:
        reader(path)
    prefix = f"{path}:{err.value.line}: "
    assert err.value.path == path and str(err.value).startswith(prefix)
    return err.value.line, str(err.value)[len(prefix) :]


@pytest.mark.parametrize("schema", sorted(SCHEMAS))
class TestDocumentedFormat:
    def test_valid_file_parses(self, tmp_path, schema):
        reader, header, row = SCHEMAS[schema]
        reader(_write(tmp_path / f"{schema}.csv", f"{header}\n{row}\n"))

    def test_quoted_field_names_file_and_line(self, tmp_path, schema):
        _, header, row = SCHEMAS[schema]
        quoted = row.replace("ds1", '"ds1"')
        line, message = _format_error(tmp_path, schema, f"{header}\n{row}\n{quoted}\n".encode())
        assert line == 3 and "quote" in message

    def test_crlf_line_ending_names_file_and_line(self, tmp_path, schema):
        _, header, row = SCHEMAS[schema]
        line, message = _format_error(tmp_path, schema, f"{header}\n{row}\r\n".encode())
        assert line == 2 and "carriage return" in message

    def test_crlf_header_is_rejected(self, tmp_path, schema):
        _, header, row = SCHEMAS[schema]
        line, message = _format_error(tmp_path, schema, f"{header}\r\n{row}\r\n".encode())
        assert line == 1 and "carriage return" in message

    def test_non_utf8_byte_names_file_and_line(self, tmp_path, schema):
        _, header, row = SCHEMAS[schema]
        bad_row = row.encode().replace(b"ds1", b"ds\xff")
        data = f"{header}\n{row}\n".encode() + bad_row + b"\n"
        line, message = _format_error(tmp_path, schema, data)
        assert line == 3 and "UTF-8" in message and "0xff" in message

    @pytest.mark.parametrize("bad", ["1_0", "٣", "+2", " 5", "5 ", "0x1", "1.0", "1e2"])
    def test_integer_outside_the_grammar_names_file_and_line(self, tmp_path, schema, bad):
        _, header, row = SCHEMAS[schema]
        bad_row = _with_field(row.replace("ds1", "ds2"), INT_COLUMN[schema], bad)
        line, message = _format_error(tmp_path, schema, f"{header}\n{row}\n{bad_row}\n".encode())
        assert line == 3 and message.endswith(f"expected an integer, got {bad!r}")

    def test_integers_stay_below_two_to_the_63(self, tmp_path, schema):
        reader, header, row = SCHEMAS[schema]
        largest = _with_field(row, INT_COLUMN[schema], str(2**63 - 1))
        reader(_write(tmp_path / "ok.csv", f"{header}\n{largest}\n"))
        too_large = _with_field(row, INT_COLUMN[schema], "0" + str(2**63))
        line, message = _format_error(tmp_path, schema, f"{header}\n{too_large}\n".encode())
        assert line == 2 and message.endswith(f"must be below 2**63, got {2**63}")

    @pytest.mark.parametrize("width", [20, 4300, 4301, 5000])
    def test_an_integer_of_many_digits_gets_the_rule_message(self, tmp_path, schema, width):
        # above 4300 digits int() once refused the field with a message of its own
        reader, header, row = SCHEMAS[schema]
        padded = _with_field(row, INT_COLUMN[schema], "0" * (width - 2) + "10")
        reader(_write(tmp_path / "ok.csv", f"{header}\n{padded}\n"))
        for field, problem in (("7" * width, "be below 2**63"), ("-" + "7" * width, "be non-negative")):
            wide = _with_field(row, INT_COLUMN[schema], field)
            line, message = _format_error(tmp_path, schema, f"{header}\n{wide}\n".encode())
            assert line == 2 and message.endswith(f": must {problem}, got {field}")


@pytest.mark.parametrize("schema", sorted(NUMBER_COLUMN))
@pytest.mark.parametrize("bad", ["1_0", "٣", "+2", " 5", ".5", "5.", "0x1p3", "1e", "--1"])
def test_number_outside_the_grammar_names_file_and_line(tmp_path, schema, bad):
    _, header, row = SCHEMAS[schema]
    bad_row = _with_field(row.replace("ds1", "ds2"), NUMBER_COLUMN[schema], bad)
    line, message = _format_error(tmp_path, schema, f"{header}\n{row}\n{bad_row}\n".encode())
    assert line == 3 and message.endswith(f"expected a number, got {bad!r}")


# The kind of each column per schema; the report's indicator has a check of its own.
COLUMN_KINDS = {
    "counts": ("ident",) * 2 + ("int",) * 6,
    "objectives": ("ident",) * 2 + ("int",) * 2 + ("number",) * 2,
    "datasets": ("ident",) + ("int",) * 3,
    "report": ("indicator",) + ("ident",) * 2 + ("number",) * 2 + ("int",),
}
# A malformed field and its message in each column kind whose grammar it breaks.
MALFORMED_FIELDS = {
    "+2": {
        "ident": "invalid identifier '+2'",
        "int": "expected an integer, got '+2'",
        "number": "expected a number, got '+2'",
    },
    "1_0": {"int": "expected an integer, got '1_0'", "number": "expected a number, got '1_0'"},
    str(2**63): {"int": f"must be below 2**63, got {2**63}"},
    "nan": {"int": "expected an integer, got 'nan'", "number": "must be finite, got 'nan'"},
    "": {
        "ident": "invalid identifier ''",
        "int": "expected an integer, got ''",
        "number": "expected a number, got ''",
    },
}
# A malformed line 3, built from a valid row, and its message in every schema.
MALFORMED_LINES = {
    "cr": (lambda row: row + b"\r", "carriage return found; lines must end in LF only"),
    "quote": (lambda row: b'"' + row + b'"', "quote character found; fields are never quoted"),
    "byte-0xff": (lambda row: b"\xff" + row, "not valid UTF-8: byte 0xff at offset 0"),
}


def _line_three_error(tmp_path, schema: str, line_three: bytes) -> tuple[int, str]:
    _, header, row = SCHEMAS[schema]
    last = row.replace("ds1", "ds3")
    data = f"{header}\n{row}\n".encode() + line_three + f"\n{last}\n".encode()
    return _format_error(tmp_path, schema, data)


@pytest.mark.parametrize("schema", sorted(SCHEMAS))
class TestSharedGrammar:
    """One malformed field or line gives the same error in every schema."""

    @pytest.mark.parametrize("bad", sorted(MALFORMED_FIELDS))
    def test_malformed_field(self, tmp_path, schema, bad):
        _, header, row = SCHEMAS[schema]
        checked = 0
        for column, kind in enumerate(COLUMN_KINDS[schema]):
            if kind in MALFORMED_FIELDS[bad]:
                line_three = _with_field(row.replace("ds1", "ds2"), column, bad).encode()
                name = header.split(",")[column]
                expected = f"column {name}: {MALFORMED_FIELDS[bad][kind]}"
                assert _line_three_error(tmp_path, schema, line_three) == (3, expected)
                checked += 1
        assert checked

    @pytest.mark.parametrize("bad", sorted(MALFORMED_LINES))
    def test_malformed_line(self, tmp_path, schema, bad):
        corrupt, expected = MALFORMED_LINES[bad]
        row = SCHEMAS[schema][2].replace("ds1", "ds2").encode()
        assert _line_three_error(tmp_path, schema, corrupt(row)) == (3, expected)

    @pytest.mark.parametrize("change", [-1, 1])
    def test_wrong_field_count(self, tmp_path, schema, change):
        fields = SCHEMAS[schema][2].replace("ds1", "ds2").split(",")
        n = len(fields)
        fields = fields[:change] if change < 0 else fields + fields[-1:]
        line_three = ",".join(fields).encode()
        expected = f"expected {n} fields, got {n + change}"
        assert _line_three_error(tmp_path, schema, line_three) == (3, expected)


def test_report_row_repeating_a_key_is_a_duplicate_before_its_other_fields(tmp_path):
    _, header, row = SCHEMAS["report"]
    line_three = _with_field(row, 3, "x").encode()
    line, message = _line_three_error(tmp_path, "report", line_three)
    assert (line, message) == (3, "duplicate report row ('HV', 'base', 'ds1')")


class TestNumberGrammar:
    @pytest.mark.parametrize("text", ["0", "-0", "007", "1e5", "1E+05", "-2.5e-3", "5e-324"])
    def test_documented_number_forms_parse_like_python(self, tmp_path, text):
        path = _write(
            tmp_path / "obj.csv", f"dataset,method,fold,solution_id,obj_1\nds,b,0,0,{text}\n"
        )
        (rec,) = parse_records(path, "objectives")
        assert rec.payload.coords == (float(text),)

    def test_counts_may_sum_to_two_to_the_53(self, tmp_path):
        header = "dataset,method,fold,solution_id,tp,fn,fp,tn"
        half = 2**52
        path = _write(tmp_path / "ok.csv", f"{header}\nds,b,0,0,{half},{half},0,0\n")
        (rec,) = parse_records(path, "counts")
        assert rec.payload == ConfusionMatrix(half, half, 0, 0)
        path = _write(tmp_path / "big.csv", f"{header}\nds,b,0,0,1,2,{half},{half}\n")
        with pytest.raises(ParseError, match=":2: counts sum to 9007199254740995, above"):
            parse_records(path, "counts")


class TestRoundTrip:
    @pytest.mark.parametrize("kind", ["counts", "objectives"])
    def test_emit_then_parse_is_identity(self, tmp_path, kind):
        rng = np.random.default_rng(89)
        records = _random_records(rng, 100, kind)
        path = tmp_path / "roundtrip.csv"
        emit_records(records, str(path))
        assert parse_records(str(path), kind) == records

    @pytest.mark.parametrize(
        "kind,negate,body,expected",
        [
            ("objectives", (), "ds,m,0,0,-0.0,0\n", "ds,m,0,0,-0.0,0.0\n"),
            ("counts", (), f"{'a' * 200},m,0,0,1,2,3,4\n", f"{'a' * 200},m,0,0,1,2,3,4\n"),
            (
                "objectives",
                ("obj_2",),
                "ds,m,0,0,0.5,0\nds,m,0,1,-0,2.5e-3\n",
                "ds,m,0,0,0.5,-0.0\nds,m,0,1,-0.0,-0.0025\n",
            ),
        ],
        ids=["negative-zero", "long-identifier", "negated-column"],
    )
    def test_emit_writes_a_table_as_its_records(self, tmp_path, kind, negate, body, expected):
        payload = "tp,fn,fp,tn" if kind == "counts" else "obj_1,obj_2"
        header = f"dataset,method,fold,solution_id,{payload}"
        table = parse_records(_write(tmp_path / "in.csv", f"{header}\n{body}"), kind, negate)
        emit_records(table, str(tmp_path / "table.csv"))
        emit_records(list(table), str(tmp_path / "list.csv"))
        written = (tmp_path / "table.csv").read_text(encoding="utf-8")
        assert written == f"{header}\n{expected}"
        assert (tmp_path / "list.csv").read_text(encoding="utf-8") == written
        assert parse_records(str(tmp_path / "table.csv"), kind) == table

    def test_empty_emit_needs_explicit_kind(self, tmp_path):
        with pytest.raises(ValueError, match="payload_kind"):
            emit_records([], str(tmp_path / "x.csv"))
        emit_records([], str(tmp_path / "x.csv"), payload_kind="counts")
        assert parse_records(str(tmp_path / "x.csv"), "counts") == []

    def test_emit_never_iterates_a_table(self, tmp_path, monkeypatch):
        """emit_records formats a table from its columns and checks the read-back
        against them, so no pass over the table builds its records."""
        rng = np.random.default_rng(3)
        table = RecordTable.from_records(_random_records(rng, 20, "counts"))
        passes = []
        table_iter = RecordTable.__iter__

        def counting_iter(self):
            if self is table:
                passes.append(1)
            return table_iter(self)

        monkeypatch.setattr(RecordTable, "__iter__", counting_iter)
        path = tmp_path / "t.csv"
        emit_records(table, str(path))
        assert len(passes) == 0
        assert parse_records(str(path), "counts") == table

    def test_emit_rejects_mixed_payloads(self, tmp_path):
        records = [
            ExperimentRecord("ds", "m", 0, 0, ConfusionMatrix(1, 2, 3, 4)),
            ExperimentRecord("ds", "m", 0, 1, ObjectivePoint((0.5, 0.5))),
        ]
        with pytest.raises(ValueError, match="mix"):
            emit_records(records, str(tmp_path / "x.csv"))

    def test_emit_rejects_duplicate_keys(self, tmp_path):
        rec = ExperimentRecord("ds", "m", 0, 0, ConfusionMatrix(1, 2, 3, 4))
        with pytest.raises(ValueError, match="duplicate"):
            emit_records([rec, rec], str(tmp_path / "x.csv"))

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("fold", -1, "column fold: must be non-negative, got -1"),
            ("fold", True, "column fold: expected an integer, got 'True'"),
            ("fold", 0.5, "column fold: expected an integer, got '0.5'"),
            ("solution_id", 2**63, f"column solution_id: must be below 2**63, got {2**63}"),
            ("dataset", "a b", "column dataset: invalid identifier 'a b'"),
            ("solution_id", 0, "duplicate record key ('ds', 'm', 0, 0)"),
        ],
    )
    def test_emit_raises_what_parse_would_and_writes_nothing(self, tmp_path, field, value, message):
        # parse refuses the line of these fields with the message; a record
        # refuses the same field when it is made, and emit a repeated key
        fields = {"dataset": "ds", "method": "m", "fold": 0, "solution_id": 1, field: value}
        lines = [",".join(COUNTS_HEADER), "ds,m,0,0,1,2,3,4", ",".join(map(str, fields.values()))]
        source = _write(tmp_path / "in.csv", "\n".join(lines) + ",5,6,7,8\n")
        with pytest.raises(ParseError) as err:
            parse_records(source, "counts")
        assert str(err.value) == f"{source}:3: {message}"
        path = tmp_path / "out.csv"
        try:
            record = ExperimentRecord(**fields, payload=ConfusionMatrix(5, 6, 7, 8))
        except ValueError as refused:
            assert str(refused).startswith(f"{field} ")
        else:
            first = ExperimentRecord("ds", "m", 0, 0, ConfusionMatrix(1, 2, 3, 4))
            with pytest.raises(ParseError) as err:
                emit_records([first, record], str(path))
            assert str(err.value) == f"{path}:3: {message}"
        assert not path.exists()

    @pytest.mark.parametrize(
        "field,value",
        [("dataset", "ds,m,0,9,1,1,1,1\nds"), ("method", 7), ("fold", "1"), ("solution_id", "01")],
    )
    def test_emit_refuses_lines_that_would_read_back_changed(self, tmp_path, field, value):
        # no record holds such a field, but a table assembled from columns can
        columns = {"dataset": "ds", "method": "m", "fold": 0, "solution_id": 1, field: value}
        table = RecordTable(
            (columns["dataset"],), (columns["method"],), *[np.zeros(1, np.int64)] * 2,
            np.array([columns["fold"]], object), np.array([columns["solution_id"]], object),
            np.array([[5, 6, 7, 8]], np.int64),
        )
        path = tmp_path / "out.csv"
        with pytest.raises(ValueError, match="read back changed"):
            emit_records(table, str(path))
        assert not path.exists()


_GRAMMAR_NAME = st.text(string.ascii_letters + string.digits + "_-", min_size=1, max_size=4)
_ANY_NAME = st.one_of(_GRAMMAR_NAME, st.text(max_size=4), st.integers(0, 9))
_ANY_ID = st.one_of(
    st.integers(0, 2**63 - 1),
    st.integers(-(2**64), 2**64),
    st.booleans(),
    st.sampled_from([0.5, "1"]),
)
# four counts of at most 2**51 sum to at most 2**53
_MATRIX = st.tuples(*[st.integers(0, 2**51)] * 4).filter(any).map(lambda c: ConfusionMatrix(*c))
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _records(draw, kind: str, name, ident) -> list[ExperimentRecord]:
    if kind == "counts":
        payload = _MATRIX
    else:
        payload = st.tuples(*[_FINITE] * draw(st.integers(1, 3))).map(ObjectivePoint)
    record = st.builds(_made, name, name, ident, ident, payload)
    return [rec for rec in draw(st.lists(record, max_size=8)) if rec is not None]


def _made(*fields) -> ExperimentRecord | None:
    """The record of the fields, or None where the record refuses one."""
    try:
        return ExperimentRecord(*fields)
    except ValueError:
        return None


def _emit_and_read(records: list[ExperimentRecord], kind: str):
    """What parse_records reads back from what emit_records wrote, or None,
    with no file, when emit_records raised ValueError."""
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "out.csv")
        try:
            emit_records(records, path, payload_kind=kind)
        except ValueError:
            assert not os.path.exists(path)
            return None
        return parse_records(path, kind)


@pytest.mark.parametrize("kind", ["counts", "objectives"])
class TestEmitReadsBack:
    @settings(deadline=None, max_examples=60)
    @given(data=st.data())
    def test_whatever_emit_writes_reads_back_equal(self, kind, data):
        records = data.draw(_records(kind, _ANY_NAME, _ANY_ID))
        back = _emit_and_read(records, kind)
        assert back is None or back == records

    @settings(deadline=None, max_examples=40)
    @given(data=st.data())
    def test_records_in_the_grammar_with_distinct_keys_are_written(self, kind, data):
        records = data.draw(_records(kind, _GRAMMAR_NAME, st.integers(0, 2**63 - 1)))
        keys = {rec.key for rec in records}
        assume(len(keys) == len(records))
        assert _emit_and_read(records, kind) == records


TABLE = [
    ("pima", 8, 768, 268, 1.87),
    ("ecoli4", 7, 336, 20, 15.8),
    ("poker-8-9_vs_5", 10, 2075, 25, 82.00),
]


class TestDatasets:
    def test_imbalance_ratio_known_values(self):
        for name, n_features, n_samples, n_minority, expected in TABLE:
            info = DatasetInfo(name, n_features, n_samples, n_minority)
            assert round(imbalance_ratio(info), 2) == expected

    def test_minority_cannot_exceed_half(self):
        with pytest.raises(ValueError, match="half"):
            DatasetInfo("x", 3, 10, 6)

    def test_name_must_be_an_identifier(self):
        with pytest.raises(ValueError) as err:
            DatasetInfo("a b", 1, 10, 2)
        assert str(err.value) == "name invalid identifier 'a b'"

    def test_parse_datasets(self, tmp_path):
        path = _write(
            tmp_path / "info.csv",
            "name,n_features,n_samples,n_minority\npima,8,768,268\necoli4,7,336,20\n",
        )
        infos = parse_datasets(path)
        assert [d.name for d in infos] == ["pima", "ecoli4"]

    def test_parse_rejects_duplicates(self, tmp_path):
        path = _write(
            tmp_path / "info.csv",
            "name,n_features,n_samples,n_minority\npima,8,768,268\npima,8,768,268\n",
        )
        with pytest.raises(ParseError, match="duplicate"):
            parse_datasets(path)

    def test_invalid_row_reports_line(self, tmp_path):
        path = _write(
            tmp_path / "info.csv",
            "name,n_features,n_samples,n_minority\npima,8,768,268\nbad,3,10,6\n",
        )
        with pytest.raises(ParseError, match=":3:"):
            parse_datasets(path)

    def test_render_table_csv(self):
        infos = [DatasetInfo("pima", 8, 768, 268)]
        text = render_dataset_table(infos, "csv")
        assert text == "name,n_features,n_samples,n_minority,ir\npima,8,768,268,1.87\n"

    def test_render_table_unknown_format(self):
        infos = [DatasetInfo("pima", 8, 768, 268)]
        with pytest.raises(ValueError, match="^unknown format 'html'"):
            render_dataset_table(infos, "html")

    def test_render_table_markdown(self):
        infos = [DatasetInfo("ecoli4", 7, 336, 20)]
        text = render_dataset_table(infos, "markdown")
        assert "| ecoli4 | 7 | 336 | 20 | 15.80 |" in text
