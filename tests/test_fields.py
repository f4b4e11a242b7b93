"""One rule per field kind: what a written type holds, its file reads back.

Each property draws field values of every type a caller might pass: str,
bool, numpy scalars, NaN, infinities, 2**63, 10**400 and names outside
``[A-Za-z0-9_-]+``. Either the constructor raises a ValueError whose message
starts with the field it refuses, or the object is written and read back
equal.
"""

from __future__ import annotations

import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pareto_judge._fields import IDENT_ALPHABET, IDENT_BYTES, IDENT_RE
from pareto_judge.confusion_metrics import ConfusionMatrix
from pareto_judge.ingest_report import (
    DATASETS_HEADER,
    ComparisonReport,
    DatasetInfo,
    ExperimentRecord,
    ReportCell,
    emit_records,
    parse_datasets,
    parse_records,
    read_report_csv,
    render_report,
)
from pareto_judge.objective_space import ObjectivePoint

_ODD = [None, True, False, np.bool_(True), "2", "0.5", b"2", math.nan, math.inf, -math.inf]
_NAMES = st.one_of(
    st.text(IDENT_ALPHABET, min_size=1, max_size=3),
    st.sampled_from(["a,b", "a|b", "a b", "é", "", "d\n", "-", 7, *_ODD]),
)
_INTS = st.one_of(
    st.integers(0, 40),
    st.integers(-(2**64), 2**64),
    st.integers(0, 2**62).map(np.int64),
    st.sampled_from([2**63 - 1, 2**63, 10**400, -1, 2.5, 1.0, np.uint64(2**63), *_ODD]),
)
_REALS = st.one_of(
    st.floats(),
    st.integers(-(10**400), 10**400),
    st.floats(width=32).map(np.float32),
    st.sampled_from([10**400, -(10**400), np.float64(-0.0), np.int64(3), 0.1, -0.5, *_ODD]),
)


def _made(make):
    """What make() returns, or the ValueError it raises."""
    try:
        return make()
    except ValueError as err:
        return err


def _names_a_field(err: ValueError, *starts: str) -> bool:
    return str(err).startswith(tuple(f"{start} " for start in starts))


# the messages of the rules over more than one field name no single field
_ROW_RULES = ("confusion matrix must", "counts sum to")


def test_the_byte_table_and_the_regex_agree_on_every_byte():
    assert [bool(IDENT_RE.match(chr(b))) for b in range(256)] == IDENT_BYTES.tolist()
    assert IDENT_BYTES.sum() == len(IDENT_ALPHABET) == 64


def test_a_payload_of_another_type_is_refused_by_the_record():
    # such a record once failed only later, in from_records, emit_records and
    # aggregate, with AttributeError: 'tuple' object has no attribute 'coords'
    with pytest.raises(ValueError) as err:
        ExperimentRecord("a", "m", 0, 0, (1.0, 2.0))
    message = "payload must be a ConfusionMatrix or an ObjectivePoint, got (1.0, 2.0)"
    assert str(err.value) == message


@pytest.mark.parametrize("kind", ["counts", "objectives"])
class TestRecordClosure:
    @settings(deadline=None, max_examples=150)
    @given(
        keys=st.tuples(_NAMES, _NAMES, _INTS, _INTS),
        counts=st.tuples(*[_INTS] * 4),
        coords=st.lists(_REALS, min_size=1, max_size=3),
    )
    @example(keys=("a,b", "m", "0", 0), counts=(1, 1, 1, 1), coords=[0.5])
    @example(keys=("d", "m", True, 0), counts=(1, 1, 1, 1), coords=[0.5])
    @example(keys=("d", "m", 0, 2**63), counts=(1, 1, 1, 1), coords=[0.5])
    @example(keys=("d", "m", np.int64(1), 0), counts=(1, 2, 3, np.int64(4)), coords=[0.5])
    @example(keys=("d", "m", 0, 0), counts=(2**63, 0, 0, 0), coords=[10**400, 0.5])
    @example(keys=("d", "m", 0, 0), counts=(1, 1, 1, 1), coords=["1.5", True])
    def test_a_record_is_refused_or_reads_back_equal(self, kind, keys, counts, coords):
        if kind == "counts":
            record = _made(lambda: ExperimentRecord(*keys, ConfusionMatrix(*counts)))
            payload_fields = ("tp", "fn", "fp", "tn")
        else:
            record = _made(lambda: ExperimentRecord(*keys, ObjectivePoint(tuple(coords))))
            payload_fields = ("coords",)
        if isinstance(record, ValueError):
            fields = ("dataset", "method", "fold", "solution_id", *payload_fields)
            assert _names_a_field(record, *fields) or str(record).startswith(_ROW_RULES), record
            return
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "records.csv")
            emit_records([record], path)
            assert list(parse_records(path, kind)) == [record]


class TestReportCellClosure:
    @settings(deadline=None, max_examples=150)
    @given(mean=_REALS, std=_REALS, fold_count=_INTS)
    @example(mean=0.5, std=0.1, fold_count=2**63)
    @example(mean=0.5, std=0.1, fold_count=True)
    @example(mean=0.5, std=0.1, fold_count="2")
    @example(mean=10**400, std=0.1, fold_count=1)
    @example(mean=np.float32(0.1), std=-0.0, fold_count=np.int64(3))
    def test_a_cell_is_refused_or_reads_back_equal(self, mean, std, fold_count):
        cell = _made(lambda: ReportCell(mean, std, fold_count))
        if isinstance(cell, ValueError):
            assert _names_a_field(cell, "mean", "std", "fold_count", "standard deviation"), cell
            return
        key = ("HV", "ref", "ds")
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "report.csv")
            render_report(ComparisonReport("m", {key: cell}), "csv", path)
            assert read_report_csv(path).cells == {key: cell}


class TestDatasetInfoClosure:
    @settings(deadline=None, max_examples=150)
    @given(name=_NAMES, sizes=st.tuples(*[_INTS] * 3))
    @example(name="d", sizes=(True, 10, 2))
    @example(name="d", sizes=(2.5, 10, 2))
    @example(name="d", sizes=(2, 2**63, 2))
    @example(name="d", sizes=(2, 10, "2"))
    @example(name="a,b", sizes=(2, 10, 2))
    @example(name="d", sizes=(np.int64(2), np.uint8(10), 2))
    def test_an_info_is_refused_or_reads_back_equal(self, name, sizes):
        info = _made(lambda: DatasetInfo(name, *sizes))
        if isinstance(info, ValueError):
            fields = ("name", *DATASETS_HEADER[1:], "minority class")
            assert _names_a_field(info, *fields), info
            return
        line = ",".join(map(str, (info.name, info.n_features, info.n_samples, info.n_minority)))
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "datasets.csv")
            with open(path, "w", encoding="utf-8", newline="") as handle:
                handle.write(",".join(DATASETS_HEADER) + "\n" + line + "\n")
            assert parse_datasets(path) == [info]
