"""One rule per field kind: what a written type holds, its file reads back.

Each property draws field values of every type a caller might pass: str,
bool, numpy scalars, NaN, infinities, 2**63, 10**400 and names outside
``[A-Za-z0-9_-]+``. Either the constructor raises a ValueError whose message
starts with the field it refuses, or the object is written and read back
equal. A bounded value is held as a Python float within its bounds, and a
list of requested names is refused naming its argument or comes back as the
known names it requests.
"""

from __future__ import annotations

import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pareto_judge._fields import IDENT_ALPHABET, IDENT_BYTES, IDENT_RE, requested
from pareto_judge.confusion_metrics import ConfusionMatrix, MetricValue
from pareto_judge.indicators import INDICATOR_NAMES, IndicatorResult, evaluate_indicator
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
from pareto_judge.objective_space import ObjectivePoint, SolutionSet

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
            assert _names_a_field(cell, "mean", "std", "fold_count"), cell
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


class TestBoundedValueClosure:
    @settings(deadline=None, max_examples=150)
    @given(value=_REALS)
    @example(value=True)
    @example(value="0.5")
    @example(value=None)
    @example(value=np.float64(0.25))
    @example(value=1.5)
    def test_a_metric_value_is_refused_or_a_float_in_the_unit_interval(self, value):
        metric = _made(lambda: MetricValue(value))
        if isinstance(metric, ValueError):
            assert _names_a_field(metric, "value"), metric
            return
        assert type(metric.value) is float and 0.0 <= metric.value <= 1.0

    @settings(deadline=None, max_examples=150)
    @given(name=st.sampled_from(INDICATOR_NAMES), value=_REALS)
    @example(name="ED", value=-0.1)
    @example(name="SDR", value=1.5)
    @example(name="HV", value=np.float32(2.5))
    def test_an_indicator_value_is_refused_or_a_float_within_its_bounds(self, name, value):
        result = _made(lambda: IndicatorResult(name, value, 1, 1))
        if isinstance(result, ValueError):
            assert _names_a_field(result, "value"), result
            return
        high = 1.0 if name in ("SDR", "NDR") else math.inf
        assert type(result.value) is float and 0.0 <= result.value <= high

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: MetricValue(1.5), "value must lie in [0, 1], got 1.5"),
            (lambda: MetricValue(True), "value must be a real number, got True"),
            (lambda: MetricValue("0.5"), "value must be a real number, got '0.5'"),
            (lambda: MetricValue(None), "value must be a real number, got None"),
            (lambda: IndicatorResult("ED", -0.1, 3, 1), "value must be non-negative, got -0.1"),
            (lambda: IndicatorResult("SDR", 1.5, 3, 1), "value must lie in [0, 1], got 1.5"),
        ],
        ids=["metric-1.5", "metric-True", "metric-str", "metric-None", "ED--0.1", "SDR-1.5"],
    )
    def test_the_message_names_the_field(self, make, message):
        with pytest.raises(ValueError) as err:
            make()
        assert str(err.value) == message

    def test_a_numpy_metric_value_is_held_as_a_float(self):
        assert type(MetricValue(np.float64(0.25)).value) is float


_KNOWN_CASES = st.sampled_from(INDICATOR_NAMES).flatmap(
    lambda name: st.sampled_from([name, name.lower(), name.capitalize()])
)
_REQUEST_ITEMS = st.one_of(
    _KNOWN_CASES, st.text(max_size=3), st.binary(max_size=3), st.integers(-2, 2), st.none()
)


def _unknown_listed(keys: list, known: tuple) -> str:
    """The reprs of the items that are not a known str, once each, in request order."""
    listed: list[str] = []
    for key in keys:
        if not (isinstance(key, str) and key in known) and repr(key) not in listed:
            listed.append(repr(key))
    return ", ".join(listed)


class TestRequested:
    @settings(deadline=None, max_examples=300)
    @given(
        values=st.one_of(
            st.lists(_REQUEST_ITEMS, max_size=6), st.text(max_size=4), st.binary(max_size=4)
        ),
        upper=st.booleans(),
        once=st.booleans(),
    )
    @example(values=["hv", 3], upper=True, once=False)
    @example(values=[None], upper=True, once=False)
    @example(values=["igd", b"xx"], upper=True, once=False)
    @example(values=["HV", "hv", "Hv"], upper=False, once=True)
    def test_a_request_is_refused_or_gives_the_known_names_in_order(self, values, upper, once):
        request = iter(values) if once and isinstance(values, list) else values
        names = _made(lambda: requested("indicators", request, INDICATOR_NAMES, upper))
        if isinstance(values, (str, bytes)):
            text = f"indicators takes a sequence of names, not the string {values!r}"
            assert str(names) == text
            return
        keys = [value.upper() if upper and isinstance(value, str) else value for value in values]
        unknown = _unknown_listed(keys, INDICATOR_NAMES)
        if unknown:
            assert str(names) == f"indicators unknown [{unknown}]; expected from {INDICATOR_NAMES}"
        else:
            assert names == [name for name in INDICATOR_NAMES if name in keys]

    def _objectives(self, directory: str) -> str:
        path = os.path.join(directory, "objectives.csv")
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write("dataset,method,fold,solution_id,obj_1,obj_2\nd,m,0,0,0.5,0.25\n")
        return path

    @pytest.mark.parametrize(
        "negate, message",
        [
            ([3, "obj_9"], "negate unknown [3, 'obj_9']; expected from ('obj_1', 'obj_2')"),
            (["OBJ_1"], "negate unknown ['OBJ_1']; expected from ('obj_1', 'obj_2')"),
            (b"obj_1", "negate takes a sequence of names, not the string b'obj_1'"),
        ],
    )
    def test_a_negate_list_is_refused_naming_the_argument(self, negate, message):
        with tempfile.TemporaryDirectory() as directory:
            with pytest.raises(ValueError) as err:
                parse_records(self._objectives(directory), "objectives", negate)
        assert str(err.value) == message

    def test_negate_reads_an_iterator_once_and_ignores_repeats(self):
        with tempfile.TemporaryDirectory() as directory:
            table = parse_records(self._objectives(directory), "objectives", iter(["obj_2"] * 2))
        assert table.values.tolist() == [[0.5, -0.25]]

    @pytest.mark.parametrize("name", [3, None, b"HV", "igd"])
    def test_evaluate_indicator_refuses_a_name_naming_the_argument(self, name):
        points = SolutionSet.from_coords("s", [(0.5, 0.5)])
        with pytest.raises(ValueError) as err:
            evaluate_indicator(name, points, points)
        shown = name.upper() if isinstance(name, str) else name
        assert str(err.value) == f"name unknown indicator {shown!r}"
