from __future__ import annotations

import ast
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pareto_judge
from oracles import loop_metrics
from pareto_judge.confusion_metrics import (
    ConfusionMatrix,
    MetricValue,
    bac,
    check_counts,
    counts_array,
    fbeta,
    gmean,
    metric_table,
    objective_point_of,
    ppv,
    tnr,
    tpr,
)
from pareto_judge.ingest_report import COUNTS_HEADER, ParseError, parse_records


def _random_matrices(rng: np.random.Generator, n: int, high: int = 250, min_tp: int = 0):
    out = []
    while len(out) < n:
        tp, fn, fp, tn = (int(v) for v in rng.integers(0, high + 1, size=4))
        if min_tp and tp < min_tp:
            continue
        if tp + fn + fp + tn == 0:
            continue
        out.append(ConfusionMatrix(tp, fn, fp, tn))
    return out


class TestConstruction:
    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="fn"):
            ConfusionMatrix(tp=1, fn=-1, fp=0, tn=0)

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            ConfusionMatrix(0, 0, 0, 0)

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            ConfusionMatrix(1.5, 0, 0, 1)

    def test_bool_rejected(self):
        with pytest.raises(ValueError, match="tp must be an integer"):
            ConfusionMatrix(True, 0, 0, 1)

    def test_numpy_counts_stored_as_python_ints(self):
        m = ConfusionMatrix(np.int64(40), np.uint8(10), 5, 45)
        assert [type(c) for c in (m.tp, m.fn, m.fp, m.tn)] == [int] * 4
        assert m == ConfusionMatrix(40, 10, 5, 45)

    def test_numpy_row_sums_cannot_wrap(self):
        # four int64 counts of 2**62 sum to 2**64, which wraps to 0 in int64
        with pytest.raises(ValueError, match=rf"counts sum to {2**64}, above the limit 2\*\*53"):
            ConfusionMatrix(*[np.int64(2**62)] * 4)

    def test_counts_bounded_by_two_to_the_53(self):
        with pytest.raises(ValueError, match=r"2\*\*53"):
            ConfusionMatrix(2**53, 1, 0, 0)
        assert tpr(ConfusionMatrix(2**53, 0, 0, 0)).value == 1.0

    def test_counts_outside_int64_rejected(self):
        with pytest.raises(ValueError, match=rf"^tp must be below 2\*\*63, got {2**63}$"):
            ConfusionMatrix(2**63, 0, 0, 0)
        with pytest.raises(ValueError, match=rf"^fn must be non-negative, got {-(2**70)}$"):
            ConfusionMatrix(1, -(2**70), 0, 0)

    def test_int64_row_sums_cannot_wrap(self):
        # four counts of 2**62 sum to 2**64, which wraps to 0 in int64
        with pytest.raises(ValueError, match=f"counts sum to {2**64}, above the limit 2"):
            check_counts(np.full((1, 4), 2**62, dtype=np.int64))
        # a uint64 count at or above 2**63 fails the count rule before any sum
        with pytest.raises(ValueError, match=rf"^tp must be below 2\*\*63, got {2**64 - 1}$"):
            check_counts(np.array([[2**64 - 1, 1, 1, 1]], dtype=np.uint64))

    def test_check_names_the_first_bad_row(self):
        counts = np.array([[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, -2, 1]])
        with pytest.raises(ValueError, match="at least one outcome"):
            check_counts(counts)
        with pytest.raises(ValueError, match="fp must be non-negative, got -2"):
            check_counts(counts[[0, 2, 1]])
        check_counts(counts[:1])
        check_counts(np.zeros((0, 4), dtype=np.int64))

    def test_metric_value_range_enforced(self):
        with pytest.raises(ValueError):
            MetricValue(1.2)
        with pytest.raises(ValueError):
            MetricValue(-0.1)


class TestBaseMetrics:
    def test_tpr(self):
        assert tpr(ConfusionMatrix(268, 0, 0, 500)).value == 1.0
        half = tpr(ConfusionMatrix(50, 50, 0, 0))
        assert half.value == float(half) == 0.5
        degenerate = tpr(ConfusionMatrix(0, 0, 3, 7))
        assert degenerate.value == 0.0 and not degenerate.defined

    def test_tnr(self):
        assert tnr(ConfusionMatrix(0, 0, 0, 9)).value == 1.0
        assert tnr(ConfusionMatrix(1, 1, 25, 75)).value == 0.75
        degenerate = tnr(ConfusionMatrix(5, 5, 0, 0))
        assert degenerate.value == 0.0 and not degenerate.defined

    def test_ppv(self):
        assert ppv(ConfusionMatrix(10, 0, 0, 10)).value == 1.0
        assert ppv(ConfusionMatrix(10, 5, 30, 55)).value == 0.25
        degenerate = ppv(ConfusionMatrix(0, 4, 0, 6))
        assert degenerate.value == 0.0 and not degenerate.defined


class TestAggregatedMetrics:
    def test_bac(self):
        assert bac(ConfusionMatrix(10, 0, 0, 10)).value == 1.0
        assert bac(ConfusionMatrix(50, 50, 25, 75)).value == 0.625
        majority_only = bac(ConfusionMatrix(0, 100, 0, 100))
        assert majority_only.value == 0.5

    def test_bac_defined_needs_both_rates(self):
        assert not bac(ConfusionMatrix(0, 0, 3, 7)).defined

    def test_gmean(self):
        assert gmean(ConfusionMatrix(0, 10, 5, 5)).value == 0.0
        assert gmean(ConfusionMatrix(80, 20, 10, 90)).value == pytest.approx(0.8485, abs=1e-4)

    def test_gmean_ambiguity_under_swapped_rates(self):
        # (TPR, TNR) = (0.9, 0.4) and (0.4, 0.9) give the same aggregate
        a = ConfusionMatrix(90, 10, 60, 40)
        b = ConfusionMatrix(40, 60, 10, 90)
        assert tpr(a).value == tnr(b).value and tnr(a).value == tpr(b).value
        assert abs(gmean(a).value - gmean(b).value) <= 1e-12
        assert gmean(a).value == pytest.approx(0.6, abs=1e-12)

    def test_fbeta_fixed_point(self):
        m = ConfusionMatrix(80, 20, 20, 100)  # PPV = TPR = 0.8
        for beta in (0.1, 0.5, 1.0, 2.0, 10.0):
            assert fbeta(m, beta).value == pytest.approx(0.8, abs=1e-12)

    def test_fbeta_hand_value(self):
        m = ConfusionMatrix(10, 0, 10, 5)  # PPV = 0.5, TPR = 1.0
        assert fbeta(m, 1.0).value == pytest.approx(2 / 3, abs=1e-12)

    def test_fbeta_degenerate(self):
        result = fbeta(ConfusionMatrix(0, 5, 0, 5), 1.0)
        assert result.value == 0.0 and not result.defined

    @pytest.mark.parametrize("beta", [0.0, -1.0, math.inf, math.nan])
    def test_fbeta_rejects_bad_beta(self, beta):
        with pytest.raises(ValueError, match="beta"):
            fbeta(ConfusionMatrix(1, 1, 1, 1), beta)

    def test_fbeta_names_a_beta_whose_square_overflows(self):
        m = ConfusionMatrix(4, 6, 1, 9)  # TPR = 0.4
        with pytest.raises(ValueError) as err:
            fbeta(m, 1.4e154)
        assert str(err.value) == "beta 1.4e+154 is too large: its square overflows"
        # the largest betas weigh recall alone
        assert fbeta(m, 1.3e154).value == pytest.approx(0.4)


# four counts summing to at most 2**53, from tiny to the largest allowed
_counts = st.lists(
    st.one_of(st.integers(0, 30), st.integers(0, 2**51)), min_size=4, max_size=4
).filter(any)
_beta_lists = st.lists(st.floats(1e-3, 1e3), max_size=6)


class TestMetricTable:
    @settings(deadline=None, max_examples=200)
    @given(rows=st.lists(_counts, min_size=1, max_size=20), betas=_beta_lists)
    def test_equals_loop_metrics(self, rows, betas):
        values, defined = metric_table(np.array(rows, dtype=np.int64), betas)
        for row, row_values, row_defined in zip(rows, values.tolist(), defined.tolist()):
            assert list(zip(row_values, row_defined)) == loop_metrics(*row, betas)

    @settings(deadline=None, max_examples=200)
    @given(rows=st.lists(_counts, min_size=1, max_size=20))
    def test_rates_are_correctly_rounded_quotients(self, rows):
        values, defined = (a.tolist() for a in metric_table(np.array(rows, dtype=np.int64)))
        for (tp, fn, fp, tn), row_values, row_defined in zip(rows, values, defined):
            for (num, den), value, ok in zip(
                ((tp, tp + fn), (tn, tn + fp), (tp, tp + fp)), row_values, row_defined
            ):
                assert ok == (den > 0)
                assert value == (float(Fraction(num, den)) if den else 0.0)

    def test_one_row_per_scalar_function(self):
        m = ConfusionMatrix(7, 3, 2, 11)
        values, defined = metric_table(np.array([[7, 3, 2, 11]]), (0.5, 2.0))
        scalar = [tpr(m), tnr(m), ppv(m), bac(m), gmean(m), fbeta(m, 0.5), fbeta(m, 2.0)]
        assert values[0].tolist() == [v.value for v in scalar]
        assert defined[0].all()
        assert objective_point_of(m).coords == tuple(values[0, :2].tolist())

    @pytest.mark.parametrize("beta", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_beta(self, beta):
        with pytest.raises(ValueError, match="beta"):
            metric_table(np.array([[1, 1, 1, 1]]), (1.0, beta))


# betas over the whole range the property covers, and log-uniform within it
_wide_betas = st.one_of(
    st.floats(1e-150, 1e150), st.floats(-150.0, 150.0).map(lambda e: 10.0**e)
)


def _bits(metric: MetricValue) -> tuple[str, bool]:
    return metric.value.hex(), metric.defined


class TestScalarEqualsTable:
    """The scalar functions run the table's formula on one matrix's ints."""

    @settings(deadline=None, max_examples=300)
    @given(
        row=st.lists(
            st.one_of(st.just(0), st.integers(0, 30), st.integers(0, 2**51)), min_size=4, max_size=4
        ).filter(any),
        beta=_wide_betas,
    )
    @example(row=[2**53, 0, 0, 0], beta=1e150)
    @example(row=[0, 2**52, 2**51, 2**51], beta=1e-150)
    @example(row=[0, 0, 3, 7], beta=1.0)  # TPR undefined
    @example(row=[5, 5, 0, 0], beta=1.0)  # TNR undefined
    @example(row=[0, 4, 0, 6], beta=1.0)  # PPV and F-beta undefined
    def test_bit_equal_to_metric_table(self, row, beta):
        m = ConfusionMatrix(*row)
        values, defined = metric_table(counts_array([m]), (beta,))
        table = [(v.hex(), d) for v, d in zip(values[0].tolist(), defined[0].tolist())]
        scalar = [tpr(m), tnr(m), ppv(m), bac(m), gmean(m), fbeta(m, beta)]
        assert [_bits(metric) for metric in scalar] == table
        assert [type(metric.defined) for metric in scalar] == [bool] * 6
        assert [c.hex() for c in objective_point_of(m).coords] == [v for v, _ in table[:2]]


class TestOneFormula:
    """``_metrics`` is the one formula; its operators follow the input type."""

    def test_scalars_stay_python_floats_and_the_table_float64(self):
        matrices = [ConfusionMatrix(17, 3, 9, 71), ConfusionMatrix(0, 4, 0, 6)]
        for m in matrices:
            scalar = [tpr(m), tnr(m), ppv(m), bac(m), gmean(m), fbeta(m, 0.5), fbeta(m, 2.0)]
            assert [type(metric.value) for metric in scalar] == [float] * 7
            assert [type(c) for c in objective_point_of(m).coords] == [float] * 2
        values, defined = metric_table(counts_array(matrices), (0.5, 2.0))
        assert (values.dtype, values.shape) == (np.float64, (2, 7))
        assert (defined.dtype, defined.shape) == (np.bool_, (2, 7))

    def test_no_other_module_names_the_formula(self):
        # the F-beta curves reach it through metric_table, not a third way
        names = []
        for path in sorted(Path(pareto_judge.__file__).parent.glob("*.py")):
            if path.name == "confusion_metrics.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.alias):
                    found = node.name
                elif isinstance(node, ast.Name):
                    found = node.id
                elif isinstance(node, ast.Attribute):
                    found = node.attr
                else:
                    continue
                if found == "_metrics":
                    names.append(f"{path.name}:{getattr(node, 'lineno', '?')}")
        assert names == []


def _one_row_file(directory, row) -> str:
    path = str(directory / "counts.csv")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(",".join(COUNTS_HEADER) + "\nd,m,0,0," + ",".join(map(str, row)) + "\n")
    return path


def _message(fn, *args) -> str:
    with pytest.raises(ValueError) as info:
        fn(*args)
    return str(info.value)


class TestOneCountsRule:
    """A matrix, a counts array and a counts file reject a row with one text."""

    def test_negative_count(self):
        text = _message(ConfusionMatrix, 3, 0, -2, 1)
        assert text == "fp must be non-negative, got -2"
        assert _message(check_counts, np.array([[3, 0, -2, 1]])) == text

    @pytest.mark.parametrize(
        "row, text",
        [
            ((0, 0, 0, 0), "confusion matrix must contain at least one outcome"),
            ((2**52, 2**52, 1, 0), f"counts sum to {2**53 + 1}, above the limit 2**53"),
        ],
    )
    def test_matrix_array_and_file_agree(self, tmp_path, row, text):
        assert _message(ConfusionMatrix, *row) == text
        assert _message(check_counts, np.array([row], dtype=np.int64)) == text
        path = _one_row_file(tmp_path, row)
        with pytest.raises(ParseError) as info:
            parse_records(path, "counts")
        assert str(info.value) == f"{path}:2: {text}"


class TestObjectivePoint:
    def test_perfect_classifier(self):
        assert objective_point_of(ConfusionMatrix(10, 0, 0, 10)).coords == (1.0, 1.0)

    def test_hand_value(self):
        assert objective_point_of(ConfusionMatrix(50, 50, 25, 75)).coords == (0.5, 0.75)

    def test_all_negative_classifier(self):
        assert objective_point_of(ConfusionMatrix(0, 50, 0, 50)).coords == (0.0, 1.0)


class TestProperties:
    def test_values_stay_in_unit_interval(self):
        rng = np.random.default_rng(7)
        for m in _random_matrices(rng, 2000):
            for value in (tpr(m), tnr(m), ppv(m), bac(m), gmean(m), fbeta(m, 0.37), fbeta(m, 4.2)):
                assert 0.0 <= value.value <= 1.0

    def test_bac_dominates_gmean_with_equality_iff_equal_rates(self):
        rng = np.random.default_rng(11)
        for m in _random_matrices(rng, 3000):
            gap = bac(m).value - gmean(m).value
            assert gap >= -1e-12
            if tpr(m).value == tnr(m).value:
                assert abs(gap) <= 1e-12
            else:
                assert gap > 1e-12

    def test_fbeta_at_one_is_harmonic_mean(self):
        rng = np.random.default_rng(13)
        for m in _random_matrices(rng, 2000):
            p, t = ppv(m).value, tpr(m).value
            harmonic = 2 * p * t / (p + t) if p + t > 0 else 0.0
            assert abs(fbeta(m, 1.0).value - harmonic) <= 1e-12

    def test_fbeta_limits_approach_components(self):
        rng = np.random.default_rng(17)
        for m in _random_matrices(rng, 500, min_tp=1):
            assert abs(fbeta(m, 1e3).value - tpr(m).value) <= 1e-2
            assert abs(fbeta(m, 1e-3).value - ppv(m).value) <= 1e-2

    def test_fbeta_monotone_in_beta(self):
        rng = np.random.default_rng(19)
        betas = np.logspace(-1, 1, 41)
        for m in _random_matrices(rng, 300):
            values = [fbeta(m, b).value for b in betas]
            diffs = np.diff(values)
            if ppv(m).value <= tpr(m).value:
                assert (diffs >= -1e-15).all()
            else:
                assert (diffs <= 1e-15).all()

    def test_gmean_swap_invariance_random(self):
        rng = np.random.default_rng(23)
        for m in _random_matrices(rng, 1000):
            swapped = ConfusionMatrix(m.tn, m.fp, m.fn, m.tp)
            assert tpr(swapped).value == tnr(m).value
            assert abs(gmean(m).value - gmean(swapped).value) <= 1e-12
