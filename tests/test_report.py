from __future__ import annotations

import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pareto_judge.confusion_metrics import ConfusionMatrix
from pareto_judge.indicators import INDICATOR_NAMES, euclidean_distance, hypervolume, ndr, sdr
from pareto_judge.ingest_report import (
    ComparisonReport,
    ExperimentRecord,
    RecordTable,
    ReportCell,
    aggregate,
    pair_blocks,
    read_report_csv,
    render_report,
)
from pareto_judge.objective_space import ObjectivePoint, SolutionSet


def _obj_record(dataset, method, fold, solution_id, coords):
    return ExperimentRecord(dataset, method, fold, solution_id, ObjectivePoint(coords))


def _fixture_records():
    """Two identical folds: front {(0.4,0.9),(0.9,0.4),(0.7,0.7)} vs ref (0.6,0.6)."""
    front = []
    refs = []
    for fold in (0, 1):
        for sid, counts in enumerate(((4, 6, 1, 9), (9, 1, 6, 4), (7, 3, 3, 7))):
            front.append(ExperimentRecord("ds1", "moo", fold, sid, ConfusionMatrix(*counts)))
        refs.append(ExperimentRecord("ds1", "base", fold, 0, ConfusionMatrix(6, 4, 4, 6)))
    return front, refs


class TestAggregate:
    def test_identical_folds_have_zero_std(self):
        front, refs = _fixture_records()
        report = aggregate(front, refs, ("ED", "HV", "SDR", "NDR"))
        for cell in report.cells.values():
            assert cell.std == 0.0
            assert cell.fold_count == 2
        assert report.moo_method == "moo"
        assert report.cells[("SDR", "base", "ds1")].mean == 1 / 3
        assert report.cells[("NDR", "base", "ds1")].mean == 1.0
        front_set = SolutionSet.from_coords("f", [(0.4, 0.9), (0.9, 0.4), (0.7, 0.7)])
        ref_point = ObjectivePoint((0.6, 0.6))
        assert report.cells[("ED", "base", "ds1")].mean == euclidean_distance(front_set, ref_point)
        assert report.cells[("HV", "base", "ds1")].mean == hypervolume(front_set, ref_point)

    def test_two_fold_mean_and_population_std(self):
        # fold 0: the single front point dominates the reference; fold 1: it does not
        front = [
            _obj_record("ds", "moo", 0, 0, (0.9, 0.9)),
            _obj_record("ds", "moo", 1, 0, (0.1, 0.1)),
        ]
        refs = [
            _obj_record("ds", "ref", 0, 0, (0.5, 0.5)),
            _obj_record("ds", "ref", 1, 0, (0.5, 0.5)),
        ]
        cell = aggregate(front, refs, ("SDR",)).cells[("SDR", "ref", "ds")]
        assert cell.mean == 0.5
        assert cell.std == 0.5

    def test_gd_uses_pooled_reference_set(self):
        front = [_obj_record("ds", "moo", 0, 0, (0.5, 0.5))]
        refs = [
            _obj_record("ds", "a", 0, 0, (0.5, 0.5)),
            _obj_record("ds", "b", 0, 0, (0.0, 0.0)),
        ]
        report = aggregate(front, refs, ("GD",))
        assert list(report.cells) == [("GD", "pooled", "ds")]
        assert report.cells[("GD", "pooled", "ds")].mean == 0.0

    def test_filter_front_changes_ratio_denominators(self):
        front = [
            _obj_record("ds", "moo", 0, 0, (0.2, 0.2)),
            _obj_record("ds", "moo", 0, 1, (0.6, 0.6)),
        ]
        refs = [_obj_record("ds", "ref", 0, 0, (0.5, 0.5))]
        unfiltered = aggregate(front, refs, ("SDR",)).cells[("SDR", "ref", "ds")]
        filtered = aggregate(front, refs, ("SDR",), filter_front=True).cells[("SDR", "ref", "ds")]
        assert unfiltered.mean == 0.5
        assert filtered.mean == 1.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(97)
        front, refs = _fixture_records()
        base = aggregate(front, refs, ("ED", "HV", "SDR", "NDR"))
        for _ in range(3):
            front_shuffled = list(front)
            refs_shuffled = list(refs)
            rng.shuffle(front_shuffled)
            rng.shuffle(refs_shuffled)
            again = aggregate(front_shuffled, refs_shuffled, ("ED", "HV", "SDR", "NDR"))
            assert again.cells == base.cells

    def test_seed_only_affects_monte_carlo(self):
        # three objectives are exact too, so no cell depends on a seed:
        # fold 0 unites two overlapping boxes (0.25 + 0.5 - 0.125), fold 1
        # holds one box of side 0.5
        front = [
            _obj_record("ds", "moo", 0, 0, (1.0, 0.5, 0.5)),
            _obj_record("ds", "moo", 0, 1, (0.5, 1.0, 1.0)),
            _obj_record("ds", "moo", 1, 0, (1.0, 1.0, 1.0)),
        ]
        refs = [
            _obj_record("ds", "ref", 0, 0, (0.0, 0.0, 0.0)),
            _obj_record("ds", "ref", 1, 0, (0.5, 0.5, 0.5)),
        ]
        cell = aggregate(front, refs, ("HV",)).cells[("HV", "ref", "ds")]
        assert cell == ReportCell(mean=0.375, std=0.25, fold_count=2)

    def test_coverage_mismatch_rejected(self):
        front = [_obj_record("ds", "moo", 0, 0, (0.5, 0.5))]
        refs = [_obj_record("ds", "ref", 1, 0, (0.5, 0.5))]
        with pytest.raises(ValueError, match="cover different"):
            aggregate(front, refs, ("ED",))

    def test_multiple_front_methods_rejected(self):
        front = [
            _obj_record("ds", "moo1", 0, 0, (0.5, 0.5)),
            _obj_record("ds", "moo2", 0, 1, (0.5, 0.5)),
        ]
        refs = [_obj_record("ds", "ref", 0, 0, (0.5, 0.5))]
        with pytest.raises(ValueError, match="one method"):
            aggregate(front, refs, ("ED",))

    def test_reference_method_with_multiple_solutions_rejected(self):
        front = [_obj_record("ds", "moo", 0, 0, (0.5, 0.5))]
        refs = [
            _obj_record("ds", "ref", 0, 0, (0.5, 0.5)),
            _obj_record("ds", "ref", 0, 1, (0.6, 0.6)),
        ]
        with pytest.raises(ValueError, match="multiple solutions"):
            aggregate(front, refs, ("ED",))

    def test_first_repeated_reference_in_the_file_is_named(self):
        # both datasets repeat a key; ds2 sorts later but repeats first in the file
        front = [_obj_record(ds, "moo", 0, 0, (0.5, 0.5)) for ds in ("ds1", "ds2")]
        refs = [
            _obj_record("ds2", "ref", 0, 0, (0.5, 0.5)),
            _obj_record("ds1", "ref", 0, 0, (0.5, 0.5)),
            _obj_record("ds2", "ref", 0, 1, (0.6, 0.6)),
            _obj_record("ds1", "ref", 0, 1, (0.6, 0.6)),
        ]
        with pytest.raises(ValueError) as err:
            aggregate(front, refs, ("ED",))
        assert str(err.value) == (
            "reference method 'ref' has multiple solutions for dataset 'ds2' fold 0"
        )

    def test_pair_blocks_orders_blocks_by_key_and_rows_within_them(self):
        # blocks by (dataset, fold); front rows by solution_id, references by method
        front = RecordTable.from_records(
            [
                _obj_record("ds2", "moo", 0, 5, (0.1, 0.1)),
                _obj_record("ds1", "moo", 1, 2, (0.2, 0.2)),
                _obj_record("ds1", "moo", 0, 3, (0.3, 0.3)),
                _obj_record("ds1", "moo", 1, 0, (0.4, 0.4)),
            ]
        )
        refs = RecordTable.from_records(
            [
                _obj_record("ds1", "b", 1, 0, (0.5, 0.5)),
                _obj_record("ds2", "a", 0, 0, (0.5, 0.5)),
                _obj_record("ds1", "a", 1, 0, (0.5, 0.5)),
                _obj_record("ds1", "b", 0, 0, (0.5, 0.5)),
            ]
        )
        method, blocks = pair_blocks(front, refs)
        assert method == "moo"
        assert [
            (b.dataset, b.fold, b.front_rows.tolist(), b.methods, b.ref_rows) for b in blocks
        ] == [
            ("ds1", 0, [2], ["b"], [3]),
            ("ds1", 1, [3, 1], ["a", "b"], [2, 0]),
            ("ds2", 0, [0], ["a"], [1]),
        ]

    def test_dimension_mix_rejected(self):
        front = [_obj_record("ds", "moo", 0, 0, (0.5, 0.5, 0.5))]
        refs = [_obj_record("ds", "ref", 0, 0, (0.5, 0.5))]
        with pytest.raises(ValueError, match="dimensionalities"):
            aggregate(front, refs, ("ED",))

    @pytest.mark.parametrize(
        "refs, indicators, message",
        [
            ([], ["ED"], "no reference records to aggregate"),
            (
                [_obj_record("ds", "ref", 0, 0, (0.5, 0.5))],
                [],
                "at least one indicator must be requested",
            ),
        ],
    )
    def test_an_empty_argument_is_rejected(self, refs, indicators, message):
        front = [_obj_record("ds", "moo", 0, 0, (0.5, 0.5))]
        with pytest.raises(ValueError, match=f"^{message}$"):
            aggregate(front, refs, indicators)

    def test_records_of_two_dimensionalities_make_no_table(self):
        records = [
            _obj_record("ds", "moo", 0, 0, (0.5, 0.5)),
            _obj_record("ds", "moo", 0, 1, (0.5, 0.5, 0.5)),
        ]
        with pytest.raises(ValueError, match=r"^records mix dimensionalities: \[2, 3\]$"):
            RecordTable.from_records(records)

    def test_records_of_two_payload_kinds_make_no_table(self):
        # the counts were once turned into (TPR, TNR) points and compared as such
        front = [
            _obj_record("ds", "moo", 0, 0, (0.5, 0.5)),
            ExperimentRecord("ds", "moo", 0, 1, ConfusionMatrix(1, 1, 1, 1)),
        ]
        refs = [_obj_record("ds", "ref", 0, 0, (0.25, 0.25))]
        message = "^cannot mix confusion counts and objective payloads in one file$"
        with pytest.raises(ValueError, match=message):
            RecordTable.from_records(front)
        with pytest.raises(ValueError, match=message):
            aggregate(front, refs, ("HV",))

    @pytest.mark.parametrize("field", ["fold", "solution_id"])
    @pytest.mark.parametrize(
        "value, problem",
        [
            (0.5, "must be an integer, got 0.5"),
            (1.0, "must be an integer, got 1.0"),
            ("1", "must be an integer, got '1'"),
            (True, "must be an integer, got True"),
            (-1, "must be non-negative, got -1"),
            (2**63, f"must be below 2**63, got {2**63}"),
            (2**64, f"must be below 2**63, got {2**64}"),
        ],
        ids=["0.5", "1.0", "1", "True", "-1", str(2**63), str(2**64)],
    )
    def test_a_key_that_is_not_an_int_in_range_makes_no_table(self, field, value, problem):
        fields = {"dataset": "ds", "method": "moo", "fold": 0, "solution_id": 1, field: value}
        with pytest.raises(ValueError) as err:
            ExperimentRecord(**fields, payload=ObjectivePoint((0.5, 0.5)))
        assert str(err.value) == f"{field} {problem}"

    @pytest.mark.parametrize("field", ["fold", "solution_id"])
    def test_a_numpy_int_key_is_held_as_an_int(self, field):
        fields = {"dataset": "ds", "method": "moo", "fold": 0, "solution_id": 1}
        record = ExperimentRecord(**{**fields, field: np.int64(1)}, payload=ObjectivePoint((0.5,)))
        assert type(getattr(record, field)) is int
        assert record == ExperimentRecord(**{**fields, field: 1}, payload=ObjectivePoint((0.5,)))

    def test_folds_are_never_truncated_together(self):
        with pytest.raises(ValueError, match=r"^fold must be an integer, got 0\.2$"):
            [_obj_record("ds", "moo", fold, 0, (0.5, 0.5)) for fold in (0.2, 0.7)]

    def test_a_repeated_key_makes_no_table(self):
        front = [
            _obj_record("ds", "moo", 0, 0, (0.9, 0.1)),
            _obj_record("ds", "moo", 0, 1, (0.5, 0.5)),
            _obj_record("ds", "moo", 0, 0, (0.1, 0.9)),
        ]
        refs = [_obj_record("ds", "ref", 0, 0, (0.25, 0.25))]
        message = r"^duplicate record key \('ds', 'moo', 0, 0\)$"
        with pytest.raises(ValueError, match=message):
            RecordTable.from_records(front)
        with pytest.raises(ValueError, match=message):
            aggregate(front, refs, ("HV",))
        assert len(RecordTable.from_records(front[:2])) == 2

    @pytest.mark.parametrize("field", ["dataset", "method"])
    @pytest.mark.parametrize("name", ["a,b", "a b", "", "é", 3])
    def test_a_name_outside_the_identifier_rule_makes_no_table(self, field, name):
        # "a,b" was once written as a report line of seven fields under a six-column header
        fields = {"dataset": "ds", "method": "moo", field: name}
        with pytest.raises(ValueError) as err:
            ExperimentRecord(**fields, fold=1, solution_id=0, payload=ObjectivePoint((0.5, 0.5)))
        assert str(err.value) == f"{field} invalid identifier {name!r}"

    def test_aggregate_names_the_first_bad_name(self):
        # a record checks its fields in order, so no record with a bad name reaches aggregate
        refs = _fixture_records()[1]
        with pytest.raises(ValueError, match=r"^dataset invalid identifier 'a,b'$"):
            [ExperimentRecord("a,b", "b|ase", *r.key[2:], r.payload) for r in refs]
        with pytest.raises(ValueError, match=r"^method invalid identifier 'b\|ase'$"):
            [ExperimentRecord("ds1", "b|ase", *r.key[2:], r.payload) for r in refs]

    def test_unknown_indicator_rejected(self):
        front = [_obj_record("ds", "moo", 0, 0, (0.5, 0.5))]
        refs = [_obj_record("ds", "ref", 0, 0, (0.5, 0.5))]
        text = "indicators unknown ['IGD']; expected from ('ED', 'GD', 'HV', 'SDR', 'NDR')"
        with pytest.raises(ValueError) as err:
            aggregate(front, refs, ("IGD",))
        assert str(err.value) == text

    def test_a_string_of_indicators_rejected(self):
        front = [_obj_record("ds", "moo", 0, 0, (0.5, 0.5))]
        refs = [_obj_record("ds", "ref", 0, 0, (0.5, 0.5))]
        text = "indicators takes a sequence of names, not the string 'HV'"
        with pytest.raises(ValueError) as err:
            aggregate(front, refs, "HV")
        assert str(err.value) == text

    @pytest.mark.parametrize(
        "indicators, unknown",
        [(["hv", 3], "[3]"), ([None], "[None]"), (["igd", b"xx"], "['IGD', b'xx']")],
    )
    def test_an_indicator_that_is_not_a_known_str_is_refused(self, indicators, unknown):
        # these once raised AttributeError (no .upper()) or TypeError (sorting bytes with str)
        front, refs = _fixture_records()
        with pytest.raises(ValueError) as err:
            aggregate(front, refs, indicators)
        assert str(err.value) == f"indicators unknown {unknown}; expected from {INDICATOR_NAMES}"

    @settings(deadline=None, max_examples=60)
    @given(data=st.data())
    def test_case_order_and_repeats_of_one_indicator_set_change_nothing(self, data):
        names = data.draw(st.sets(st.sampled_from(INDICATOR_NAMES), min_size=1))
        cased = st.sampled_from(sorted(names)).flatmap(
            lambda name: st.sampled_from([name, name.lower(), name.capitalize()])
        )
        request = data.draw(st.lists(cased, max_size=6))
        request += [name.lower() for name in names]  # every name of the set at least once
        request = data.draw(st.permutations(request))
        front, refs = _fixture_records()
        canonical = aggregate(front, refs, [name for name in INDICATOR_NAMES if name in names])
        report = aggregate(front, refs, request)
        assert list(report.cells.items()) == list(canonical.cells.items())
        with tempfile.TemporaryDirectory() as directory:
            paths = [os.path.join(directory, f"{i}.csv") for i in range(2)]
            for path, each in zip(paths, (canonical, report)):
                render_report(each, "csv", path)
            with open(paths[0], "rb") as first, open(paths[1], "rb") as second:
                assert first.read() == second.read()

    def test_value_that_is_not_finite_names_its_cell(self):
        front = [
            _obj_record("ds1", "moo", 0, 0, (1e200, 0.5)),
            _obj_record("ds1", "moo", 0, 1, (0.2, 0.9)),
        ]
        refs = [_obj_record("ds1", "ref", 0, 0, (-1e200, 0.3))]
        text = "indicator ED against reference 'ref' on dataset 'ds1' is not finite: inf on fold 0"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflow warning would raise here
            with pytest.raises(ValueError) as err:
                aggregate(front, refs, ("ED", "GD", "HV", "SDR", "NDR"))
        assert str(err.value) == text

    def test_fold_std_that_overflows_names_its_cell(self):
        # HV is 1e160 on fold 0 and 1 on fold 1: both finite, but the
        # deviations from their mean square to above the float range
        front = [
            _obj_record("ds1", "moo", 0, 0, (1e80, 1e80)),
            _obj_record("ds1", "moo", 1, 0, (1.0, 1.0)),
        ]
        refs = [_obj_record("ds1", "ref", fold, 0, (0.0, 0.0)) for fold in (0, 1)]
        text = (
            "indicator HV against reference 'ref' on dataset 'ds1' is not finite: "
            "its fold mean is 5e+159 and std inf"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as err:
                aggregate(front, refs, ("ED", "HV"))
        assert str(err.value) == text

    def test_mixed_payload_kinds_accepted(self):
        # counts and raw objectives may meet as long as the dimensions agree
        front = [ExperimentRecord("ds", "moo", 0, 0, ConfusionMatrix(7, 3, 3, 7))]
        refs = [_obj_record("ds", "ref", 0, 0, (0.6, 0.6))]
        cell = aggregate(front, refs, ("SDR",)).cells[("SDR", "ref", "ds")]
        assert cell.mean == 1.0

    def test_cells_match_direct_recomputation(self):
        rng = np.random.default_rng(101)
        front = []
        refs = []
        for dataset in ("d1", "d2"):
            for fold in range(4):
                for sid in range(5):
                    front.append(
                        _obj_record(dataset, "moo", fold, sid, tuple(rng.random(2)))
                    )
                for method in ("a", "b"):
                    refs.append(_obj_record(dataset, method, fold, 0, tuple(rng.random(2))))
        report = aggregate(front, refs, ("ED", "SDR", "NDR"))
        points = {
            (r.dataset, r.fold): [q.point() for q in front if (q.dataset, q.fold) == (r.dataset, r.fold)]
            for r in front
        }
        for (indicator, method, dataset), cell in report.cells.items():
            ref_by_fold = {
                r.fold: r.point() for r in refs if r.dataset == dataset and r.method == method
            }
            values = []
            for fold in sorted(ref_by_fold):
                fr = SolutionSet("moo", tuple(points[(dataset, fold)]))
                fn = {"ED": euclidean_distance, "SDR": sdr, "NDR": ndr}[indicator]
                values.append(fn(fr, ref_by_fold[fold]))
            assert cell.mean == pytest.approx(float(np.mean(values)), abs=0)
            assert cell.std == pytest.approx(float(np.std(values)), abs=0)


_NAMES = st.tuples(*[st.sampled_from(["a", "b", "c-1", "Z_9"])] * 2)
_CELL = st.builds(ReportCell, st.floats(-1e6, 1e6), st.floats(0.0, 1e6), st.integers(1, 10))


@st.composite
def _report_cells(draw) -> dict:
    """Cells of 1 to 5 indicators over several references and datasets, some
    (reference, dataset) pairs missing, in any insertion order."""
    indicators = draw(st.lists(st.sampled_from(INDICATOR_NAMES), min_size=1, unique=True))
    keys = []
    for indicator in indicators:
        keys += [(indicator, *pair) for pair in draw(st.lists(_NAMES, min_size=1, unique=True))]
    keys = draw(st.permutations(keys))
    return {key: draw(_CELL) for key in keys}


def _loop_markdown(cells: dict) -> str:
    """The markdown report laid out with loops: per indicator present, in
    INDICATOR_NAMES order, sorted references as rows and sorted datasets as
    columns, "-" for a missing cell and HV scaled by 10^3."""
    blocks = []
    for indicator in INDICATOR_NAMES:
        keys = [key for key in cells if key[0] == indicator]
        if not keys:
            continue
        scale = 1000.0 if indicator == "HV" else 1.0
        datasets = sorted({key[2] for key in keys})
        lines = ["| reference | " + " | ".join(datasets) + " |"]
        lines.append("|" + " --- |" * (len(datasets) + 1))
        for reference in sorted({key[1] for key in keys}):
            row = [reference]
            for dataset in datasets:
                cell = cells.get((indicator, reference, dataset))
                if cell is None:
                    row.append("-")
                else:
                    row.append(f"{cell.mean * scale:.2f} ({cell.std * scale:.2f})")
            lines.append("| " + " | ".join(row) + " |")
        title = "HV (×10³)" if indicator == "HV" else indicator
        blocks.append(f"## {title}\n\n" + "\n".join(lines) + "\n")
    return "\n".join(blocks)


class TestRenderReport:
    def _single_cell_report(self) -> ComparisonReport:
        return ComparisonReport(
            moo_method="moo", cells={("SDR", "base", "ds1"): ReportCell(0.75, 0.05, 10)}
        )

    def test_markdown_cell_format(self, tmp_path):
        out = tmp_path / "r.md"
        render_report(self._single_cell_report(), "markdown", str(out))
        text = out.read_text(encoding="utf-8")
        assert "| base | 0.75 (0.05) |" in text
        assert "## SDR" in text

    def test_markdown_hv_block_scaled(self, tmp_path):
        report = ComparisonReport(
            moo_method="moo", cells={("HV", "base", "ds1"): ReportCell(0.00046, 0.0, 10)}
        )
        out = tmp_path / "r.md"
        render_report(report, "markdown", str(out))
        text = out.read_text(encoding="utf-8")
        assert "## HV (×10³)" in text
        assert "| base | 0.46 (0.00) |" in text

    @pytest.mark.parametrize("mean, std", [(1e307, 2e306), (1.0, 1e306)])
    def test_markdown_hv_that_the_scaling_overflows_names_its_cell(self, tmp_path, mean, std):
        report = ComparisonReport(moo_method="", cells={("HV", "r", "d"): ReportCell(mean, std, 3)})
        out = tmp_path / "r.md"
        with pytest.raises(ValueError) as err:
            render_report(report, "markdown", str(out))
        assert str(err.value) == (
            "indicator HV against reference 'r' on dataset 'd' is not finite: "
            f"its mean {mean!r} and std {std!r} overflow scaled by 1000"
        )
        assert not out.exists()
        render_report(report, "csv", str(out))  # the unscaled values are finite

    def test_markdown_hv_near_the_float_limit_renders(self, tmp_path):
        report = ComparisonReport(
            moo_method="", cells={("HV", "r", "d"): ReportCell(1e305, 1e305, 3)}
        )
        out = tmp_path / "r.md"
        render_report(report, "markdown", str(out))
        scaled = f"{1e305 * 1000.0:.2f}"
        assert f"| r | {scaled} ({scaled}) |" in out.read_text(encoding="utf-8")

    def test_csv_schema_and_roundtrip(self, tmp_path):
        front, refs = _fixture_records()
        report = aggregate(front, refs, ("ED", "HV", "SDR", "NDR", "GD"))
        out = tmp_path / "report.csv"
        render_report(report, "csv", str(out))
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "indicator,reference_method,dataset,mean,std,fold_count"
        loaded = read_report_csv(str(out))
        assert loaded.cells == report.cells

    def test_csv_rows_sorted_canonically(self, tmp_path):
        front, refs = _fixture_records()
        report = aggregate(front, refs, ("NDR", "ED", "SDR", "HV"))
        out = tmp_path / "report.csv"
        render_report(report, "csv", str(out))
        indicators = [line.split(",")[0] for line in out.read_text().splitlines()[1:]]
        assert indicators == ["ED", "HV", "SDR", "NDR"]

    def test_byte_identical_reruns(self, tmp_path):
        front, refs = _fixture_records()
        report = aggregate(front, refs, ("ED", "SDR"))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        render_report(report, "csv", str(a))
        render_report(report, "csv", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_empty_report_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            render_report(ComparisonReport("m", {}), "csv", str(tmp_path / "x.csv"))

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            render_report(self._single_cell_report(), "html", str(tmp_path / "x"))

    @pytest.mark.parametrize("fmt", ["csv", "markdown"])
    @pytest.mark.parametrize(
        "key, message",
        [
            (("XX", "base", "ds1"), "indicator unknown indicator 'XX'"),
            (("hv", "base", "ds1"), "indicator unknown indicator 'hv'"),
            (("HV", "r|x", "d,e"), "reference_method invalid identifier 'r|x'"),
            (("HV", "base", "d,e"), "dataset invalid identifier 'd,e'"),
            (("HV", "base", ""), "dataset invalid identifier ''"),
            (("HV", 7, "ds1"), "reference_method invalid identifier 7"),
        ],
        ids=["unknown", "lower-case", "both-names", "dataset", "empty", "not-str"],
    )
    def test_a_key_the_report_schema_cannot_hold_is_refused(self, tmp_path, fmt, key, message):
        # the csv once raised a bare KeyError on 'XX', the markdown dropped the cell, and
        # ('HV', 'r|x', 'd,e') became a line of seven fields that read_report_csv rejects
        cells = {("SDR", "base", "ds1"): ReportCell(0.75, 0.05, 10), key: ReportCell(0.5, 0.0, 1)}
        out = tmp_path / "r.out"
        with pytest.raises(ValueError) as err:
            render_report(ComparisonReport("moo", cells), fmt, str(out))
        assert str(err.value) == message
        assert not out.exists()

    def test_markdown_names_the_first_overflow_by_indicator_then_insertion(self, tmp_path):
        # only HV cells are scaled, so the SDR cell inserted first renders
        cells = {
            ("SDR", "a", "a"): ReportCell(1e307, 0.0, 1),
            ("HV", "r", "b"): ReportCell(1e307, 0.0, 1),
            ("HV", "q", "a"): ReportCell(1e307, 0.0, 1),
        }
        out = tmp_path / "r.md"
        message = r"^indicator HV against reference 'r' on dataset 'b' is not finite"
        with pytest.raises(ValueError, match=message):
            render_report(ComparisonReport("moo", cells), "markdown", str(out))
        assert not out.exists()

    @settings(deadline=None, max_examples=100)
    @given(cells=_report_cells())
    def test_markdown_equals_a_loop_layout(self, cells):
        with tempfile.TemporaryDirectory() as directory:
            out = os.path.join(directory, "r.md")
            render_report(ComparisonReport("moo", cells), "markdown", out)
            with open(out, encoding="utf-8", newline="") as handle:
                assert handle.read() == _loop_markdown(cells)

    def test_cell_invariants(self):
        with pytest.raises(ValueError, match="non-negative"):
            ReportCell(0.5, -0.1, 2)
        with pytest.raises(ValueError, match="fold_count"):
            ReportCell(0.5, 0.1, 0)

    @pytest.mark.parametrize(
        "mean, std, fold_count, message",
        [
            (0.5, 0.1, 2.5, "fold_count must be an integer, got 2.5"),
            (0.5, 0.1, True, "fold_count must be an integer, got True"),
            (0.5, 0.1, "2", "fold_count must be an integer, got '2'"),
            (0.5, 0.1, -3, "fold_count must be positive, got -3"),
            ("0.5", 0.1, 1, "mean must be a real number, got '0.5'"),
            (0.5, None, 1, "std must be a real number, got None"),
            (False, 0.1, 1, "mean must be a real number, got False"),
            (0.5, 10**400, 1, f"std must be finite, got {10**400!r}"),
            (0.5, -0.5, 1, "std must be non-negative, got -0.5"),
        ],
    )
    def test_a_field_the_report_cannot_hold_is_refused(self, mean, std, fold_count, message):
        # before, 2.5 and True were written as fold counts that read_report_csv
        # rejects, and a str mean raised TypeError
        with pytest.raises(ValueError) as err:
            ReportCell(mean, std, fold_count)
        assert str(err.value) == message

    def test_numpy_numbers_are_held_as_python_numbers(self, tmp_path):
        cell = ReportCell(np.float64(0.25), np.float32(0.5), np.int64(3))
        assert (type(cell.mean), type(cell.std), type(cell.fold_count)) == (float, float, int)
        assert cell == ReportCell(0.25, 0.5, 3)
        out = str(tmp_path / "r.csv")
        render_report(ComparisonReport("m", {("HV", "r", "d"): cell}), "csv", out)
        assert read_report_csv(out).cells == {("HV", "r", "d"): cell}

    @pytest.mark.parametrize(
        "mean, std, message",
        [
            (float("nan"), 0.0, "mean must be finite, got nan"),
            (float("inf"), float("nan"), "mean must be finite, got inf"),
            (-float("inf"), 0.0, "mean must be finite, got -inf"),
            (0.5, float("nan"), "std must be finite, got nan"),
            (0.5, float("inf"), "std must be finite, got inf"),
        ],
    )
    def test_a_cell_that_is_not_finite_is_refused(self, mean, std, message):
        # render_report would write such a cell as 'nan', which read_report_csv rejects
        with pytest.raises(ValueError) as err:
            ReportCell(mean, std, 2)
        assert str(err.value) == message
