from __future__ import annotations

import argparse
import contextlib
import csv
import io
import math
import os
import re
import stat
import subprocess
import sys
import tempfile
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import loop_compare
from pareto_judge import _io, cli, fbeta_analysis, ingest_report
from pareto_judge.cli import run
from pareto_judge.ingest_report import aggregate, parse_records, read_report_csv

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src")

FRONT_CSV = """dataset,method,fold,solution_id,tp,fn,fp,tn
ds1,moo,0,0,4,6,1,9
ds1,moo,0,1,9,1,6,4
ds1,moo,0,2,7,3,3,7
ds1,moo,1,0,4,6,1,9
ds1,moo,1,1,9,1,6,4
ds1,moo,1,2,7,3,3,7
"""

REFS_CSV = """dataset,method,fold,solution_id,tp,fn,fp,tn
ds1,base,0,0,6,4,4,6
ds1,base,1,0,6,4,4,6
ds1,weak,0,0,2,8,8,2
ds1,weak,1,0,2,8,8,2
"""

DATASETS_CSV = """name,n_features,n_samples,n_minority
pima,8,768,268
ecoli4,7,336,20
poker-8-9_vs_5,10,2075,25
"""


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "front.csv").write_text(FRONT_CSV, encoding="utf-8")
    (tmp_path / "refs.csv").write_text(REFS_CSV, encoding="utf-8")
    (tmp_path / "table.csv").write_text(DATASETS_CSV, encoding="utf-8")
    return tmp_path


def _compare_args(workdir, out="report.csv", extra=()):
    return [
        "compare",
        "--front",
        str(workdir / "front.csv"),
        "--refs",
        str(workdir / "refs.csv"),
        "--indicators",
        "ed,hv,sdr,ndr",
        "--out",
        str(workdir / out),
        *extra,
    ]


class TestExitCodes:
    def test_compare_happy_path(self, workdir):
        assert run(_compare_args(workdir)) == 0
        assert (workdir / "report.csv").is_file()

    def test_missing_input_exits_one_and_names_file(self, workdir, capsys):
        args = _compare_args(workdir)
        args[2] = str(workdir / "missing.csv")
        assert run(args) == 1
        assert "missing.csv" in capsys.readouterr().err

    def test_unknown_flag_exits_two(self, workdir, capsys):
        assert run(_compare_args(workdir, extra=["--bogus"])) == 2

    def test_unknown_indicator_exits_one_and_names_the_flag(self, workdir, capsys):
        args = _compare_args(workdir)
        args[args.index("--indicators") + 1] = "ed,igd"
        assert run(args) == 1
        err = capsys.readouterr().err
        assert "--indicators" in err and "IGD" in err

    @pytest.mark.parametrize(
        "args, message",
        [
            (["compare", "--front", "f", "--refs", "r", "--indicators", ",", "--out", "o"],
             "no indicators given in ','"),
            (["isocurves", "--metric", "f1", "--levels", ",", "--out", "o"],
             "no levels given in ','"),
        ],
    )
    def test_a_list_flag_of_no_items_exits_one(self, args, message, capsys):
        assert run(args) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_a_fold_absent_from_the_files_exits_one(self, workdir, capsys):
        assert run(_compare_args(workdir, extra=["--fold", "9"])) == 1
        assert capsys.readouterr().err == "error: no front records for fold 9\n"
        assert not (workdir / "report.csv").exists()

    def test_unknown_subcommand_exits_two(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_no_output_on_validation_failure(self, workdir, capsys):
        (workdir / "refs.csv").write_text(
            "dataset,method,fold,solution_id,tp,fn,fp,tn\nds1,base,0,0,1,1,1,1\n",
            encoding="utf-8",
        )  # fold coverage no longer matches the front
        assert run(_compare_args(workdir, out="never.csv")) == 1
        assert not (workdir / "never.csv").exists()
        assert "cover different" in capsys.readouterr().err

    def test_output_in_a_missing_directory_names_that_path(self, workdir, capsys):
        out = workdir / "missing" / "report.csv"
        expected = f"error: [Errno 2] No such file or directory: '{out}'\n"
        for _ in range(2):
            assert run(_compare_args(workdir, out="missing/report.csv")) == 1
            assert capsys.readouterr().err == expected
        assert not (workdir / "missing").exists()

    def test_output_onto_a_directory_names_that_path(self, workdir, capsys):
        # the rename fails; the error names --out, never the random temp name
        (workdir / "outdir").mkdir()
        args = ["metrics", "--in", str(workdir / "front.csv"), "--out", str(workdir / "outdir")]
        errors = []
        for _ in range(2):
            assert run(args) == 1
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert errors[0].startswith("error: ") and errors[0].endswith(f"'{workdir / 'outdir'}'\n")
        assert ".tmp-" not in errors[0]
        assert [name for name in os.listdir(workdir) if name.startswith(".tmp-")] == []
        assert os.listdir(workdir / "outdir") == []

    def test_parse_error_reports_file_and_line(self, workdir, capsys):
        (workdir / "front.csv").write_text(
            "dataset,method,fold,solution_id,tp,fn,fp,tn\nds1,moo,0,0,-2,1,1,1\n",
            encoding="utf-8",
        )
        assert run(_compare_args(workdir)) == 1
        err = capsys.readouterr().err
        assert "front.csv:2:" in err and "tp" in err


class TestCompare:
    def test_report_values(self, workdir):
        assert run(_compare_args(workdir)) == 0
        lines = (workdir / "report.csv").read_text(encoding="utf-8").splitlines()
        cells = {tuple(line.split(",")[:3]): line.split(",")[3:] for line in lines[1:]}
        sdr_mean = float(cells[("SDR", "base", "ds1")][0])
        ndr_mean = float(cells[("NDR", "base", "ds1")][0])
        assert sdr_mean == 1 / 3
        assert ndr_mean == 1.0
        assert all(float(v[1]) == 0.0 for v in cells.values())  # identical folds

    def test_fold_filter(self, workdir):
        assert run(_compare_args(workdir, extra=["--fold", "0"])) == 0
        lines = (workdir / "report.csv").read_text(encoding="utf-8").splitlines()
        assert all(line.endswith(",1") for line in lines[1:])  # one fold per cell

    def test_filter_front_flag(self, workdir):
        # (0.4, 0.9) and (0.9, 0.4) and (0.7, 0.7) are mutually non-dominated,
        # so filtering must not change the ratios here
        assert run(_compare_args(workdir, out="plain.csv")) == 0
        assert run(_compare_args(workdir, out="filtered.csv", extra=["--filter-front"])) == 0
        plain = (workdir / "plain.csv").read_text(encoding="utf-8")
        filtered = (workdir / "filtered.csv").read_text(encoding="utf-8")
        assert plain == filtered

    def test_markdown_format(self, workdir):
        assert run(_compare_args(workdir, out="report.md", extra=["--format", "markdown"])) == 0
        text = (workdir / "report.md").read_text(encoding="utf-8")
        assert "## SDR" in text and "| base |" in text

    def test_seed_flag_is_a_usage_error(self, workdir):
        # every indicator is exact, so compare has no seed to take
        assert run(_compare_args(workdir, extra=["--seed", "1"])) == 2
        assert not (workdir / "report.csv").exists()

    def test_byte_identical_reruns(self, workdir):
        assert run(_compare_args(workdir, out="a.csv")) == 0
        assert run(_compare_args(workdir, out="b.csv")) == 0
        assert (workdir / "a.csv").read_bytes() == (workdir / "b.csv").read_bytes()

    def test_objectives_payload_with_negated_column(self, workdir):
        # obj_2 is a cost: smaller is better, so the front point beats the
        # reference only after sign-flipping that column
        (workdir / "obj_front.csv").write_text(
            "dataset,method,fold,solution_id,obj_1,obj_2\nds1,moo,0,0,0.9,0.2\n",
            encoding="utf-8",
        )
        (workdir / "obj_refs.csv").write_text(
            "dataset,method,fold,solution_id,obj_1,obj_2\nds1,base,0,0,0.5,0.3\n",
            encoding="utf-8",
        )
        args = [
            "compare",
            "--front",
            str(workdir / "obj_front.csv"),
            "--refs",
            str(workdir / "obj_refs.csv"),
            "--payload",
            "objectives",
            "--negate",
            "obj_2",
            "--indicators",
            "sdr",
            "--out",
            str(workdir / "neg.csv"),
        ]
        assert run(args) == 0
        line = (workdir / "neg.csv").read_text(encoding="utf-8").splitlines()[1]
        assert line.startswith("SDR,base,ds1,1.0,")

    def test_indicator_that_is_not_finite_exits_one_naming_its_cell(self, workdir, capsys):
        (workdir / "front.csv").write_text(
            "dataset,method,fold,solution_id,obj_1,obj_2\n"
            "ds1,moo,0,0,1e200,0.5\nds1,moo,0,1,0.2,0.9\n",
            encoding="utf-8",
        )
        (workdir / "refs.csv").write_text(
            "dataset,method,fold,solution_id,obj_1,obj_2\nds1,ref,0,0,-1e200,0.3\n",
            encoding="utf-8",
        )
        args = _compare_args(workdir, extra=["--payload", "objectives", "--indicators", "ed,gd,hv"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning would raise here
            assert run(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Warning" not in err
        assert "indicator ED against reference 'ref' on dataset 'ds1' is not finite: inf" in err
        assert not (workdir / "report.csv").exists()

    def test_markdown_hv_that_overflows_the_scaling_exits_one(self, workdir, capsys):
        # HV is 4e306: finite in the csv format, past the float range times 10^3
        (workdir / "front.csv").write_text(
            "dataset,method,fold,solution_id,obj_1,obj_2\nd,moo,0,0,1e153,1e153\n",
            encoding="utf-8",
        )
        (workdir / "refs.csv").write_text(
            "dataset,method,fold,solution_id,obj_1,obj_2\nd,ref,0,0,-1e153,-1e153\n",
            encoding="utf-8",
        )
        extra = ["--payload", "objectives", "--indicators", "hv"]
        assert run(_compare_args(workdir, "report.md", [*extra, "--format", "markdown"])) == 1
        assert capsys.readouterr().err == (
            "error: indicator HV against reference 'ref' on dataset 'd' is not finite: "
            "its mean 4e+306 and std 0.0 overflow scaled by 1000\n"
        )
        assert not (workdir / "report.md").exists()
        assert run(_compare_args(workdir, "report.csv", [*extra, "--format", "csv"])) == 0
        assert "HV,ref,d,4e+306,0.0,1" in (workdir / "report.csv").read_text(encoding="utf-8")


OBJ_REFS_CSV = """dataset,method,fold,solution_id,obj_1,obj_2
ds1,base,0,0,0.6,0.6
ds1,base,1,0,0.6,0.6
"""

# Fields that reach past the parser: identifiers and counts the fixture uses,
# and values each check must reject.
_FIELDS = ("ds1", "ds2", "moo", "alt", "0", "1", "2", "7", "0.5", "", "-1", "nan", "1e999", "x y")
_csv_lines = st.lists(
    st.lists(st.sampled_from(_FIELDS), min_size=1, max_size=9).map(",".join), max_size=6
).map(lambda lines: "".join(line + "\n" for line in lines).encode("utf-8"))

_FUZZ_SCHEMAS = {
    "counts": ("dataset,method,fold,solution_id,tp,fn,fp,tn", REFS_CSV),
    "objectives": ("dataset,method,fold,solution_id,obj_1,obj_2", OBJ_REFS_CSV),
}


class TestFuzzedFrontFile:
    @pytest.mark.parametrize("payload", ("counts", "objectives"))
    @settings(deadline=None)
    @given(body=st.one_of(st.binary(max_size=200), _csv_lines))
    def test_exits_zero_or_one_and_names_the_file(self, payload, body):
        header, refs = _FUZZ_SCHEMAS[payload]
        with tempfile.TemporaryDirectory() as tmp:
            front = os.path.join(tmp, "front.csv")
            with open(front, "wb") as handle:
                handle.write(header.encode("utf-8") + b"\n" + body)
            with open(os.path.join(tmp, "refs.csv"), "w", encoding="utf-8") as handle:
                handle.write(refs)
            argv = [
                "compare", "--front", front, "--refs", os.path.join(tmp, "refs.csv"),
                "--payload", payload, "--out", os.path.join(tmp, "report.csv"),
            ]
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                status = run(argv)
        assert status in (0, 1)
        if status == 1:
            assert front in err.getvalue()


_OBJECTIVE = st.one_of(
    st.floats(-1e300, 1e300, allow_nan=False),
    st.floats(-1.0, 1.0, allow_nan=False),
)


@st.composite
def _objectives_files(draw) -> tuple[str, str]:
    """A front of one method and references of one solution each per (dataset,
    fold), with 2 or 3 objectives in 1 to 3 folds and magnitudes up to 1e300."""
    dim = draw(st.integers(2, 3))
    header = "dataset,method,fold,solution_id," + ",".join(f"obj_{i}" for i in range(1, dim + 1))
    front, refs = [header], [header]
    point = st.lists(_OBJECTIVE, min_size=dim, max_size=dim).map(lambda p: ",".join(map(repr, p)))
    for dataset in draw(st.sampled_from([("ds1",), ("ds1", "ds2")])):
        for fold in range(draw(st.integers(1, 3))):
            for sid in range(draw(st.integers(1, 3))):
                front.append(f"{dataset},moo,{fold},{sid},{draw(point)}")
            for method in draw(st.sampled_from([("ref",), ("base", "ref")])):
                refs.append(f"{dataset},{method},{fold},0,{draw(point)}")
    return "\n".join(front) + "\n", "\n".join(refs) + "\n"


class TestReportRoundTrip:
    @settings(deadline=None, max_examples=60)
    @given(files=_objectives_files())
    def test_compare_names_a_cell_or_writes_a_report_that_reads_back(self, files):
        with tempfile.TemporaryDirectory() as tmp:
            names = ("front.csv", "refs.csv", "rep.csv", "again.csv")
            front, refs, out, again = (os.path.join(tmp, name) for name in names)
            for path, text in zip((front, refs), files):
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(text)
            args = ["compare", "--front", front, "--refs", refs, "--payload", "objectives"]
            err = io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stderr(err):
                warnings.simplefilter("error")  # a numpy RuntimeWarning would raise here
                status = run([*args, "--indicators", "ed,gd,hv,sdr,ndr", "--out", out])
            if status == 1:
                cell = r"indicator \w+ against reference '\w+' on dataset '\w+' is not finite"
                assert re.search(cell, err.getvalue())
                assert not os.path.exists(out)
                return
            assert status == 0 and not err.getvalue()
            expected = aggregate(
                parse_records(front, "objectives"), parse_records(refs, "objectives"),
                ("ED", "GD", "HV", "SDR", "NDR"),
            )
            assert read_report_csv(out).cells == expected.cells
            assert run(["report", "--in", out, "--format", "csv", "--out", again]) == 0
            with open(out, "rb") as first, open(again, "rb") as second:
                assert first.read() == second.read()


_QUARTERS = st.sampled_from([i / 4 for i in range(-4, 5)])
_INDICATOR_FLAGS = ("ed", "gd", "hv", "sdr", "ndr")


@st.composite
def _compare_case(draw):
    """Front and reference lines of one compare run, then its indicators,
    --filter-front and --negate columns. Counts or 2 to 4 objectives over 1
    to 3 datasets of 1 to 3 folds; small counts, quarter coordinates and
    copied points give ties and duplicates, and lines come in any order."""
    counts = draw(st.booleans())
    if counts:
        columns = ["tp", "fn", "fp", "tn"]
        payload = st.lists(st.integers(0, 4), min_size=4, max_size=4).filter(any)
    else:
        columns = [f"obj_{i + 1}" for i in range(draw(st.integers(2, 4)))]
        coord = st.one_of(_QUARTERS, st.floats(-1, 1, allow_subnormal=False))
        payload = st.lists(coord, min_size=len(columns), max_size=len(columns))
    methods = st.lists(st.sampled_from(("base", "ref", "weak")), min_size=1, unique=True)
    front, refs = [], []
    for dataset in draw(st.lists(st.sampled_from("abc"), min_size=1, max_size=3, unique=True)):
        for fold in draw(st.lists(st.integers(0, 5), min_size=1, max_size=3, unique=True)):
            points = []
            for _ in range(draw(st.integers(1, 5))):
                copy = points and draw(st.booleans())
                points.append(draw(st.sampled_from(points)) if copy else draw(payload))
            ids = draw(st.permutations(range(len(points))))
            front += [(dataset, "moo", fold, i, p) for i, p in zip(ids, points)]
            refs += [(dataset, m, fold, 0, draw(payload)) for m in draw(methods)]
    header = ",".join(["dataset", "method", "fold", "solution_id", *columns])

    def lines(rows):
        return [header, *(",".join([*map(str, key), *map(repr, p)]) for *key, p in rows)]

    front, refs = (lines(draw(st.permutations(rows))) for rows in (front, refs))
    indicators = draw(st.lists(st.sampled_from(_INDICATOR_FLAGS), min_size=1, unique=True))
    negate = [] if counts else draw(st.lists(st.sampled_from(columns), unique=True))
    return front, refs, indicators, draw(st.booleans()), negate


class TestCompareAgainstLoops:
    @settings(deadline=None, max_examples=80)
    @given(case=_compare_case(), budget=st.integers(1, 30))
    def test_report_equals_the_loop_oracle(self, case, budget):
        front, refs, indicators, filter_front, negate = case
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
            # a small stack budget puts chunk edges inside the draws
            patch.setattr(ingest_report, "_BATCH_ELEMENTS", budget)
            paths = [os.path.join(tmp, name) for name in ("front.csv", "refs.csv", "report.csv")]
            for path, lines in zip(paths, (front, refs)):
                with open(path, "w", encoding="utf-8") as handle:
                    handle.writelines(line + "\n" for line in lines)
            args = ["compare", "--front", paths[0], "--refs", paths[1], "--out", paths[2]]
            args += ["--indicators", ",".join(indicators)]
            if not front[0].endswith("tn"):
                args += ["--payload", "objectives"]
            if negate:
                args += ["--negate", ",".join(negate)]
            assert run([*args, "--filter-front"] if filter_front else args) == 0
            with open(paths[2], encoding="utf-8", newline="") as handle:
                _, *rows = csv.reader(handle)
        expected = loop_compare(front, refs, indicators, filter_front, negate)
        assert [(*row[:3], int(row[5])) for row in rows] == [(*e[:3], e[5]) for e in expected]
        for row, (*key, mean, std, _) in zip(rows, expected):
            assert math.isclose(float(row[3]), mean, rel_tol=1e-12), key
            # the std of equal values is rounding, so it is compared on the mean's scale
            assert math.isclose(float(row[4]), std, rel_tol=1e-12, abs_tol=1e-12 * mean), key


class TestReportSubcommand:
    def test_unknown_indicator_in_a_saved_report_exits_one(self, workdir, capsys):
        assert run(_compare_args(workdir)) == 0
        saved = (workdir / "report.csv").read_text(encoding="utf-8")
        (workdir / "bad.csv").write_text(saved.replace("\nED,", "\nIGD,", 1), encoding="utf-8")
        out = workdir / "bad.md"
        assert run(["report", "--in", str(workdir / "bad.csv"), "--out", str(out)]) == 1
        expected = f"error: {workdir / 'bad.csv'}:2: column indicator: unknown indicator 'IGD'\n"
        assert capsys.readouterr().err == expected
        assert not out.exists()

    def test_a_fold_count_of_zero_exits_one(self, workdir, capsys):
        # the report reader once worded this "must be at least 1", the datasets reader "must be positive"
        bad = workdir / "bad.csv"
        bad.write_text(
            "indicator,reference_method,dataset,mean,std,fold_count\nHV,base,ds1,0.5,0.1,0\n",
            encoding="utf-8",
        )
        out = workdir / "bad.md"
        assert run(["report", "--in", str(bad), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {bad}:2: fold_count must be positive, got 0\n"
        assert not out.exists()

    def test_a_negative_std_exits_one_naming_the_field(self, workdir, capsys):
        # once worded "standard deviation must be non-negative"
        bad = workdir / "bad.csv"
        bad.write_text(
            "indicator,reference_method,dataset,mean,std,fold_count\nHV,base,ds1,0.5,-0.1,2\n",
            encoding="utf-8",
        )
        assert run(["report", "--in", str(bad), "--out", str(workdir / "bad.md")]) == 1
        assert capsys.readouterr().err == f"error: {bad}:2: std must be non-negative, got -0.1\n"

    def test_rerenders_saved_csv(self, workdir):
        assert run(_compare_args(workdir)) == 0
        out = workdir / "tables.md"
        args = ["report", "--in", str(workdir / "report.csv"), "--out", str(out)]
        assert run(args) == 0
        assert "## HV (×10³)" in out.read_text(encoding="utf-8")

    def test_markdown_hv_that_overflows_the_scaling_exits_one(self, workdir, capsys):
        (workdir / "report.csv").write_text(
            "indicator,reference_method,dataset,mean,std,fold_count\nHV,r,d,1e307,2e306,3\n",
            encoding="utf-8",
        )
        out = workdir / "tables.md"
        assert run(["report", "--in", str(workdir / "report.csv"), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: indicator HV against reference 'r' on dataset 'd' is not finite: "
            "its mean 1e+307 and std 2e+306 overflow scaled by 1000\n"
        )
        assert not out.exists()


class TestMetricsSubcommand:
    def test_per_record_metrics(self, workdir):
        out = workdir / "metrics.csv"
        assert run(["metrics", "--in", str(workdir / "front.csv"), "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "dataset,method,fold,solution_id,tpr,tnr,ppv,bac,gmean,f1,degenerate"
        first = lines[1].split(",")
        assert first[:4] == ["ds1", "moo", "0", "0"]
        assert float(first[4]) == 0.4 and float(first[5]) == 0.9
        assert first[-1] == "0"

    def test_degenerate_rows_flagged(self, workdir):
        (workdir / "degenerate.csv").write_text(
            "dataset,method,fold,solution_id,tp,fn,fp,tn\nds1,m,0,0,0,0,3,7\n",
            encoding="utf-8",
        )
        out = workdir / "metrics.csv"
        assert run(["metrics", "--in", str(workdir / "degenerate.csv"), "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8").splitlines()[1].endswith(",1")

    def test_numbers_outside_the_format_exit_one(self, workdir, capsys):
        # int() would read 10, 3, 2 and 5 here
        (workdir / "loose.csv").write_text(
            "dataset,method,fold,solution_id,tp,fn,fp,tn\nds1,moo,0,0,1_0,٣,+2, 5\n",
            encoding="utf-8",
        )
        out = workdir / "metrics.csv"
        assert run(["metrics", "--in", str(workdir / "loose.csv"), "--out", str(out)]) == 1
        assert "loose.csv:2: column tp: expected an integer, got '1_0'" in capsys.readouterr().err
        assert not out.exists()


class TestDatasetsSubcommand:
    def test_stdout_table(self, workdir, capsys):
        assert run(["datasets", "--in", str(workdir / "table.csv")]) == 0
        text = capsys.readouterr().out
        assert "| pima | 8 | 768 | 268 | 1.87 |" in text
        assert "| poker-8-9_vs_5 | 10 | 2075 | 25 | 82.00 |" in text

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("abc,0,10,2\n", "{}:2: n_features must be positive, got 0"),
            ("abc,3,10,0\n", "{}:2: n_minority must be positive, got 0"),
            ("", "no datasets to render"),
        ],
    )
    def test_a_table_it_cannot_render_exits_one(self, workdir, capsys, rows, message):
        path = workdir / "bad.csv"
        path.write_text("name,n_features,n_samples,n_minority\n" + rows, encoding="utf-8")
        assert run(["datasets", "--in", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message.format(path)}\n"
        assert captured.out == ""

    def test_csv_output_file(self, workdir):
        out = workdir / "ir.csv"
        args = ["datasets", "--in", str(workdir / "table.csv"), "--format", "csv", "--out", str(out)]
        assert run(args) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[1] == "pima,8,768,268,1.87"
        assert lines[2] == "ecoli4,7,336,20,15.80"


class TestFigureSubcommands:
    def test_fbeta_plot_writes_one_file_per_dataset(self, workdir):
        out = workdir / "plots"
        args = [
            "fbeta-plot",
            "--front",
            str(workdir / "front.csv"),
            "--refs",
            str(workdir / "refs.csv"),
            "--fold",
            "0",
            "--out",
            str(out),
        ]
        assert run(args) == 0
        assert (out / "ds1_fbeta.svg").is_file()

    def test_fbeta_plot_beta_grid_override(self, workdir):
        out = workdir / "plots"
        args = [
            "fbeta-plot",
            "--front",
            str(workdir / "front.csv"),
            "--refs",
            str(workdir / "refs.csv"),
            "--fold",
            "0",
            "--beta-min",
            "0.5",
            "--beta-max",
            "2.0",
            "--beta-count",
            "51",
            "--out",
            str(out),
        ]
        assert run(args) == 0
        assert (out / "ds1_fbeta.svg").is_file()

    def test_region_plot_requires_single_reference_method(self, workdir, capsys):
        args = [
            "region-plot",
            "--front",
            str(workdir / "front.csv"),
            "--refs",
            str(workdir / "refs.csv"),
            "--mode",
            "dominance",
            "--fold",
            "0",
            "--out",
            str(workdir / "plots"),
        ]
        assert run(args) == 1
        assert "--ref-method" in capsys.readouterr().err
        assert run(args + ["--ref-method", "base"]) == 0
        assert (workdir / "plots" / "ds1_region-dominance.svg").is_file()

    def test_region_plot_unknown_ref_method(self, workdir, capsys):
        args = [
            "region-plot",
            "--front",
            str(workdir / "front.csv"),
            "--refs",
            str(workdir / "refs.csv"),
            "--mode",
            "hypervolume",
            "--fold",
            "0",
            "--ref-method",
            "nosuch",
            "--out",
            str(workdir / "plots"),
        ]
        assert run(args) == 1
        assert "nosuch" in capsys.readouterr().err

    def test_plot_determinism_across_directories(self, workdir):
        for name in ("p1", "p2"):
            args = [
                "region-plot",
                "--front",
                str(workdir / "front.csv"),
                "--refs",
                str(workdir / "refs.csv"),
                "--mode",
                "hypervolume",
                "--fold",
                "1",
                "--ref-method",
                "base",
                "--out",
                str(workdir / name),
            ]
            assert run(args) == 0
        a = (workdir / "p1" / "ds1_region-hypervolume.svg").read_bytes()
        b = (workdir / "p2" / "ds1_region-hypervolume.svg").read_bytes()
        assert a == b

    def test_fbeta_plot_rejects_an_infinite_beta_bound(self, workdir, capsys):
        args = [
            "fbeta-plot",
            "--front",
            str(workdir / "front.csv"),
            "--refs",
            str(workdir / "refs.csv"),
            "--fold",
            "0",
            "--beta-max",
            "inf",
            "--out",
            str(workdir / "plots"),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning would raise here
            assert run(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "finite" in err and "Warning" not in err
        assert not (workdir / "plots").exists()

    def test_fbeta_plot_names_a_beta_whose_square_overflows(self, workdir, capsys):
        args = [
            "fbeta-plot",
            "--front",
            str(workdir / "front.csv"),
            "--refs",
            str(workdir / "refs.csv"),
            "--fold",
            "0",
            "--beta-max",
            "1e300",
            "--out",
            str(workdir / "plots"),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: beta ") and "is too large: its square overflows" in err
        assert "Warning" not in err
        assert not (workdir / "plots").exists()

    @pytest.mark.parametrize("count", ["2", "3"])
    def test_fbeta_plot_rejects_bounds_with_one_log10(self, workdir, capsys, count):
        args = [
            "fbeta-plot",
            "--front",
            str(workdir / "front.csv"),
            "--refs",
            str(workdir / "refs.csv"),
            "--fold",
            "0",
            "--beta-min",
            "1e10",
            "--beta-max",
            "10000000000.000002",
            "--beta-count",
            count,
            "--out",
            str(workdir / "plots"),
        ]
        assert run(args) == 1
        assert capsys.readouterr().err == (
            "error: grid bounds lo=10000000000.0 hi=10000000000.000002 have the same log10: 10.0\n"
        )
        assert not (workdir / "plots").exists()

    @pytest.mark.parametrize("count", [fbeta_analysis.BETA_COUNT_LIMIT + 1, 10**11])
    def test_fbeta_plot_rejects_a_beta_count_above_the_limit(self, workdir, capsys, count):
        args = [
            "fbeta-plot",
            "--front",
            str(workdir / "front.csv"),
            "--refs",
            str(workdir / "refs.csv"),
            "--fold",
            "0",
            "--beta-count",
            str(count),
            "--out",
            str(workdir / "plots"),
        ]
        assert run(args) == 1
        assert capsys.readouterr().err == (
            f"error: grid takes at most {fbeta_analysis.BETA_COUNT_LIMIT} points, got {count}\n"
        )
        assert not (workdir / "plots").exists()

    def test_region_plot_hypervolume_evaluates_hv_once_to_check_and_once_to_draw(
        self, workdir, monkeypatch
    ):
        names = []
        block_indicators = fbeta_analysis._block_indicators

        def counting(fronts, refs, indicators):
            names.append(list(indicators))
            return block_indicators(fronts, refs, indicators)

        monkeypatch.setattr(fbeta_analysis, "_block_indicators", counting)
        args = [
            "region-plot",
            "--front",
            str(workdir / "front.csv"),
            "--refs",
            str(workdir / "refs.csv"),
            "--mode",
            "hypervolume",
            "--ref-method",
            "base",
            "--fold",
            "0",
            "--out",
            str(workdir / "plots"),
        ]
        assert run(args) == 0
        assert names == [["HV"], ["HV"]]

    def test_region_plot_names_a_coordinate_too_large_to_draw(self, workdir, capsys):
        (workdir / "front2d.csv").write_text(
            "dataset,method,fold,solution_id,obj_1,obj_2\n"
            "ds1,moo,0,0,0.2,1e308\nds1,moo,0,1,0.8,0.3\n",
            encoding="utf-8",
        )
        (workdir / "refs2d.csv").write_text(
            "dataset,method,fold,solution_id,obj_1,obj_2\nds1,base,0,0,0.5,0.5\n",
            encoding="utf-8",
        )
        args = [
            "region-plot",
            "--front",
            str(workdir / "front2d.csv"),
            "--refs",
            str(workdir / "refs2d.csv"),
            "--payload",
            "objectives",
            "--mode",
            "dominance",
            "--fold",
            "0",
            "--out",
            str(workdir / "plots"),
        ]
        assert run(args) == 1
        assert "region plot coordinate 1e+308 is too large to draw" in capsys.readouterr().err
        assert not (workdir / "plots").exists()

    def test_region_plot_hypervolume_that_overflows_exits_1(self, workdir, capsys):
        (workdir / "front2d.csv").write_text(
            "dataset,method,fold,solution_id,obj_1,obj_2\nds1,moo,0,0,1e200,1e200\n",
            encoding="utf-8",
        )
        (workdir / "refs2d.csv").write_text(
            "dataset,method,fold,solution_id,obj_1,obj_2\nds1,base,0,0,0,0\n",
            encoding="utf-8",
        )
        args = [
            "region-plot",
            "--front",
            str(workdir / "front2d.csv"),
            "--refs",
            str(workdir / "refs2d.csv"),
            "--payload",
            "objectives",
            "--mode",
            "hypervolume",
            "--fold",
            "0",
            "--out",
            str(workdir / "plots"),
        ]
        assert run(args) == 1
        assert "indicator HV is not finite: inf" in capsys.readouterr().err
        assert not (workdir / "plots").exists()

    def test_region_plot_names_a_reference_of_the_wrong_dimension(self, workdir, capsys):
        (workdir / "front2d.csv").write_text(
            "dataset,method,fold,solution_id,obj_1,obj_2\n"
            "ds1,moo,0,0,0.2,0.9\nds1,moo,0,1,0.8,0.3\n",
            encoding="utf-8",
        )
        (workdir / "refs3d.csv").write_text(
            "dataset,method,fold,solution_id,obj_1,obj_2,obj_3\nds1,base,0,0,0.5,0.5,0.5\n",
            encoding="utf-8",
        )
        args = [
            "region-plot",
            "--front",
            str(workdir / "front2d.csv"),
            "--refs",
            str(workdir / "refs3d.csv"),
            "--payload",
            "objectives",
            "--mode",
            "dominance",
            "--fold",
            "0",
            "--out",
            str(workdir / "plots"),
        ]
        assert run(args) == 1
        err = capsys.readouterr().err
        assert "reference of shape (3,)" in err and "front" not in err
        assert not (workdir / "plots").exists()

    def test_region_plot_with_a_3_objective_front_leaves_no_output(self, workdir, capsys):
        (workdir / "front3d.csv").write_text(
            "dataset,method,fold,solution_id,obj_1,obj_2,obj_3\n"
            "ds1,moo,0,0,0.2,0.9,0.5\nds1,moo,0,1,0.8,0.3,0.5\n",
            encoding="utf-8",
        )
        (workdir / "refs2d.csv").write_text(
            "dataset,method,fold,solution_id,obj_1,obj_2\nds1,base,0,0,0.5,0.5\n",
            encoding="utf-8",
        )
        args = [
            "region-plot",
            "--front",
            str(workdir / "front3d.csv"),
            "--refs",
            str(workdir / "refs2d.csv"),
            "--payload",
            "objectives",
            "--mode",
            "hypervolume",
            "--fold",
            "0",
            "--out",
            str(workdir / "plots"),
        ]
        assert run(args) == 1
        assert "front of shape (2, 3)" in capsys.readouterr().err
        assert not (workdir / "plots").exists()

    def test_fbeta_plot_rejects_a_front_of_two_methods(self, workdir, capsys):
        # each dataset holds one front method, but the file holds two
        (workdir / "front.csv").write_text(FRONT_CSV + "ds2,other,0,0,5,5,5,5\n", encoding="utf-8")
        (workdir / "refs.csv").write_text(REFS_CSV + "ds2,base,0,0,6,4,4,6\n", encoding="utf-8")
        out = workdir / "plots"
        args = [
            "fbeta-plot",
            "--front",
            str(workdir / "front.csv"),
            "--refs",
            str(workdir / "refs.csv"),
            "--fold",
            "0",
            "--out",
            str(out),
        ]
        assert run(args) == 1
        err = capsys.readouterr().err
        assert f"{workdir / 'front.csv'} with {workdir / 'refs.csv'}: " in err
        assert "front records must come from one method" in err
        assert not out.exists()

    def test_region_plot_rejects_a_repeated_solution_of_another_reference(self, workdir, capsys):
        # the plotted reference is single, but another one repeats in the fold
        (workdir / "refs.csv").write_text(REFS_CSV + "ds1,weak,0,1,3,7,7,3\n", encoding="utf-8")
        out = workdir / "plots"
        args = [
            "region-plot",
            "--front",
            str(workdir / "front.csv"),
            "--refs",
            str(workdir / "refs.csv"),
            "--mode",
            "dominance",
            "--fold",
            "0",
            "--ref-method",
            "base",
            "--out",
            str(out),
        ]
        assert run(args) == 1
        err = capsys.readouterr().err
        assert "reference method 'weak' has multiple solutions" in err
        assert not out.exists()

    def test_isocurves(self, workdir):
        out = workdir / "iso.svg"
        args = ["isocurves", "--metric", "gmean", "--levels", "0.2,0.4,0.6,0.8", "--out", str(out)]
        assert run(args) == 0
        again = workdir / "iso2.svg"
        args[-1] = str(again)
        assert run(args) == 0
        assert out.read_bytes() == again.read_bytes()

    def test_isocurves_bad_levels(self, workdir, capsys):
        args = ["isocurves", "--metric", "f1", "--levels", "0.5,oops", "--out", "x.svg"]
        assert run(args) == 1
        assert "levels" in capsys.readouterr().err

    @pytest.mark.parametrize("metric", ["gmean", "f1"])
    def test_isocurves_level_too_small_to_draw(self, workdir, capsys, metric):
        out = workdir / "iso.svg"
        args = ["isocurves", "--metric", metric, "--levels", "0.5,1e-200", "--out", str(out)]
        assert run(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "1e-200" in err
        assert not out.exists()

    @pytest.mark.parametrize("metric", ["gmean", "f1"])
    def test_isocurves_tiny_level_draws_finite_points_from_the_top(self, workdir, metric):
        out = workdir / "iso.svg"
        args = ["isocurves", "--metric", metric, "--levels", "0.5,1e-17", "--out", str(out)]
        assert run(args) == 0
        svg = out.read_text(encoding="utf-8")
        assert "nan" not in svg and "inf" not in svg
        # the level set meets y = 1, the top of the frame, at its first point
        tiny = re.findall(r'points="([^"]+)"', svg)[1].split()
        assert tiny[0].endswith(",40.00")


def _output_bytes(path):
    """An output file's bytes, or the (name, bytes) of each file of an output directory."""
    if path.is_dir():
        return sorted((child.name, child.read_bytes()) for child in path.iterdir())
    return path.read_bytes()


class TestModuleEntryPoint:
    def _module(self, *args):
        env = dict(os.environ, PYTHONPATH=SRC)
        command = [sys.executable, "-m", "pareto_judge.cli", *args]
        return subprocess.run(command, env=env, capture_output=True, text=True, timeout=60)

    def test_runs_a_command_like_run(self, workdir):
        done = self._module(*_compare_args(workdir, out="module.csv"))
        assert done.returncode == 0, done.stderr
        assert run(_compare_args(workdir)) == 0
        assert (workdir / "module.csv").read_bytes() == (workdir / "report.csv").read_bytes()

    @pytest.mark.parametrize(
        "args",
        [
            ("isocurves", "--metric", "f1", "--levels", "0.5"),
            ("fbeta-plot", "--fold", "0"),
            ("region-plot", "--mode", "dominance", "--fold", "0", "--ref-method", "base"),
        ],
        ids=lambda args: args[0],
    )
    def test_runs_a_figure_command_like_run(self, workdir, args):
        # under -m the command and the figure functions it calls on cli run in __main__
        if args[0] != "isocurves":
            args += ("--front", str(workdir / "front.csv"), "--refs", str(workdir / "refs.csv"))
        done = self._module(*args, "--out", str(workdir / "module"))
        assert done.returncode == 0, done.stderr
        assert run([*args, "--out", str(workdir / "run")]) == 0
        written = _output_bytes(workdir / "module")
        assert written and written == _output_bytes(workdir / "run")

    def test_no_arguments_is_a_usage_error(self):
        done = self._module()
        assert done.returncode == 2
        assert done.stderr.startswith("usage: pareto-judge")


class TestNoPartialOutputs:
    def test_temp_files_are_not_left_behind(self, workdir):
        assert run(_compare_args(workdir)) == 0
        leftovers = [name for name in os.listdir(workdir) if name.startswith(".tmp-")]
        assert leftovers == []

    def test_an_interrupted_rename_removes_the_temp_file(self, tmp_path, monkeypatch):
        def interrupt(src, dst):
            raise KeyboardInterrupt

        monkeypatch.setattr(_io.os, "replace", interrupt)
        with pytest.raises(KeyboardInterrupt):
            _io.atomic_write_text(str(tmp_path / "out.txt"), "text\n")
        assert os.listdir(tmp_path) == []


def _write_every_output(workdir, out):
    """Write each subcommand's outputs under out, then emit_records' and render_report's
    from the library; metrics.csv replaces the file there, if any."""
    front, refs, table = (f"{workdir}/{name}" for name in ("front.csv", "refs.csv", "table.csv"))
    pair = ["--front", front, "--refs", refs, "--fold", "0"]
    region = ["--mode", "dominance", "--ref-method", "base"]
    for args in [
        ["metrics", "--in", front, "--out", f"{out}/metrics.csv"],
        ["compare", "--front", front, "--refs", refs, "--out", f"{out}/report.csv"],
        ["report", "--in", f"{out}/report.csv", "--out", f"{out}/report.md"],
        ["fbeta-plot", *pair, "--out", f"{out}/fbeta"],
        ["region-plot", *pair, *region, "--out", f"{out}/region"],
        ["isocurves", "--metric", "f1", "--levels", "0.5", "--out", f"{out}/iso.svg"],
        ["datasets", "--in", table, "--out", f"{out}/datasets.md"],
    ]:
        assert run(args) == 0, args
    front_records, ref_records = parse_records(front, "counts"), parse_records(refs, "counts")
    ingest_report.emit_records(front_records, f"{out}/emitted.csv")
    report = aggregate(front_records, ref_records, ["ED", "HV"])
    ingest_report.render_report(report, "markdown", f"{out}/library.md")


def _tree(root):
    """(path relative to root, path) of everything under root, sorted."""
    return sorted((path.relative_to(root).as_posix(), path) for path in root.rglob("*"))


class TestCreationRule:
    """Every output is created the way open() creates a file, 0o666 less the umask,
    and each figure directory 0o777 less the umask. The umask is per process, so a
    child process writes the outputs."""

    DIRECTORIES = ("fbeta", "region")
    OUTPUTS = (
        "datasets.md", "emitted.csv", "fbeta", "fbeta/ds1_fbeta.svg", "iso.svg", "library.md",
        "metrics.csv", "region", "region/ds1_region-dominance.svg", "report.csv", "report.md",
    )

    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=oct)
    def test_outputs_follow_the_umask(self, workdir, umask):
        child = workdir / "child"
        child.mkdir()
        (child / "metrics.csv").write_text("replaced\n", encoding="utf-8")
        os.chmod(child / "metrics.csv", 0o600)
        script = (
            f"import os, sys; os.umask({umask}); "
            "import test_cli; test_cli._write_every_output(*sys.argv[1:])"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, TESTS]))
        command = [sys.executable, "-c", script, str(workdir), str(child)]
        done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        modes = {name: oct(stat.S_IMODE(path.stat().st_mode)) for name, path in _tree(child)}
        assert modes == {
            name: oct((0o777 if name in self.DIRECTORIES else 0o666) & ~umask)
            for name in self.OUTPUTS
        }
        # the child writes the bytes that this process writes
        (workdir / "here").mkdir()
        _write_every_output(workdir, workdir / "here")
        child_files, here_files = (
            [(name, path.read_bytes()) for name, path in _tree(root) if path.is_file()]
            for root in (child, workdir / "here")
        )
        assert child_files == here_files

    @pytest.mark.parametrize("where", ["missing", "front.csv"], ids=["missing", "not-a-directory"])
    def test_a_temp_file_that_cannot_be_opened_is_named_by_out(self, workdir, capsys, where):
        before = sorted(os.listdir(workdir))
        out = workdir / where / "metrics.csv"
        assert run(["metrics", "--in", str(workdir / "front.csv"), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(rf"error: \[Errno \d+\] [^:]+: '{re.escape(str(out))}'\n", err)
        assert sorted(os.listdir(workdir)) == before

    def test_a_taken_temp_name_is_neither_written_nor_removed(self, tmp_path, monkeypatch):
        taken = tmp_path / f".tmp-{'00' * 8}~"
        taken.write_text("another writer's\n", encoding="utf-8")
        monkeypatch.setattr(_io.os, "urandom", lambda n: bytes(n))
        out = tmp_path / "out.txt"
        with pytest.raises(FileExistsError) as err:
            _io.atomic_write_text(str(out), "text\n")
        assert err.value.filename == str(out)
        assert taken.read_text(encoding="utf-8") == "another writer's\n"
        assert not out.exists()

    def test_each_write_takes_a_fresh_random_temp_name(self, tmp_path, monkeypatch):
        names = []

        def replace(src, dst):
            names.append(os.path.relpath(src, tmp_path))
            os.rename(src, dst)

        monkeypatch.setattr(_io.os, "replace", replace)
        for _ in range(3):
            _io.atomic_write_text(str(tmp_path / "out.txt"), "text\n")
        assert all(re.fullmatch(r"\.tmp-[0-9a-f]{16}~", name) for name in names)
        assert len(set(names)) == 3
        assert os.listdir(tmp_path) == ["out.txt"]


# (option strings, dest, required, default, choices) of each subcommand's flags
PARSER_FLAGS = {
    "metrics": [
        (("--in",), "input", True, None, None),
        (("--fold",), "fold", False, None, None),
        (("--out",), "out", True, None, None),
    ],
    "compare": [
        (("--front",), "front", True, None, None),
        (("--refs",), "refs", True, None, None),
        (("--payload",), "payload", False, "counts", ("counts", "objectives")),
        (("--negate",), "negate", False, None, None),
        (("--indicators",), "indicators", False, "ed,hv,sdr,ndr", None),
        (("--fold",), "fold", False, None, None),
        (("--filter-front",), "filter_front", False, False, None),
        (("--format",), "format", False, "csv", ("csv", "markdown")),
        (("--out",), "out", True, None, None),
    ],
    "report": [
        (("--in",), "input", True, None, None),
        (("--format",), "format", False, "markdown", ("csv", "markdown")),
        (("--out",), "out", True, None, None),
    ],
    "fbeta-plot": [
        (("--front",), "front", True, None, None),
        (("--refs",), "refs", True, None, None),
        (("--fold",), "fold", True, None, None),
        (("--beta-min",), "beta_min", False, 0.1, None),
        (("--beta-max",), "beta_max", False, 10.0, None),
        (("--beta-count",), "beta_count", False, 201, None),
        (("--out",), "out", True, None, None),
    ],
    "region-plot": [
        (("--front",), "front", True, None, None),
        (("--refs",), "refs", True, None, None),
        (("--payload",), "payload", False, "counts", ("counts", "objectives")),
        (("--negate",), "negate", False, None, None),
        (("--mode",), "mode", True, None, ("hypervolume", "dominance")),
        (("--fold",), "fold", True, None, None),
        (("--ref-method",), "ref_method", False, None, None),
        (("--filter-front",), "filter_front", False, False, None),
        (("--out",), "out", True, None, None),
    ],
    "isocurves": [
        (("--metric",), "metric", True, None, ("gmean", "f1")),
        (("--levels",), "levels", True, None, None),
        (("--out",), "out", True, None, None),
    ],
    "datasets": [
        (("--in",), "input", True, None, None),
        (("--format",), "format", False, "markdown", ("csv", "markdown")),
        (("--out",), "out", False, None, None),
    ],
}


# each subcommand's help, and the help of each of its flags in declaration order
PARSER_HELP = {
    "metrics": (
        "per-record base and aggregated metrics from counts",
        ["counts csv", "restrict to one fold (default: all folds)", "output csv path"],
    ),
    "compare": (
        "aggregate front-vs-reference indicators over folds",
        [
            "front results csv",
            "reference results csv",
            None,
            "objective columns to sign-flip on load (minimization criteria), e.g. obj_2",
            "comma-separated subset of ed,gd,hv,sdr,ndr (default: ed,hv,sdr,ndr)",
            "restrict to one fold (default: all folds)",
            "drop dominated front points first",
            None,
            "output report path",
        ],
    ),
    "report": ("render a saved csv report as a table", ["report csv", None, "output path"]),
    "fbeta-plot": (
        "preference-sweep figure per dataset",
        [
            "front counts csv",
            "reference counts csv",
            "restrict to one fold",
            None,
            None,
            None,
            "output directory for <dataset>_fbeta.svg",
        ],
    ),
    "region-plot": (
        "hypervolume or dominance region figure per dataset",
        [
            "front results csv",
            "reference results csv",
            None,
            "objective columns to sign-flip on load (minimization criteria), e.g. obj_2",
            None,
            "restrict to one fold",
            "reference method to plot against",
            "drop dominated front points first",
            "output directory for <dataset>_region-<mode>.svg",
        ],
    ),
    "isocurves": (
        "level sets of an aggregate metric",
        [None, "comma-separated levels in (0, 1)", "output svg path"],
    ),
    "datasets": (
        "dataset characteristics with imbalance ratios",
        ["datasets csv", None, "output path (default: stdout)"],
    ),
}


def _subcommands() -> argparse._SubParsersAction:
    (commands,) = [
        a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return commands


def _flags(sub: argparse.ArgumentParser) -> list[argparse.Action]:
    return [a for a in sub._actions if not isinstance(a, argparse._HelpAction)]


class TestParserFlags:
    def test_each_subcommand_declares_the_same_flags(self):
        flags = {
            name: [
                (
                    tuple(a.option_strings),
                    a.dest,
                    a.required,
                    a.default,
                    None if a.choices is None else tuple(a.choices),
                )
                for a in _flags(sub)
            ]
            for name, sub in _subcommands().choices.items()
        }
        assert flags == PARSER_FLAGS

    def test_each_subcommand_and_flag_keeps_its_help(self):
        commands = _subcommands()
        helps = {
            command.dest: (command.help, [a.help for a in _flags(commands.choices[command.dest])])
            for command in commands._choices_actions
        }
        assert helps == PARSER_HELP
