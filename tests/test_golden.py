"""Golden digests: command outputs must stay byte-identical across refactors.

The inputs are drawn from ``default_rng`` here, so the files cover ragged
folds (a reference method missing a fold), duplicate front points and
degenerate confusion matrices without being committed. Each digest is the
SHA-256 of one output file, or of every file in an output directory with its
name; they were computed before the columnar ingest and aggregation replaced
the per-record path (the ``metrics`` digest before its per-row objects were
replaced by array arithmetic, and the ``isocurves`` and further
``region-plot`` digests before the figure renderers moved onto arrays), and
any change to them is an output change that needs a reason. The two
``region-objectives-2d`` digests changed when the region plot's axes were
widened to cover data outside the unit square: their negated cost column
lies in [-1, 0], which the unit square had drawn below the canvas.
"""

from __future__ import annotations

import hashlib
import os
import re

import numpy as np
import pytest

from pareto_judge._svg import BOTTOM, LEFT, RIGHT, TOP
from pareto_judge.cli import run
from pareto_judge.ingest_report import emit_records, parse_records

DATASETS = ("dsA", "dsB", "dsC")
FOLDS = 3
METHODS = ("ref0", "ref1", "ref2")


def _counts_files(directory) -> tuple[str, str]:
    rng = np.random.default_rng(20251018)
    front = ["dataset,method,fold,solution_id,tp,fn,fp,tn"]
    refs = ["dataset,method,fold,solution_id,tp,fn,fp,tn"]
    for dataset in DATASETS:
        for fold in range(FOLDS):
            rows = [list(rng.integers(0, 12, 4)) for _ in range(14)]
            rows[3] = list(rows[1])  # a duplicate point
            rows[5][:2] = [0, 0]  # no positives: TPR undefined
            rows[6][2:] = [0, 0]  # no negatives: TNR undefined
            for row in rows:
                if sum(row) == 0:
                    row[3] = 1
            for sid in rng.permutation(len(rows)):
                front.append(f"{dataset},moo,{fold},{sid}," + ",".join(map(str, rows[sid])))
            for method in METHODS:
                if (dataset, method, fold) == ("dsB", "ref2", 1):
                    continue  # ragged: one reference lacks a fold
                counts = rng.integers(1, 12, 4)
                refs.append(f"{dataset},{method},{fold},0," + ",".join(map(str, counts)))
    paths = (os.path.join(directory, "front.csv"), os.path.join(directory, "refs.csv"))
    for path, lines in zip(paths, (front, refs)):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
    return paths


def _objectives_files(directory) -> tuple[str, str]:
    rng = np.random.default_rng(7)
    header = "dataset,method,fold,solution_id,obj_1,obj_2,obj_3"
    front, refs = [header], [header]
    for dataset in DATASETS[:2]:
        for fold in range(2):
            points = rng.random((10, 3))
            points[4] = points[2]
            for sid, point in enumerate(points.tolist()):
                front.append(f"{dataset},moo,{fold},{sid}," + ",".join(map(repr, point)))
            for method in METHODS[:2]:
                point = rng.uniform(0.2, 0.6, 3).tolist()
                refs.append(f"{dataset},{method},{fold},0," + ",".join(map(repr, point)))
    paths = (os.path.join(directory, "front3d.csv"), os.path.join(directory, "refs3d.csv"))
    for path, lines in zip(paths, (front, refs)):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
    return paths


def _objectives_2d_files(directory) -> tuple[str, str]:
    """Two objectives on a coarse lattice, the second a cost column read with
    ``--negate obj_2``: equal x values, duplicate points and 0.0 (-0.0 once
    negated) are common."""
    rng = np.random.default_rng(11)
    header = "dataset,method,fold,solution_id,obj_1,obj_2"
    front, refs = [header], [header]
    for dataset in DATASETS[:2]:
        for fold in range(2):
            points = rng.integers(0, 9, (16, 2)) / 8.0
            points[7] = points[3]
            points[9, 0] = points[5, 0]
            points[:, 1] = 1.0 - points[:, 1]  # a cost: lower is better
            for sid, point in enumerate(points.tolist()):
                front.append(f"{dataset},moo,{fold},{sid}," + ",".join(map(repr, point)))
            for method in METHODS[:2]:
                point = [float(rng.uniform(0.2, 0.6)), float(rng.uniform(0.4, 0.8))]
                refs.append(f"{dataset},{method},{fold},0," + ",".join(map(repr, point)))
    paths = (os.path.join(directory, "front2d.csv"), os.path.join(directory, "refs2d.csv"))
    for path, lines in zip(paths, (front, refs)):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
    return paths


def _datasets_file(directory) -> str:
    rng = np.random.default_rng(5)
    lines = ["name,n_features,n_samples,n_minority"]
    for i in range(6):
        n_samples = int(rng.integers(20, 5000))
        n_minority = int(rng.integers(1, n_samples // 2 + 1))
        lines.append(f"ds{i}_{'ab'[i % 2]},{rng.integers(1, 300)},{n_samples},{n_minority}")
    path = os.path.join(directory, "datasets.csv")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    return path


MAKERS = {
    "counts": _counts_files,
    "objectives": _objectives_files,
    "objectives-2d": _objectives_2d_files,
}


def _digest(path: str) -> str:
    h = hashlib.sha256()
    if os.path.isdir(path):
        for name in sorted(os.listdir(path)):
            h.update(name.encode() + b"\0")
            with open(os.path.join(path, name), "rb") as handle:
                h.update(handle.read())
    else:
        with open(path, "rb") as handle:
            h.update(handle.read())
    return h.hexdigest()


ALL = ("--indicators", "ed,gd,hv,sdr,ndr")

# name -> (inputs, arguments after the input files, expected digest)
GOLDEN = {
    "compare-csv": (
        "counts",
        ("compare", *ALL, "--format", "csv"),
        "9780f478e54462640d2857b4d65ce3944baa078925f9dabed24a1ddd7b24b7b1",
    ),
    "compare-markdown": (
        "counts",
        ("compare", *ALL, "--format", "markdown"),
        "21184471757d3c6fbc091061a1ce83bf7c9503b2cf70a2f0a18bfb9429828c85",
    ),
    "compare-filtered": (
        "counts",
        ("compare", *ALL, "--filter-front"),
        "4825fc3d2422cb2a77cba76888a2c6da02811cb8a10066750c3766c393242db8",
    ),
    "compare-3d-csv": (
        "objectives",
        ("compare", *ALL, "--payload", "objectives", "--negate", "obj_3"),
        "565d82165b3b72dc909b0460a6f90b073975c87def7e911775881abf8341b8fb",
    ),
    "compare-3d-markdown": (
        "objectives",
        ("compare", *ALL, "--payload", "objectives", "--negate", "obj_3", "--format", "markdown"),
        "1bfd199154a3cf771892f3b5f763977dac14b0062402bb1fbd8499d5ac2975fd",
    ),
    "fbeta-plot": (
        "counts",
        ("fbeta-plot", "--fold", "0"),
        "a482b83692d72438409376a9ca304228a9ce7c0e75f30f7fbd10c6dbfe0f90aa",
    ),
    "region-hypervolume": (
        "counts",
        ("region-plot", "--mode", "hypervolume", "--fold", "1", "--ref-method", "ref0"),
        "221522244e7bc41e54a42dd34cb068533cf84119ff9a6dfe1ef6b3760801873e",
    ),
    "region-dominance": (
        "counts",
        ("region-plot", "--mode", "dominance", "--fold", "2", "--ref-method", "ref2",
         "--filter-front"),
        "28139501e1153371e020c24f50329c51030a725c30d23ef432e5ed7e9f70442f",
    ),
    "metrics": (
        "counts",
        ("metrics",),
        "90ddd211c853e258dcbed0122a72f43531dd781660501eed9b6f7728ec91a310",
    ),
    "isocurves-gmean": (
        None,
        ("isocurves", "--metric", "gmean", "--levels", "0.1,0.35,0.6,0.85,0.99"),
        "76338cee8c7f2fa6460cf78022f4c06e0fd6210ba21f6ae275d5d0ead5f0f320",
    ),
    "isocurves-f1": (
        None,
        ("isocurves", "--metric", "f1", "--levels", "0.05,0.5,0.75,0.95"),
        "20dc7d9fa6069a1f3758dfe43c4c5d86ea5c8f5e1dd4b67e13f28f414df816fd",
    ),
    "region-dominance-unfiltered": (
        "counts",
        ("region-plot", "--mode", "dominance", "--fold", "0", "--ref-method", "ref1"),
        "f2043e14bd7dfe376e00d0fd954880d02584c7fb77aaf66524e73ccc1bfa4d85",
    ),
    "region-hypervolume-filtered": (
        "counts",
        ("region-plot", "--mode", "hypervolume", "--fold", "2", "--ref-method", "ref1",
         "--filter-front"),
        "30a2bea7c3dc6cb56987a6b5df68b5a1633a200a99e8780c2ea3d0c30c55ca85",
    ),
    "region-objectives-2d-dominance": (
        "objectives-2d",
        ("region-plot", "--payload", "objectives", "--negate", "obj_2", "--mode", "dominance",
         "--fold", "0", "--ref-method", "ref0"),
        "6de8aea4084d53652fcec5ca63b235ff8a9613ff91022cea4811632e52f47842",
    ),
    "region-objectives-2d-hypervolume-filtered": (
        "objectives-2d",
        ("region-plot", "--payload", "objectives", "--negate", "obj_2", "--mode", "hypervolume",
         "--fold", "1", "--ref-method", "ref1", "--filter-front"),
        "e7c13d079947634b30f5ead8123663ce164f84a2ccc204c8a51737f93a371ca2",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_digest(tmp_path, name):
    inputs, args, expected = GOLDEN[name]
    out = str(tmp_path / "out")
    command, *rest = args
    if inputs is None:
        files = []
    else:
        front, refs = MAKERS[inputs](str(tmp_path))
        files = ["--in", front] if command == "metrics" else ["--front", front, "--refs", refs]
    assert run([command, *files, *rest, "--out", out]) == 0
    assert _digest(out) == expected


@pytest.mark.parametrize("mode", ["dominance", "hypervolume"])
def test_negated_region_plot_draws_every_point_inside_the_frame(tmp_path, mode):
    front, refs = _objectives_2d_files(str(tmp_path))
    for fold in ("0", "1"):
        out = tmp_path / f"out{fold}"
        args = ["--front", front, "--refs", refs, "--payload", "objectives", "--negate", "obj_2"]
        args += ["--mode", mode, "--fold", fold, "--ref-method", "ref0", "--out", str(out)]
        assert run(["region-plot", *args]) == 0
        for svg in sorted(out.iterdir()):
            circles = re.findall(r'<circle cx="([^"]+)" cy="([^"]+)"', svg.read_text())
            assert len(circles) == 16
            for cx, cy in circles:
                # the frame lies inside the 800x600 document
                assert LEFT <= float(cx) <= RIGHT
                assert TOP <= float(cy) <= BOTTOM


# tables written other than by one command on the generated results files;
# taken before every written table was laid out by one function
LAYOUT_GOLDEN = {
    "datasets-csv": "9df9e73d20d08c656b526846899149004156a7fd031e87ef9e46bf285290ac29",
    "datasets-markdown": "857eec5c4a188728ae162947b50e01acc38f6b533bef6987be1878ac5db5fa46",
    "report-markdown": "21184471757d3c6fbc091061a1ce83bf7c9503b2cf70a2f0a18bfb9429828c85",
    "emit-counts": "f52e105366dbc5ca972381e64376690c5cf82ab8d3f17e054396fc88ea0e1bb6",
    "emit-objectives-3d": "e7961349dd1497c585d381d3a5b6f242d505eb74e06f0ba5dde5df357a04863f",
}


@pytest.mark.parametrize("name", sorted(LAYOUT_GOLDEN))
def test_table_layout_digest(tmp_path, name):
    out = str(tmp_path / "out")
    if name.startswith("datasets-"):
        fmt = name.removeprefix("datasets-")
        datasets = _datasets_file(str(tmp_path))
        assert run(["datasets", "--in", datasets, "--format", fmt, "--out", out]) == 0
    elif name == "report-markdown":
        front, refs = _counts_files(str(tmp_path))
        report = str(tmp_path / "report.csv")
        assert run(["compare", "--front", front, "--refs", refs, *ALL, "--out", report]) == 0
        assert run(["report", "--in", report, "--format", "markdown", "--out", out]) == 0
    elif name == "emit-counts":
        emit_records(parse_records(_counts_files(str(tmp_path))[0], "counts"), out)
    else:
        front = _objectives_files(str(tmp_path))[0]
        emit_records(parse_records(front, "objectives", ("obj_3",)), out)
    assert _digest(out) == LAYOUT_GOLDEN[name]
