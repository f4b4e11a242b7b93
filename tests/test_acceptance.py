"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

from __future__ import annotations

import functools
import math
import time

import numpy as np

from oracles import brute_force_front, grid_hypervolume, monte_carlo_hypervolume
from pareto_judge.cli import run
from pareto_judge.confusion_metrics import (
    ConfusionMatrix,
    bac,
    fbeta,
    gmean,
    ppv,
    tnr,
    tpr,
)
from pareto_judge.fbeta_analysis import default_beta_grid, fbeta_curve, fbeta_envelope
from pareto_judge.indicators import (
    euclidean_distance,
    generational_distance,
    hypervolume,
    ndr,
    sdr,
)
from pareto_judge.ingest_report import DatasetInfo, imbalance_ratio
from pareto_judge.objective_space import ObjectivePoint, SolutionSet, pareto_front

TABLE1 = [
    ("pima", 8, 768, 268, 1.87),
    ("vehicle1", 18, 846, 217, 2.90),
    ("new-thyroid1", 5, 215, 35, 5.14),
    ("segment0", 19, 2308, 329, 6.02),
    ("page-blocks0", 10, 5472, 559, 8.79),
    ("yeast-0-2-5-6_vs_3-7-8-9", 8, 1004, 99, 9.14),
    ("shuttle-c0-vs-c4", 9, 1829, 123, 13.87),
    ("ecoli4", 7, 336, 20, 15.8),
    ("winequality-white-3_vs_7", 11, 900, 20, 44.00),
    ("poker-8-9_vs_5", 10, 2075, 25, 82.00),
]


def criterion(number: int, name: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number} ({name}): FAIL")
                raise
            print(f"criterion {number} ({name}): PASS [{time.perf_counter() - start:.2f}s]")

        return wrapper

    return decorate


@criterion(1, "imbalance ratio table reproduction")
def test_criterion_1_imbalance_ratios(tmp_path):
    start = time.perf_counter()
    for name, n_features, n_samples, n_minority, published in TABLE1:
        info = DatasetInfo(name, n_features, n_samples, n_minority)
        assert round(imbalance_ratio(info), 2) == published, name

    table = tmp_path / "table.csv"
    table.write_text(
        "name,n_features,n_samples,n_minority\n"
        + "".join(f"{n},{f},{s},{m}\n" for n, f, s, m, _ in TABLE1),
        encoding="utf-8",
    )
    out = tmp_path / "ir.csv"
    assert run(["datasets", "--in", str(table), "--format", "csv", "--out", str(out)]) == 0
    rendered = {
        line.split(",")[0]: line.split(",")[4]
        for line in out.read_text(encoding="utf-8").splitlines()[1:]
    }
    for name, _, _, _, published in TABLE1:
        assert float(rendered[name]) == published, name
    assert time.perf_counter() - start < 1.0


@criterion(2, "hypervolume sweep vs grid and Monte Carlo oracles")
def test_criterion_2_hypervolume_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(2030)
    samples = 1_000_000
    for case in range(200):
        coords = rng.random((int(rng.integers(1, 21)), 2))
        ref = rng.random(2)
        front = SolutionSet.from_coords("front", coords)
        ref_point = ObjectivePoint(tuple(ref))

        exact = hypervolume(front, ref_point)
        assert abs(exact - grid_hypervolume(coords, ref, resolution=2000)) <= 2e-3

        estimate = monte_carlo_hypervolume(coords, ref, samples=samples, seed=case)
        box = float(np.prod(np.maximum(coords.max(axis=0) - ref, 0.0)))
        if box == 0.0:
            assert estimate == 0.0 == exact
            continue
        p_hat = estimate / box
        three_se = 3.0 * box * math.sqrt(p_hat * (1.0 - p_hat) / samples)
        assert abs(estimate - exact) <= three_se + 10.0 * box / samples
    assert time.perf_counter() - start < 60.0


@criterion(3, "pareto front vs all-pairs dominance oracle")
def test_criterion_3_pareto_front_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(2025)
    for case in range(500):
        n = int(rng.integers(1, 201))
        dim = 2 if case % 3 else 3
        if case % 4 == 0:
            coords = rng.integers(0, 6, size=(n, dim)) / 5.0  # ties and duplicates
        else:
            coords = rng.random((n, dim))
        coords = [tuple(float(v) for v in row) for row in coords]
        produced = pareto_front(SolutionSet.from_coords("front", coords))
        assert [p.coords for p in produced.points] == brute_force_front(coords)
    assert time.perf_counter() - start < 10.0


@criterion(4, "dominance ratio invariants and worked example")
def test_criterion_4_sdr_ndr():
    front = SolutionSet.from_coords("front", [(0.2, 0.2), (0.6, 0.6), (0.9, 0.9)])
    ref = ObjectivePoint((0.5, 0.5))
    assert sdr(front, ref) == 2 / 3
    assert ndr(front, ref) == 2 / 3

    rng = np.random.default_rng(2026)
    for _ in range(10_000):
        n = int(rng.integers(1, 41))
        candidate = SolutionSet.from_coords("front", rng.random((n, 2)))
        point = ObjectivePoint(tuple(rng.random(2)))
        s, d = sdr(candidate, point), ndr(candidate, point)
        assert s <= d
        assert s + (1.0 - d) <= 1.0


@criterion(5, "generational distance vs euclidean distance contract")
def test_criterion_5_gd_ed():
    rng = np.random.default_rng(2027)
    for _ in range(500):
        front = SolutionSet.from_coords("front", rng.random((int(rng.integers(1, 25)), 2)))
        point = ObjectivePoint(tuple(rng.random(2)))
        single = SolutionSet("ref", (point,))
        assert generational_distance(front, single) == euclidean_distance(front, point)

    for _ in range(200):
        coords = [tuple(v) for v in rng.random((int(rng.integers(1, 10)), 2))]
        refs = SolutionSet.from_coords("refs", coords + [tuple(rng.random(2))])
        shuffled = list(coords)
        rng.shuffle(shuffled)
        front = SolutionSet.from_coords("front", shuffled)
        assert generational_distance(front, refs) == 0.0
        off = SolutionSet.from_coords("front", shuffled + [tuple(1.5 + rng.random(2))])
        assert generational_distance(off, refs) > 0.0


@criterion(6, "aggregated metric identities")
def test_criterion_6_metric_identities():
    rng = np.random.default_rng(2028)
    count = 0
    while count < 100_000:
        tp, fn, fp, tn = (int(v) for v in rng.integers(0, 251, size=4))
        if tp + fn + fp + tn == 0:
            continue
        count += 1
        m = ConfusionMatrix(tp, fn, fp, tn)
        gap = bac(m).value - gmean(m).value
        assert gap >= -1e-12
        if tpr(m).value == tnr(m).value:
            assert abs(gap) <= 1e-12
        else:
            assert gap > 1e-12

        p, t = ppv(m).value, tpr(m).value
        harmonic = 2 * p * t / (p + t) if p + t > 0 else 0.0
        assert abs(fbeta(m, 1.0).value - harmonic) <= 1e-12

        swapped = ConfusionMatrix(tn, fp, fn, tp)
        assert abs(gmean(m).value - gmean(swapped).value) <= 1e-12


@criterion(7, "preference envelope dominance and count-scaling stability")
def test_criterion_7_envelope():
    rng = np.random.default_rng(2029)
    grid = default_beta_grid()
    for _ in range(25):
        size = int(rng.integers(1, 31))
        members = []
        while len(members) < size:
            counts = [int(v) for v in rng.integers(0, 120, size=4)]
            if sum(counts) > 0:
                members.append(ConfusionMatrix(*counts))
        envelope = fbeta_envelope(members, grid)
        for member in members:
            curve = fbeta_curve(member, grid)
            assert all(e >= v for e, v in zip(envelope.values, curve.values))
        scaled = [ConfusionMatrix(7 * m.tp, 7 * m.fn, 7 * m.fp, 7 * m.tn) for m in members]
        assert fbeta_envelope(scaled, grid).argmax == envelope.argmax


@criterion(8, "end-to-end fixture with full pipeline determinism")
def test_criterion_8_end_to_end(tmp_path):
    start = time.perf_counter()
    folds = (0, 1, 2, 3)
    front_rows = [
        f"ds1,moo,{fold},{sid},{tp},{fn},{fp},{tn}"
        for fold in folds
        for sid, (tp, fn, fp, tn) in enumerate(((4, 6, 1, 9), (9, 1, 6, 4), (7, 3, 3, 7)))
    ]
    ref_rows = [f"ds1,base,{fold},0,6,4,4,6" for fold in folds]
    front_path = tmp_path / "front.csv"
    refs_path = tmp_path / "refs.csv"
    front_path.write_text(
        "dataset,method,fold,solution_id,tp,fn,fp,tn\n" + "\n".join(front_rows) + "\n",
        encoding="utf-8",
    )
    refs_path.write_text(
        "dataset,method,fold,solution_id,tp,fn,fp,tn\n" + "\n".join(ref_rows) + "\n",
        encoding="utf-8",
    )

    outputs = {}
    for tag in ("run1", "run2"):
        base = tmp_path / tag
        base.mkdir()
        compare = [
            "compare",
            "--front",
            str(front_path),
            "--refs",
            str(refs_path),
            "--indicators",
            "ed,hv,sdr,ndr",
            "--out",
            str(base / "report.csv"),
        ]
        assert run(compare) == 0
        assert run(["report", "--in", str(base / "report.csv"), "--out", str(base / "report.md")]) == 0
        plot_args = [
            "--front",
            str(front_path),
            "--refs",
            str(refs_path),
            "--fold",
            "0",
            "--out",
            str(base / "plots"),
        ]
        assert run(["fbeta-plot", *plot_args]) == 0
        assert run(["region-plot", "--mode", "hypervolume", *plot_args]) == 0
        outputs[tag] = {
            name: (base / name).read_bytes()
            for name in (
                "report.csv",
                "report.md",
                "plots/ds1_fbeta.svg",
                "plots/ds1_region-hypervolume.svg",
            )
        }
    assert outputs["run1"] == outputs["run2"]

    report = outputs["run1"]["report.csv"].decode("utf-8").splitlines()
    cells = {tuple(line.split(",")[:2]): line.split(",")[2:] for line in report[1:]}
    by_indicator = {key[0]: values for key, values in cells.items()}
    for values in by_indicator.values():
        assert float(values[2]) == 0.0  # identical folds: zero deviation
        assert values[3] == str(len(folds))

    assert float(by_indicator["SDR"][1]) == 1 / 3
    assert float(by_indicator["NDR"][1]) == 1.0

    coords = [(0.4, 0.9), (0.9, 0.4), (0.7, 0.7)]
    reference = (0.6, 0.6)
    ed_oracle = sum(math.dist(c, reference) for c in coords) / len(coords)
    assert abs(float(by_indicator["ED"][1]) - ed_oracle) <= 1e-12
    hv_value = float(by_indicator["HV"][1])
    assert abs(hv_value - grid_hypervolume(coords, reference)) <= 2e-3
    assert abs(hv_value - 0.01) <= 1e-12

    markdown = outputs["run1"]["report.md"].decode("utf-8")
    assert "## HV (×10³)" in markdown
    assert "| base | 10.00 (0.00) |" in markdown
    assert time.perf_counter() - start < 5.0
