"""Tests of the benchmark itself, at the tiny scale.

    PYTHONPATH=src python3 -m pytest -q e2ebench
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import checks
import run
import spans
import workloads


def _first_repeat(name: str, work: str) -> workloads.Workload:
    workload = workloads.build(name, 5, work, os.path.join(work, "out"), "tiny")
    session = run.Session(workload, work)
    session.repeat()
    assert session.problems == []
    return workload


def test_inputs_depend_on_the_seed_alone(tmp_path):
    def inputs(seed: int, sub: str) -> dict[str, bytes]:
        directory = tmp_path / sub
        workloads.build("compare-objectives-3d", seed, str(directory), "", "tiny")
        workloads.build("compare-counts", seed, str(directory), "", "tiny")
        return {p.name: p.read_bytes() for p in directory.iterdir()}

    assert inputs(7, "a") == inputs(7, "b")
    assert inputs(7, "a") != inputs(8, "c")


def test_objectives_front_mix_is_fixed():
    front, refs = workloads.generate_objectives(11, workloads.SCALES["full"]).points()
    for fold in range(front.shape[0]):
        for ref in refs[fold]:
            assert (front[fold] > ref).all(axis=1).sum() == 16
            assert (front[fold] < ref).all(axis=1).sum() == 12


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_tiny_run_is_correct(name):
    result = run.run_workload(name, seed=2, seconds=0, trace=False, scale="tiny")
    assert result["correct"] and result["failed"] == 0
    commands = 2 if name == "figures" else 1
    assert result["attempted"] == (1 + run.MIN_REPEATS) * commands  # warm-up + minimum
    assert list(result["metrics"]) == [metric for metric, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_counts_and_outputs():
    counts = run.run_workload("compare-counts", seed=2, seconds=0, trace=True, scale="tiny")
    assert counts["correct"]
    metrics = {k: v["value"] for k, v in counts["metrics"].items()}
    assert list(metrics) == [name for name, _, _ in spans.METRICS]
    assert metrics["confusion_metrics.objective_point_of.calls_per_row"] == 2.0
    assert metrics["indicators.HV.exact_calls"] == metrics["indicators.HV.calls"] > 0

    cube = run.run_workload("compare-objectives-3d", seed=2, seconds=0, trace=True, scale="tiny")
    assert cube["correct"]
    sizes = workloads.SCALES["tiny"]
    mc_calls = cube["metrics"]["indicators.hypervolume_mc.calls"]["value"]
    assert mc_calls == sizes.folds_3d * sizes.refs_3d
    assert cube["metrics"]["indicators.HV.exact_calls"]["value"] == 0


def _replace_once(path: str, pattern: str, replace) -> None:
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    changed, n = re.subn(pattern, replace, text, count=1)
    assert n == 1
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(changed)


def test_checks_reject_a_corrupted_counts_report(tmp_path):
    command = _first_repeat("compare-counts", str(tmp_path)).commands[0]
    report = command.output
    with open(report, encoding="utf-8") as handle:
        pristine = handle.read()
    assert command.check(report) == []

    # one HV mean nudged by 1e-9
    _replace_once(report, r"(?m)^(HV,[^,]+,[^,]+,)([^,]+)", lambda m: m[1] + repr(float(m[2]) + 1e-9))
    assert any("mean" in p for p in command.check(report))

    with open(report, "w", encoding="utf-8") as handle:
        handle.write("\n".join(pristine.split("\n")[:-2]) + "\n")  # last row dropped
    assert any("missing" in p for p in command.check(report))

    with open(report, "w", encoding="utf-8") as handle:
        handle.write(pristine.replace(",3\n", ",2\n", 1))  # a fold_count
    assert any("fold_count" in p for p in command.check(report))


def test_checks_reject_a_wrong_3d_hypervolume(tmp_path):
    command = _first_repeat("compare-objectives-3d", str(tmp_path)).commands[0]
    assert command.check(command.output) == []
    _replace_once(
        command.output, r"(?m)^(HV,[^,]+,[^,]+,)([^,]+)", lambda m: m[1] + repr(float(m[2]) * 1.01)
    )
    assert any("HV" in p for p in command.check(command.output))


def test_checks_reject_corrupted_svgs(tmp_path):
    fbeta, region = _first_repeat("figures", str(tmp_path)).commands
    assert fbeta.check(fbeta.output) == [] and region.check(region.output) == []
    svg = os.path.join(fbeta.output, "ds00_fbeta.svg")

    # the envelope's first y coordinate moved by one pixel
    _replace_once(
        svg,
        r'(stroke-dasharray="7 4" points="[0-9.]+,)([0-9.]+)',
        lambda m: m[1] + f"{float(m[2]) + 1.0:.2f}",
    )
    assert any("off by" in p for p in fbeta.check(fbeta.output))

    with open(svg, "r+", encoding="utf-8") as handle:
        handle.truncate(len(handle.read()) // 2)
    assert any("well-formed" in p for p in fbeta.check(fbeta.output))

    _replace_once(
        os.path.join(region.output, "ds01_region-dominance.svg"),
        r"SDR = ([0-9.]+)",
        lambda m: f"SDR = {min(1.0, float(m[1]) + 0.01):.2f}" if m[1] != "1.00" else "SDR = 0.99",
    )
    assert any("SDR" in p for p in region.check(region.output))


def test_independent_hypervolume_agrees_with_a_grid():
    points = workloads.generate_objectives(4, workloads.SCALES["tiny"]).points()[0][0]
    ref = points.min(axis=0) - 0.01
    exact = checks.hv3d(points, ref)
    # midpoint rasterization of the box union
    edges = [np.linspace(ref[d], points[:, d].max(), 81) for d in range(3)]
    mids = np.stack(np.meshgrid(*[(e[1:] + e[:-1]) / 2 for e in edges], indexing="ij"), -1)
    covered = (mids[..., None, :] <= points).all(-1).any(-1)
    cell = np.prod([e[1] - e[0] for e in edges])
    assert exact == pytest.approx(covered.sum() * cell, rel=0.05)


def test_benchmark_json_names_what_the_run_prints():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.BUILDERS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(spans.METRICS)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "e2ebench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "compare-counts", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

