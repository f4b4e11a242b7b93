"""Seeded inputs and command lines for the end-to-end workloads.

A workload is a function of (seed, scale) alone; the program under test sees
nothing but the CSV files written here. All draws come from
``numpy.random.default_rng(seed)``.

- ``compare-counts``: the ROADMAP baseline. For every (dataset, fold), each
  front solution and each reference method draws tp from 0..49 of 50
  positives and fp from 0..199 of 200 negatives.
- ``compare-objectives-3d``: three objectives, obj_3 a cost column. In every
  fold 40% of the front strictly dominates each reference point, 30% is
  dominated by each and 30% is neither, so the Monte Carlo hypervolume
  kernel scans the same number of boxes whatever the seed.
- ``figures``: the ``compare-counts`` files, drawn as F-beta and dominance
  figures for fold 0.

Run on its own to write a workload's inputs for inspection:

    python3 e2ebench/workloads.py --workload compare-counts --seed 1 --out /tmp/in
"""

from __future__ import annotations

import argparse
import functools
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks

POSITIVES = 50
NEGATIVES = 200
FRONT_METHOD = "moo"
FIGURE_FOLD = 0
REGION_REF = 0

COUNTS_HEADER = "dataset,method,fold,solution_id,tp,fn,fp,tn"
OBJECTIVES_HEADER = "dataset,method,fold,solution_id,obj_1,obj_2,obj_3"


@dataclass(frozen=True)
class Sizes:
    datasets: int
    folds: int
    refs: int
    front: int
    folds_3d: int
    refs_3d: int
    front_3d: int


SCALES = {
    # 20 x 10 x (200 + 6) = 41,200 counts rows; 3 x (40 + 2) = 126 objective rows
    "full": Sizes(datasets=20, folds=10, refs=6, front=200, folds_3d=3, refs_3d=2, front_3d=40),
    "tiny": Sizes(datasets=2, folds=3, refs=2, front=12, folds_3d=2, refs_3d=2, front_3d=10),
}


@dataclass(frozen=True)
class CountsData:
    """Confusion counts as generated: tp and fp per solution, arrays (dataset, fold, solution)."""

    front_tp: np.ndarray
    front_fp: np.ndarray
    ref_tp: np.ndarray
    ref_fp: np.ndarray

    positives = POSITIVES

    @property
    def datasets(self) -> list[str]:
        return [f"ds{i:02d}" for i in range(self.front_tp.shape[0])]

    @property
    def methods(self) -> list[str]:
        return [f"ref{i}" for i in range(self.ref_tp.shape[2])]

    def points(self) -> tuple[np.ndarray, np.ndarray]:
        """(TPR, TNR) points of the front and of the references, shape (..., 2)."""

        def rates(tp: np.ndarray, fp: np.ndarray) -> np.ndarray:
            return np.stack([tp / POSITIVES, (NEGATIVES - fp) / NEGATIVES], axis=-1)

        return rates(self.front_tp, self.front_fp), rates(self.ref_tp, self.ref_fp)


@dataclass(frozen=True)
class ObjectivesData:
    """Raw objective rows as written, arrays (fold, solution, 3); obj_3 is a cost."""

    front: np.ndarray
    refs: np.ndarray

    dataset = "ds00"

    @property
    def methods(self) -> list[str]:
        return [f"ref{i}" for i in range(self.refs.shape[1])]

    def points(self) -> tuple[np.ndarray, np.ndarray]:
        """Front and reference points in the maximization orientation (obj_3 negated)."""
        flip = np.array([1.0, 1.0, -1.0])
        return self.front * flip, self.refs * flip


@dataclass(frozen=True)
class Command:
    """One pareto-judge invocation and the independent check of what it writes."""

    argv: tuple[str, ...]
    output: str
    check: Callable[[str], list[str]]


@dataclass(frozen=True)
class Workload:
    commands: tuple[Command, ...]
    rows: int  # input data rows the commands ingest per repeat


def generate_counts(seed: int, sizes: Sizes) -> CountsData:
    rng = np.random.default_rng(seed)
    front_shape = (sizes.datasets, sizes.folds, sizes.front)
    ref_shape = (sizes.datasets, sizes.folds, sizes.refs)
    return CountsData(
        front_tp=rng.integers(0, POSITIVES, front_shape),
        front_fp=rng.integers(0, NEGATIVES, front_shape),
        ref_tp=rng.integers(0, POSITIVES, ref_shape),
        ref_fp=rng.integers(0, NEGATIVES, ref_shape),
    )


def generate_objectives(seed: int, sizes: Sizes) -> ObjectivesData:
    rng = np.random.default_rng(seed)
    n = sizes.front_3d
    n_dominating = round(0.4 * n)
    n_neither = round(0.3 * n)
    n_dominated = n - n_dominating - n_neither
    # columns obj_1, obj_2 (benefits) and obj_3 (a cost); references sit in
    # [0.2, 0.4] x [0.2, 0.4] x cost [0.6, 0.8]
    refs = rng.uniform([0.2, 0.2, 0.6], [0.4, 0.4, 0.8], (sizes.folds_3d, sizes.refs_3d, 3))
    fronts = []
    for _ in range(sizes.folds_3d):
        front = np.concatenate(
            [
                rng.uniform([0.45, 0.45, 0.05], [1.0, 1.0, 0.55], (n_dominating, 3)),
                rng.uniform([0.45, 0.0, 0.05], [1.0, 0.15, 0.55], (n_neither, 3)),
                rng.uniform([0.0, 0.0, 0.85], [0.15, 0.15, 1.0], (n_dominated, 3)),
            ]
        )
        fronts.append(front[rng.permutation(n)])
    return ObjectivesData(front=np.stack(fronts), refs=refs)


def _write(path: str, header: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(header + "\n" + "\n".join(lines) + "\n")


def write_counts(data: CountsData, directory: str) -> tuple[str, str]:
    front_lines, ref_lines = [], []
    methods = data.methods
    for d, dataset in enumerate(data.datasets):
        for fold in range(data.front_tp.shape[1]):
            pairs = zip(data.front_tp[d, fold].tolist(), data.front_fp[d, fold].tolist())
            for sid, (tp, fp) in enumerate(pairs):
                front_lines.append(
                    f"{dataset},{FRONT_METHOD},{fold},{sid},{tp},{POSITIVES - tp},{fp},{NEGATIVES - fp}"
                )
            pairs = zip(data.ref_tp[d, fold].tolist(), data.ref_fp[d, fold].tolist())
            for method, (tp, fp) in zip(methods, pairs):
                ref_lines.append(
                    f"{dataset},{method},{fold},0,{tp},{POSITIVES - tp},{fp},{NEGATIVES - fp}"
                )
    front_path = os.path.join(directory, "front.csv")
    refs_path = os.path.join(directory, "refs.csv")
    _write(front_path, COUNTS_HEADER, front_lines)
    _write(refs_path, COUNTS_HEADER, ref_lines)
    return front_path, refs_path


def write_objectives(data: ObjectivesData, directory: str) -> tuple[str, str]:
    def row(method: str, fold: int, sid: int, values: list[float]) -> str:
        return f"{data.dataset},{method},{fold},{sid}," + ",".join(repr(v) for v in values)

    front_lines, ref_lines = [], []
    for fold in range(data.front.shape[0]):
        for sid, values in enumerate(data.front[fold].tolist()):
            front_lines.append(row(FRONT_METHOD, fold, sid, values))
        for method, values in zip(data.methods, data.refs[fold].tolist()):
            ref_lines.append(row(method, fold, 0, values))
    front_path = os.path.join(directory, "front3d.csv")
    refs_path = os.path.join(directory, "refs3d.csv")
    _write(front_path, OBJECTIVES_HEADER, front_lines)
    _write(refs_path, OBJECTIVES_HEADER, ref_lines)
    return front_path, refs_path


def _compare_counts(seed: int, sizes: Sizes, inputs: str, out: str) -> Workload:
    data = generate_counts(seed, sizes)
    front, refs = write_counts(data, inputs)
    report = os.path.join(out, "report.csv")
    argv = ("compare", "--front", front, "--refs", refs, "--indicators", "ed,gd,hv,sdr,ndr")
    command = Command(
        argv + ("--out", report), report, functools.partial(checks.check_counts_report, data=data)
    )
    return Workload((command,), data.front_tp.size + data.ref_tp.size)


def _compare_objectives_3d(seed: int, sizes: Sizes, inputs: str, out: str) -> Workload:
    data = generate_objectives(seed, sizes)
    front, refs = write_objectives(data, inputs)
    report = os.path.join(out, "report.csv")
    argv = (
        "compare", "--front", front, "--refs", refs, "--payload", "objectives",
        "--negate", "obj_3", "--indicators", "ed,gd,hv,sdr,ndr", "--out", report,
    )
    command = Command(argv, report, functools.partial(checks.check_objectives_report, data=data))
    rows = data.front.shape[0] * data.front.shape[1] + data.refs.shape[0] * data.refs.shape[1]
    return Workload((command,), rows)


def _figures(seed: int, sizes: Sizes, inputs: str, out: str) -> Workload:
    data = generate_counts(seed, sizes)
    front, refs = write_counts(data, inputs)
    fbeta_dir = os.path.join(out, "fbeta")
    region_dir = os.path.join(out, "region")
    fold = str(FIGURE_FOLD)
    fbeta = Command(
        ("fbeta-plot", "--front", front, "--refs", refs, "--fold", fold, "--out", fbeta_dir),
        fbeta_dir,
        functools.partial(checks.check_fbeta_dir, data=data, fold=FIGURE_FOLD),
    )
    region = Command(
        (
            "region-plot", "--front", front, "--refs", refs, "--mode", "dominance",
            "--ref-method", data.methods[REGION_REF], "--filter-front", "--fold", fold,
            "--out", region_dir,
        ),
        region_dir,
        functools.partial(checks.check_region_dir, data=data, fold=FIGURE_FOLD, ref=REGION_REF),
    )
    rows = data.front_tp.size + data.ref_tp.size
    return Workload((fbeta, region), 2 * rows)


BUILDERS = {
    "compare-counts": _compare_counts,
    "compare-objectives-3d": _compare_objectives_3d,
    "figures": _figures,
}


def build(name: str, seed: int, inputs: str, out: str, scale: str = "full") -> Workload:
    """Write the workload's input files into ``inputs``; its commands write under ``out``."""
    os.makedirs(inputs, exist_ok=True)
    return BUILDERS[name](seed, SCALES[scale], inputs, out)


def main() -> None:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=sorted(BUILDERS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    parser.add_argument("--out", required=True, help="directory for the input CSV files")
    args = parser.parse_args()
    workload = build(args.workload, args.seed, args.out, os.path.join(args.out, "out"), args.scale)
    for command in workload.commands:
        print("pareto-judge " + " ".join(command.argv))


if __name__ == "__main__":
    main()
