"""Peak traced memory of the parse and the indicators, in multiples of the file.

A results file is read whole, so the parse and the indicator evaluation are
bounded relative to its size: at most 12 times the file, each measured with
``tracemalloc`` (which also sees numpy's buffers) on a 40,000-row counts
front, and the parse also on a 40,000-row file of three objectives and on
the counts front with one 100-byte dataset name.
"""

from __future__ import annotations

import os
import tracemalloc

import numpy as np
import pytest

from pareto_judge.ingest_report import COUNTS_HEADER, aggregate, parse_records

PEAK_PER_FILE_BYTE = 12


def _write_counts(path: str, rows: list[tuple]) -> None:
    lines = [",".join(COUNTS_HEADER)] + [",".join(map(str, row)) for row in rows]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


@pytest.fixture(scope="module")
def counts_files(tmp_path_factory):
    """20 datasets x 10 folds of a 200-solution front and 6 reference methods."""
    rng = np.random.default_rng(2024)
    front, refs = [], []
    for d in range(20):
        for fold in range(10):
            for sid, (tp, fp) in enumerate(rng.integers(0, [51, 201], (200, 2)).tolist()):
                front.append((f"ds{d:02d}", "moo", fold, sid, tp, 50 - tp, fp, 200 - fp))
            for m, (tp, fp) in enumerate(rng.integers(0, [51, 201], (6, 2)).tolist()):
                refs.append((f"ds{d:02d}", f"ref{m}", fold, 0, tp, 50 - tp, fp, 200 - fp))
    directory = tmp_path_factory.mktemp("memory")
    paths = str(directory / "front.csv"), str(directory / "refs.csv")
    _write_counts(paths[0], front)
    _write_counts(paths[1], refs)
    return paths


@pytest.fixture(scope="module")
def objectives_file(tmp_path_factory):
    """20 datasets x 10 folds of a 200-solution front of three objectives."""
    rng = np.random.default_rng(2025)
    lines = ["dataset,method,fold,solution_id,obj_1,obj_2,obj_3"]
    for d in range(20):
        for fold in range(10):
            for sid, values in enumerate(rng.random((200, 3)).tolist()):
                lines.append(f"ds{d:02d},moo,{fold},{sid}," + ",".join(map(repr, values)))
    path = str(tmp_path_factory.mktemp("memory") / "front3d.csv")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    return path


@pytest.fixture(scope="module")
def long_name_file(counts_files, tmp_path_factory):
    """The counts front with one row's dataset named by 100 bytes."""
    with open(counts_files[0], encoding="utf-8") as handle:
        header, first, rest = handle.read().split("\n", 2)
    path = str(tmp_path_factory.mktemp("memory") / "long.csv")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"{header}\n{'x' * 100}{first[first.index(','):]}\n{rest}")
    return path


def _traced_peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_parse_peak_within_twelve_times_the_file(counts_files):
    front_path, _ = counts_files
    size = os.path.getsize(front_path)
    assert len(parse_records(front_path, "counts")) == 40_000
    peak = _traced_peak(parse_records, front_path, "counts")
    assert peak <= PEAK_PER_FILE_BYTE * size, f"{peak / size:.1f} x the file size"


def test_aggregate_peak_within_twelve_times_the_file(counts_files):
    front_path, refs_path = counts_files
    size = os.path.getsize(front_path)
    front, refs = parse_records(front_path, "counts"), parse_records(refs_path, "counts")
    peak = _traced_peak(aggregate, front, refs, ("ED", "GD", "HV", "SDR", "NDR"))
    assert peak <= PEAK_PER_FILE_BYTE * size, f"{peak / size:.1f} x the file size"


def test_objectives_parse_peak_within_twelve_times_the_file(objectives_file):
    size = os.path.getsize(objectives_file)
    assert len(parse_records(objectives_file, "objectives")) == 40_000
    peak = _traced_peak(parse_records, objectives_file, "objectives")
    assert peak <= PEAK_PER_FILE_BYTE * size, f"{peak / size:.1f} x the file size"


def test_parse_of_one_long_name_peak_within_twelve_times_the_file(long_name_file):
    size = os.path.getsize(long_name_file)
    table = parse_records(long_name_file, "counts")
    assert len(table) == 40_000 and "x" * 100 in table.dataset_names
    peak = _traced_peak(parse_records, long_name_file, "counts")
    assert peak <= PEAK_PER_FILE_BYTE * size, f"{peak / size:.1f} x the file size"
