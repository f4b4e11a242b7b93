"""tools/paired_bench.py: its statistics, verdicts and refusals, without running a benchmark."""

from __future__ import annotations

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "paired_bench.py"


def _load(path: Path = TOOL):
    spec = importlib.util.spec_from_file_location(f"paired_bench_{abs(hash(path))}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench = _load()


class TestSignTest:
    @pytest.mark.parametrize(
        "wins, losses, p",
        [(10, 0, 2 / 1024), (0, 10, 2 / 1024), (9, 1, 22 / 1024), (5, 5, 1.0), (0, 0, 1.0)],
    )
    def test_exact_two_sided_p(self, wins, losses, p):
        assert bench.sign_test(wins, losses) == p

    def test_ten_of_ten(self):
        assert round(bench.sign_test(10, 0), 5) == 0.00195


class TestBootstrap:
    RATIOS = [0.91, 0.95, 0.97, 0.9, 1.02, 0.93, 0.96, 0.94, 0.92, 0.95]

    def test_a_seed_repeats_its_interval(self):
        assert bench.bootstrap_interval(self.RATIOS, seed=3) == bench.bootstrap_interval(
            self.RATIOS, seed=3
        )
        assert bench.bootstrap_interval(self.RATIOS) == bench.bootstrap_interval(self.RATIOS)

    def test_interval_holds_the_median(self):
        low, high = bench.bootstrap_interval(self.RATIOS)
        assert min(self.RATIOS) <= low <= sorted(self.RATIOS)[4] <= high <= max(self.RATIOS)


def _pairs(base, ratio, spread=0.002):
    """Base values and change values ratio times them, each pair a little apart."""
    values = [base * (1 + spread * ((i * 7) % 5 - 2)) for i in range(10)]
    return values, [v * ratio for v in values]


class TestVerdict:
    def test_ten_pairs_nine_tenths_faster_are_a_gain(self):
        base, change = _pairs(0.3, 0.93)
        change[4] = base[4] * 1.01  # one pair lost
        stats = bench.compare(base, change, "lower")
        assert (stats["wins"], stats["losses"], stats["verdict"]) == (9, 1, "gain")
        assert stats["interval_95"][1] < 1.0

    def test_higher_is_better_reads_the_other_way(self):
        base, change = _pairs(1000.0, 1.08)
        assert bench.compare(base, change, "higher")["verdict"] == "gain"
        assert bench.compare(change, base, "higher")["verdict"] == "loss"
        assert bench.compare(change, base, "lower")["verdict"] == "gain"

    def test_eight_wins_in_ten_claim_nothing(self):
        base, change = _pairs(0.3, 0.9)
        change[1], change[6] = base[1] * 1.01, base[6] * 1.02
        assert bench.compare(base, change, "lower")["verdict"] == "undecided"

    def test_too_few_pairs_claim_nothing(self):
        base, change = _pairs(0.3, 0.5)
        stats = bench.compare(base[:2], change[:2], "lower")
        assert (stats["wins"], stats["verdict"]) == (2, "undecided")

    def test_a_difference_inside_the_base_spread_claims_nothing(self):
        # every pair wins, but by less than the base runs spread among themselves
        base = [0.30, 0.33, 0.36, 0.31, 0.35, 0.32, 0.34, 0.30, 0.36, 0.33]
        change = [v * 0.99 for v in base]
        stats = bench.compare(base, change, "lower")
        assert stats["wins"] == 10 and stats["verdict"] == "undecided"

    def test_identical_runs_tie(self):
        base = [0.3] * 10
        stats = bench.compare(base, base, "lower")
        assert (stats["wins"], stats["losses"], stats["sign_test_p"]) == (0, 0, 1.0)
        assert stats["verdict"] == "undecided" and stats["median_ratio"] == 1.0


def test_pairs_alternate_which_side_runs_first():
    calls = []

    def run(tree, workload, seconds, seed):
        calls.append(tree)
        return {"wall_s": 1.0 if tree == "a" else 0.5}

    runs = bench.paired_runs("a", "b", "figures", 0, 4, 1.0, run=run)
    assert calls == ["a", "b", "b", "a", "a", "b", "b", "a"]
    assert [r["first"] for r in runs] == ["base", "change", "base", "change"]
    assert all(r["base"] == {"wall_s": 1.0} and r["change"] == {"wall_s": 0.5} for r in runs)


class _Done:
    def __init__(self, returncode, stdout, stderr=""):
        self.returncode, self.stdout, self.stderr = returncode, stdout, stderr


def _result(correct=True, failed=0):
    metrics = {"wall_s": {"value": 0.25, "unit": "s"}, "peak_rss_mb": {"value": 40.0, "unit": "MB"}}
    return json.dumps({"correct": correct, "attempted": 3, "failed": failed, "metrics": metrics})


class TestRunOnce:
    def test_reads_the_last_json_line(self):
        out = "env: ...\n" + _result(False) + "\nfigures: repeats=3\n" + _result() + "\n"
        seen = []

        def runner(argv, **kwargs):
            seen.append((argv, kwargs["cwd"]))
            return _Done(0, out)

        assert bench.run_once("tree", "figures", 0.5, 11, runner) == {
            "wall_s": 0.25, "peak_rss_mb": 40.0
        }
        argv, cwd = seen[0]
        assert cwd == "tree" and argv[1] == os.path.join("tree", "e2ebench", "run.py")
        assert argv[2:] == ["--workload", "figures", "--seconds", "0.5", "--seed", "11", "--trace", "0"]

    @pytest.mark.parametrize(
        "done",
        [
            _Done(0, _result(correct=False)),
            _Done(0, _result(failed=1)),
            _Done(1, "", "Traceback"),
            _Done(0, "no result line\n"),
        ],
    )
    def test_a_run_that_is_not_correct_is_refused(self, done):
        with pytest.raises(bench.RunFailed):
            bench.run_once("tree", "figures", 0.5, 0, lambda argv, **kwargs: done)


def _tree(root: Path, run_py: str = "print('run')\n") -> Path:
    (root / "e2ebench").mkdir(parents=True)
    (root / "e2ebench" / "run.py").write_text(run_py)
    (root / "BENCHMARK.json").write_text('{"workloads": [{"name": "figures"}], "end_to_end": []}\n')
    return root


class TestBenchmarkDifferences:
    def test_equal_trees_and_byte_code_caches(self, tmp_path):
        a, b = _tree(tmp_path / "a"), _tree(tmp_path / "b")
        (b / "e2ebench" / "__pycache__").mkdir()
        (b / "e2ebench" / "__pycache__" / "run.cpython-311.pyc").write_bytes(b"\0")
        assert bench.benchmark_differences(str(a), str(b)) == []

    def test_a_changed_missing_or_extra_file_is_named(self, tmp_path):
        a, b = _tree(tmp_path / "a"), _tree(tmp_path / "b", "print('other')\n")
        (a / "e2ebench" / "extra.py").write_text("")
        (b / "BENCHMARK.json").unlink()
        assert bench.benchmark_differences(str(a), str(b)) == [
            "BENCHMARK.json", os.path.join("e2ebench", "extra.py"), os.path.join("e2ebench", "run.py")
        ]


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_trees_whose_benchmark_differs_are_refused(tmp_path, capsys):
    # a repository holding a copy of the tool, whose working tree changes the benchmark
    repo = _tree(tmp_path / "repo")
    (repo / "tools").mkdir()
    shutil.copy(TOOL, repo / "tools" / "paired_bench.py")
    env = {**os.environ, "GIT_CONFIG_GLOBAL": os.devnull, "GIT_CONFIG_SYSTEM": os.devnull}
    for command in (
        ["init", "-q"], ["add", "-A"],
        ["-c", "user.name=t", "-c", "user.email=t@example.com", "commit", "-qm", "base"],
    ):
        subprocess.run(["git", "-C", str(repo), *command], check=True, env=env)
    (repo / "e2ebench" / "run.py").write_text("print('changed')\n")
    tool = _load(repo / "tools" / "paired_bench.py")
    assert tool.main(["--base", "HEAD", "--pairs", "1"]) == 2
    assert "benchmark differs between the trees: e2ebench/run.py" in capsys.readouterr().err
    assert tool.main(["--base", "no-such-revision", "--pairs", "1"]) == 2


def test_the_tool_runs_as_a_script():
    done = subprocess.run(
        [sys.executable, str(TOOL), "--help"], capture_output=True, text=True, check=True
    )
    assert "--base" in done.stdout and "--record" in done.stdout
