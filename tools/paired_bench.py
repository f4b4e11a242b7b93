"""Paired end-to-end benchmark runs of a base revision against the working tree.

Run from the root of a checkout:

    python3 tools/paired_bench.py --base HEAD~1 --workload figures --seed 0 --seed 11 \\
        --pairs 10 --seconds 4 --record BENCH_name.json

``--base REV`` exports that revision with ``git archive`` into a temporary
directory outside the checkout; the working tree is the change. The tool
refuses to run when ``e2ebench/`` or ``BENCHMARK.json`` differ between the
two trees, so both sides are measured by the same benchmark. For each
workload and seed it runs N pairs of each tree's own
``e2ebench/run.py --workload W --seconds S --seed K --trace 0``, alternating
which side goes first (base then change, then change then base), and
requires every run to be ``correct`` with ``failed == 0``.

For each end-to-end metric of ``BENCHMARK.json`` it reports each side's
median and quartiles, the median of the per-pair ratios change/base, a
seeded bootstrap 95 % interval of that median, the pairs won and lost (ties
count for neither) and the exact two-sided sign-test p-value. A change is
named a gain (or a loss) on a metric only when it wins (or loses) at least
nine tenths of at least ten pairs, the interval excludes 1 on that side,
and the medians differ by more than the distance between the base's
quartiles; anything else is undecided, and the last line of output,
``claims: ...``, lists only the gains and losses.

Only the committed workload sizes are run. Exit status: 0 when every run
was correct, 1 when a run failed or was not correct, 2 when the trees
cannot be compared.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from collections.abc import Callable, Sequence

import numpy as np

SCHEMA = 1
MIN_PAIRS = 10  # fewer pairs than this never name a gain or a loss
WIN_SHARE = 0.9
BOOTSTRAP_RESAMPLES = 10_000
BOOTSTRAP_SEED = 20130611
BENCHMARK_PATHS = ("e2ebench", "BENCHMARK.json")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class RunFailed(RuntimeError):
    """A benchmark run that exited non-zero or reported an incorrect result."""


def git(root: str, *args: str) -> bytes:
    return subprocess.run(["git", "-C", root, *args], check=True, capture_output=True).stdout


def export_tree(root: str, rev: str, into: str) -> None:
    """The files of revision rev of the repository at root, written under into."""
    data = git(root, "archive", "--format=tar", rev)
    with tarfile.open(fileobj=io.BytesIO(data)) as archive:
        if hasattr(tarfile, "data_filter"):
            archive.extractall(into, filter="data")
        else:  # an interpreter without extraction filters; git wrote the archive
            archive.extractall(into)


def _benchmark_files(tree: str) -> dict[str, bytes]:
    """The bytes of each file under the benchmark paths of a tree, by relative
    path; byte-code caches are left out."""
    paths = []
    for top in BENCHMARK_PATHS:
        path = os.path.join(tree, top)
        if os.path.isdir(path):
            for directory, subdirs, names in os.walk(path):
                subdirs[:] = [name for name in subdirs if name != "__pycache__"]
                paths += [os.path.join(directory, n) for n in names if not n.endswith(".pyc")]
        elif os.path.exists(path):
            paths.append(path)
    files = {}
    for path in paths:
        with open(path, "rb") as handle:
            files[os.path.relpath(path, tree)] = handle.read()
    return files


def benchmark_differences(base: str, change: str) -> list[str]:
    """The relative paths under the benchmark paths whose bytes differ between
    the two trees, or that only one of them holds, sorted."""
    a, b = _benchmark_files(base), _benchmark_files(change)
    return sorted(path for path in a.keys() | b.keys() if a.get(path) != b.get(path))


def benchmark_spec(tree: str) -> tuple[list[str], dict[str, str]]:
    """The workload names of the tree's BENCHMARK.json, and each of its
    end-to-end metrics with whether lower or higher is better."""
    with open(os.path.join(tree, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    workloads = [workload["name"] for workload in spec["workloads"]]
    return workloads, {metric["name"]: metric["better"] for metric in spec["end_to_end"]}


def run_once(
    tree: str, workload: str, seconds: float, seed: int,
    runner: Callable[..., subprocess.CompletedProcess] = subprocess.run,
) -> dict[str, float]:
    """The end-to-end metric values of one ``e2ebench/run.py`` run of the tree;
    raises RunFailed unless it exits 0 with a correct result and no failure."""
    argv = [
        sys.executable, os.path.join(tree, "e2ebench", "run.py"), "--workload", workload,
        "--seconds", repr(seconds), "--seed", str(seed), "--trace", "0",
    ]
    done = runner(argv, cwd=tree, capture_output=True, text=True)
    lines = [line for line in done.stdout.splitlines() if line.startswith("{")]
    what = f"{workload} seed {seed} in {tree}"
    if done.returncode != 0 or not lines:
        tail = (done.stderr or done.stdout)[-500:]
        raise RunFailed(f"{what}: exit status {done.returncode}: {tail}")
    result = json.loads(lines[-1])
    if result.get("correct") is not True or result.get("failed") != 0:
        raise RunFailed(
            f"{what}: not correct (correct={result.get('correct')!r}, "
            f"failed={result.get('failed')!r} of {result.get('attempted')!r})"
        )
    return {name: float(metric["value"]) for name, metric in result["metrics"].items()}


def sign_test(wins: int, losses: int) -> float:
    """Exact two-sided sign-test p-value of wins against losses, ties left out."""
    n = wins + losses
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, k) for k in range(min(wins, losses) + 1))
    return min(1.0, 2.0 * tail / 2**n)


def bootstrap_interval(
    ratios: Sequence[float], seed: int = BOOTSTRAP_SEED, resamples: int = BOOTSTRAP_RESAMPLES
) -> tuple[float, float]:
    """The 2.5th and 97.5th percentiles of the median of the ratios resampled
    with replacement, from ``numpy.random.default_rng(seed)``."""
    values = np.asarray(ratios, dtype=np.float64)
    rng = np.random.default_rng(seed)
    medians = np.median(values[rng.integers(0, len(values), (resamples, len(values)))], axis=1)
    low, high = np.percentile(medians, [2.5, 97.5])
    return float(low), float(high)


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """The first quartile, median and third quartile of the values."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(base: Sequence[float], change: Sequence[float], better: str) -> dict:
    """The statistics of one metric over paired runs and the verdict they give:
    'gain', 'loss' or 'undecided'."""
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    ratios = [c / b for b, c in zip(base, change)]
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (b - c) > 0 for b, c in zip(base, change))
    losses = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    low, high = bootstrap_interval(ratios)
    (b1, b_median, b3), (c1, c_median, c3) = quartiles(base), quartiles(change)
    pairs = len(ratios)
    decided = pairs >= MIN_PAIRS and abs(c_median - b_median) > b3 - b1
    needed = math.ceil(WIN_SHARE * pairs)
    # an interval below 1 is a gain for a lower-is-better metric
    below, above = high < 1.0, low > 1.0
    if decided and wins >= needed and (below if better == "lower" else above):
        verdict = "gain"
    elif decided and losses >= needed and (above if better == "lower" else below):
        verdict = "loss"
    else:
        verdict = "undecided"
    return {
        "better": better,
        "base": {"q1": b1, "median": b_median, "q3": b3},
        "change": {"q1": c1, "median": c_median, "q3": c3},
        "median_ratio": statistics.median(ratios),
        "interval_95": [low, high],
        "wins": wins,
        "losses": losses,
        "pairs": pairs,
        "sign_test_p": sign_test(wins, losses),
        "verdict": verdict,
    }


def paired_runs(
    base: str, change: str, workload: str, seed: int, pairs: int, seconds: float,
    run: Callable[[str, str, float, int], dict[str, float]] = run_once,
) -> list[dict[str, dict[str, float]]]:
    """pairs pairs of runs of both trees, base first in even pairs and change first in odd ones."""
    trees, results = {"base": base, "change": change}, []
    for i in range(pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        pair = {side: run(trees[side], workload, seconds, seed) for side in order}
        results.append({"first": order[0], "base": pair["base"], "change": pair["change"]})
        print(f"  pair {i + 1}/{pairs} ({order[0]} first): " + ", ".join(
            f"{name} {pair['base'][name]:.4g} -> {pair['change'][name]:.4g}"
            for name in pair["base"]
        ), flush=True)
    return results


def host() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


def _revision(root: str, rev: str) -> str:
    return git(root, "rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()


def main(argv: Sequence[str] | None = None) -> int:
    workloads, metrics = benchmark_spec(ROOT)
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--base", required=True, help="git revision measured against the working tree")
    parser.add_argument(
        "--workload", action="append", choices=workloads,
        help="workload to run; repeat for several (default: all)",
    )
    parser.add_argument("--seed", action="append", type=int, help="repeat for several (default: 0)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=4.0, help="run.py --seconds of each run")
    parser.add_argument("--record", help="write the runs, statistics and verdicts to this JSON file")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    workloads = args.workload or workloads
    seeds = args.seed or [0]
    with tempfile.TemporaryDirectory(prefix="paired-bench-") as base:
        try:
            base_rev = _revision(ROOT, args.base)
            export_tree(ROOT, base_rev, base)
        except subprocess.CalledProcessError as exc:
            print(f"error: cannot export {args.base!r}: {exc.stderr.decode().strip()}", file=sys.stderr)
            return 2
        differ = benchmark_differences(base, ROOT)
        if differ:
            print(
                "error: the benchmark differs between the trees: " + ", ".join(differ),
                file=sys.stderr,
            )
            return 2
        print(f"base {base_rev} against the working tree at {ROOT}")
        print(f"host: {host()}")
        record = {
            "schema": SCHEMA,
            "base": base_rev,
            "change": {
                "head": _revision(ROOT, "HEAD"),
                "dirty": bool(git(ROOT, "status", "--porcelain", "--untracked-files=no").strip()),
            },
            "host": host(),
            "settings": {
                "workloads": workloads, "seeds": seeds, "pairs": args.pairs,
                "seconds": args.seconds, "size": "committed",
                "bootstrap": {"resamples": BOOTSTRAP_RESAMPLES, "seed": BOOTSTRAP_SEED},
                "rule": f"gain or loss: at least {WIN_SHARE:g} of at least {MIN_PAIRS} pairs, "
                "the 95 % interval of the median ratio excluding 1, and medians apart by "
                "more than the base's interquartile range",
            },
            "results": [],
        }
        claims = []
        for workload in workloads:
            for seed in seeds:
                print(f"{workload} seed {seed}: {args.pairs} pairs at --seconds {args.seconds:g}")
                try:
                    runs = paired_runs(base, ROOT, workload, seed, args.pairs, args.seconds)
                except RunFailed as exc:
                    print(f"error: {exc}", file=sys.stderr)
                    return 1
                stats = {}
                for name, better in metrics.items():
                    values = [[run[side][name] for run in runs] for side in ("base", "change")]
                    stats[name] = s = compare(*values, better)
                    print(
                        f"  {name}: base {s['base']['median']:.4g} "
                        f"({s['base']['q1']:.4g}-{s['base']['q3']:.4g}), change "
                        f"{s['change']['median']:.4g} ({s['change']['q1']:.4g}-"
                        f"{s['change']['q3']:.4g}), ratio {s['median_ratio']:.4f} "
                        f"[{s['interval_95'][0]:.4f}, {s['interval_95'][1]:.4f}], "
                        f"won {s['wins']} lost {s['losses']} of {s['pairs']}, "
                        f"p {s['sign_test_p']:.3g}: {s['verdict']}"
                    )
                    if s["verdict"] != "undecided":
                        claims.append(f"{workload} seed {seed} {name} {s['verdict']}")
                record["results"].append(
                    {"workload": workload, "seed": seed, "runs": runs, "statistics": stats}
                )
        record["claims"] = claims
        if args.record:
            with open(args.record, "w", encoding="utf-8") as handle:
                json.dump(record, handle, indent=1)
                handle.write("\n")
        print("claims: " + ("; ".join(claims) if claims else "none"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
