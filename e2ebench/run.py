"""End-to-end benchmark of the pareto-judge CLI on seeded, generated inputs.

Run from the root of a checkout:

    python3 e2ebench/run.py                        # every workload, 35 s each
    python3 e2ebench/run.py --workload figures --seed 3 --seconds 30 --trace 0

Each workload is a closed loop: one client runs the workload's commands one
after another, each in a fresh interpreter (``e2ebench/child.py`` with
``PYTHONPATH=src``), and starts the next repeat only when the last one has
ended. Inputs come from ``workloads.py`` and depend on --seed alone; every
output is checked independently (``checks.py``) and must be byte-identical
across repeats. The commands run with ``PARETO_JUDGE_THREADS`` and
``PARETO_JUDGE_NO_NUMBA`` unset, the default path.

With ``--trace 0`` the run reports the end-to-end metrics: median wall time
of a repeat (set-up included), median cold start plus ``import
pareto_judge.cli``, input rows per second and peak RSS. With ``--trace 1``
untraced and traced repeats alternate, and the run reports per-layer metrics
from the traced ones (see spans.py) plus the tracing overhead; traced outputs
must match untraced ones byte for byte.

The last line of output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import select
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass

import numpy as np

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
WORK = os.path.join(ROOT, ".bench_work")

UNSET_ENV = ("PARETO_JUDGE_THREADS", "PARETO_JUDGE_NO_NUMBA")
COMMAND_TIMEOUT_S = 60.0
MIN_REPEATS = 3
SETUP_PROBES = 2  # per repeat, spread over the run

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("rows_per_s", "rows/s"),
    ("peak_rss_mb", "MB"),
)


@dataclass
class Finished:
    wall_s: float
    status: int
    rss_mb: float


def spawn(argv: list[str], env: dict[str, str], log: str) -> Finished:
    """Run argv to completion with stdout and stderr in log; kill it after the timeout."""
    with open(log, "wb") as sink:
        actions = [
            (os.POSIX_SPAWN_DUP2, sink.fileno(), 1),
            (os.POSIX_SPAWN_DUP2, sink.fileno(), 2),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
        pidfd = os.pidfd_open(pid)
        try:
            if not select.select([pidfd], [], [], COMMAND_TIMEOUT_S)[0]:
                os.kill(pid, signal.SIGKILL)  # not yet reaped, so the pid is still ours
            _, status, usage = os.wait4(pid, 0)
        finally:
            os.close(pidfd)
        wall = time.perf_counter() - start
    # ru_maxrss is in KiB on Linux
    return Finished(wall, os.waitstatus_to_exitcode(status), usage.ru_maxrss * 1024 / 1e6)


def digest(path: str) -> str:
    """Hash of a file, or of every file in a directory with its name."""
    h = hashlib.sha256()
    if os.path.isdir(path):
        for name in sorted(os.listdir(path)):
            h.update(name.encode() + b"\0")
            with open(os.path.join(path, name), "rb") as handle:
                h.update(handle.read())
    elif os.path.exists(path):
        with open(path, "rb") as handle:
            h.update(handle.read())
    return h.hexdigest()


class Session:
    """One workload's repeats, the reference output digests and the failure tally."""

    def __init__(self, workload: workloads.Workload, work: str) -> None:
        self.workload = workload
        self.work = work
        self.env = {k: v for k, v in os.environ.items() if k not in UNSET_ENV}
        self.env["PYTHONPATH"] = os.path.join(ROOT, "src")
        # per command: digest of its first output and that output's check problems
        self.reference: list[tuple[str, list[str]] | None] = [None] * len(workload.commands)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def setup_probe(self) -> float:
        """Wall time of a cold interpreter that imports pareto_judge.cli and exits."""
        argv = [sys.executable, "-c", "import pareto_judge.cli"]
        done = spawn(argv, self.env, os.path.join(self.work, "setup.log"))
        if done.status != 0:
            raise RuntimeError("cannot import pareto_judge.cli")
        return done.wall_s

    def repeat(self, traced: bool = False) -> tuple[list[Finished], list[dict]]:
        """Run every command once, each in a cold interpreter, and check the outputs."""
        out = os.path.join(self.work, "out")
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        finished, dumps = [], []
        for i, command in enumerate(self.workload.commands):
            argv = [sys.executable, CHILD]
            trace_path = os.path.join(self.work, f"trace{i}.json")
            if traced:
                argv += ["--trace", trace_path]
            log = os.path.join(self.work, f"command{i}.log")
            done = spawn(argv + list(command.argv), self.env, log)
            finished.append(done)
            problems = self._verify(i, command, done, log)
            if traced and done.status == 0:
                with open(trace_path, encoding="utf-8") as handle:
                    dumps.append(json.load(handle))
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems += [f"{command.argv[0]}: {p}" for p in problems]
        return finished, dumps

    def _verify(self, i: int, command: workloads.Command, done: Finished, log: str) -> list[str]:
        if done.status != 0:
            with open(log, encoding="utf-8", errors="replace") as handle:
                return [f"exit status {done.status}: {handle.read()[-500:]}"]
        seen = digest(command.output)
        if self.reference[i] is None:
            self.reference[i] = (seen, command.check(command.output))
        first, problems = self.reference[i]
        # a repeat of a wrong output is wrong too
        return problems if seen == first else ["output differs from the first repeat"]


def _repeats(seconds: float):
    """Yield repeat indices while another repeat fits in the budget, and at least MIN_REPEATS."""
    start = time.perf_counter()
    count, last = 0, 0.0
    while count < MIN_REPEATS or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        yield count
        count += 1
        last = time.perf_counter() - began


def measure(session: Session, seconds: float) -> tuple[dict[str, float], list[float]]:
    """End-to-end metrics from untraced repeats, and the wall time of each repeat."""
    walls, setups, rss = [], [], []
    for _ in _repeats(seconds):
        setups += [session.setup_probe() for _ in range(SETUP_PROBES)]
        finished, _ = session.repeat()
        walls.append(sum(f.wall_s for f in finished))
        rss += [f.rss_mb for f in finished]
    wall = statistics.median(walls)
    metrics = {
        "wall_s": wall,
        "setup_s": statistics.median(setups),
        "rows_per_s": session.workload.rows / wall,
        "peak_rss_mb": max(rss),
    }
    return metrics, walls


def measure_layers(session: Session, seconds: float) -> dict[str, float]:
    """Per-layer metrics from traced repeats that alternate with untraced ones."""
    plain, traced, layers, missing = [], [], [], set()
    for _ in _repeats(seconds):
        finished, _ = session.repeat()
        plain.append(sum(f.wall_s for f in finished))
        finished, dumps = session.repeat(traced=True)
        traced.append(sum(f.wall_s for f in finished))
        if len(dumps) == len(finished):
            layers.append(spans.layer_metrics(dumps))
            missing.update(site for dump in dumps for site in dump["missing"])
    if not layers:
        raise RuntimeError("no traced repeat completed")
    if missing:
        print("trace: binding sites absent from the package: " + ", ".join(sorted(missing)))
    metrics = {key: statistics.median(m[key] for m in layers) for key in layers[0]}
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return metrics


def environment() -> str:
    numba = "importable" if importlib.util.find_spec("numba") else "absent"
    unset = " ".join(f"{name}=unset" for name in UNSET_ENV)
    return (
        f"env: nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={np.__version__} numba={numba} {unset}"
    )


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: str = "full") -> dict:
    """Build, run and check one workload; returns the result object printed last."""
    work = os.path.join(WORK, f"{name}-{seed}-{os.getpid()}")
    try:
        workload = workloads.build(name, seed, work, os.path.join(work, "out"), scale)
        session = Session(workload, work)
        # warm-up, untimed: fills the page cache and writes the bytecode caches
        session.setup_probe()
        session.repeat()
        if trace:
            measured = measure_layers(session, seconds)
            units = {metric: unit for metric, unit, _ in spans.METRICS}
        else:
            measured, walls = measure(session, seconds)
            units = dict(END_TO_END)
            q1, _, q3 = statistics.quantiles(walls, n=4)
            print(
                f"{name}: repeats={len(walls)} "
                f"wall_s={measured['wall_s']:.4f} s (q1 {q1:.4f}, q3 {q3:.4f}) "
                f"setup_s={measured['setup_s']:.4f} s "
                f"rows_per_s={measured['rows_per_s']:.1f} rows/s "
                f"peak_rss_mb={measured['peak_rss_mb']:.1f} MB "
                f"error_rate={session.failed / session.attempted:g} "
                f"({session.failed}/{session.attempted} commands)"
            )
        for problem in session.problems[:20]:
            print(f"check failed: {problem}", file=sys.stderr)
        return {
            "correct": session.failed == 0,
            "attempted": session.attempted,
            "failed": session.failed,
            "metrics": {key: {"value": measured[key], "unit": unit} for key, unit in units.items()},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=[*workloads.BUILDERS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "pareto_judge", "cli.py")):
        print(f"error: no pareto_judge sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    names = list(workloads.BUILDERS) if args.workload == "all" else [args.workload]
    print(environment())
    for name in names:
        print(f"{name}: seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
