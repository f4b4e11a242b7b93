"""Which package modules each subcommand loads, and the cli names that
e2ebench/spans.py wraps from outside the package to trace a command."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from pareto_judge import cli

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

FIGURE_MODULES = {"pareto_judge.fbeta_analysis", "pareto_judge._svg"}

# the cli names that spans.py wraps, written out here: tier-1 does not import e2ebench
TRACED_NAMES = (
    "parse_records",
    "aggregate",
    "render_report",
    "fbeta_envelope",
    "render_fbeta_plot",
    "render_region_plot",
    "atomic_write_text",
)

COUNTS_FRONT = """dataset,method,fold,solution_id,tp,fn,fp,tn
ds1,moo,0,0,4,6,1,9
ds1,moo,0,1,9,1,6,4
ds2,moo,0,0,7,3,3,7
"""
COUNTS_REFS = """dataset,method,fold,solution_id,tp,fn,fp,tn
ds1,base,0,0,6,4,4,6
ds2,base,0,0,2,8,8,2
"""
OBJECTIVES_FRONT = """dataset,method,fold,solution_id,obj_1,obj_2
ds1,moo,0,0,0.9,0.2
ds1,moo,0,1,0.4,0.8
"""
OBJECTIVES_REFS = """dataset,method,fold,solution_id,obj_1,obj_2
ds1,base,0,0,0.5,0.3
"""
DATASETS = """name,n_features,n_samples,n_minority
pima,8,768,268
"""

# runs one command as the console script does, then prints its exit status
# and the package modules the interpreter holds
RUN_AND_LIST = """
import sys
from pareto_judge import cli
status = cli.run(sys.argv[1:])
print(status, *sorted(name for name in sys.modules if name.startswith("pareto_judge")))
"""


def _python(code: str, *args: str) -> list[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


@pytest.fixture
def files(tmp_path):
    for name, text in (
        ("front.csv", COUNTS_FRONT),
        ("refs.csv", COUNTS_REFS),
        ("obj_front.csv", OBJECTIVES_FRONT),
        ("obj_refs.csv", OBJECTIVES_REFS),
        ("datasets.csv", DATASETS),
    ):
        (tmp_path / name).write_text(text, encoding="utf-8")
    # the saved report that the report command reads
    assert cli.run(["compare", *_pair(tmp_path), "--out", str(tmp_path / "saved.csv")]) == 0
    return tmp_path


def _pair(d, payload: str = "counts") -> list[str]:
    prefix = "" if payload == "counts" else "obj_"
    pair = ["--front", str(d / f"{prefix}front.csv"), "--refs", str(d / f"{prefix}refs.csv")]
    return pair if payload == "counts" else [*pair, "--payload", payload]


COMMANDS = {
    "compare-counts": lambda d: ["compare", *_pair(d), "--out", str(d / "report.csv")],
    "compare-objectives": lambda d: [
        "compare", *_pair(d, "objectives"), "--negate", "obj_2", "--out", str(d / "obj.csv")
    ],
    "metrics": lambda d: ["metrics", "--in", str(d / "front.csv"), "--out", str(d / "m.csv")],
    "report": lambda d: ["report", "--in", str(d / "saved.csv"), "--out", str(d / "report.md")],
    "datasets": lambda d: [
        "datasets", "--in", str(d / "datasets.csv"), "--out", str(d / "datasets.md")
    ],
}
FIGURE_COMMANDS = {
    "fbeta-plot": lambda d: ["fbeta-plot", *_pair(d), "--fold", "0", "--out", str(d / "plots")],
    "region-plot": lambda d: [
        "region-plot", *_pair(d, "objectives"), "--mode", "dominance", "--fold", "0",
        "--out", str(d / "regions"),
    ],
    "isocurves": lambda d: [
        "isocurves", "--metric", "f1", "--levels", "0.5", "--out", str(d / "iso.svg")
    ],
}


def _loaded_by(command: list[str]) -> set[str]:
    status, *modules = _python(RUN_AND_LIST, *command)
    assert status == "0"
    return set(modules)


@pytest.mark.parametrize("name", COMMANDS)
def test_a_command_without_figures_loads_no_figure_code(files, name):
    loaded = _loaded_by(COMMANDS[name](files))
    assert "pareto_judge.ingest_report" in loaded
    assert not loaded & FIGURE_MODULES


@pytest.mark.parametrize("name", FIGURE_COMMANDS)
def test_a_figure_command_loads_the_figure_code(files, name):
    assert FIGURE_MODULES <= _loaded_by(FIGURE_COMMANDS[name](files))


def test_importing_the_cli_loads_no_figure_code():
    code = "import sys, pareto_judge.cli; print(*sys.modules)"
    loaded = set(_python(code))
    assert "pareto_judge.cli" in loaded
    assert not loaded & FIGURE_MODULES


def test_each_traced_name_resolves_on_a_fresh_cli():
    code = (
        "import sys; from pareto_judge import cli; "
        "print(*(name for name in sys.argv[1:] if not hasattr(cli, name)))"
    )
    assert _python(code, *TRACED_NAMES) == []


def test_a_name_set_on_cli_before_the_figure_code_loads_is_the_one_called(files):
    # as a tracer would: the replacement is in place before the command loads fbeta_analysis
    code = """
import sys
from pareto_judge import cli
calls = []
def envelope(*args, **kwargs):
    from pareto_judge.fbeta_analysis import fbeta_envelope
    calls.append(kwargs["label"])
    return fbeta_envelope(*args, **kwargs)
cli.fbeta_envelope = envelope
print(cli.run(sys.argv[1:]), len(calls))
"""
    assert _python(code, *FIGURE_COMMANDS["fbeta-plot"](files)) == ["0", "2"]


def test_a_wrapper_set_on_cli_is_called_once_per_dataset(files, monkeypatch):
    labels = []
    envelope = cli.fbeta_envelope

    def traced(*args, **kwargs):
        labels.append(kwargs["label"])
        return envelope(*args, **kwargs)

    monkeypatch.setattr(cli, "fbeta_envelope", traced)
    assert cli.run(FIGURE_COMMANDS["fbeta-plot"](files)) == 0
    assert labels == ["moo envelope", "moo envelope"]
    assert sorted(os.listdir(files / "plots")) == ["ds1_fbeta.svg", "ds2_fbeta.svg"]


def test_an_unknown_cli_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError) as err:
        cli.no_such_name
    assert str(err.value) == "module 'pareto_judge.cli' has no attribute 'no_such_name'"
