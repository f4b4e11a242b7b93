"""The package namespace keeps its exports, and README's library example runs
as written."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import pareto_judge

SRC = Path(pareto_judge.__file__).resolve().parents[1]
README = Path(__file__).resolve().parents[1] / "README.md"

# __all__ as it was written out name by name, in its order
EXPORTS = [
    "ConfusionMatrix",
    "MetricValue",
    "tpr",
    "tnr",
    "ppv",
    "bac",
    "gmean",
    "fbeta",
    "objective_point_of",
    "ObjectivePoint",
    "SolutionSet",
    "strictly_dominates",
    "pareto_front",
    "IndicatorResult",
    "generational_distance",
    "euclidean_distance",
    "hypervolume",
    "sdr",
    "ndr",
    "evaluate_indicator",
    "BetaGrid",
    "FbetaCurve",
    "default_beta_grid",
    "fbeta_curve",
    "fbeta_envelope",
    "render_fbeta_plot",
    "render_region_plot",
    "render_isocurves",
    "ExperimentRecord",
    "RecordTable",
    "DatasetInfo",
    "ReportCell",
    "ComparisonReport",
    "ParseError",
    "parse_records",
    "emit_records",
    "parse_datasets",
    "imbalance_ratio",
    "aggregate",
    "render_report",
    "read_report_csv",
    "__version__",
]
SUBMODULES = ("confusion_metrics", "objective_space", "indicators", "fbeta_analysis", "ingest_report")


def _run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )


class TestNamespace:
    def test_exporting_submodules_resolve_by_name(self):
        for name in SUBMODULES:
            assert getattr(pareto_judge, name) is sys.modules[f"pareto_judge.{name}"], name

    def test_all_keeps_its_names_and_order(self):
        assert pareto_judge.__all__ == EXPORTS

    def test_each_name_is_its_defining_module_object(self):
        for name in EXPORTS[:-1]:
            value = getattr(pareto_judge, name)
            module = sys.modules[value.__module__]
            assert module.__name__.split(".")[1] in SUBMODULES, name
            assert getattr(module, name) is value, name
        assert pareto_judge.__version__ == "0.1.0"

    def test_star_import_binds_every_name(self):
        namespace: dict = {}
        exec("from pareto_judge import *", namespace)
        assert sorted(set(namespace) - {"__builtins__"}) == sorted(EXPORTS)

    def test_dir_lists_every_export(self):
        assert set(EXPORTS) | set(SUBMODULES) <= set(dir(pareto_judge))

    def test_importing_the_package_loads_no_figure_code(self, tmp_path):
        # the figure exports load with fbeta_analysis, and _svg with it, on first use
        result = _run(["-c", "import sys, pareto_judge; print(*sys.modules)"], tmp_path)
        loaded = set(result.stdout.split())
        assert "pareto_judge.ingest_report" in loaded
        assert not loaded & {"pareto_judge.fbeta_analysis", "pareto_judge._svg"}

    def test_unknown_name_raises_attribute_error_naming_it(self):
        with pytest.raises(AttributeError) as err:
            pareto_judge.no_such_name
        assert str(err.value) == "module 'pareto_judge' has no attribute 'no_such_name'"
        with pytest.raises(ImportError, match="no_such_name"):
            exec("from pareto_judge import no_such_name", {})


def test_readme_library_example_runs(tmp_path):
    # the first python block of the "Library" section, run as a script
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    result = _run(["-c", code], tmp_path)
    assert result.returncode == 0, result.stderr
