"""Evaluation toolkit for comparing single-solution classifiers against
multi-objective solution fronts on imbalanced data."""

from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

# each export is named once, here, in the order of __all__
from .confusion_metrics import (
    ConfusionMatrix,
    MetricValue,
    tpr,
    tnr,
    ppv,
    bac,
    gmean,
    fbeta,
    objective_point_of,
)
from .objective_space import ObjectivePoint, SolutionSet, strictly_dominates, pareto_front
from .indicators import (
    IndicatorResult,
    generational_distance,
    euclidean_distance,
    hypervolume,
    sdr,
    ndr,
    evaluate_indicator,
)

# the figure exports load with their module on first use (see __getattr__),
# so that a command without figures never compiles fbeta_analysis or _svg
_FIGURE_EXPORTS = (
    "BetaGrid",
    "FbetaCurve",
    "default_beta_grid",
    "fbeta_curve",
    "fbeta_envelope",
    "render_fbeta_plot",
    "render_region_plot",
    "render_isocurves",
)

from .ingest_report import (
    ExperimentRecord,
    RecordTable,
    DatasetInfo,
    ReportCell,
    ComparisonReport,
    ParseError,
    parse_records,
    emit_records,
    parse_datasets,
    imbalance_ratio,
    aggregate,
    render_report,
    read_report_csv,
)

__version__ = "0.1.0"


def _exports(namespace: dict) -> list[str]:
    """The imported names in import order, the figure exports in their place;
    the submodules the imports bind are not exports."""
    names = []
    for name, value in namespace.items():
        if name == "_FIGURE_EXPORTS":
            names += value
        elif not name.startswith("_") and not isinstance(value, _ModuleType):
            names.append(name)
    return names


__all__ = _exports(dict(globals())) + ["__version__"]


def __getattr__(name: str):
    if name == "fbeta_analysis" or name in _FIGURE_EXPORTS:
        # import_module, not `from . import`: that would look the name up here again
        module = _import_module(".fbeta_analysis", __name__)
        globals().update((export, getattr(module, export)) for export in _FIGURE_EXPORTS)
        return getattr(module, name) if name in _FIGURE_EXPORTS else module
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_FIGURE_EXPORTS, "fbeta_analysis"})
