"""Evaluation toolkit for comparing single-solution classifiers against
multi-objective solution fronts on imbalanced data."""

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
from .fbeta_analysis import (
    BetaGrid,
    FbetaCurve,
    default_beta_grid,
    fbeta_curve,
    fbeta_envelope,
    render_fbeta_plot,
    render_region_plot,
    render_isocurves,
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

# the imported names in import order; the submodules the imports bind are not exports
__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
] + ["__version__"]
