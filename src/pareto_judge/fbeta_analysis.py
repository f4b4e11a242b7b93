"""Preference-sweep analysis: F-beta curves over a beta grid and SVG figures.

A beta grid sweeps the recall-vs-precision preference; each classifier gives
one curve, and a solution front gives the upper envelope over its members,
tracking which member wins at each preference. Renderers emit self-contained
deterministic SVG 1.1 documents.
"""

from __future__ import annotations

import math
import numbers
import sys
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import _svg
from ._io import atomic_write_text
from ._kernels import _exceeded, _strictly_above
from .confusion_metrics import (
    DEFAULT_BETA_COUNT,
    DEFAULT_BETA_MAX,
    DEFAULT_BETA_MIN,
    ISOCURVE_METRICS,
    ConfusionMatrix,
    _squares,
    check_counts,
    counts_array,
    metric_table,
)
from .indicators import REGION_MODES, _block_indicators

__all__ = [
    "BETA_COUNT_LIMIT",
    "BetaGrid",
    "FbetaCurve",
    "default_beta_grid",
    "fbeta_curve",
    "fbeta_curves",
    "fbeta_envelope",
    "isocurve_y",
    "render_fbeta_plot",
    "render_region_plot",
    "check_region_operands",
    "render_isocurves",
    "HV_FILL",
    "DOMINATING_FILL",
    "DOMINATED_FILL",
    "NEUTRAL_FILL",
]

HV_FILL = "#9ecae1"
DOMINATING_FILL = "#2ca02c"
DOMINATED_FILL = "#d62728"
NEUTRAL_FILL = "#7f7f7f"

# isocurve metric: (axis labels, legend name, smallest x with y <= 1 at a level)
_ISOCURVES = dict(
    zip(
        ISOCURVE_METRICS,
        (
            (("TPR", "TNR"), "G-mean", lambda level: level * level),
            (("precision", "recall"), "F1", lambda level: level / (2.0 - level)),
        ),
    )
)

# the most betas a grid holds, about 50 times the default sweep: a count far
# beyond it would ask numpy for gigabytes before any check could reject it
BETA_COUNT_LIMIT = 10_000

_ISOCURVE_SAMPLES = 257

# a member of an F-beta envelope whose TPR and PPV another member's both
# exceed by this relative margin never wins: rounding moves a score by a few
# units in the last place, about 1e-16 relative
_ENVELOPE_MARGIN = 1e-12


@dataclass(frozen=True)
class BetaGrid:
    """A strictly increasing grid of positive beta values."""

    betas: tuple[float, ...]

    def __post_init__(self) -> None:
        betas = tuple(float(b) for b in self.betas)
        if not betas:
            raise ValueError("beta grid must not be empty")
        _squares(betas)  # finite and positive, with a finite square
        if any(b2 <= b1 for b1, b2 in zip(betas, betas[1:])):
            raise ValueError("beta grid must be strictly increasing")
        object.__setattr__(self, "betas", betas)

    @classmethod
    def log_spaced(cls, lo: float, hi: float, count: int) -> "BetaGrid":
        """count points, 2 to ``BETA_COUNT_LIMIT``, spaced uniformly in log(beta)
        between lo and hi, whose log10 must differ by enough for count strictly
        increasing betas."""
        if count < 2:
            raise ValueError(f"grid needs at least 2 points, got {count}")
        if count > BETA_COUNT_LIMIT:
            raise ValueError(f"grid takes at most {BETA_COUNT_LIMIT} points, got {count}")
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"grid bounds must be finite, got lo={lo!r} hi={hi!r}")
        if not (0.0 < lo < hi):
            raise ValueError(f"need 0 < lo < hi, got lo={lo!r} hi={hi!r}")
        log_lo, log_hi = math.log10(lo), math.log10(hi)
        if log_lo == log_hi:
            raise ValueError(f"grid bounds lo={lo!r} hi={hi!r} have the same log10: {log_lo!r}")
        exponents = np.linspace(log_lo, log_hi, count)
        betas = 10.0 ** exponents
        betas[0] = lo
        betas[-1] = hi
        if not (np.diff(betas) > 0.0).all():
            raise ValueError(
                f"grid bounds lo={lo!r} hi={hi!r} lie too close for {count} strictly increasing betas"
            )
        return cls(tuple(float(b) for b in betas))

    def __len__(self) -> int:
        return len(self.betas)


def default_beta_grid() -> BetaGrid:
    """201 log-uniform betas on [0.1, 10], symmetric about beta = 1."""
    return BetaGrid.log_spaced(DEFAULT_BETA_MIN, DEFAULT_BETA_MAX, DEFAULT_BETA_COUNT)


@dataclass(frozen=True)
class FbetaCurve:
    """F-beta values along a grid for one method, or an envelope of a front.

    An envelope holds in ``argmax`` the winning member index at each beta,
    ties broken toward the lowest index; other curves hold None there.
    """

    method_label: str
    betas: tuple[float, ...]
    values: tuple[float, ...]
    defined: tuple[bool, ...]
    argmax: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if not (len(self.betas) == len(self.values) == len(self.defined)):
            raise ValueError("curve fields must all match the grid length")
        values = np.array(self.values, dtype=np.float64)
        # NaN fails both comparisons
        if not ((values >= 0.0) & (values <= 1.0)).all():
            raise ValueError("curve values must lie in [0, 1]")

    @property
    def is_envelope(self) -> bool:
        return self.argmax is not None


def fbeta_curves(counts: np.ndarray, grid: BetaGrid, labels: Sequence[str]) -> list[FbetaCurve]:
    """Pointwise F-beta along the grid of each (tp, fn, fp, tn) row, from one sweep."""
    check_counts(counts)
    # F-beta follows the five base metrics
    values, defined = (a[:, 5:] for a in metric_table(counts, grid.betas))
    return [
        FbetaCurve(method_label=label, betas=grid.betas, values=tuple(v), defined=tuple(d))
        for label, v, d in zip(labels, values.tolist(), defined.tolist())
    ]


def fbeta_curve(m: ConfusionMatrix, grid: BetaGrid, label: str = "") -> FbetaCurve:
    """Pointwise F-beta of one confusion matrix along the grid: a one-row sweep."""
    return fbeta_curves(counts_array([m]), grid, [label])[0]


def fbeta_envelope(
    front_matrices: Sequence[ConfusionMatrix] | np.ndarray,
    grid: BetaGrid,
    label: str = "front envelope",
) -> FbetaCurve:
    """Upper envelope of the member curves, with the per-beta winning member.

    Members are confusion matrices, or an (n, 4) array of (tp, fn, fp, tn)
    rows that passes ``check_counts``.

    Only candidates are swept: a member is dropped when another member's
    TPR and PPV both exceed its own times ``1 + _ENVELOPE_MARGIN``. F-beta
    is homogeneous and increasing in (TPR, PPV), so the other member scores
    higher at every beta by far more than rounding can move either score,
    and a member with tp = 0 stays only when every member has tp = 0. Each
    row is swept on its own, so the candidates' values are those of a full
    sweep, and every member that ties for the best value is a candidate:
    the lowest index still wins ties.
    """
    if not len(front_matrices):
        raise ValueError("envelope needs at least one member matrix")
    if not isinstance(front_matrices, np.ndarray):
        front_matrices = counts_array(front_matrices)
    check_counts(front_matrices)
    rates = metric_table(front_matrices)[0][:, [0, 2]]  # TPR, PPV
    rows = np.flatnonzero(~_exceeded(rates, rates * (1.0 + _ENVELOPE_MARGIN)))
    values, defined = (a[:, 5:] for a in metric_table(front_matrices[rows], grid.betas))
    winners = np.argmax(values, axis=0)  # first occurrence wins ties
    columns = np.arange(len(grid))
    return FbetaCurve(
        method_label=label,
        betas=grid.betas,
        values=tuple(values[winners, columns].tolist()),
        defined=tuple(defined[winners, columns].tolist()),
        argmax=tuple(rows[winners].tolist()),
    )


def isocurve_y(metric: str, level: float, x: float | np.ndarray) -> float | np.ndarray:
    """y such that the chosen aggregate of (x, y) equals the level, for a float
    or elementwise for an array of x.

    gmean: sqrt(x * y) = level, so y = level^2 / x.
    f1: 2xy / (x + y) = level, so y = level * x / (2x - level).
    """
    if metric == "gmean":
        return level * level / x
    if metric == "f1":
        return level * x / (2.0 * x - level)
    raise ValueError(f"unknown isocurve metric {metric!r}")


def _covering_axis(values: np.ndarray) -> tuple[tuple[float, float], list[tuple[float, str]]]:
    """[0, 1] widened to multiples of the tick step until it covers the values,
    and a tick at every step. The step is 0.25, doubled while the axis would
    hold more than 16 steps, so values far from the unit square stay readable."""
    step = 0.25
    while True:
        lo = math.floor(min(0.0, values.min()) / step)
        hi = math.ceil(max(1.0, values.max()) / step)
        if hi - lo <= 16:
            return (lo * step, hi * step), [(k * step, f"{k * step:g}") for k in range(lo, hi + 1)]
        step *= 2.0


def render_fbeta_plot(curves: list[FbetaCurve] | tuple[FbetaCurve, ...], out: str) -> None:
    """Curves over log10(beta), envelopes dashed, with a method legend; the
    grid's first and last log10(beta) must differ."""
    if not curves:
        raise ValueError("nothing to plot: curve list is empty")
    betas = curves[0].betas
    for c in curves[1:]:
        if c.betas != betas:
            raise ValueError("all curves must share one beta grid")
    lo, hi = math.log10(betas[0]), math.log10(betas[-1])
    if lo == hi:
        raise ValueError(f"the beta axis has no width: the first and last log10(beta) are {lo!r}")
    y_range, y_ticks = _covering_axis(np.zeros(1))
    doc = _svg.SvgDoc((lo, hi), y_range, "beta (log scale)", "F_beta")
    decade_ticks = [
        (float(e), f"{10.0 ** e:g}")
        for e in range(math.ceil(lo - 1e-9), math.floor(hi + 1e-9) + 1)
    ]
    doc.draw_frame(decade_ticks, y_ticks)
    # math.log10 per beta: np.log10 may differ from it in the last bit
    x = doc.x_template(doc.x_px(np.array([math.log10(b) for b in betas])))
    ys = doc.y_px(np.array([curve.values for curve in curves]))
    legend = []
    for i, (curve, y) in enumerate(zip(curves, ys)):
        color = _svg.PALETTE[i % len(_svg.PALETTE)]
        doc.polyline(x, y, color, dashed=curve.is_envelope)
        legend.append((curve.method_label, color, curve.is_envelope))
    doc.draw_legend(legend)
    atomic_write_text(out, doc.tostring())


# the largest coordinate magnitude a region plot draws: ``_covering_axis``
# divides the coordinates by its first tick step, 0.25
_REGION_LIMIT = sys.float_info.max * 0.25


def check_region_operands(front: np.ndarray, ref: np.ndarray, mode: str) -> float | None:
    """Raise ValueError unless a region plot can draw the float arrays: an
    (n, 2) front with n >= 1, a length-2 reference, every coordinate finite
    and at most ``_REGION_LIMIT`` in magnitude, a known mode, and in
    hypervolume mode a finite HV for the legend. Returns that HV in
    hypervolume mode and None in dominance mode."""
    if front.ndim != 2 or front.shape[1] != 2:
        raise ValueError(f"region plot requires 2 objectives, got a front of shape {front.shape}")
    if ref.shape != (2,):
        raise ValueError(
            f"region plot requires 2 objectives, got a reference of shape {ref.shape}"
        )
    if not len(front):
        raise ValueError("region plot needs at least one front point")
    if not (np.isfinite(front).all() and np.isfinite(ref).all()):
        raise ValueError("region plot coordinates must be finite")
    coords = np.append(front, ref)
    too_large = np.abs(coords) > _REGION_LIMIT
    if too_large.any():
        raise ValueError(
            f"region plot coordinate {coords[too_large.argmax()].item()!r} is too large to draw: "
            f"axes reach at most {_REGION_LIMIT:.4g} either side of 0"
        )
    if mode not in REGION_MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {REGION_MODES}")
    if mode == "dominance":
        return None
    hv = _block_indicators(front[None], ref[None, None], ["HV"])["HV"].item()
    if not math.isfinite(hv):
        raise ValueError(f"indicator HV is not finite: {hv!r}; the coordinates overflow")
    return hv


def render_region_plot(front: np.ndarray, ref: np.ndarray, mode: str, out: str) -> None:
    """An (n, 2) front vs a length-2 reference row, on axes from ``_covering_axis``.

    The operands must pass ``check_region_operands``. hypervolume mode
    shades the union of boxes between the front and the reference; dominance
    mode shades the strictly-dominating and strictly-dominated regions and
    colors front points by their class.
    """
    front = np.asarray(front, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    hv = check_region_operands(front, ref, mode)
    n = len(front)
    (x_range, x_ticks), (y_range, y_ticks) = (
        _covering_axis(np.append(front[:, i], ref[i])) for i in range(2)
    )
    doc = _svg.SvgDoc(x_range, y_range, "objective 1", "objective 2")
    rx, ry = ref.tolist()
    cx, cy = doc.x_px(rx), doc.y_px(ry)
    xy = np.column_stack((doc.x_px(front[:, 0]), doc.y_px(front[:, 1])))
    above = _strictly_above(front, ref[None])[0].tolist()
    legend = [(f"front ({n} points)", "#08519c", False), ("reference", "#000000", False)]
    if mode == "hypervolume":
        for (x, y), shaded in zip(xy.tolist(), above):
            if shaded:
                doc.rect(cx, y, x - cx, cy - y, HV_FILL)
        fills = ["#08519c"] * n
        legend.append((f"HV = {hv:.4f}", HV_FILL, False))
    else:
        top, right = doc.y_px(y_range[1]), doc.x_px(x_range[1])
        left, bottom = doc.x_px(x_range[0]), doc.y_px(y_range[0])
        doc.rect(cx, top, right - cx, cy - top, DOMINATING_FILL, opacity=0.15)
        doc.rect(left, cy, cx - left, bottom - cy, DOMINATED_FILL, opacity=0.15)
        below = _strictly_above(ref[None], front)[:, 0].tolist()
        fills = [
            DOMINATING_FILL if a else DOMINATED_FILL if b else NEUTRAL_FILL
            for a, b in zip(above, below)
        ]
        values = _block_indicators(front[None], ref[None, None], ["SDR", "NDR"])
        sdr, ndr = values["SDR"].item(), values["NDR"].item()
        legend.append((f"dominating (SDR = {sdr:.2f})", DOMINATING_FILL, False))
        legend.append((f"dominated (NDR = {ndr:.2f})", DOMINATED_FILL, False))
    doc.draw_frame(x_ticks, y_ticks)
    doc.circles(xy, fills)
    # reference marker: a black cross
    doc.line(cx - 5, cy - 5, cx + 5, cy + 5, "#000000", 2.0)
    doc.line(cx - 5, cy + 5, cx + 5, cy - 5, "#000000", 2.0)
    doc.draw_legend(legend)
    atomic_write_text(out, doc.tostring())


def render_isocurves(metric: str, levels: list[float] | tuple[float, ...], out: str) -> None:
    """Level sets of an aggregate metric over the unit square of its arguments."""
    if metric not in ISOCURVE_METRICS:
        raise ValueError(f"unknown isocurve metric {metric!r}; expected one of {ISOCURVE_METRICS}")
    if not levels:
        raise ValueError("no levels to draw")
    for level in levels:
        value = float(level) if isinstance(level, numbers.Real) else math.nan
        if not 0.0 < value < 1.0:
            raise ValueError(f"levels must lie strictly inside (0, 1), got {level!r}")
        # gmean starts at x = level^2, and f1 starts level^2 / (2 - level) from
        # its pole: neither curve can be computed once level^2 is subnormal
        if value * value < sys.float_info.min:
            raise ValueError(f"level {level!r} is too small to draw: its square underflows")
    (x_label, y_label), label, domain_start = _ISOCURVES[metric]
    unit, ticks = _covering_axis(np.zeros(1))
    doc = _svg.SvgDoc(unit, unit, x_label, y_label)
    doc.draw_frame(ticks, ticks)
    legend = []
    for i, level in enumerate(levels):
        level = float(level)
        color = _svg.PALETTE[i % len(_svg.PALETTE)]
        xs = np.linspace(domain_start(level), 1.0, _ISOCURVE_SAMPLES)
        # y = 1 at the domain start by definition; f1 evaluated there cancels
        # in 2x - level, to zero for levels below the float epsilon
        ys = np.minimum(1.0, np.append(1.0, isocurve_y(metric, level, xs[1:])))
        doc.polyline(doc.x_template(doc.x_px(xs)), doc.y_px(ys), color)
        legend.append((f"{label} = {level:g}", color, False))
    doc.draw_legend(legend)
    atomic_write_text(out, doc.tostring())
