"""Preference-sweep analysis: F-beta curves over a beta grid and SVG figures.

A beta grid sweeps the recall-vs-precision preference; each classifier gives
one curve, and a solution front gives the upper envelope over its members,
tracking which member wins at each preference. Renderers emit self-contained
deterministic SVG 1.1 documents.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import _svg
from ._io import atomic_write_text
from .confusion_metrics import ConfusionMatrix, _metrics, check_counts, counts_array, metric_table
from .indicators import _block_indicators

__all__ = [
    "BetaGrid",
    "FbetaCurve",
    "default_beta_grid",
    "fbeta_curve",
    "fbeta_curves",
    "fbeta_envelope",
    "isocurve_y",
    "render_fbeta_plot",
    "render_region_plot",
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

REGION_MODES = ("hypervolume", "dominance")
ISOCURVE_METRICS = ("gmean", "f1")

_ISOCURVE_SAMPLES = 257


@dataclass(frozen=True)
class BetaGrid:
    """A strictly increasing grid of positive beta values."""

    betas: tuple[float, ...]

    def __post_init__(self) -> None:
        betas = tuple(float(b) for b in self.betas)
        if not betas:
            raise ValueError("beta grid must not be empty")
        for b in betas:
            if not math.isfinite(b) or b <= 0.0:
                raise ValueError(f"beta values must be finite and positive, got {b!r}")
        if any(b2 <= b1 for b1, b2 in zip(betas, betas[1:])):
            raise ValueError("beta grid must be strictly increasing")
        object.__setattr__(self, "betas", betas)

    @classmethod
    def log_spaced(cls, lo: float, hi: float, count: int) -> "BetaGrid":
        """count points spaced uniformly in log(beta) between lo and hi."""
        if count < 2:
            raise ValueError(f"grid needs at least 2 points, got {count}")
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"grid bounds must be finite, got lo={lo!r} hi={hi!r}")
        if not (0.0 < lo < hi):
            raise ValueError(f"need 0 < lo < hi, got lo={lo!r} hi={hi!r}")
        exponents = np.linspace(math.log10(lo), math.log10(hi), count)
        betas = 10.0 ** exponents
        betas[0] = lo
        betas[-1] = hi
        return cls(tuple(float(b) for b in betas))

    def __len__(self) -> int:
        return len(self.betas)


def default_beta_grid() -> BetaGrid:
    """201 log-uniform betas on [0.1, 10], symmetric about beta = 1."""
    return BetaGrid.log_spaced(0.1, 10.0, 201)


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
        if any(not 0.0 <= v <= 1.0 for v in self.values):
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
    """Pointwise F-beta of one confusion matrix along the grid."""
    b2 = np.square(grid.betas)
    values, defined = _metrics(m.tp, m.fn, m.fp, m.tn, b2, math.sqrt, np.minimum)
    return FbetaCurve(label, grid.betas, tuple(values[5].tolist()), tuple(defined[5].tolist()))


def fbeta_envelope(
    front_matrices: Sequence[ConfusionMatrix] | np.ndarray,
    grid: BetaGrid,
    label: str = "front envelope",
) -> FbetaCurve:
    """Upper envelope of the member curves, with the per-beta winning member.

    Members are confusion matrices, or an (n, 4) array of (tp, fn, fp, tn)
    rows that passes ``check_counts``.
    """
    if not len(front_matrices):
        raise ValueError("envelope needs at least one member matrix")
    if not isinstance(front_matrices, np.ndarray):
        front_matrices = counts_array(front_matrices)
    check_counts(front_matrices)
    values, defined = (a[:, 5:] for a in metric_table(front_matrices, grid.betas))
    winners = np.argmax(values, axis=0)  # first occurrence wins ties
    columns = np.arange(len(grid))
    return FbetaCurve(
        method_label=label,
        betas=grid.betas,
        values=tuple(values[winners, columns].tolist()),
        defined=tuple(defined[winners, columns].tolist()),
        argmax=tuple(winners.tolist()),
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


def _isocurve_domain_start(metric: str, level: float) -> float:
    # smallest x with y <= 1 on the level set
    if metric == "gmean":
        return level * level
    return level / (2.0 - level)


def _unit_ticks() -> list[tuple[float, str]]:
    return [(v, f"{v:g}") for v in (0.0, 0.25, 0.5, 0.75, 1.0)]


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
    """Curves over log10(beta), envelopes dashed, with a method legend."""
    if not curves:
        raise ValueError("nothing to plot: curve list is empty")
    betas = curves[0].betas
    for c in curves[1:]:
        if c.betas != betas:
            raise ValueError("all curves must share one beta grid")
    lo, hi = math.log10(betas[0]), math.log10(betas[-1])
    doc = _svg.SvgDoc((lo, hi), (0.0, 1.0), "beta (log scale)", "F_beta")
    decade_ticks = [
        (float(e), f"{10.0 ** e:g}")
        for e in range(math.ceil(lo - 1e-9), math.floor(hi + 1e-9) + 1)
    ]
    doc.draw_frame(decade_ticks, _unit_ticks())
    # math.log10 per beta: np.log10 may differ from it in the last bit
    x = doc.x_px(np.array([math.log10(b) for b in betas]))
    ys = doc.y_px(np.array([curve.values for curve in curves]))
    legend = []
    for i, (curve, y) in enumerate(zip(curves, ys)):
        color = _svg.PALETTE[i % len(_svg.PALETTE)]
        doc.polyline(np.column_stack((x, y)), color, dashed=curve.is_envelope)
        legend.append((curve.method_label, color, curve.is_envelope))
    doc.draw_legend(legend)
    atomic_write_text(out, doc.tostring())


def render_region_plot(front: np.ndarray, ref: np.ndarray, mode: str, out: str) -> None:
    """An (n, 2) front vs a length-2 reference row, on axes from ``_covering_axis``.

    hypervolume mode shades the union of boxes between the front and the
    reference; dominance mode shades the strictly-dominating and
    strictly-dominated regions and colors front points by their class.
    """
    front = np.asarray(front, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    if front.ndim != 2 or front.shape[1] != 2:
        raise ValueError(f"region plot requires 2 objectives, got a front of shape {front.shape}")
    if ref.shape != (2,):
        raise ValueError(
            f"region plot requires 2 objectives, got a reference of shape {ref.shape}"
        )
    n = len(front)
    if not n:
        raise ValueError("region plot needs at least one front point")
    if not (np.isfinite(front).all() and np.isfinite(ref).all()):
        raise ValueError("region plot coordinates must be finite")
    if mode not in REGION_MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {REGION_MODES}")
    (x_range, x_ticks), (y_range, y_ticks) = (
        _covering_axis(np.append(front[:, i], ref[i])) for i in range(2)
    )
    doc = _svg.SvgDoc(x_range, y_range, "objective 1", "objective 2")
    rx, ry = ref.tolist()
    cx, cy = doc.x_px(rx), doc.y_px(ry)
    xy = np.column_stack((doc.x_px(front[:, 0]), doc.y_px(front[:, 1])))
    above = (front > ref).all(axis=1).tolist()
    below = (front < ref).all(axis=1).tolist()
    if mode == "hypervolume":
        for (x, y), shaded in zip(xy.tolist(), above):
            if shaded:
                doc.rect(cx, y, x - cx, cy - y, HV_FILL)
    else:
        top, right = doc.y_px(y_range[1]), doc.x_px(x_range[1])
        left, bottom = doc.x_px(x_range[0]), doc.y_px(y_range[0])
        doc.rect(cx, top, right - cx, cy - top, DOMINATING_FILL, opacity=0.15)
        doc.rect(left, cy, cx - left, bottom - cy, DOMINATED_FILL, opacity=0.15)
    doc.draw_frame(x_ticks, y_ticks)
    if mode == "dominance":
        fills = [
            DOMINATING_FILL if a else DOMINATED_FILL if b else NEUTRAL_FILL
            for a, b in zip(above, below)
        ]
    else:
        fills = ["#08519c"] * n
    doc.circles(xy, fills)
    # reference marker: a black cross
    doc.line(cx - 5, cy - 5, cx + 5, cy + 5, "#000000", 2.0)
    doc.line(cx - 5, cy + 5, cx + 5, cy - 5, "#000000", 2.0)
    legend = [(f"front ({n} points)", "#08519c", False), ("reference", "#000000", False)]
    if mode == "hypervolume":
        hv = _block_indicators(front[None], ref[None, None], ["HV"])["HV"].item()
        legend.append((f"HV = {hv:.4f}", HV_FILL, False))
    else:
        values = _block_indicators(front[None], ref[None, None], ["SDR", "NDR"])
        sdr, ndr = values["SDR"].item(), values["NDR"].item()
        legend.append((f"dominating (SDR = {sdr:.2f})", DOMINATING_FILL, False))
        legend.append((f"dominated (NDR = {ndr:.2f})", DOMINATED_FILL, False))
    doc.draw_legend(legend)
    atomic_write_text(out, doc.tostring())


def render_isocurves(metric: str, levels: list[float] | tuple[float, ...], out: str) -> None:
    """Level sets of an aggregate metric over the unit square of its arguments."""
    if metric not in ISOCURVE_METRICS:
        raise ValueError(f"unknown isocurve metric {metric!r}; expected one of {ISOCURVE_METRICS}")
    if not levels:
        raise ValueError("no levels to draw")
    for level in levels:
        if not (isinstance(level, (int, float)) and 0.0 < level < 1.0):
            raise ValueError(f"levels must lie strictly inside (0, 1), got {level!r}")
        # gmean starts at x = level^2, and f1 starts level^2 / (2 - level) from
        # its pole: neither curve can be computed once level^2 is subnormal
        if level * level < sys.float_info.min:
            raise ValueError(f"level {level!r} is too small to draw: its square underflows")
    x_label, y_label = ("TPR", "TNR") if metric == "gmean" else ("precision", "recall")
    doc = _svg.SvgDoc((0.0, 1.0), (0.0, 1.0), x_label, y_label)
    doc.draw_frame(_unit_ticks(), _unit_ticks())
    legend = []
    label = "G-mean" if metric == "gmean" else "F1"
    for i, level in enumerate(levels):
        level = float(level)
        color = _svg.PALETTE[i % len(_svg.PALETTE)]
        xs = np.linspace(_isocurve_domain_start(metric, level), 1.0, _ISOCURVE_SAMPLES)
        # y = 1 at the domain start by definition; f1 evaluated there cancels
        # in 2x - level, to zero for levels below the float epsilon
        ys = np.minimum(1.0, np.append(1.0, isocurve_y(metric, level, xs[1:])))
        doc.polyline(np.column_stack((doc.x_px(xs), doc.y_px(ys))), color)
        legend.append((f"{label} = {level:g}", color, False))
    doc.draw_legend(legend)
    atomic_write_text(out, doc.tostring())
