from __future__ import annotations

import re

import numpy as np
import pytest

from oracles import loop_hypervolume
from pareto_judge._svg import FRAME
from pareto_judge.confusion_metrics import ConfusionMatrix
from pareto_judge.fbeta_analysis import (
    DOMINATED_FILL,
    DOMINATING_FILL,
    HV_FILL,
    default_beta_grid,
    fbeta_curve,
    fbeta_envelope,
    render_fbeta_plot,
    render_isocurves,
    render_region_plot,
)
from pareto_judge.indicators import hypervolume
from pareto_judge.objective_space import ObjectivePoint, SolutionSet, strictly_dominates

_RECT_RE = re.compile(
    r'<rect x="([0-9.]+)" y="([0-9.]+)" width="([0-9.]+)" height="([0-9.]+)" fill="([^"]+)"'
)
_CIRCLE_RE = re.compile(r'<circle [^>]*fill="([^"]+)"')
_POLYLINE_RE = re.compile(r'<polyline [^>]*points="([^"]+)"')


def _read(path) -> str:
    return path.read_text(encoding="utf-8")


def _rects_with_fill(svg: str, fill: str) -> list[tuple[float, float, float, float]]:
    return [
        (float(m[1]), float(m[2]), float(m[3]), float(m[4]))
        for m in _RECT_RE.finditer(svg)
        if m[5] == fill
    ]


def _shaded_fraction(svg: str, fill: str, subpixels: int = 4) -> float:
    """Rasterize the matching rects onto the frame grid and measure the union."""
    width = int(FRAME.width * subpixels)
    height = int(FRAME.height * subpixels)
    painted = np.zeros((width, height), dtype=bool)
    for x, y, w, h in _rects_with_fill(svg, fill):
        x0 = round((x - FRAME.left) * subpixels)
        y0 = round((y - FRAME.top) * subpixels)
        painted[x0 : x0 + round(w * subpixels), y0 : y0 + round(h * subpixels)] = True
    return painted.sum() / painted.size


class TestFbetaPlot:
    def test_rejects_empty_curve_list(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            render_fbeta_plot([], str(tmp_path / "x.svg"))

    def test_rejects_mismatched_grids(self, tmp_path):
        m = ConfusionMatrix(10, 5, 5, 10)
        a = fbeta_curve(m, default_beta_grid())
        b = fbeta_curve(m, default_beta_grid().__class__.log_spaced(0.5, 2.0, 11))
        with pytest.raises(ValueError, match="share one beta grid"):
            render_fbeta_plot([a, b], str(tmp_path / "x.svg"))

    def test_constant_curve_sits_at_axis_midpoint(self, tmp_path):
        curve = fbeta_curve(ConfusionMatrix(50, 50, 50, 50), default_beta_grid(), label="c")
        out = tmp_path / "curve.svg"
        render_fbeta_plot([curve], str(out))
        points = _POLYLINE_RE.search(_read(out))[1].split()
        midline = FRAME.top + FRAME.height / 2
        ys = {float(p.split(",")[1]) for p in points}
        assert len(ys) == 1
        assert ys.pop() == pytest.approx(midline, abs=0.01)

    def test_envelope_rendered_dashed(self, tmp_path):
        grid = default_beta_grid()
        envelope = fbeta_envelope([ConfusionMatrix(10, 5, 5, 10)], grid)
        out = tmp_path / "env.svg"
        render_fbeta_plot([fbeta_curve(ConfusionMatrix(8, 2, 2, 8), grid, "m"), envelope], str(out))
        svg = _read(out)
        assert svg.count("stroke-dasharray") >= 1

    def test_byte_identical_reruns(self, tmp_path):
        curves = [fbeta_curve(ConfusionMatrix(17, 3, 9, 71), default_beta_grid(), label="m")]
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        render_fbeta_plot(curves, str(a))
        render_fbeta_plot(curves, str(b))
        assert a.read_bytes() == b.read_bytes()


class TestRegionPlot:
    def test_requires_two_objectives(self, tmp_path):
        front = SolutionSet.from_coords("f", [(0.1, 0.2, 0.3)])
        with pytest.raises(ValueError, match="2 objectives"):
            render_region_plot(
                front.as_array(), ObjectivePoint((0, 0, 0)).as_array(), "hypervolume",
                str(tmp_path / "x"),
            )

    def test_shape_error_names_the_wrong_operand(self, tmp_path):
        front = np.array([[0.5, 0.5], [0.7, 0.2]])
        with pytest.raises(ValueError, match=r"reference of shape \(3,\)"):
            render_region_plot(front, np.zeros(3), "hypervolume", str(tmp_path / "x"))
        with pytest.raises(ValueError, match=r"front of shape \(2, 3\)"):
            render_region_plot(np.zeros((2, 3)), np.zeros(2), "hypervolume", str(tmp_path / "x"))

    def test_rejects_an_empty_front(self, tmp_path):
        with pytest.raises(ValueError, match="at least one"):
            render_region_plot(np.empty((0, 2)), np.zeros(2), "dominance", str(tmp_path / "x"))

    def test_rejects_unknown_mode(self, tmp_path):
        front = SolutionSet.from_coords("f", [(0.5, 0.5)])
        with pytest.raises(ValueError, match="mode"):
            render_region_plot(
                front.as_array(), ObjectivePoint((0.1, 0.1)).as_array(), "volume",
                str(tmp_path / "x"),
            )

    def test_front_equal_to_reference_shades_nothing(self, tmp_path):
        front = SolutionSet.from_coords("f", [(0.5, 0.5)])
        out = tmp_path / "zero.svg"
        render_region_plot(
            front.as_array(), ObjectivePoint((0.5, 0.5)).as_array(), "hypervolume", str(out)
        )
        assert _rects_with_fill(_read(out), HV_FILL) == []

    def test_dominance_mode_classifies_points(self, tmp_path):
        front = SolutionSet.from_coords("f", [(0.2, 0.2), (0.6, 0.6), (0.9, 0.9)])
        out = tmp_path / "dom.svg"
        render_region_plot(
            front.as_array(), ObjectivePoint((0.5, 0.5)).as_array(), "dominance", str(out)
        )
        circles = _CIRCLE_RE.findall(_read(out))
        assert circles.count(DOMINATING_FILL) == 2
        assert circles.count(DOMINATED_FILL) == 1

    def test_shaded_area_matches_hypervolume(self, tmp_path):
        rng = np.random.default_rng(83)
        for i in range(5):
            coords = rng.random((int(rng.integers(1, 13)), 2))
            ref = ObjectivePoint(tuple(rng.random(2) * 0.5))
            front = SolutionSet.from_coords("f", coords)
            out = tmp_path / f"hv{i}.svg"
            render_region_plot(front.as_array(), ref.as_array(), "hypervolume", str(out))
            fraction = _shaded_fraction(_read(out), HV_FILL)
            assert fraction == pytest.approx(hypervolume(front, ref), abs=0.01)

    def test_legend_matches_the_indicators(self, tmp_path):
        # brute-force dominance counts and the loop oracle, not the block function
        rng = np.random.default_rng(5)
        for i in range(20):
            coords = rng.integers(0, 5, (int(rng.integers(1, 9)), 2)) / 4.0
            ref = ObjectivePoint(tuple(rng.integers(0, 5, 2) / 4.0))
            points = [ObjectivePoint(tuple(c)) for c in coords.tolist()]
            n = len(points)
            dominating = sum(strictly_dominates(p, ref) for p in points)
            dominated = sum(strictly_dominates(ref, p) for p in points)
            for mode in ("dominance", "hypervolume"):
                out = tmp_path / f"{mode}{i}.svg"
                render_region_plot(coords, ref.as_array(), mode, str(out))
                svg = _read(out)
                if mode == "dominance":
                    assert f"(SDR = {dominating / n:.2f})" in svg
                    assert f"(NDR = {(n - dominated) / n:.2f})" in svg
                else:
                    assert f"HV = {loop_hypervolume(coords, ref.as_array()):.4f}" in svg

    def test_byte_identical_reruns(self, tmp_path):
        front = SolutionSet.from_coords("f", [(0.4, 0.9), (0.9, 0.4), (0.7, 0.7)])
        ref = ObjectivePoint((0.6, 0.6))
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        render_region_plot(front.as_array(), ref.as_array(), "dominance", str(a))
        render_region_plot(front.as_array(), ref.as_array(), "dominance", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestIsocurvePlot:
    def test_rejects_bad_levels(self, tmp_path):
        with pytest.raises(ValueError, match="levels"):
            render_isocurves("gmean", [], str(tmp_path / "x.svg"))
        with pytest.raises(ValueError, match="inside"):
            render_isocurves("gmean", [0.5, 1.0], str(tmp_path / "x.svg"))

    def test_rejects_unknown_metric(self, tmp_path):
        with pytest.raises(ValueError, match="metric"):
            render_isocurves("bac", [0.5], str(tmp_path / "x.svg"))

    def test_draws_one_polyline_per_level(self, tmp_path):
        out = tmp_path / "iso.svg"
        render_isocurves("f1", [0.2, 0.4, 0.6, 0.8], str(out))
        assert len(_POLYLINE_RE.findall(_read(out))) == 4

    def test_polyline_stays_inside_frame(self, tmp_path):
        out = tmp_path / "iso.svg"
        render_isocurves("gmean", [0.3, 0.6], str(out))
        for match in _POLYLINE_RE.finditer(_read(out)):
            for pair in match[1].split():
                x, y = (float(v) for v in pair.split(","))
                assert FRAME.left - 0.01 <= x <= FRAME.right + 0.01
                assert FRAME.top - 0.01 <= y <= FRAME.bottom + 0.01

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        render_isocurves("gmean", [0.25, 0.5, 0.75], str(a))
        render_isocurves("gmean", [0.25, 0.5, 0.75], str(b))
        assert a.read_bytes() == b.read_bytes()


class TestRegionAxes:
    def _axes(self, tmp_path, front, ref, mode="dominance"):
        """(x tick labels, y tick labels, circle centres) of a region plot."""
        path = tmp_path / "region.svg"
        render_region_plot(np.array(front, dtype=float), np.array(ref, dtype=float), mode, path)
        svg = _read(path)
        x_labels = re.findall(r'text-anchor="middle">([^<]+)</text>', svg)[:-1]  # less the title
        y_labels = re.findall(r'text-anchor="end">([^<]+)</text>', svg)
        centres = [(float(x), float(y)) for x, y in re.findall(r'cx="([^"]+)" cy="([^"]+)"', svg)]
        return x_labels, y_labels, centres

    def test_unit_square_data_keeps_the_unit_axes(self, tmp_path):
        x, y, _ = self._axes(tmp_path, [[0.0, 1.0], [1.0, 0.0]], [0.5, 0.5])
        assert x == y == ["0", "0.25", "0.5", "0.75", "1"]

    def test_axes_widen_by_quarters_to_cover_front_and_reference(self, tmp_path):
        x, y, centres = self._axes(tmp_path, [[0.3, -0.9], [1.1, -0.2]], [-0.1, 0.5])
        assert x == ["-0.25", "0", "0.25", "0.5", "0.75", "1", "1.25"]
        assert y == ["-1", "-0.75", "-0.5", "-0.25", "0", "0.25", "0.5", "0.75", "1"]
        for cx, cy in centres:
            assert FRAME.left <= cx <= FRAME.right and FRAME.top <= cy <= FRAME.bottom

    @pytest.mark.parametrize("mode", ["dominance", "hypervolume"])
    def test_far_data_stays_inside_the_frame_with_few_ticks(self, tmp_path, mode):
        x, y, centres = self._axes(tmp_path, [[350.0, -2e9], [0.5, 7.0]], [100.0, -3e9], mode)
        assert x == [str(32 * k) for k in range(12)]  # 350 needs 11 steps of 32
        assert len(y) <= 17 and float(y[0]) <= -3e9 and float(y[-1]) >= 7.0
        for cx, cy in centres:
            assert FRAME.left <= cx <= FRAME.right and FRAME.top <= cy <= FRAME.bottom
