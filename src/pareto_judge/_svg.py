"""Small deterministic SVG builder shared by the figure renderers.

One ``SvgDoc`` per figure holds its elements and its data-to-pixel mapping
of the axes; only its methods write elements. Every document is a fixed
800x600 viewBox whose data area is the rectangle LEFT, TOP, FRAME_WIDTH,
FRAME_HEIGHT (RIGHT and BOTTOM derived), with room for a legend on the right.
Styles are fixed: curves are polylines of stroke width 2, markers circles of
radius 4, and labels 12-unit sans-serif text. Element methods fill one
%-template per element, every coordinate, width and opacity a ``%.2f``
argument, so identical inputs yield byte-identical markup. A polyline's
points come in two steps: ``x_template`` formats the x pixels once into a
template with a ``%.2f`` slot for each y, which every curve over the same
x grid shares, and ``polyline`` fills it with one curve's y pixels.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

WIDTH = 800
HEIGHT = 600
FONT_SIZE = 12
FONT_FAMILY = "sans-serif"

PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#ff7f0e",
    "#9467bd",
    "#8c564b",
    "#e377c2",
    "#17becf",
    "#bcbd22",
    "#7f7f7f",
)


def escape(text: str) -> str:
    return (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


# data area shared by every plot kind; the right margin leaves legend room
LEFT, TOP, FRAME_WIDTH, FRAME_HEIGHT = 80.0, 40.0, 560.0, 490.0
RIGHT = LEFT + FRAME_WIDTH
BOTTOM = TOP + FRAME_HEIGHT


DASH = ' stroke-dasharray="7 4"'


class SvgDoc:
    """One figure: its elements, and a linear data-to-pixel mapping onto the frame."""

    def __init__(
        self,
        x_range: tuple[float, float],
        y_range: tuple[float, float],
        x_label: str,
        y_label: str,
    ) -> None:
        self.x_lo, self.x_hi = x_range
        self.y_lo, self.y_hi = y_range
        self.x_label = x_label
        self.y_label = y_label
        self._parts: list[str] = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
            f'viewBox="0 0 {WIDTH} {HEIGHT}">',
            f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        ]

    # x_px and y_px take floats or float64 arrays; numpy applies the same IEEE
    # operations in the same order, so both give the same pixels

    def x_px(self, x: float | np.ndarray) -> float | np.ndarray:
        span = self.x_hi - self.x_lo
        return LEFT + (x - self.x_lo) / span * FRAME_WIDTH

    def y_px(self, y: float | np.ndarray) -> float | np.ndarray:
        span = self.y_hi - self.y_lo
        return BOTTOM - (y - self.y_lo) / span * FRAME_HEIGHT

    def rect(
        self,
        x: float,
        y: float,
        width: float,
        height: float,
        fill: str,
        opacity: float | None = None,
    ) -> None:
        extra = "" if opacity is None else ' fill-opacity="%.2f"' % opacity
        self._parts.append(
            '<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" fill="%s"%s/>'
            % (x, y, width, height, fill, extra)
        )

    def line(
        self,
        x1: float,
        y1: float,
        x2: float,
        y2: float,
        stroke: str,
        width: float = 1.0,
        dashed: bool = False,
    ) -> None:
        self._parts.append(
            '<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="%s" stroke-width="%.2f"%s/>'
            % (x1, y1, x2, y2, stroke, width, DASH if dashed else "")
        )

    @staticmethod
    def x_template(x: np.ndarray) -> str:
        """A polyline's points over the x pixels: each x formatted, each y a
        ``%.2f`` slot, so curves over one x grid format their x once."""
        return " ".join(["%.2f,%%.2f"] * len(x)) % tuple(x.tolist())

    def polyline(self, x_template: str, y: np.ndarray, stroke: str, dashed: bool = False) -> None:
        """One polyline of width 2 through the y pixels over an ``x_template``'s x."""
        self._parts.append(
            '<polyline fill="none" stroke="%s" stroke-width="2.00"%s points="%s"/>'
            % (stroke, DASH if dashed else "", x_template % tuple(y.tolist()))
        )

    def circles(self, xy: np.ndarray, fills: Sequence[str]) -> None:
        """One circle of radius 4 at each row of an (n, 2) float array, with
        the matching fill."""
        circle = '<circle cx="%.2f" cy="%.2f" r="4.00" fill="%s"/>'
        values = [v for (x, y), fill in zip(xy.tolist(), fills) for v in (x, y, fill)]
        self._parts.append("\n".join([circle] * len(xy)) % tuple(values))

    def text(self, x: float, y: float, content: str, anchor: str = "start") -> None:
        self._parts.append(
            '<text x="%.2f" y="%.2f" font-size="%s" font-family="%s" text-anchor="%s">%s</text>'
            % (x, y, FONT_SIZE, FONT_FAMILY, anchor, escape(content))
        )

    def draw_frame(
        self,
        x_ticks: Sequence[tuple[float, str]],
        y_ticks: Sequence[tuple[float, str]],
    ) -> None:
        """Axes, ticks and axis labels."""
        self.line(LEFT, BOTTOM, RIGHT, BOTTOM, "#000000", 1.5)
        self.line(LEFT, TOP, LEFT, BOTTOM, "#000000", 1.5)
        for value, label in x_ticks:
            x = self.x_px(value)
            self.line(x, BOTTOM, x, BOTTOM + 5, "#000000")
            self.text(x, BOTTOM + 20, label, anchor="middle")
        for value, label in y_ticks:
            y = self.y_px(value)
            self.line(LEFT - 5, y, LEFT, y, "#000000")
            self.text(LEFT - 9, y + 4, label, anchor="end")
        self.text(LEFT + FRAME_WIDTH / 2, BOTTOM + 42, self.x_label, anchor="middle")
        self.text(LEFT - 50, TOP - 14, self.y_label, anchor="start")

    def draw_legend(self, entries: Sequence[tuple[str, str, bool]]) -> None:
        """One (label, color, dashed) row per entry, laid out beside the frame."""
        x = RIGHT + 16.0
        y = TOP + 10.0
        for label, color, dashed in entries:
            self.line(x, y, x + 24, y, color, 2.0, dashed)
            self.text(x + 30, y + 4, label)
            y += 20.0

    def tostring(self) -> str:
        return "\n".join(self._parts + ["</svg>"]) + "\n"
