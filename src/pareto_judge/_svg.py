"""Small deterministic SVG builder shared by the figure renderers.

One ``SvgDoc`` per figure holds its elements and its data-to-pixel mapping
of the axes; only its methods write elements. Every document is a fixed
800x600 viewBox with 12pt sans-serif labels. Coordinates are always
formatted with two decimals, so identical inputs yield byte-identical markup.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def fmt(x: float) -> str:
    return f"{float(x):.2f}"


def escape(text: str) -> str:
    return (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


@dataclass(frozen=True)
class Frame:
    """Pixel rectangle of the data area inside the document."""

    left: float
    top: float
    width: float
    height: float

    @property
    def right(self) -> float:
        return self.left + self.width

    @property
    def bottom(self) -> float:
        return self.top + self.height


# data area shared by every plot kind; the right margin leaves legend room
FRAME = Frame(left=80.0, top=40.0, width=560.0, height=490.0)


DASH = ' stroke-dasharray="7 4"'


class SvgDoc:
    """One figure: its elements, and a linear data-to-pixel mapping over FRAME."""

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
        return FRAME.left + (x - self.x_lo) / span * FRAME.width

    def y_px(self, y: float | np.ndarray) -> float | np.ndarray:
        span = self.y_hi - self.y_lo
        return FRAME.bottom - (y - self.y_lo) / span * FRAME.height

    def rect(
        self,
        x: float,
        y: float,
        width: float,
        height: float,
        fill: str,
        opacity: float | None = None,
    ) -> None:
        extra = f' fill-opacity="{fmt(opacity)}"' if opacity is not None else ""
        self._parts.append(
            f'<rect x="{fmt(x)}" y="{fmt(y)}" width="{fmt(width)}" '
            f'height="{fmt(height)}" fill="{fill}"{extra}/>'
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
            f'<line x1="{fmt(x1)}" y1="{fmt(y1)}" x2="{fmt(x2)}" y2="{fmt(y2)}" '
            f'stroke="{stroke}" stroke-width="{fmt(width)}"{DASH if dashed else ""}/>'
        )

    def polyline(
        self,
        xy: np.ndarray,
        stroke: str,
        width: float = 2.0,
        dashed: bool = False,
    ) -> None:
        """One polyline through the rows of an (n, 2) float array."""
        # one %-format call gives the bytes of fmt applied to each coordinate
        coords = " ".join(["%.2f,%.2f"] * len(xy)) % tuple(xy.ravel().tolist())
        self._parts.append(
            f'<polyline fill="none" stroke="{stroke}" stroke-width="{fmt(width)}"'
            f'{DASH if dashed else ""} points="{coords}"/>'
        )

    def circles(self, xy: np.ndarray, r: float, fills: Sequence[str]) -> None:
        """One circle of radius r at each row of an (n, 2) float array, with
        the matching fill; formatted in one %-format call, like polyline."""
        circle = f'<circle cx="%.2f" cy="%.2f" r="{fmt(r)}" fill="%s"/>'
        values = [v for (x, y), fill in zip(xy.tolist(), fills) for v in (x, y, fill)]
        self._parts.append("\n".join([circle] * len(xy)) % tuple(values))

    def text(
        self, x: float, y: float, content: str, anchor: str = "start", size: int = FONT_SIZE
    ) -> None:
        self._parts.append(
            f'<text x="{fmt(x)}" y="{fmt(y)}" font-size="{size}" '
            f'font-family="{FONT_FAMILY}" text-anchor="{anchor}">{escape(content)}</text>'
        )

    def draw_frame(
        self,
        x_ticks: Sequence[tuple[float, str]],
        y_ticks: Sequence[tuple[float, str]],
    ) -> None:
        """Axes, ticks and axis labels."""
        self.line(FRAME.left, FRAME.bottom, FRAME.right, FRAME.bottom, "#000000", 1.5)
        self.line(FRAME.left, FRAME.top, FRAME.left, FRAME.bottom, "#000000", 1.5)
        for value, label in x_ticks:
            x = self.x_px(value)
            self.line(x, FRAME.bottom, x, FRAME.bottom + 5, "#000000")
            self.text(x, FRAME.bottom + 20, label, anchor="middle")
        for value, label in y_ticks:
            y = self.y_px(value)
            self.line(FRAME.left - 5, y, FRAME.left, y, "#000000")
            self.text(FRAME.left - 9, y + 4, label, anchor="end")
        self.text(FRAME.left + FRAME.width / 2, FRAME.bottom + 42, self.x_label, anchor="middle")
        self.text(FRAME.left - 50, FRAME.top - 14, self.y_label, anchor="start")

    def draw_legend(self, entries: Sequence[tuple[str, str, bool]]) -> None:
        """One (label, color, dashed) row per entry, laid out beside the frame."""
        x = FRAME.right + 16.0
        y = FRAME.top + 10.0
        for label, color, dashed in entries:
            self.line(x, y, x + 24, y, color, 2.0, dashed)
            self.text(x + 30, y + 4, label)
            y += 20.0

    def tostring(self) -> str:
        return "\n".join(self._parts + ["</svg>"]) + "\n"
