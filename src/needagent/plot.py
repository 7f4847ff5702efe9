"""Self-contained SVG rendering of run metrics.

Five stacked panels share the tick axis: the four need channels on a [0, 1]
scale and the feedback channel on [-1, 1].  The coordinate mapping is plain
linear interpolation from the constants below, so expected polyline points
can be computed by hand when checking output.
"""

from __future__ import annotations

from typing import Sequence

from needagent.memory import write_files

MARGIN_LEFT = 60.0
MARGIN_RIGHT = 20.0
MARGIN_TOP = 20.0
MARGIN_BOTTOM = 30.0
PANEL_HEIGHT = 110.0
PANEL_GAP = 24.0
SVG_WIDTH = 960.0

# (metrics attribute, label, axis low, axis high, stroke)
PANELS = (
    ("happy", "Happy", 0.0, 1.0, "#1f77b4"),
    ("sad", "Sad", 0.0, 1.0, "#d62728"),
    ("novelty", "Novelty", 0.0, 1.0, "#2ca02c"),
    ("expectedness", "Expectedness", 0.0, 1.0, "#9467bd"),
    ("feedback", "Feedback", -1.0, 1.0, "#ff7f0e"),
)

PLOT_WIDTH = SVG_WIDTH - MARGIN_LEFT - MARGIN_RIGHT


def svg_height() -> float:
    panels = len(PANELS)
    return MARGIN_TOP + panels * PANEL_HEIGHT + (panels - 1) * PANEL_GAP + MARGIN_BOTTOM


def panel_top(index: int) -> float:
    return MARGIN_TOP + index * (PANEL_HEIGHT + PANEL_GAP)


def x_position(tick: int, first_tick: int, last_tick: int) -> float:
    if last_tick == first_tick:
        return MARGIN_LEFT
    return MARGIN_LEFT + (tick - first_tick) / (last_tick - first_tick) * PLOT_WIDTH


def y_position(value: float, low: float, high: float, index: int) -> float:
    clamped = min(max(value, low), high)
    return panel_top(index) + (high - clamped) / (high - low) * PANEL_HEIGHT


def _polyline(points: Sequence[tuple[float, float]], stroke: str) -> str:
    text = " ".join(f"{x:.3f},{y:.3f}" for x, y in points)
    return f'<polyline fill="none" stroke="{stroke}" stroke-width="1" points="{text}"/>'


def render_svg(rows: Sequence) -> str:
    """SVG document for metrics rows; valid with axes even when empty."""
    height = svg_height()
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {SVG_WIDTH:.0f} {height:.0f}">',
        f'<rect width="{SVG_WIDTH:.0f}" height="{height:.0f}" fill="white"/>',
    ]
    first_tick = rows[0].tick if rows else 0
    last_tick = rows[-1].tick if rows else 0
    for index, (attr, label, low, high, stroke) in enumerate(PANELS):
        top = panel_top(index)
        bottom = top + PANEL_HEIGHT
        out.append(
            f'<line x1="{MARGIN_LEFT:.3f}" y1="{top:.3f}" x2="{MARGIN_LEFT:.3f}" '
            f'y2="{bottom:.3f}" stroke="black" stroke-width="1"/>'
        )
        out.append(
            f'<line x1="{MARGIN_LEFT:.3f}" y1="{bottom:.3f}" '
            f'x2="{MARGIN_LEFT + PLOT_WIDTH:.3f}" y2="{bottom:.3f}" '
            f'stroke="black" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{MARGIN_LEFT - 52:.3f}" y="{top + 14:.3f}" '
            f'font-size="12" font-family="sans-serif">{label}</text>'
        )
        if rows:
            points = [
                (
                    x_position(row.tick, first_tick, last_tick),
                    y_position(getattr(row, attr), low, high, index),
                )
                for row in rows
            ]
            out.append(_polyline(points, stroke))
    out.append("</svg>")
    return "\n".join(out) + "\n"


def write_svg(rows: Sequence, path: str) -> None:
    write_files({path: render_svg(rows)})
