"""SVG metrics rendering: frozen layout constants and polyline geometry."""

from __future__ import annotations

import os

import pytest

from needagent import plot
from needagent.harness import MetricsRow
from needagent.plot import (
    MARGIN_LEFT,
    PANELS,
    PLOT_WIDTH,
    panel_top,
    render_svg,
    svg_height,
    write_svg,
    x_position,
    y_position,
)


def make_row(tick, happy=0.0, sad=0.0, novelty=0.0, expectedness=0.0, feedback=0.0):
    return MetricsRow(
        tick=tick,
        happy=happy,
        sad=sad,
        novelty=novelty,
        expectedness=expectedness,
        feedback=feedback,
        cumulative_hits=0,
        cumulative_misses=0,
        rolling_hit_rate=0.0,
        explored=False,
        energy=0.0,
    )


# ----------------------------------------------------------------------
# coordinate mapping
# ----------------------------------------------------------------------


def test_document_height_is_fixed_by_the_panel_stack():
    assert svg_height() == 696.0


def test_panel_tops_step_by_height_plus_gap():
    assert panel_top(0) == 20.0
    assert panel_top(2) == 288.0
    assert panel_top(4) == 556.0


def test_x_interpolates_across_the_plot_width():
    assert x_position(0, 0, 10) == MARGIN_LEFT
    assert x_position(5, 0, 10) == 500.0
    assert x_position(10, 0, 10) == MARGIN_LEFT + PLOT_WIDTH


def test_x_degenerates_to_the_left_margin_for_a_single_tick():
    assert x_position(7, 7, 7) == MARGIN_LEFT


def test_y_maps_high_values_to_the_panel_top():
    assert y_position(0.0, 0.0, 1.0, 0) == 130.0
    assert y_position(1.0, 0.0, 1.0, 0) == 20.0
    assert y_position(0.5, 0.0, 1.0, 0) == 75.0


def test_y_for_the_signed_feedback_panel():
    assert y_position(0.0, -1.0, 1.0, 4) == 611.0
    assert y_position(1.0, -1.0, 1.0, 4) == 556.0
    assert y_position(-1.0, -1.0, 1.0, 4) == 666.0


def test_y_clamps_out_of_range_values():
    assert y_position(3.0, 0.0, 1.0, 0) == 20.0
    assert y_position(-3.0, 0.0, 1.0, 0) == 130.0


# ----------------------------------------------------------------------
# rendered documents
# ----------------------------------------------------------------------


def test_render_traces_each_channel_with_its_own_stroke():
    rows = [
        make_row(1, happy=0.0),
        make_row(2, happy=0.5),
        make_row(3, happy=1.0),
    ]
    svg = render_svg(rows)
    expected = 'points="60.000,130.000 500.000,75.000 940.000,20.000"'
    happy_lines = [line for line in svg.split("\n") if 'stroke="#1f77b4"' in line]
    assert len(happy_lines) == 1
    assert expected in happy_lines[0]
    assert svg.count("<polyline") == len(PANELS)


def test_render_labels_every_panel():
    svg = render_svg([])
    for _, label, _, _, _ in PANELS:
        assert f">{label}</text>" in svg


def test_empty_rows_render_axes_but_no_traces():
    svg = render_svg([])
    assert svg.startswith("<svg ")
    assert svg.endswith("</svg>\n")
    assert "<polyline" not in svg
    assert svg.count("<line") == 2 * len(PANELS)


def test_single_row_collapses_to_the_left_margin():
    svg = render_svg([make_row(9, feedback=1.0)])
    assert 'points="60.000,556.000"' in svg


def test_document_frame_uses_the_computed_size():
    svg = render_svg([])
    assert 'width="960" height="696"' in svg
    assert 'viewBox="0 0 960 696"' in svg


def test_feedback_panel_spans_the_signed_range():
    rows = [make_row(1, feedback=-1.0), make_row(2, feedback=1.0)]
    svg = render_svg(rows)
    feedback_lines = [line for line in svg.split("\n") if 'stroke="#ff7f0e"' in line]
    assert len(feedback_lines) == 1
    assert 'points="60.000,666.000 940.000,556.000"' in feedback_lines[0]


def test_write_svg_round_trips_exact_bytes(tmp_path):
    rows = [make_row(1, happy=0.25), make_row(2, sad=0.75)]
    path = tmp_path / "metrics.svg"
    write_svg(rows, str(path))
    data = path.read_bytes()
    assert data.decode("utf-8") == render_svg(rows)
    assert data.endswith(b"</svg>\n")
    assert b"\r" not in data


def test_write_svg_keeps_the_old_file_when_rendering_fails(tmp_path, monkeypatch):
    path = tmp_path / "old.svg"
    path.write_bytes(b"old bytes\n")

    def failing_render_svg(rows):
        raise RuntimeError("rendering failed")

    monkeypatch.setattr(plot, "render_svg", failing_render_svg)
    with pytest.raises(RuntimeError):
        write_svg([make_row(1)], str(path))
    assert path.read_bytes() == b"old bytes\n"
    assert os.listdir(tmp_path) == ["old.svg"]


@pytest.mark.parametrize("attr, stroke", [(p[0], p[4]) for p in PANELS])
def test_each_panel_has_a_distinct_stroke(attr, stroke):
    rows = [make_row(1), make_row(2)]
    svg = render_svg(rows)
    assert svg.count(f'stroke="{stroke}"') == 1
