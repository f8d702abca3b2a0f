"""SVG per-round timelines: rounds x phases with a message-volume overlay.

Renders through the existing :mod:`repro.viz.svg` canvas (the repo has
no plotting dependency): every span carrying a ``round`` attribute
becomes a bar in its phase's row, bar height proportional to the span's
wall time within that phase; spans that also carry message counts (the
simulator's round spans) contribute a message-volume polyline across the
top band.  The output opens in any browser next to the Figure 2/7
snapshots.

:func:`render_lane_timeline` is the pooled view: one horizontal lane
per ``proc``-tagged pool task from the aligned v2 span payloads, busy
intervals drawn at their true aligned times.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.obs.tracer import Span
from repro.viz.svg import SvgCanvas

#: attribute names that count message traffic in a round span
_MESSAGE_ATTRS = ("delivered", "messages", "sent")

_ROW_HEIGHT = 1.0
_BAR_FILL = 0.82
_PHASE_COLORS = (
    "#1f77b4",
    "#ff7f0e",
    "#2ca02c",
    "#d62728",
    "#9467bd",
    "#8c564b",
    "#17becf",
)


def _message_count(attrs: Dict[str, Any]) -> Optional[float]:
    for key in _MESSAGE_ATTRS:
        value = attrs.get(key)
        if isinstance(value, (int, float)):
            return float(value)
    return None


def render_timeline(spans: Sequence[Span], title: str = "") -> SvgCanvas:
    """Draw the rounds-x-phases grid for every span with a ``round`` attr.

    Rows are phases in first-appearance order; columns are round
    numbers.  Bars are normalised per row (the tallest bar in a row is
    the row's slowest round), so phases of very different cost stay
    readable side by side.  Rounds with recorded message counts add an
    overlay band at the top.
    """
    canvas = SvgCanvas(width=960, height=480)
    rounds: List[int] = []
    phases: List[str] = []
    cells: Dict[str, Dict[int, float]] = {}
    traffic: Dict[int, float] = {}
    for span in spans:
        rnd = span.attrs.get("round")
        if not isinstance(rnd, int):
            continue
        if rnd not in rounds:
            rounds.append(rnd)
        row = cells.setdefault(span.name, {})
        if span.name not in phases:
            phases.append(span.name)
        row[rnd] = row.get(rnd, 0.0) + span.wall_s
        count = _message_count(span.attrs)
        if count is not None:
            traffic[rnd] = traffic.get(rnd, 0.0) + count
    if not phases:
        canvas.label((0.0, 0.0), "timeline: no round-attributed spans")
        return canvas

    rounds.sort()
    column = {rnd: i for i, rnd in enumerate(rounds)}
    width = float(len(rounds))
    n_rows = len(phases)
    overlay_rows = 1.5 if traffic else 0.0
    top = (n_rows + overlay_rows) * _ROW_HEIGHT

    # Row baselines and per-row-normalised bars.
    for i, phase in enumerate(phases):
        base = (n_rows - 1 - i) * _ROW_HEIGHT
        color = _PHASE_COLORS[i % len(_PHASE_COLORS)]
        canvas.line((0.0, base), (width, base), color="#dddddd", width=0.5)
        row = cells[phase]
        peak = max(row.values()) or 1.0
        for rnd, wall in sorted(row.items()):
            x = float(column[rnd])
            height = _BAR_FILL * _ROW_HEIGHT * (wall / peak if peak else 0.0)
            canvas.rect((x + 0.08, base), 0.84, max(height, 0.02), fill=color)
        canvas.label(
            (width + 0.15, base + 0.25 * _ROW_HEIGHT),
            f"{phase} (peak {peak:.4f}s)",
            size_px=11,
        )

    # Message-volume overlay band above the phase rows.
    if traffic:
        base = n_rows * _ROW_HEIGHT + 0.25
        peak = max(traffic.values()) or 1.0
        canvas.line((0.0, base), (width, base), color="#bbbbbb", width=0.5)
        previous = None
        for rnd in rounds:
            count = traffic.get(rnd)
            if count is None:
                previous = None
                continue
            x = column[rnd] + 0.5
            y = base + _ROW_HEIGHT * (count / peak)
            if previous is not None:
                canvas.line(previous, (x, y), color="#555555", width=1.2)
            canvas.circle((x, y), radius_px=2.5, fill="#555555")
            previous = (x, y)
        canvas.label(
            (width + 0.15, base + 0.25),
            f"messages/round (peak {peak:.0f})",
            size_px=11,
        )

    # Round axis ticks (thinned to at most ~12 labels).
    step = max(1, len(rounds) // 12)
    for i, rnd in enumerate(rounds):
        if i % step == 0:
            canvas.label((i + 0.3, -0.45), str(rnd), size_px=10)
    canvas.label((0.0, -0.9), "round", size_px=11)
    if title:
        canvas.label((0.0, top + 0.4), title, size_px=14)
    return canvas


# ----------------------------------------------------------------------
# Multi-lane (per-process) timeline
# ----------------------------------------------------------------------
_BUSY_COALESCED = "#1f77b4"
_LANE_GAP = 1.4
_LANE_BAR = 1.0
#: above this many drawable spans a lane coalesces them into busy blocks
_COALESCE_LIMIT = 400


def _coalesce(intervals: List[tuple], gap: float) -> List[tuple]:
    """Merge ``(start, end)`` intervals closer than ``gap`` apart."""
    merged: List[tuple] = []
    for start, end in sorted(intervals):
        if merged and start - merged[-1][1] <= gap:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def render_lane_timeline(spans: Sequence[Span], title: str = "") -> SvgCanvas:
    """One lane per ``proc``-tagged process (a pool task) on the aligned
    timeline, each drawing that process's top-level busy intervals.
    """
    canvas = SvgCanvas(width=1200, height=520)

    lanes: Dict[str, List[Span]] = {}
    for span in spans:
        proc = span.attrs.get("proc")
        if proc is not None:
            lanes.setdefault(str(proc), []).append(span)
    if not lanes:
        canvas.label((0.0, 0.0), "lane timeline: no distributed spans")
        return canvas

    lane_names = sorted(lanes)
    n_lanes = len(lane_names)
    extent = max(
        span.start_s + span.wall_s for entries in lanes.values() for span in entries
    ) or 1.0

    for index, lane in enumerate(lane_names):
        # The first lane on top; the y-axis points up.
        base = (n_lanes - 1 - index) * _LANE_GAP
        canvas.line((0.0, base), (extent, base), color="#bbbbbb", width=0.6)
        canvas.label((extent * 1.01, base + 0.2), lane, size_px=11)
        entries = lanes[lane]
        # Keep only each process's top-level spans; nested detail stays
        # out of the lane so busy intervals read as solid blocks.
        min_depth = min(span.depth for span in entries)
        entries = [span for span in entries if span.depth == min_depth]
        if len(entries) > _COALESCE_LIMIT:
            blocks = _coalesce(
                [(s.start_s, s.start_s + s.wall_s) for s in entries],
                extent / 2000.0,
            )
            for start, end in blocks:
                canvas.rect(
                    (start, base),
                    max(end - start, extent * 5e-4),
                    _LANE_BAR * 0.8,
                    fill=_BUSY_COALESCED,
                )
            continue
        for span in entries:
            # Stable (hash-seed independent) palette assignment.
            color = _PHASE_COLORS[
                sum(ord(c) for c in span.name) % len(_PHASE_COLORS)
            ]
            canvas.rect(
                (span.start_s, base),
                max(span.wall_s, extent * 5e-4),
                _LANE_BAR * 0.8,
                fill=color,
            )

    canvas.label((0.0, -1.3), "aligned wall-clock seconds", size_px=11)
    if title:
        top = (n_lanes - 1) * _LANE_GAP + _LANE_BAR
        canvas.label((0.0, top + 0.6), title, size_px=14)
    return canvas
