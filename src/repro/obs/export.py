"""Span exporters: Chrome-trace/Perfetto JSON and a matplotlib-free SVG Gantt.

``chrome_trace`` emits the Trace Event Format every Chromium-family
profiler UI (``chrome://tracing``, Perfetto, Speedscope) loads directly:
one complete (``"X"``) event per closed span, one instant (``"i"``) event
per mark, with tracks mapped to named threads.  Simulated seconds become
microseconds, the unit those UIs assume.

``svg_gantt`` renders the paper's Figure 4 (left) — one row per SeD, one
rectangle per solve span — as a standalone SVG string with no plotting
dependency, so ``python -m repro figure4 --gantt-svg out.svg`` works on a
bare CI runner.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from .spans import SpanStore

__all__ = ["chrome_trace", "write_chrome_trace", "svg_gantt"]


def chrome_trace(store: SpanStore, process_name: str = "repro") -> dict:
    """Fold a span store into a Chrome Trace Event Format document."""
    tids: Dict[str, int] = {}
    process_meta = {
        "ph": "M",
        "pid": 0,
        "tid": 0,
        "name": "process_name",
        "args": {"name": process_name},
    }
    events: List[dict] = [process_meta]

    def tid(track: str) -> int:
        t = tids.get(track)
        if t is None:
            t = tids[track] = len(tids) + 1
            track_meta = {
                "ph": "M",
                "pid": 0,
                "tid": t,
                "name": "thread_name",
                "args": {"name": track},
            }
            events.append(track_meta)
        return t

    for span in store.spans:
        end = span.end if span.end is not None else span.start
        args = dict(span.attrs)
        if span.status not in (None, "ok"):
            args["status"] = span.status
        event = {
            "ph": "X",
            "pid": 0,
            "tid": tid(span.track),
            "name": span.name,
            "cat": span.category,
            "ts": span.start * 1e6,
            "dur": (end - span.start) * 1e6,
            "args": args,
        }
        events.append(event)
    for mk in store.marks:
        event = {
            "ph": "i",
            "pid": 0,
            "tid": tid(mk.track),
            "s": "t",
            "name": mk.name,
            "cat": "mark",
            "ts": mk.time * 1e6,
            "args": dict(mk.attrs),
        }
        events.append(event)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(store: SpanStore, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(chrome_trace(store), fh, indent=1)


#: Row height / paddings of the SVG Gantt, in px.
_ROW_H = 22
_PAD_X = 8
_LABEL_W = 170
_AXIS_H = 26

_STATUS_FILL = {"ok": "#4878cf", None: "#4878cf"}
_ABNORMAL_FILL = "#d65f5f"


def _fmt_hours(seconds: float) -> str:
    return f"{seconds / 3600.0:.1f}h"


def svg_gantt(
    chart: Dict[str, List[Tuple[float, Optional[float], object]]],
    width: int = 900,
    title: str = "per-SeD solve timeline",
) -> str:
    """Render ``{row: [(start, end, request_id), ...]}`` as an SVG string.

    Rows with ``end is None`` (attempts that never finished) are drawn as
    thin abnormal markers so a degraded campaign's losses stay visible.
    """
    rows = sorted(chart)
    spans = [(s, e) for bars in chart.values() for s, e, _ in bars]
    t_min = min((s for s, _e in spans), default=0.0)
    t_max = max((e for _s, e in spans if e is not None), default=t_min)
    t_max = max(t_max, max((s for s, _e in spans), default=t_min))
    span_w = max(t_max - t_min, 1e-9)
    plot_w = width - _LABEL_W - 2 * _PAD_X
    height = _AXIS_H + _ROW_H * max(len(rows), 1) + 2 * _PAD_X

    def x(t: float) -> float:
        return _LABEL_W + _PAD_X + (t - t_min) / span_w * plot_w

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" font-family="monospace" font-size="12">',
        f"<title>{title}</title>",
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for i, row in enumerate(rows):
        y = _PAD_X + i * _ROW_H
        label_y = y + _ROW_H * 0.7
        parts.append(f'<text x="{_PAD_X}" y="{label_y:.1f}" fill="#333">{row}</text>')
        for start, end, rid in chart[row]:
            if end is None:
                parts.append(
                    f'<rect x="{x(start):.2f}" y="{y + 3}" width="2" '
                    f'height="{_ROW_H - 6}" fill="{_ABNORMAL_FILL}">'
                    f"<title>request {rid}: aborted</title></rect>"
                )
                continue
            w = max(x(end) - x(start), 0.5)
            parts.append(
                f'<rect x="{x(start):.2f}" y="{y + 3}" width="{w:.2f}" '
                f'height="{_ROW_H - 6}" fill="{_STATUS_FILL["ok"]}" '
                f'stroke="white" stroke-width="0.5">'
                f"<title>request {rid}: {start:.1f}s - {end:.1f}s</title>"
                f"</rect>"
            )
    axis_y = _PAD_X + len(rows) * _ROW_H + 14
    parts.append(
        f'<line x1="{x(t_min):.1f}" y1="{axis_y - 10}" '
        f'x2="{x(t_max):.1f}" y2="{axis_y - 10}" stroke="#999"/>'
    )
    parts.append(f'<text x="{x(t_min):.1f}" y="{axis_y + 6}" fill="#666">0h</text>')
    parts.append(
        f'<text x="{x(t_max) - 40:.1f}" y="{axis_y + 6}" '
        f'fill="#666">{_fmt_hours(t_max - t_min)}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts)
