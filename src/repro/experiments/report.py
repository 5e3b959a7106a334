"""Rendering helpers shared by the experiment reports."""

from __future__ import annotations

from typing import Dict, List, Sequence

__all__ = ["hms", "ms", "sec", "mib", "ascii_table", "ascii_gantt",
           "ascii_series"]


def hms(seconds: float) -> str:
    """58723 -> '16h 18min 43s' (the paper's style)."""
    seconds = float(seconds)
    h = int(seconds // 3600)
    m = int(seconds % 3600 // 60)
    s = seconds % 60
    return f"{h}h {m:02d}min {s:02.0f}s"


def ms(seconds: float) -> str:
    """0.0498 -> '49.8ms'; NaN (no sample) -> '-'."""
    return f"{seconds * 1e3:.1f}ms" if seconds == seconds else "-"


def sec(seconds: float) -> str:
    """1.234 -> '1.23s'; NaN (no sample) -> '-'."""
    return f"{seconds:.2f}s" if seconds == seconds else "-"


def mib(nbytes: int, digits: int) -> str:
    """Bytes as a MiB figure (no unit suffix; callers word their own)."""
    return f"{nbytes / 2 ** 20:.{digits}f}"


def ascii_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Minimal fixed-width table."""
    cols = [[str(h)] + [str(r[i]) for r in rows] for i, h in enumerate(headers)]
    widths = [max(len(cell) for cell in col) for col in cols]
    lines = []
    header = " | ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header)
    lines.append("-+-".join("-" * w for w in widths))
    for row in rows:
        lines.append(" | ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def ascii_gantt(chart: Dict[str, List[tuple]], width: int = 72) -> str:
    """Text Gantt chart: one row per SeD, '#' spans busy periods."""
    if not chart:
        return "(empty)"
    t_min = min(s for spans in chart.values() for s, _e, _r in spans)
    t_max = max(e for spans in chart.values() for _s, e, _r in spans)
    span = max(t_max - t_min, 1e-9)
    name_w = max(len(name) for name in chart)
    lines = []
    for name in sorted(chart):
        row = [" "] * width
        for start, end, _rid in chart[name]:
            i0 = int((start - t_min) / span * (width - 1))
            i1 = max(int((end - t_min) / span * (width - 1)), i0)
            for i in range(i0, i1 + 1):
                row[i] = "#"
        # mark job boundaries
        for start, _end, _rid in chart[name]:
            i0 = int((start - t_min) / span * (width - 1))
            row[i0] = "|"
        lines.append(f"{name.ljust(name_w)} {''.join(row)}")
    lines.append(f"{''.ljust(name_w)} 0{'h'.rjust(width - 8)}"
                 f"{(t_max - t_min) / 3600:6.1f}h")
    return "\n".join(lines)


def ascii_series(values: Sequence[float], width: int = 60, height: int = 12,
                 log: bool = False, label: str = "") -> str:
    """Tiny scatter/line plot of a 1-d series (request index on x)."""
    import math

    vals = [float(v) for v in values]
    if not vals:
        return "(empty series)"
    if log:
        vals = [math.log10(max(v, 1e-12)) for v in vals]
    lo, hi = min(vals), max(vals)
    span = max(hi - lo, 1e-12)
    grid = [[" "] * width for _ in range(height)]
    n = len(vals)
    for i, v in enumerate(vals):
        x = int(i / max(n - 1, 1) * (width - 1))
        y = int((v - lo) / span * (height - 1))
        grid[height - 1 - y][x] = "*"
    lines = []
    for j, row in enumerate(grid):
        edge = hi - j * span / (height - 1)
        tick = f"1e{edge:5.2f}" if log else f"{edge:8.3g}"
        lines.append(f"{tick} |{''.join(row)}")
    lines.append(" " * 9 + "+" + "-" * width)
    lines.append(" " * 10 + f"request index 0..{n - 1}   {label}")
    return "\n".join(lines)
