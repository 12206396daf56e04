"""Plain-text rendering of tables and scatter charts.

The benchmark harness has no plotting stack, so figures are emitted as
aligned text tables plus compact ASCII scatter plots — enough to eyeball the
shapes the paper's charts show (who wins, by how much, where lines cross).
"""

from __future__ import annotations

import math

import numpy as np


def format_table(headers: list[str], rows: list[list], *,
                 float_fmt: str = "{:.4g}") -> str:
    """Render an aligned monospace table."""
    def fmt(cell) -> str:
        if isinstance(cell, float):
            if math.isnan(cell):
                return "-"
            return float_fmt.format(cell)
        return str(cell)

    str_rows = [[fmt(c) for c in row] for row in rows]
    widths = [
        max(len(headers[j]), *(len(r[j]) for r in str_rows)) if str_rows
        else len(headers[j])
        for j in range(len(headers))
    ]
    def line(cells):
        return " | ".join(c.ljust(w) for c, w in zip(cells, widths))

    out = [line(headers), "-+-".join("-" * w for w in widths)]
    out.extend(line(r) for r in str_rows)
    return "\n".join(out)


def _markers(names) -> dict[str, str]:
    """One distinct glyph per series name, in order: the name's first
    letter, else the first unused capital or digit of the name
    (``AutoSklearn1`` -> ``S`` next to ``AutoGluon``), else any unused
    character of the name, else a spare symbol."""
    used: set[str] = set()
    out: dict[str, str] = {}
    for name in names:
        rest = name[1:]
        candidates = ([name[:1].upper()]
                      + [c for c in rest if c.isupper() or c.isdigit()]
                      + [c.upper() for c in rest if c.isalnum()]
                      + list("*+#@%&$=~^?!"))
        marker = next((c for c in candidates if c and c not in used), "?")
        used.add(marker)
        out[name] = marker
    return out


def ascii_scatter(points: dict[str, list[tuple[float, float]]], *,
                  width: int = 68, height: int = 18,
                  xlabel: str = "x", ylabel: str = "y",
                  logx: bool = False, logy: bool = False) -> str:
    """Scatter named series onto a character grid (see :func:`_markers`)."""
    xs = [p[0] for series in points.values() for p in series]
    ys = [p[1] for series in points.values() for p in series]
    if not xs:
        return "(no data)"

    def tx(v, log):
        return math.log10(max(v, 1e-18)) if log else v

    x_lo, x_hi = min(tx(x, logx) for x in xs), max(tx(x, logx) for x in xs)
    y_lo, y_hi = min(tx(y, logy) for y in ys), max(tx(y, logy) for y in ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    grid = [[" "] * width for _ in range(height)]
    marker_of = _markers(points)
    for name, series in points.items():
        marker = marker_of[name]
        for x, y in series:
            cx = int((tx(x, logx) - x_lo) / x_span * (width - 1))
            cy = int((tx(y, logy) - y_lo) / y_span * (height - 1))
            grid[height - 1 - cy][cx] = marker
    lines = ["." + "-" * width + "."]
    lines += ["|" + "".join(row) + "|" for row in grid]
    lines.append("'" + "-" * width + "'")
    lo_lab = f"{10**x_lo:.3g}" if logx else f"{x_lo:.3g}"
    hi_lab = f"{10**x_hi:.3g}" if logx else f"{x_hi:.3g}"
    lines.append(f"x: {xlabel} [{lo_lab} .. {hi_lab}]"
                 f"{' (log)' if logx else ''}")
    lo_lab = f"{10**y_lo:.3g}" if logy else f"{y_lo:.3g}"
    hi_lab = f"{10**y_hi:.3g}" if logy else f"{y_hi:.3g}"
    lines.append(f"y: {ylabel} [{lo_lab} .. {hi_lab}]"
                 f"{' (log)' if logy else ''}")
    legend = ", ".join(f"{marker_of[name]}={name}" for name in points)
    lines.append(f"legend: {legend}")
    return "\n".join(lines)


def bootstrap_mean(values, n_boot: int = 200, random_state=0) -> tuple[float, float]:
    """Mean and bootstrap std, mirroring the paper's 'repeatedly sampling one
    result out of 10 runs with replacement' uncertainty estimate."""
    values = np.asarray(list(values), dtype=float)
    if values.size == 0:
        return float("nan"), float("nan")
    rng = np.random.default_rng(random_state)
    means = [
        float(np.mean(rng.choice(values, size=values.size, replace=True)))
        for _ in range(n_boot)
    ]
    return float(np.mean(means)), float(np.std(means))
