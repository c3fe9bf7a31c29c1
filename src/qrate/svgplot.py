"""Minimal self-contained SVG emitter: polylines, step traces, shaded spans,
and dashed vertical markers.  No plotting dependency; output is a small
deterministic text file.  Every plot has a title, two axis labels, spans
and markers, which :func:`render_svg` requires.  Each polyline keeps only
the points that its pixel columns draw (:func:`_m4`)."""

from __future__ import annotations

import math

import numpy as np

__all__ = ["Series", "render_svg"]

_W, _H = 960, 440
_ML, _MR, _MT, _MB = 70, 20, 34, 48


class Series:
    def __init__(self, name: str, color: str, xs, ys, step: bool = False):
        self.name = name
        self.color = color
        self.xs = np.asarray(xs, dtype=float)
        self.ys = np.asarray(ys, dtype=float)
        self.step = step


# the one number conversion of the SVG: coordinates, sizes and tick labels
_NUM_FORMAT = "%.6g"
# one polyline point, each coordinate as _fmt writes it
_POINT = f"{_NUM_FORMAT},{_NUM_FORMAT}"


def _fmt(v: float) -> str:
    return _NUM_FORMAT % v


def _points(xp: np.ndarray, yp: np.ndarray) -> str:
    """The ``points`` attribute of a polyline through (xp[i], yp[i])."""
    return " ".join([_POINT % p for p in zip(xp.tolist(), yp.tolist())])


def _m4(xp: np.ndarray, yp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The points of a polyline that draw it as the whole does (M4: Jugel et
    al., "M4: A Visualization-Oriented Time Series Data Aggregation", VLDB
    2014).

    Of each maximal run of consecutive points in one pixel column
    ``floor(xp)`` it keeps the first and the last point and the first at the
    run's lowest and at its highest ``yp``, in their order.  A non-finite
    point is a run of its own, so it is kept; a polyline of at most four
    points is returned whole.
    """
    n = xp.size
    if n <= 4:
        return xp, yp
    col = np.floor(xp)
    finite = np.isfinite(col) & np.isfinite(yp)
    start = np.ones(n, dtype=bool)
    start[1:] = (col[1:] != col[:-1]) | ~finite[1:] | ~finite[:-1]
    starts = np.flatnonzero(start)
    keep = start.copy()
    keep[starts[1:] - 1] = True
    keep[-1] = True
    lengths = np.diff(starts, append=n)
    for extreme in (np.minimum, np.maximum):
        at = np.flatnonzero(yp == np.repeat(extreme.reduceat(yp, starts), lengths))
        # the first of a run's points at its extreme: its run differs from the previous one's
        keep[at[np.diff(np.searchsorted(starts, at, side="right"), prepend=0) != 0]] = True
    return xp[keep], yp[keep]


def _ticks(lo: float, hi: float) -> list[float]:
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / 5
    mag = 10.0 ** math.floor(math.log10(raw))
    step = min((m for m in (1, 2, 5, 10) if m * mag >= raw), default=10) * mag
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-12 * step:
        ticks.append(t)
        t += step
    return ticks or [lo]


def render_svg(path, series: list[Series], title: str, xlabel: str, ylabel: str,
               spans: list[tuple[float, float]], vlines: list[float],
               ylog: bool = False) -> None:
    """Write one framed plot with the given traces, each of at least one point.

    ``spans`` are shaded x-ranges, ``vlines`` dashed vertical markers;
    ``ylog`` plots log10 of the values (clamped at 1e-16).
    """
    def ymap(v: np.ndarray) -> np.ndarray:
        return np.log10(np.maximum(np.asarray(v, dtype=float), 1e-16)) if ylog else v

    xs_all = np.concatenate([s.xs for s in series])
    ys_all = np.concatenate([ymap(s.ys) for s in series])
    x_lo, x_hi = float(xs_all.min()), float(xs_all.max())
    y_lo, y_hi = float(ys_all.min()), float(ys_all.max())
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    pw = _W - _ML - _MR
    ph = _H - _MT - _MB

    def px(x):
        return _ML + (np.asarray(x, dtype=float) - x_lo) / (x_hi - x_lo) * pw

    def py(y):
        return _MT + (y_hi - np.asarray(y, dtype=float)) / (y_hi - y_lo) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
        f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>',
    ]

    for a, b in spans:
        a, b = max(a, x_lo), min(b, x_hi)
        if b > a:
            parts.append(f'<rect x="{_fmt(float(px(a)))}" y="{_MT}" '
                         f'width="{_fmt(float(px(b) - px(a)))}" height="{ph}" '
                         f'fill="#d9d9d9"/>')

    for xv in vlines:
        if x_lo <= xv <= x_hi:
            parts.append(f'<line x1="{_fmt(float(px(xv)))}" y1="{_MT}" '
                         f'x2="{_fmt(float(px(xv)))}" y2="{_MT + ph}" '
                         f'stroke="black" stroke-dasharray="5,4"/>')

    for t in _ticks(x_lo, x_hi):
        xp = float(px(t))
        parts.append(f'<line x1="{_fmt(xp)}" y1="{_MT + ph}" x2="{_fmt(xp)}" '
                     f'y2="{_MT + ph + 5}" stroke="black"/>')
        parts.append(f'<text x="{_fmt(xp)}" y="{_MT + ph + 18}" '
                     f'text-anchor="middle">{_fmt(t)}</text>')
    for t in _ticks(y_lo, y_hi):
        yp = float(py(t))
        label = f"1e{_fmt(t)}" if ylog else _fmt(t)
        parts.append(f'<line x1="{_ML - 5}" y1="{_fmt(yp)}" x2="{_ML}" '
                     f'y2="{_fmt(yp)}" stroke="black"/>')
        parts.append(f'<text x="{_ML - 8}" y="{_fmt(yp + 4)}" '
                     f'text-anchor="end">{label}</text>')

    for s in series:
        xs, ys = s.xs, ymap(s.ys)
        if s.step:
            # hold each value until the next x
            sx = np.repeat(xs, 2)[1:]
            sy = np.repeat(ys, 2)[:-1]
            xs, ys = sx, sy
        parts.append(f'<polyline fill="none" stroke="{s.color}" '
                     f'stroke-width="1.2" points="{_points(*_m4(px(xs), py(ys)))}"/>')

    parts.append(f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" '
                 f'fill="none" stroke="black"/>')
    parts.append(f'<text x="{_W // 2}" y="20" text-anchor="middle" '
                 f'font-size="14">{title}</text>')
    parts.append(f'<text x="{_ML + pw // 2}" y="{_H - 12}" '
                 f'text-anchor="middle">{xlabel}</text>')
    parts.append(f'<text x="16" y="{_MT + ph // 2}" text-anchor="middle" '
                 f'transform="rotate(-90 16 {_MT + ph // 2})">{ylabel}</text>')
    for i, s in enumerate(series):
        yp = _MT + 14 + 16 * i
        parts.append(f'<line x1="{_W - 150}" y1="{yp - 4}" x2="{_W - 126}" '
                     f'y2="{yp - 4}" stroke="{s.color}" stroke-width="2"/>')
        parts.append(f'<text x="{_W - 120}" y="{yp}">{s.name}</text>')
    parts.append("</svg>")

    # part by part: joining them first would hold the whole document twice
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for part in parts:
            fh.write(part)
            fh.write("\n")
