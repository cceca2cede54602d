"""Minimal self-contained SVG line/scatter plots.

Hand-rolled on purpose: the reports need a handful of deterministic charts
(eigenvalue ladders, norm curves, partial-sum curves) with zero runtime
dependencies, not a plotting stack.
"""

from __future__ import annotations

import math
from itertools import groupby

WIDTH = 640
HEIGHT = 420
MARGIN_LEFT = 70
MARGIN_RIGHT = 20
MARGIN_TOP = 40
MARGIN_BOTTOM = 50

COLORS = ["#1f6fb2", "#c23b22", "#2e8b57", "#8a2be2", "#b8860b", "#444444"]


def _transforms(xs, ys, logx, logy):
    fx = math.log10 if logx else (lambda v: v)
    fy = math.log10 if logy else (lambda v: v)
    txs = [fx(x) for x in xs]
    tys = [fy(y) for y in ys]
    x0, x1 = min(txs), max(txs)
    y0, y1 = min(tys), max(tys)
    if x1 - x0 < 1e-300:
        x0, x1 = x0 - 0.5, x1 + 0.5
    if y1 - y0 < 1e-300:
        y0, y1 = y0 - 0.5, y1 + 0.5
    pad_y = 0.05 * (y1 - y0)
    y0, y1 = y0 - pad_y, y1 + pad_y

    def to_px(x, y):
        px = MARGIN_LEFT + (fx(x) - x0) / (x1 - x0) * (WIDTH - MARGIN_LEFT - MARGIN_RIGHT)
        py = HEIGHT - MARGIN_BOTTOM - (fy(y) - y0) / (y1 - y0) * (HEIGHT - MARGIN_TOP - MARGIN_BOTTOM)
        return px, py

    return to_px, (x0, x1, y0, y1)


def _ticks(lo, hi, count=5):
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


def _fmt(v):
    return f"{v:.4g}"


def chart(series, title="", xlabel="", ylabel="", logx=False, logy=False,
          scatter=False) -> str:
    """Render named (x, y) series to an SVG string.

    ``series`` is a list of (label, xs, ys).  A log axis cannot draw
    nonpositive points: a curve breaks at each of them, every series keeps
    its legend entry, and a line below it says how many of its points were
    not drawn.  A run of one drawn point is a circle.  Deterministic output:
    same input, same bytes.
    """
    cleaned = []
    for label, xs, ys in series:
        pts = [(float(x), float(y)) if (not logx or x > 0) and (not logy or y > 0)
               else None for x, y in zip(xs, ys)]
        runs = [list(run) for drawn, run in
                groupby(pts, key=lambda p: p is not None) if drawn]
        cleaned.append((label, runs, pts.count(None), len(pts)))
    all_x = [x for _, runs, _, _ in cleaned for run in runs for x, _ in run]
    all_y = [y for _, runs, _, _ in cleaned for run in runs for _, y in run]
    if not all_x:
        # an empty frame over one unit of each axis: 0..1, or 1..10 when log
        all_x, all_y = ([1.0, 10.0] if log else [0.0, 1.0]
                        for log in (logx, logy))
    to_px, (x0, x1, y0, y1) = _transforms(all_x, all_y, logx, logy)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.1f}" y="22" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
    ]
    # axes frame
    parts.append(
        f'<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP}" '
        f'width="{WIDTH - MARGIN_LEFT - MARGIN_RIGHT}" '
        f'height="{HEIGHT - MARGIN_TOP - MARGIN_BOTTOM}" '
        f'fill="none" stroke="#333" stroke-width="1"/>')
    # ticks
    for tx in _ticks(x0, x1):
        px = MARGIN_LEFT + (tx - x0) / (x1 - x0) * (WIDTH - MARGIN_LEFT - MARGIN_RIGHT)
        label = _fmt(10 ** tx if logx else tx)
        parts.append(f'<line x1="{px:.1f}" y1="{HEIGHT - MARGIN_BOTTOM}" '
                     f'x2="{px:.1f}" y2="{HEIGHT - MARGIN_BOTTOM + 5}" stroke="#333"/>')
        parts.append(f'<text x="{px:.1f}" y="{HEIGHT - MARGIN_BOTTOM + 18}" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="11">{label}</text>')
    for ty in _ticks(y0, y1):
        py = HEIGHT - MARGIN_BOTTOM - (ty - y0) / (y1 - y0) * (HEIGHT - MARGIN_TOP - MARGIN_BOTTOM)
        label = _fmt(10 ** ty if logy else ty)
        parts.append(f'<line x1="{MARGIN_LEFT - 5}" y1="{py:.1f}" '
                     f'x2="{MARGIN_LEFT}" y2="{py:.1f}" stroke="#333"/>')
        parts.append(f'<text x="{MARGIN_LEFT - 8}" y="{py + 4:.1f}" '
                     f'text-anchor="end" font-family="sans-serif" '
                     f'font-size="11">{label}</text>')
    # axis labels
    parts.append(f'<text x="{(MARGIN_LEFT + WIDTH - MARGIN_RIGHT) / 2:.1f}" '
                 f'y="{HEIGHT - 12}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="12">{xlabel}</text>')
    parts.append(f'<text x="16" y="{(MARGIN_TOP + HEIGHT - MARGIN_BOTTOM) / 2:.1f}" '
                 f'text-anchor="middle" font-family="sans-serif" font-size="12" '
                 f'transform="rotate(-90 16 {(MARGIN_TOP + HEIGHT - MARGIN_BOTTOM) / 2:.1f})"'
                 f'>{ylabel}</text>')

    ly = MARGIN_TOP + 16
    for i, (label, runs, dropped, total) in enumerate(cleaned):
        color = COLORS[i % len(COLORS)]
        for run in runs:
            pixels = [to_px(x, y) for x, y in run]
            if scatter or len(pixels) == 1:
                for px, py in pixels:
                    parts.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="2.5" '
                                 f'fill="{color}"/>')
            else:
                path = " ".join(f"{px:.2f},{py:.2f}" for px, py in pixels)
                parts.append(f'<polyline points="{path}" fill="none" '
                             f'stroke="{color}" stroke-width="1.5"/>')
        # legend
        parts.append(f'<rect x="{WIDTH - 170}" y="{ly - 9}" width="10" height="10" '
                     f'fill="{color}"/>')
        parts.append(f'<text x="{WIDTH - 155}" y="{ly}" font-family="sans-serif" '
                     f'font-size="11">{label}</text>')
        if dropped:
            ly += 14
            parts.append(f'<text x="{WIDTH - MARGIN_RIGHT - 6}" y="{ly}" text-anchor="end" '
                         f'font-family="sans-serif" font-size="10">{dropped} of {total} '
                         f'points not drawn: a log axis needs values &gt; 0</text>')
        ly += 16

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
