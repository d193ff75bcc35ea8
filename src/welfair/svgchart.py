"""Minimal self-contained SVG line charts for experiment output."""

from __future__ import annotations

import html
import math

_WIDTH, _HEIGHT = 720, 440  # pixels
_PALETTE = [
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
]


def _nice_ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return [0.0, 1.0]
    if hi <= lo:
        hi = lo + (abs(lo) if lo else 1.0)
    span = hi - lo
    raw = span / target
    mag = 10 ** math.floor(math.log10(raw))
    for mult in (1, 2, 5, 10):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-12 * span:
        ticks.append(round(t, 12))
        t += step
    return ticks or [lo, hi]


def line_chart(
    series: list[tuple[str, list[float], list[float]]],
    title: str,
    xlabel: str,
    ylabel: str,
) -> str:
    """Render labelled (x, y) polylines with axes, ticks and a legend."""
    ml, mr, mt, mb = 64, 150, 36, 48
    pw = _WIDTH - ml - mr
    ph = _HEIGHT - mt - mb
    xs = [x for _, sx, _ in series for x in sx]
    ys = [y for _, _, sy in series for y in sy if math.isfinite(y)]
    if not xs or not ys:
        xs, ys = [0.0, 1.0], [0.0, 1.0]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + (abs(y_lo) if y_lo else 1.0)
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    def px(x: float) -> float:
        return ml + pw * (x - x_lo) / (x_hi - x_lo)

    def py(y: float) -> float:
        return mt + ph * (1.0 - (y - y_lo) / (y_hi - y_lo))

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{ml + pw / 2:.1f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{html.escape(title)}</text>',
    ]
    axis = 'stroke="#333" stroke-width="1"'
    out.append(f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + ph}" {axis}/>')
    out.append(
        f'<line x1="{ml}" y1="{mt + ph}" x2="{ml + pw}" y2="{mt + ph}" {axis}/>'
    )
    for t in _nice_ticks(x_lo, x_hi):
        X = px(t)
        out.append(
            f'<line x1="{X:.1f}" y1="{mt + ph}" x2="{X:.1f}" '
            f'y2="{mt + ph + 5}" {axis}/>'
        )
        out.append(
            f'<text x="{X:.1f}" y="{mt + ph + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{t:g}</text>'
        )
    for t in _nice_ticks(y_lo, y_hi):
        Y = py(t)
        out.append(
            f'<line x1="{ml - 5}" y1="{Y:.1f}" x2="{ml}" y2="{Y:.1f}" {axis}/>'
        )
        out.append(
            f'<text x="{ml - 8}" y="{Y + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{t:g}</text>'
        )
    out.append(
        f'<text x="{ml + pw / 2:.1f}" y="{_HEIGHT - 10}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{html.escape(xlabel)}</text>'
    )
    out.append(
        f'<text x="16" y="{mt + ph / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {mt + ph / 2:.1f})">{html.escape(ylabel)}</text>'
    )
    for idx, (label, sx, sy) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = " ".join(
            f"{px(x):.2f},{py(y):.2f}"
            for x, y in zip(sx, sy)
            if math.isfinite(y)
        )
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="2"/>'
        )
        for x, y in zip(sx, sy):
            if math.isfinite(y):
                out.append(
                    f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="3" '
                    f'fill="{color}"/>'
                )
        ly = mt + 16 * idx + 8
        lx = ml + pw + 12
        out.append(
            f'<line x1="{lx}" y1="{ly}" x2="{lx + 20}" y2="{ly}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        out.append(
            f'<text x="{lx + 26}" y="{ly + 4}" font-family="sans-serif" '
            f'font-size="11">{html.escape(label)}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
