"""Minimal self-contained SVG line charts.

One function, one chart kind: overlaid polylines on a framed linear-linear
plot with tick labels, a title, and a legend. Output is deterministic: the
same series produce byte-identical files. Callers wanting log axes pass
pre-transformed values and say so in the axis label.
"""

import math
from html import escape

from .errors import ValidationError

PALETTE = ("#1f6feb", "#d73a49", "#2da44e", "#bf8700", "#8250df", "#57606a")

_WIDTH = 720
_HEIGHT = 480
_MARGIN_LEFT = 64.0
_MARGIN_RIGHT = 18.0
_MARGIN_TOP = 36.0
_MARGIN_BOTTOM = 46.0


def _finite_pairs(xs, ys):
    pairs = [
        (float(x), float(y))
        for x, y in zip(xs, ys)
        if math.isfinite(float(x)) and math.isfinite(float(y))
    ]
    return pairs


def _span(lo, hi):
    if hi > lo:
        pad = 0.04 * (hi - lo)
        return lo - pad, hi + pad
    pad = max(abs(lo), 1.0) * 0.1
    return lo - pad, hi + pad


def _fmt(v):
    return f"{v:.6g}"


def line_chart(path, series, title, x_label, y_label):
    """Write a _WIDTH x _HEIGHT SVG of one or more (label, xs, ys) polyline series.

    Non-finite points are dropped per series; a series may also be a scatter
    of a single point (drawn as a short tick). Raises ValidationError when no
    series contributes any finite point.
    """
    if not series:
        raise ValidationError("line_chart needs at least one series")
    cleaned = []
    for label, xs, ys in series:
        if len(xs) != len(ys):
            raise ValidationError(f"series {label!r}: x/y length mismatch")
        pts = _finite_pairs(xs, ys)
        if pts:
            cleaned.append((str(label), pts))
    if not cleaned:
        raise ValidationError("line_chart: no finite data points in any series")

    all_x = [p[0] for _, pts in cleaned for p in pts]
    all_y = [p[1] for _, pts in cleaned for p in pts]
    x_lo, x_hi = _span(min(all_x), max(all_x))
    y_lo, y_hi = _span(min(all_y), max(all_y))

    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def px(x):
        return _MARGIN_LEFT + plot_w * (x - x_lo) / (x_hi - x_lo)

    def py(y):
        return _MARGIN_TOP + plot_h * (1.0 - (y - y_lo) / (y_hi - y_lo))

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="monospace" font-size="12">'
    )
    out.append(f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>')
    out.append(
        f'<rect x="{_MARGIN_LEFT:.2f}" y="{_MARGIN_TOP:.2f}" width="{plot_w:.2f}" '
        f'height="{plot_h:.2f}" fill="none" stroke="#24292f" stroke-width="1"/>'
    )
    out.append(
        f'<text x="{_WIDTH / 2:.2f}" y="22" text-anchor="middle" '
        f'font-size="14">{escape(title)}</text>'
    )

    n_ticks = 5
    for i in range(n_ticks):
        f = i / (n_ticks - 1)
        xv = x_lo + f * (x_hi - x_lo)
        yv = y_lo + f * (y_hi - y_lo)
        xp, yp = px(xv), py(yv)
        out.append(
            f'<line x1="{xp:.2f}" y1="{_MARGIN_TOP + plot_h:.2f}" x2="{xp:.2f}" '
            f'y2="{_MARGIN_TOP + plot_h + 5:.2f}" stroke="#24292f"/>'
        )
        out.append(
            f'<text x="{xp:.2f}" y="{_MARGIN_TOP + plot_h + 18:.2f}" '
            f'text-anchor="middle">{_fmt(xv)}</text>'
        )
        out.append(
            f'<line x1="{_MARGIN_LEFT - 5:.2f}" y1="{yp:.2f}" x2="{_MARGIN_LEFT:.2f}" '
            f'y2="{yp:.2f}" stroke="#24292f"/>'
        )
        out.append(
            f'<text x="{_MARGIN_LEFT - 8:.2f}" y="{yp + 4:.2f}" '
            f'text-anchor="end">{_fmt(yv)}</text>'
        )
    out.append(
        f'<text x="{_MARGIN_LEFT + plot_w / 2:.2f}" y="{_HEIGHT - 10:.2f}" '
        f'text-anchor="middle">{escape(x_label)}</text>'
    )
    yx, yy = 16.0, _MARGIN_TOP + plot_h / 2
    out.append(
        f'<text x="{yx:.2f}" y="{yy:.2f}" text-anchor="middle" '
        f'transform="rotate(-90 {yx:.2f} {yy:.2f})">{escape(y_label)}</text>'
    )

    for idx, (label, pts) in enumerate(cleaned):
        color = PALETTE[idx % len(PALETTE)]
        if len(pts) == 1:
            x, y = pts[0]
            out.append(
                f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="3" fill="{color}"/>'
            )
        else:
            coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in pts)
            out.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" '
                f'stroke-width="1.5"/>'
            )
        ly = _MARGIN_TOP + 16 + 16 * idx
        lx = _MARGIN_LEFT + plot_w - 10
        out.append(
            f'<line x1="{lx - 24:.2f}" y1="{ly - 4:.2f}" x2="{lx - 6:.2f}" '
            f'y2="{ly - 4:.2f}" stroke="{color}" stroke-width="2"/>'
        )
        out.append(
            f'<text x="{lx - 28:.2f}" y="{ly:.2f}" text-anchor="end">'
            f"{escape(label)}</text>"
        )

    out.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")
