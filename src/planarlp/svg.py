"""Deterministic SVG rendering of a region with its stable cone.

The output is assembled from f-strings with fixed float formatting, so the
same report always produces byte-identical markup.
"""

from __future__ import annotations

import math

from .lp_model import FeasibleRegion
from .sensitivity import SensitivityReport

_W, _H = 800.0, 600.0
_SECTOR_SEGMENTS = 48


def _f(x: float) -> str:
    # Fixed two-decimal formatting; normalize -0.00 to 0.00.
    s = f"{x:.2f}"
    return "0.00" if s == "-0.00" else s


def render_svg(region: FeasibleRegion, report: SensitivityReport) -> str:
    pts = region.points()
    # Past 2**1020 the padded extent, the ray length or a ray's end can
    # overflow.  Scaling by a power of two is exact, so drawing from scaled
    # coordinates gives the same pixels; labels keep the real ones.
    k = 2.0**-4 if max(max(abs(p.x1), abs(p.x2)) for p in pts) >= 2.0**1020 else 1.0
    xs = [k * p.x1 for p in pts]
    ys = [k * p.x2 for p in pts]
    minx, maxx = min(xs), max(xs)
    miny, maxy = min(ys), max(ys)
    w = max(maxx - minx, 1e-9)
    h = max(maxy - miny, 1e-9)
    minx -= 0.1 * w
    maxx += 0.1 * w
    miny -= 0.1 * h
    maxy += 0.1 * h
    w, h = maxx - minx, maxy - miny
    scale = min(_W / w, _H / h)
    ox = 0.5 * (_W - scale * w)
    oy = 0.5 * (_H - scale * h)

    def to_px(x: float, y: float) -> tuple[float, float]:
        return ox + (x - minx) * scale, oy + (maxy - y) * scale

    x0 = report.optimal_vertex.point.scaled(k)
    ray_len = 0.35 * math.hypot(w, h)
    lo, hi = report.interval.lo, report.interval.hi

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_f(_W)}" height="{_f(_H)}" viewBox="0 0 {_f(_W)} {_f(_H)}">',
        f'<rect width="{_f(_W)}" height="{_f(_H)}" fill="#ffffff"/>',
    ]

    poly = " ".join(f"{_f(px)},{_f(py)}" for px, py in map(to_px, xs, ys))
    parts.append(
        f'<polygon class="region" points="{poly}" fill="#dbe9f6" '
        f'stroke="#2b6cb0" stroke-width="2"/>'
    )

    # Stable-cone sector: a filled fan from x0 spanning (lo, hi).
    cx, cy = to_px(x0.x1, x0.x2)
    fan = [f"M {_f(cx)} {_f(cy)}"]
    for k in range(_SECTOR_SEGMENTS + 1):
        a = lo + (hi - lo) * k / _SECTOR_SEGMENTS
        px, py = to_px(
            x0.x1 + 0.6 * ray_len * math.cos(a), x0.x2 + 0.6 * ray_len * math.sin(a)
        )
        fan.append(f"L {_f(px)} {_f(py)}")
    fan.append("Z")
    parts.append(
        f'<path class="cone" d="{" ".join(fan)}" fill="#f6ad55" '
        f'fill-opacity="0.5" stroke="none"/>'
    )
    for a in (lo, hi):
        px, py = to_px(
            x0.x1 + ray_len * math.cos(a), x0.x2 + ray_len * math.sin(a)
        )
        parts.append(
            f'<line class="cone-ray" x1="{_f(cx)}" y1="{_f(cy)}" '
            f'x2="{_f(px)}" y2="{_f(py)}" stroke="#c05621" '
            f'stroke-width="1.5" stroke-dasharray="6 4"/>'
        )

    # Current gradient arrow from x0.
    phi = report.objective_polar.phi
    gx, gy = to_px(
        x0.x1 + 0.8 * ray_len * math.cos(phi), x0.x2 + 0.8 * ray_len * math.sin(phi)
    )
    parts.append(
        f'<line class="gradient" x1="{_f(cx)}" y1="{_f(cy)}" '
        f'x2="{_f(gx)}" y2="{_f(gy)}" stroke="#2f855a" stroke-width="2.5"/>'
    )
    head = 10.0
    ang = math.atan2(gy - cy, gx - cx)
    h1 = (gx - head * math.cos(ang - 0.4), gy - head * math.sin(ang - 0.4))
    h2 = (gx - head * math.cos(ang + 0.4), gy - head * math.sin(ang + 0.4))
    parts.append(
        f'<polygon class="gradient-head" points="{_f(gx)},{_f(gy)} '
        f'{_f(h1[0])},{_f(h1[1])} {_f(h2[0])},{_f(h2[1])}" fill="#2f855a"/>'
    )

    opt_idx = region.index_of(report.optimal_vertex)
    for i, (p, x, y) in enumerate(zip(pts, xs, ys)):
        px, py = to_px(x, y)
        parts.append(
            f'<circle class="vertex" cx="{_f(px)}" cy="{_f(py)}" r="4" '
            f'fill="#2b6cb0"/>'
        )
        if i == opt_idx:
            parts.append(
                f'<circle class="optimum" cx="{_f(px)}" cy="{_f(py)}" r="7" '
                f'fill="none" stroke="#c53030" stroke-width="2"/>'
            )
        parts.append(
            f'<text class="label" x="{_f(px + 7)}" y="{_f(py - 7)}" '
            f'font-family="monospace" font-size="12" fill="#1a202c">'
            f"({p.x1:.6g}, {p.x2:.6g})</text>"
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_svg(region: FeasibleRegion, report: SensitivityReport, path) -> None:
    """Write the rendering to path (UTF-8, deterministic bytes)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_svg(region, report))
