"""Hand-emitted SVG 1.1 figures.

No plotting dependencies: elements are accumulated as data, auto-scaled to
a ~600-unit box at render time, and written with fixed two-decimal
coordinates so that repeated runs produce byte-identical files.  The
viewBox is the drawing's bounding box plus a 5% margin.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence

from . import curves as cv
from .closed_form import _linspace
from .errors import BadParameter
from .surfaces import pseudosphere_patch, sphere_patch
from .vec import Vec3

_TARGET = 600.0

Point = tuple[float, float]


def _fmt(v: float) -> str:
    s = f"{v:.2f}"
    return "0.00" if s == "-0.00" else s


class Canvas:
    """Deferred-layout SVG canvas in data coordinates (y up)."""

    def __init__(self) -> None:
        self._polylines: list[tuple[list[Point], str, float]] = []
        self._texts: list[tuple[float, float, str, int, str, str]] = []
        self._circles: list[tuple[float, float, float, str]] = []

    def polyline(self, pts: Sequence[Point], stroke: str = "#333333", width: float = 1.3) -> None:
        if len(pts) >= 2:
            self._polylines.append(([tuple(p) for p in pts], stroke, width))

    def line(self, a: Point, b: Point, stroke: str = "#333333", width: float = 1.0) -> None:
        self.polyline([a, b], stroke, width)

    def circle(self, center: Point, radius_px: float, fill: str = "#333333") -> None:
        self._circles.append((center[0], center[1], radius_px, fill))

    def text(
        self,
        pos: Point,
        s: str,
        size: int = 12,
        anchor: str = "middle",
        fill: str = "#333333",
    ) -> None:
        self._texts.append((pos[0], pos[1], s, size, anchor, fill))

    def render(self) -> str:
        xs: list[float] = []
        ys: list[float] = []
        for pts, *_ in self._polylines:
            xs.extend(p[0] for p in pts)
            ys.extend(p[1] for p in pts)
        for x, y, *_ in self._circles:
            xs.append(x)
            ys.append(y)
        for x, y, *_ in self._texts:
            xs.append(x)
            ys.append(y)
        if not xs:
            xs = ys = [0.0, 1.0]
        x0, x1 = min(xs), max(xs)
        y0, y1 = min(ys), max(ys)
        span = max(x1 - x0, y1 - y0, 1e-9)
        scale = _TARGET / span

        def tx(x: float) -> float:
            return (x - x0) * scale

        def ty(y: float) -> float:
            return (y1 - y) * scale

        width = (x1 - x0) * scale
        height = (y1 - y0) * scale
        margin = 0.05 * _TARGET
        vb = (-margin, -margin, width + 2.0 * margin, height + 2.0 * margin)
        out = [
            '<?xml version="1.0" encoding="UTF-8"?>',
            (
                '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
                f'width="{_fmt(vb[2])}" height="{_fmt(vb[3])}" '
                f'viewBox="{_fmt(vb[0])} {_fmt(vb[1])} {_fmt(vb[2])} {_fmt(vb[3])}">'
            ),
        ]
        for pts, stroke, w in self._polylines:
            coords = " ".join(f"{_fmt(tx(x))},{_fmt(ty(y))}" for x, y in pts)
            out.append(
                f'<polyline fill="none" stroke="{stroke}" stroke-width="{_fmt(w)}" '
                f'points="{coords}"/>'
            )
        for x, y, r, fill in self._circles:
            out.append(
                f'<circle cx="{_fmt(tx(x))}" cy="{_fmt(ty(y))}" r="{_fmt(r)}" fill="{fill}"/>'
            )
        for x, y, s, size, anchor, fill in self._texts:
            out.append(
                f'<text x="{_fmt(tx(x))}" y="{_fmt(ty(y))}" font-family="sans-serif" '
                f'font-size="{size}" text-anchor="{anchor}" fill="{fill}">{s}</text>'
            )
        out.append("</svg>")
        return "\n".join(out) + "\n"


def _project(azimuth: float, elevation: float) -> Callable[[Vec3], Point]:
    sa, ca = math.sin(azimuth), math.cos(azimuth)
    se, ce = math.sin(elevation), math.cos(elevation)

    def proj(p: Vec3) -> Point:
        x, y, z = p.x, p.y, p.z
        return (y * ca - x * sa, z * ce - (x * ca + y * sa) * se)

    return proj


def _wireframe(patch, nu: int, vs, stroke: str, curve=None, ts=()) -> str:
    """The figure of a surface of revolution seen from azimuth 0.55 and
    elevation 0.32: its meridians at nu longitudes over a full turn and its
    parallels at vs in stroke, and the points of curve at ts in red."""
    canvas = Canvas()
    proj = _project(0.55, 0.32)
    us = _linspace(0.0, 2.0 * math.pi, nu)
    for u in us:
        canvas.polyline([proj(patch.eval(u, v)) for v in vs], stroke=stroke, width=0.8)
    for v in vs:
        canvas.polyline([proj(patch.eval(u, v)) for u in us], stroke=stroke, width=0.8)
    if curve is not None:
        canvas.polyline([proj(curve.point(t)) for t in ts], stroke="#d62728", width=1.6)
    return canvas.render()


def figure_spiral() -> str:
    canvas = Canvas()
    spiral = cv.plane_log_spiral(0.14)
    pts = [spiral.point(t)[:2] for t in _linspace(0.0, 12.0 * math.pi, 900)]
    canvas.line((-1.1, 0.0), (1.1, 0.0), stroke="#dddddd")
    canvas.line((0.0, -1.1), (0.0, 1.1), stroke="#dddddd")
    canvas.polyline(pts, stroke="#1f77b4", width=1.6)
    canvas.circle((0.0, 0.0), 2.5, fill="#1f77b4")
    return canvas.render()


def figure_pseudosphere() -> str:
    return _wireframe(pseudosphere_patch(1.0), 17, _linspace(0.16, math.pi / 2.0, 24), "#888888")


def figure_sphere_loxodrome() -> str:
    vs = _linspace(0.08, math.pi - 0.08, 18)
    ts = _linspace(0.04, math.pi / 2.0 - 0.04, 1400)
    return _wireframe(sphere_patch(1.0), 13, vs, "#bbbbbb", cv.sphere_loxodrome(1.0, 6.0), ts)


def figure_pseudosphere_loxodrome() -> str:
    vs, ts = _linspace(0.16, math.pi / 2.0, 24), _linspace(0.12, math.pi / 2.0, 1200)
    curve = cv.pseudosphere_loxodrome(1.0, math.pi / 6.0)
    return _wireframe(pseudosphere_patch(1.0), 17, vs, "#bbbbbb", curve, ts)


def _iso_radius(K: float, level: float) -> float | None:
    """Radius where the circle curvature c(K, r) equals `level` > 0, or None.

    c is inverted in closed form: atan(sqrt(K)/L)/sqrt(K), 1/L, or
    atanh(sqrt(-K)/L)/sqrt(-K).  For K < 0 the circle curvature stays
    above sqrt(-K), so no radius exists when sqrt(-K) >= L.
    """
    if K > 0.0:
        s = math.sqrt(K)
        return math.atan(s / level) / s
    if K == 0.0:
        return 1.0 / level
    s = math.sqrt(-K)
    if s >= level:
        return None
    return math.atanh(s / level) / s


def figure_k_surface() -> str:
    canvas = Canvas()
    k_lo, k_hi, r_cap = -4.0, 4.0, 2.4
    x_scale, y_scale = 60.0, 180.0

    def place(K: float, r: float) -> Point:
        return (K * x_scale, r * y_scale)

    canvas.line(place(k_lo, 0.0), place(k_hi, 0.0), stroke="#444444")
    canvas.line(place(0.0, 0.0), place(0.0, r_cap), stroke="#dddddd")
    for K in (-4, -2, 0, 2, 4):
        p = place(float(K), 0.0)
        canvas.line(p, (p[0], p[1] - 6.0), stroke="#444444")
        canvas.text((p[0], p[1] - 24.0), str(K))
    canvas.text(place(k_hi, -0.26), "K", anchor="end")
    for r_tick in (1.0, 2.0):
        p = place(k_lo, r_tick)
        canvas.line(p, (p[0] - 6.0, p[1]), stroke="#444444")
        canvas.text((p[0] - 20.0, p[1] - 4.0 / y_scale), f"{r_tick:g}", anchor="end")
    canvas.text(place(k_lo - 0.55, r_cap), "r")

    palette = ("#1f77b4", "#2ca02c", "#ff7f0e", "#d62728", "#9467bd")
    levels = (0.8, 1.2, 2.0, 3.0, 4.5)
    for level, color in zip(levels, palette):
        pts: list[Point] = []
        segments: list[list[Point]] = []
        for K in _linspace(k_lo, k_hi, 161):
            r = _iso_radius(K, level)
            if r is None or r > r_cap:
                if pts:
                    segments.append(pts)
                    pts = []
                continue
            pts.append(place(K, r))
        if pts:
            segments.append(pts)
        for seg in segments:
            canvas.polyline(seg, stroke=color, width=1.5)
        if segments and segments[-1]:
            tail = segments[-1][-1]
            canvas.text((tail[0] + 14.0, tail[1]), f"{level:g}", size=11, fill=color)
    return canvas.render()


FIGURES: dict[str, Callable[[], str]] = {
    "spiral": figure_spiral,
    "pseudosphere": figure_pseudosphere,
    "sphere-loxodrome": figure_sphere_loxodrome,
    "pseudosphere-loxodrome": figure_pseudosphere_loxodrome,
    "k-surface": figure_k_surface,
}


def render_figure(name: str) -> str:
    try:
        builder = FIGURES[name]
    except KeyError:
        raise BadParameter(f"unknown figure {name!r}") from None
    return builder()


def trace_svg(points_xyz: Sequence[Sequence[float]]) -> str:
    """Orthographic projection of an embedded trace along +z (x right, y up)."""
    canvas = Canvas()
    pts = [(p[0], p[1]) for p in points_xyz]
    canvas.polyline(pts, stroke="#1f77b4", width=1.6)
    return canvas.render()
