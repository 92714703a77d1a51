"""Figure-style SVG rendering of a space and an optional map over it.

The picture carries three layers in one square viewport: the self-product
of the space in grey, the diagonal as a reference line, and the map graph
in black (dots over isolated members, one segment per affine stretch).
Geometry is computed exactly and only converted to decimals at the last
moment, so identical inputs always render byte-identical documents.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .frozen import frozen
from .maps import MapDescription, collect_samples
from .scalar import Scalar, format_scalar
from .space import DEFAULT_CAP, SubspaceDescription, Window, materialize

VIEWPORT = 800
MARGIN = 20
MARKER_RADIUS = 4
PRODUCT_GREY = "#808080"
PRODUCT_OPACITY = "0.25"


@frozen
class ProductCell:
    """One component-pair region of the self-product, window-clipped.

    Degenerate extents collapse the rectangle: both zero-width sides make
    a point marker, one makes a thin band.
    """

    x_lo: Scalar
    x_hi: Scalar
    y_lo: Scalar
    y_hi: Scalar

    @property
    def kind(self) -> str:
        flat_x = self.x_lo == self.x_hi
        flat_y = self.y_lo == self.y_hi
        if flat_x and flat_y:
            return "dot"
        if flat_x or flat_y:
            return "band"
        return "rect"


@frozen
class GraphDot:
    x: Scalar
    y: Scalar


@frozen
class GraphSegment:
    """The map over one affine stretch of one interval fragment."""

    x_lo: Scalar
    x_hi: Scalar
    y_at_lo: Scalar
    y_at_hi: Scalar
    slope: Scalar


@frozen
class Jump:
    """A discontinuity between consecutive graph segments: the images sit
    further apart than the left segment's slope could carry across the
    domain gap."""

    left: GraphSegment
    right: GraphSegment
    image_gap: Scalar
    carried: Scalar

    def render(self) -> str:
        return (
            f"jump between x={format_scalar(self.left.x_hi)} and "
            f"x={format_scalar(self.right.x_lo)}: image gap {format_scalar(self.image_gap)} "
            f"exceeds the carried {format_scalar(self.carried)}"
        )


@frozen
class PlotData:
    window: Window
    product: tuple
    dots: tuple
    segments: tuple
    jumps: tuple


def detect_jumps(segments: tuple) -> tuple:
    """Flag consecutive segments whose images are further apart than the
    left slope can account for over the domain gap."""
    jumps = []
    ordered = sorted(segments, key=lambda s: (s.x_lo, s.x_hi))
    for s, t in zip(ordered, ordered[1:]):
        domain_gap = t.x_lo - s.x_hi
        if domain_gap < 0:
            continue
        image_gap = abs(t.y_at_lo - s.y_at_hi)
        carried = abs(s.slope) * domain_gap
        if image_gap > carried:
            jumps.append(Jump(s, t, image_gap, carried))
    return tuple(jumps)


def build_plot(
    space: SubspaceDescription,
    window: Window,
    desc: Optional[MapDescription] = None,
    cap: int = DEFAULT_CAP,
) -> PlotData:
    mat = materialize(space, window, cap)
    extents = [(p, p) for p in mat.points]
    extents.extend((f.interval.lo.value, f.interval.hi.value) for f in mat.fragments)
    extents.sort()
    product = tuple(
        ProductCell(ax_lo, ax_hi, ay_lo, ay_hi)
        for ax_lo, ax_hi in extents
        for ay_lo, ay_hi in extents
    )

    dots: tuple = ()
    segments: tuple = ()
    if desc is not None:
        ws = collect_samples(desc, space, window, cap)
        isolated = set(mat.points)
        dots = tuple(
            GraphDot(s.x, s.value) for s in ws.point_samples if s.x in isolated
        )
        segments = tuple(
            GraphSegment(s.lo, s.hi, s.piece.apply(s.lo), s.piece.apply(s.hi), s.piece.slope)
            for s in sorted(ws.spans, key=lambda s: (s.lo, s.hi))
        )
    return PlotData(
        window=window,
        product=product,
        dots=dots,
        segments=segments,
        jumps=detect_jumps(segments),
    )


# ===================================================================
# SVG emission
# ===================================================================


def _px(window: Window, v: Scalar) -> Fraction:
    span = window.hi - window.lo
    return MARGIN + Fraction(v - window.lo, 1) / span * (VIEWPORT - 2 * MARGIN)


def _py(window: Window, v: Scalar) -> Fraction:
    span = window.hi - window.lo
    return VIEWPORT - MARGIN - Fraction(v - window.lo, 1) / span * (VIEWPORT - 2 * MARGIN)


def _fmt(v) -> str:
    return f"{float(v):.3f}"


def render_svg(data: PlotData) -> str:
    w = data.window
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{VIEWPORT}" height="{VIEWPORT}" '
        f'viewBox="0 0 {VIEWPORT} {VIEWPORT}">',
        f'<rect x="0" y="0" width="{VIEWPORT}" height="{VIEWPORT}" fill="#ffffff"/>',
        f'<rect x="{MARGIN}" y="{MARGIN}" width="{VIEWPORT - 2 * MARGIN}" '
        f'height="{VIEWPORT - 2 * MARGIN}" fill="none" stroke="#000000" stroke-width="1"/>',
        f'<g fill="{PRODUCT_GREY}" fill-opacity="{PRODUCT_OPACITY}" '
        f'stroke="{PRODUCT_GREY}" stroke-opacity="{PRODUCT_OPACITY}">',
    ]
    side = 2 * MARKER_RADIUS
    for cell in data.product:
        kind = cell.kind
        if kind == "dot":
            x = _fmt(_px(w, cell.x_lo) - MARKER_RADIUS)
            y = _fmt(_py(w, cell.y_lo) - MARKER_RADIUS)
            lines.append(f'<rect x="{x}" y="{y}" width="{side}" height="{side}" stroke="none"/>')
        elif kind == "band":
            x1, x2 = _fmt(_px(w, cell.x_lo)), _fmt(_px(w, cell.x_hi))
            y1, y2 = _fmt(_py(w, cell.y_lo)), _fmt(_py(w, cell.y_hi))
            lines.append(
                f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke-width="{side}"/>'
            )
        else:
            lines.append(
                '<rect x="{}" y="{}" width="{}" height="{}" stroke="none"/>'.format(
                    _fmt(_px(w, cell.x_lo)),
                    _fmt(_py(w, cell.y_hi)),
                    _fmt(_px(w, cell.x_hi) - _px(w, cell.x_lo)),
                    _fmt(_py(w, cell.y_lo) - _py(w, cell.y_hi)),
                )
            )
    lines.append("</g>")
    lines.append(
        f'<line x1="{_fmt(_px(w, w.lo))}" y1="{_fmt(_py(w, w.lo))}" '
        f'x2="{_fmt(_px(w, w.hi))}" y2="{_fmt(_py(w, w.hi))}" '
        f'stroke="#000000" stroke-opacity="0.3" stroke-width="1"/>'
    )
    if data.segments:
        lines.append('<g stroke="#000000" stroke-width="2">')
        for s in data.segments:
            lines.append(
                f'<line x1="{_fmt(_px(w, s.x_lo))}" y1="{_fmt(_py(w, s.y_at_lo))}" '
                f'x2="{_fmt(_px(w, s.x_hi))}" y2="{_fmt(_py(w, s.y_at_hi))}"/>'
            )
        lines.append("</g>")
    if data.dots:
        lines.append('<g fill="#000000">')
        for d in sorted(data.dots, key=lambda d: (d.x, d.y)):
            lines.append(
                f'<circle cx="{_fmt(_px(w, d.x))}" cy="{_fmt(_py(w, d.y))}" r="{MARKER_RADIUS}"/>'
            )
        lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
