"""Deterministic SVG rendering of cycle embeddings.

Output is plain SVG 1.1 text built by string assembly; identical inputs
produce identical bytes. Rational coordinates are converted to decimals
with six fractional digits only here, after all exact work is done.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .arrangement import DegenerateInput, SegmentClass, splitter_analysis
from .embedding import CycleEmbedding

MARGIN = Fraction(5, 100)  # of the viewport, on every side
STROKE_WIDTH = 2.0


@dataclass(frozen=True)
class RenderOptions:
    width: int = 640
    height: int = 640
    label_corners: bool = True
    highlight_splitters: bool = False
    shade_regions: bool = False
    stroke: str = "#1f3a5f"
    splitter_stroke: str = "#c0392b"
    fill: str = "#f2d9a0"


def _fmt(v: float) -> str:
    return f"{v:.6f}"


def to_svg(emb: CycleEmbedding, options: Optional[RenderOptions] = None) -> str:
    """Render an embedding to SVG text.

    The viewport fits the exact corner bounding box with a 5% margin.
    With highlight_splitters, segments meeting all n-1 others get the
    splitter stroke. Region shading is a single even-odd fill of the
    closed polyline; it is illustrative only and can hide regions the
    even-odd rule cancels.
    """
    opts = options or RenderOptions()
    xs = [p.x for p in emb.corners]
    ys = [p.y for p in emb.corners]
    minx, maxx = min(xs), max(xs)
    miny, maxy = min(ys), max(ys)
    spanx = maxx - minx
    spany = maxy - miny
    pad_x = Fraction(opts.width) * MARGIN
    pad_y = Fraction(opts.height) * MARGIN
    avail_x = Fraction(opts.width) - 2 * pad_x
    avail_y = Fraction(opts.height) - 2 * pad_y
    scales = []
    if spanx > 0:
        scales.append(avail_x / spanx)
    if spany > 0:
        scales.append(avail_y / spany)
    s = min(scales) if scales else Fraction(1)
    # Centre the drawing in the viewport; y flips because SVG grows down.
    off_x = (Fraction(opts.width) - s * spanx) / 2
    off_y = (Fraction(opts.height) - s * spany) / 2

    def sx(x: Fraction) -> float:
        return float(off_x + s * (x - minx))

    def sy(y: Fraction) -> float:
        return float(off_y + s * (maxy - y))

    splitter_flags = [False] * emb.n
    if opts.highlight_splitters:
        try:
            report = splitter_analysis(emb)
        except DegenerateInput:
            pass  # degenerate drawings render unhighlighted as-is
        else:
            splitter_flags = [
                cls is SegmentClass.SPLITTER for _, cls in report.per_segment
            ]

    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{opts.width}" height="{opts.height}" '
        f'viewBox="0 0 {opts.width} {opts.height}">'
    ]
    if opts.shade_regions:
        steps = [
            f"{'M' if i == 0 else 'L'} {_fmt(sx(p.x))} {_fmt(sy(p.y))}"
            for i, p in enumerate(emb.corners)
        ]
        parts.append(
            f'<path d="{" ".join(steps)} Z" fill="{opts.fill}" '
            'fill-rule="evenodd" stroke="none"/>'
        )
    for i in range(emb.n):
        a = emb.corners[i]
        b = emb.corners[(i + 1) % emb.n]
        color = opts.splitter_stroke if splitter_flags[i] else opts.stroke
        wide = STROKE_WIDTH * 1.75 if splitter_flags[i] else STROKE_WIDTH
        cls = "segment splitter" if splitter_flags[i] else "segment"
        parts.append(
            f'<line class="{cls}" x1="{_fmt(sx(a.x))}" y1="{_fmt(sy(a.y))}" '
            f'x2="{_fmt(sx(b.x))}" y2="{_fmt(sy(b.y))}" '
            f'stroke="{color}" stroke-width="{_fmt(wide)}"/>'
        )
    for i, p in enumerate(emb.corners):
        parts.append(
            f'<circle class="corner" cx="{_fmt(sx(p.x))}" cy="{_fmt(sy(p.y))}" '
            f'r="{_fmt(STROKE_WIDTH * 1.6)}" fill="{opts.stroke}"/>'
        )
        if opts.label_corners:
            parts.append(
                f'<text class="corner-label" x="{_fmt(sx(p.x) + 6.0)}" '
                f'y="{_fmt(sy(p.y) - 6.0)}" font-size="14" '
                f'font-family="monospace" fill="{opts.stroke}">{i}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
