"""Deterministic SVG rendering of cycle embeddings.

Output is plain SVG 1.1 text built by string assembly; identical inputs
produce identical bytes. Each corner's exact screen position is computed
once, as an integer numerator and denominator, and only then divided into
a float, which is printed with six fractional digits. `int / int` rounds
correctly, so the float is the one nearest the exact position.
"""

import sys
from typing import NamedTuple, Optional

from .arrangement import splitter_analysis
from .embedding import CycleEmbedding
from .formulas import BadInput, DegenerateInput

MARGIN = 5  # percent of the viewport, on every side
STROKE_WIDTH = 2.0


class RenderOptions(NamedTuple):
    width: int = 640
    height: int = 640
    label_corners: bool = True
    highlight_splitters: bool = False
    shade_regions: bool = False
    stroke: str = "#1f3a5f"
    splitter_stroke: str = "#c0392b"
    fill: str = "#f2d9a0"


def check_size(width: int, height: int) -> None:
    """Raise BadInput unless the viewport's width and height are both
    positive ints, not bools, that convert to a float: the screen
    coordinates are exact integer ratios until their one division."""
    if any(type(side) is not int for side in (width, height)):
        raise BadInput(f"render size must be integers, got {width!r}x{height!r}")
    if width <= 0 or height <= 0:
        raise BadInput(f"render size must be positive, got {width}x{height}")
    try:
        float(width), float(height)
    except OverflowError:
        raise BadInput(f"render size must be at most {sys.float_info.max:.1e}") from None


def check_color(color: str, name: str) -> None:
    """Raise BadInput unless the colour `name` is a str, ASCII and without
    any of " ' < > &: colours land in SVG attribute values unescaped."""
    if type(color) is not str:
        raise BadInput(f"{name} must be a string, got {color!r}")
    if not color.isascii() or any(ch in color for ch in "\"'<>&"):
        raise BadInput(
            f"{name} must not contain non-ASCII characters or any of \" ' < > &, got {color!r}"
        )


def _fmt(v: float) -> str:
    return f"{v:.6f}"


def to_svg(emb: CycleEmbedding, options: Optional[RenderOptions] = None) -> str:
    """Render an embedding to SVG text.

    The viewport fits the exact corner bounding box with a 5% margin; a
    width or height that `check_size` refuses, or a colour that
    `check_color` refuses, raises BadInput. With highlight_splitters, the
    splitters of the drawing's pair table get the splitter stroke. Region
    shading is a single even-odd fill of the closed polyline; it is
    illustrative only and can hide regions the even-odd rule cancels.
    """
    opts = options or RenderOptions()
    check_size(opts.width, opts.height)
    for name in ("stroke", "splitter_stroke", "fill"):
        check_color(getattr(opts, name), name)
    xs = [x for x, _ in emb.corners]
    ys = [y for _, y in emb.corners]
    minx, maxy = min(xs), max(ys)
    spanx, spany = max(xs) - minx, maxy - min(ys)
    # Screen units per unit of the integer corners, sn / sd: the least
    # ratio that fits a spanned side inside its margins, or 1 / den, one
    # screen unit per drawing unit, when no side has a span.
    inner = 100 - 2 * MARGIN  # percent of each side inside the margins
    fit = None
    for side, span in ((opts.width, spanx), (opts.height, spany)):
        if span > 0 and (fit is None or side * inner * fit[1] < fit[0] * 100 * span):
            fit = (side * inner, 100 * span)
    sn, sd = fit or (1, emb.den)
    # Centre the drawing in the viewport; y flips because SVG grows down.
    left = opts.width * sd - sn * spanx
    top = opts.height * sd - sn * spany
    screen = [
        ((left + 2 * sn * (x - minx)) / (2 * sd), (top + 2 * sn * (maxy - y)) / (2 * sd))
        for x, y in emb.corners
    ]

    splitter_flags = (False,) * emb.n
    if opts.highlight_splitters:
        try:
            splitter_flags = splitter_analysis(emb).splitters
        except DegenerateInput:
            pass  # degenerate drawings render unhighlighted as-is

    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{opts.width}" height="{opts.height}" '
        f'viewBox="0 0 {opts.width} {opts.height}">'
    ]
    if opts.shade_regions:
        steps = [
            f"{'M' if i == 0 else 'L'} {_fmt(x)} {_fmt(y)}" for i, (x, y) in enumerate(screen)
        ]
        parts.append(
            f'<path d="{" ".join(steps)} Z" fill="{opts.fill}" '
            'fill-rule="evenodd" stroke="none"/>'
        )
    for i in range(emb.n):
        ax, ay = screen[i]
        bx, by = screen[(i + 1) % emb.n]
        color = opts.splitter_stroke if splitter_flags[i] else opts.stroke
        wide = STROKE_WIDTH * 1.75 if splitter_flags[i] else STROKE_WIDTH
        cls = "segment splitter" if splitter_flags[i] else "segment"
        parts.append(
            f'<line class="{cls}" x1="{_fmt(ax)}" y1="{_fmt(ay)}" '
            f'x2="{_fmt(bx)}" y2="{_fmt(by)}" '
            f'stroke="{color}" stroke-width="{_fmt(wide)}"/>'
        )
    for i, (x, y) in enumerate(screen):
        parts.append(
            f'<circle class="corner" cx="{_fmt(x)}" cy="{_fmt(y)}" '
            f'r="{_fmt(STROKE_WIDTH * 1.6)}" fill="{opts.stroke}"/>'
        )
        if opts.label_corners:
            parts.append(
                f'<text class="corner-label" x="{_fmt(x + 6.0)}" '
                f'y="{_fmt(y - 6.0)}" font-size="14" '
                f'font-family="monospace" fill="{opts.stroke}">{i}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
