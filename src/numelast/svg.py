"""Deterministic SVG scatter plots (fixed 800x600 viewBox, radius-2 points)."""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Iterator, Sequence
from itertools import repeat
from math import nan, ulp
from operator import add, mul, sub, truediv

from .monoid import WRITE_CHUNK

WIDTH = 800
HEIGHT = 600
MARGIN = 60

_POINT_END = '" r="2" fill="steelblue"/>\n'


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def scatter_svg(points: Iterable[tuple[int, float]], *, title: str = "") -> Iterator[str]:
    """Render (x, y) pairs, x an int and y a float or int, as an SVG scatter.

    Yields the head, the points' lines in slices of at most WRITE_CHUNK,
    then the close, each line ending in a newline.  The points are held as
    two packed columns (8 bytes a coordinate), since the axis ranges come
    before the first point; x as its offset from the first point's, so x
    may pass 2**63.  A slice computes cx in C, one operation at a time, and
    formats cy once per distinct y.  Output is byte-deterministic for a
    fixed point list: coordinates have two decimals and points keep their
    order.
    """
    xs, ys = array("q"), array("d")
    x0 = None
    for x, y in points:
        if x0 is None:
            x0 = x
        xs.append(x - x0)
        ys.append(y)
    if xs:
        x_lo, x_hi = x0 + min(xs), x0 + max(xs)
        y_lo, y_hi = min(ys), max(ys)
    else:
        x0, x_lo, x_hi, y_lo, y_hi = 0, 0, 1, 0.0, 1.0
    if x_lo == x_hi:
        x_lo, x_hi = x_lo - 1, x_hi + 1
    if y_lo == y_hi:  # widen by half a unit, or by a float step where the half rounds away
        pad = max(0.5, ulp(y_lo))
        y_lo, y_hi = y_lo - pad, y_hi + pad

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<line x1="{MARGIN}" y1="{HEIGHT - MARGIN}" x2="{WIDTH - MARGIN}" '
        f'y2="{HEIGHT - MARGIN}" stroke="black" stroke-width="1"/>',
        f'<line x1="{MARGIN}" y1="{MARGIN}" x2="{MARGIN}" '
        f'y2="{HEIGHT - MARGIN}" stroke="black" stroke-width="1"/>',
    ]
    if title:  # as character data: a monoid's <...> is markup otherwise
        title = title.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        lines.append(
            f'<text x="{WIDTH // 2}" y="30" text-anchor="middle" '
            f'font-family="monospace" font-size="14">{title}</text>'
        )
    lines.append(
        f'<text x="{MARGIN}" y="{HEIGHT - MARGIN + 20}" font-family="monospace" '
        f'font-size="11">{x_lo}</text>'
    )
    lines.append(
        f'<text x="{WIDTH - MARGIN}" y="{HEIGHT - MARGIN + 20}" text-anchor="end" '
        f'font-family="monospace" font-size="11">{x_hi}</text>'
    )
    lines.append(
        f'<text x="{MARGIN - 8}" y="{HEIGHT - MARGIN}" text-anchor="end" '
        f'font-family="monospace" font-size="11">{_fmt(y_lo)}</text>'
    )
    lines.append(
        f'<text x="{MARGIN - 8}" y="{MARGIN + 4}" text-anchor="end" '
        f'font-family="monospace" font-size="11">{_fmt(y_hi)}</text>'
    )
    yield "\n".join(lines) + "\n"
    shift = x_lo - x0  # an offset minus shift is x - x_lo
    for i in range(0, len(xs), WRITE_CHUNK):
        yield _points(xs[i:i + WRITE_CHUNK], ys[i:i + WRITE_CHUNK], shift, x_hi - x_lo, y_lo, y_hi - y_lo)
    yield "</svg>\n"


def _points(
    dxs: Sequence[int], ys: Sequence[float], shift: int, span_x: int, y_lo: float, span_y: float
) -> str:
    """The <circle> lines of the points at x offsets dxs and heights ys, as
    one string; its temporaries are gone before the string is written."""
    inner_w = WIDTH - 2 * MARGIN
    inner_h = HEIGHT - 2 * MARGIN
    # cx = MARGIN + (dx - shift) / span_x * inner_w, one step per map
    cx = map(add, repeat(MARGIN), map(mul, map(truediv, map(
        sub, dxs, repeat(shift)), repeat(span_x)), repeat(inner_w)))
    texts = dict.fromkeys(ys)
    for y in texts:
        cy = HEIGHT - MARGIN - (y - y_lo) / span_y * inner_h
        texts[y] = f"{cy:.2f}{_POINT_END}"
    pieces = ['<circle cx="', "", '" cy="', ""] * len(ys)
    pieces[1::4] = map(format, cx, repeat(".2f"))
    # a NaN y equals no key, and its cy is NaN
    pieces[3::4] = map(texts.get, ys, repeat(f"{nan:.2f}{_POINT_END}"))
    return "".join(pieces)
