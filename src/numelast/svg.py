"""Deterministic SVG scatter plots (fixed 800x600 viewBox, radius-2 points)."""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Iterator
from math import ulp

WIDTH = 800
HEIGHT = 600
MARGIN = 60


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def scatter_svg(points: Iterable[tuple[int, float]], *, title: str = "") -> Iterator[str]:
    """Render (x, y) pairs, x an int and y a float or int, as an SVG scatter.

    Yields the document line by line, each line ending in a newline; the
    points are held as two packed columns (8 bytes a coordinate), since the
    axis ranges come before the first point; x as its offset from the first
    point's, so x may pass 2**63.  Output is byte-deterministic for a fixed
    point list: coordinates have two decimals and points keep their order.
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

    span_x = x_hi - x_lo
    span_y = y_hi - y_lo
    inner_w = WIDTH - 2 * MARGIN
    inner_h = HEIGHT - 2 * MARGIN

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<line x1="{MARGIN}" y1="{HEIGHT - MARGIN}" x2="{WIDTH - MARGIN}" '
        f'y2="{HEIGHT - MARGIN}" stroke="black" stroke-width="1"/>',
        f'<line x1="{MARGIN}" y1="{MARGIN}" x2="{MARGIN}" '
        f'y2="{HEIGHT - MARGIN}" stroke="black" stroke-width="1"/>',
    ]
    if title:
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
    for dx, y in zip(xs, ys):
        cx = MARGIN + (dx - shift) / span_x * inner_w
        cy = HEIGHT - MARGIN - (y - y_lo) / span_y * inner_h
        yield f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="2" fill="steelblue"/>\n'
    yield "</svg>\n"
