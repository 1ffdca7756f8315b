"""Deterministic SVG drawings of layered geometric graphs.

Style convention: edges crossed by nothing (present in both triangulations
of any decomposition) are drawn solid, layer-1-only edges dashed, and
layer-2-only edges dotted.  All arithmetic is integral, so identical inputs
produce byte-identical documents.
"""

from __future__ import annotations

from .geometry import Edge
from .graphs import GeometricGraph
from .recognition import crossing_pairs

SHARED_COLOR = "#5b2d86"
LAYER1_COLOR = "#c22727"
LAYER2_COLOR = "#2748c2"
WIDTH = 960
MARGIN = 24
VERTEX_RADIUS = 4
STROKE_WIDTH = 2


def render_svg(
    g: GeometricGraph,
    layer1: tuple[Edge, ...],
    layer2: tuple[Edge, ...],
) -> str:
    """Render the graph with its two layers as an SVG document string."""
    set1, set2 = set(layer1), set(layer2)
    missing = set(g.edges) - (set1 | set2)
    if missing or (set1 | set2) - set(g.edges):
        raise ValueError("layers do not cover exactly the graph's edges")
    pts = g.points.points
    xs = [p.x for p in pts] or [0]
    ys = [p.y for p in pts] or [0]
    minx, maxx = min(xs), max(xs)
    miny, maxy = min(ys), max(ys)
    span = max(maxx - minx, maxy - miny, 1)
    inner = WIDTH - 2 * MARGIN

    def sx(x: int) -> int:
        return MARGIN + (x - minx) * inner // span

    def sy(y: int) -> int:
        return MARGIN + (maxy - y) * inner // span

    height = MARGIN * 2 + (maxy - miny) * inner // span
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{height}" viewBox="0 0 {WIDTH} {height}">',
    ]
    crossed = {i for pair in crossing_pairs(g) for i in pair}
    for i, e in enumerate(g.edges):
        a, b = pts[e[0]], pts[e[1]]
        if i not in crossed:
            color, dash = SHARED_COLOR, ""
        elif e in set1:
            color, dash = LAYER1_COLOR, ' stroke-dasharray="7,4"'
        else:
            color, dash = LAYER2_COLOR, ' stroke-dasharray="2,4"'
        lines.append(
            f'  <line x1="{sx(a.x)}" y1="{sy(a.y)}" x2="{sx(b.x)}" y2="{sy(b.y)}" '
            f'stroke="{color}" stroke-width="{STROKE_WIDTH}"{dash}/>'
        )
    for p in pts:
        lines.append(
            f'  <circle cx="{sx(p.x)}" cy="{sy(p.y)}" r="{VERTEX_RADIUS}" '
            f'fill="#222222"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
