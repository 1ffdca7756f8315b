"""Deterministic SVG drawings of biplane geometric graphs.

Style convention: edges crossed by nothing (present in both triangulations
of any decomposition) are drawn solid, layer-1-only edges dashed, and
layer-2-only edges dotted.  One recognition gives both the layers and the
crossed edges: those that share their crossing-graph component with
another edge.  All arithmetic is integral, so output is deterministic.
"""

from __future__ import annotations

from collections import Counter

from .graphs import GeometricGraph
from .recognition import _recognize

SHARED_COLOR = "#5b2d86"
LAYER1_COLOR = "#c22727"
LAYER2_COLOR = "#2748c2"
WIDTH = 960
MARGIN = 24
VERTEX_RADIUS = 4
STROKE_WIDTH = 2


def render_svg(g: GeometricGraph) -> str:
    """Render g with `test_biplane`'s two layers as an SVG document string.

    `_recognize` raises NotBiplaneError, carrying the verdict, when g is
    not biplane, and the error passes through.
    """
    color, root = _recognize(g)
    size = Counter(root)
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
    for (u, v), c, r in zip(g.edges, color, root):
        a, b = pts[u], pts[v]
        if size[r] == 1:
            stroke, dash = SHARED_COLOR, ""
        elif c == 0:
            stroke, dash = LAYER1_COLOR, ' stroke-dasharray="7,4"'
        else:
            stroke, dash = LAYER2_COLOR, ' stroke-dasharray="2,4"'
        lines.append(
            f'  <line x1="{sx(a.x)}" y1="{sy(a.y)}" x2="{sx(b.x)}" y2="{sy(b.y)}" '
            f'stroke="{stroke}" stroke-width="{STROKE_WIDTH}"{dash}/>'
        )
    for p in pts:
        lines.append(
            f'  <circle cx="{sx(p.x)}" cy="{sy(p.y)}" r="{VERTEX_RADIUS}" '
            f'fill="#222222"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
