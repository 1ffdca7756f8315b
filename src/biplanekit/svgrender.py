"""Deterministic SVG drawings of layered geometric graphs.

Style convention: edges crossed by nothing (present in both triangulations
of any decomposition) are drawn solid, layer-1-only edges dashed, and
layer-2-only edges dotted.  All arithmetic is integral, so identical inputs
produce byte-identical documents.
"""

from __future__ import annotations

from dataclasses import dataclass

from .geometry import Edge
from .graphs import GeometricGraph
from .recognition import crossing_pairs


@dataclass(frozen=True)
class RenderSpec:
    shared_color: str = "#5b2d86"
    layer1_color: str = "#c22727"
    layer2_color: str = "#2748c2"
    width: int = 960
    margin: int = 24
    vertex_radius: int = 4
    stroke_width: int = 2


def render_svg(
    g: GeometricGraph,
    layer1: tuple[Edge, ...],
    layer2: tuple[Edge, ...],
    spec: RenderSpec = RenderSpec(),
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
    inner = spec.width - 2 * spec.margin

    def sx(x: int) -> int:
        return spec.margin + (x - minx) * inner // span

    def sy(y: int) -> int:
        return spec.margin + (maxy - y) * inner // span

    height = spec.margin * 2 + (maxy - miny) * inner // span
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{spec.width}" '
        f'height="{height}" viewBox="0 0 {spec.width} {height}">',
    ]
    crossed = {i for pair in crossing_pairs(g) for i in pair}
    for i, e in enumerate(g.edges):
        a, b = pts[e[0]], pts[e[1]]
        if i not in crossed:
            color, dash = spec.shared_color, ""
        elif e in set1:
            color, dash = spec.layer1_color, ' stroke-dasharray="7,4"'
        else:
            color, dash = spec.layer2_color, ' stroke-dasharray="2,4"'
        lines.append(
            f'  <line x1="{sx(a.x)}" y1="{sy(a.y)}" x2="{sx(b.x)}" y2="{sy(b.y)}" '
            f'stroke="{color}" stroke-width="{spec.stroke_width}"{dash}/>'
        )
    for p in pts:
        lines.append(
            f'  <circle cx="{sx(p.x)}" cy="{sy(p.y)}" r="{spec.vertex_radius}" '
            f'fill="#222222"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
