"""Geometric graphs: straight-line segments on a validated point set."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .geometry import Edge, Point, PointSet, edge, point_on_open_segment


@dataclass(frozen=True)
class GeometricGraph:
    """Immutable straight-line graph: a point set plus canonical edges.

    Edges are stored sorted as (a, b) pairs with a < b.  Construction
    rejects loops, duplicates, and out-of-range indices.
    """

    points: PointSet
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        n = len(self.points)
        canon = sorted({edge(int(a), int(b)) for a, b in self.edges})
        for a, b in canon:
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"edge ({a}, {b}) references a missing vertex")
        object.__setattr__(self, "edges", tuple(canon))

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def m(self) -> int:
        return len(self.edges)

    def segment(self, e: Edge) -> tuple[Point, Point]:
        return self.points[e[0]], self.points[e[1]]

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        return adj

    def degrees(self) -> list[int]:
        deg = [0] * self.n
        for a, b in self.edges:
            deg[a] += 1
            deg[b] += 1
        return deg

    def complement_edges(self) -> list[Edge]:
        """All vertex pairs that are not edges, in lexicographic order."""
        present = set(self.edges)
        return [
            (a, b)
            for a in range(self.n)
            for b in range(a + 1, self.n)
            if (a, b) not in present
        ]

    def with_edges(self, extra: Iterable[Edge]) -> "GeometricGraph":
        return GeometricGraph(self.points, self.edges + tuple(extra))


def relaxed_edge_violations(g: GeometricGraph) -> list[tuple[int, Edge]]:
    """Vertices lying strictly inside an edge (forbidden on relaxed sets)."""
    pts = g.points.points
    bad: list[tuple[int, Edge]] = []
    for e in g.edges:
        a, b = pts[e[0]], pts[e[1]]
        for v in range(g.n):
            if v in e:
                continue
            if point_on_open_segment(pts[v], a, b):
                bad.append((v, e))
    return bad
