"""Geometric graphs: straight-line segments on a validated point set."""

from __future__ import annotations

from math import gcd
from operator import index
from typing import Iterable

from .geometry import Edge, PointSet, Strictness, _Frozen, _not_integer_pair


class GeometricGraph(_Frozen):
    """Immutable straight-line graph: a point set plus canonical edges.

    Edges are stored sorted as (a, b) pairs with a < b.  Construction
    merges duplicate edges, (a, b) and (b, a) included, and rejects, in
    input order, non-integer vertex indices and loops, and then
    out-of-range indices (the first edge in sorted order).  One sort does
    the work, so input made of a few sorted runs is cheap to canonicalize.
    """

    points: PointSet
    edges: tuple[Edge, ...]
    __slots__ = ("points", "edges")

    def __init__(self, points: PointSet, edges: Iterable[Edge]) -> None:
        edges = tuple(edges)
        n = len(points)
        canon = []
        try:
            for a, b in edges:
                a, b = index(a), index(b)
                if a < b:
                    canon.append((a, b))
                elif b < a:
                    canon.append((b, a))
                else:
                    raise ValueError(f"degenerate edge ({a}, {a})")
        except TypeError as exc:
            raise _not_integer_pair("edge", edges) from exc
        canon.sort()
        edges = tuple(dict.fromkeys(canon))
        if edges and (edges[0][0] < 0 or max(b for _, b in edges) >= n):
            a, b = next(e for e in edges if e[0] < 0 or e[1] >= n)
            raise ValueError(f"edge ({a}, {b}) references a missing vertex")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "edges", edges)

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def m(self) -> int:
        return len(self.edges)

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
    """Vertices lying strictly inside an edge (forbidden on relaxed sets).

    Returns (vertex, edge) pairs ordered by edge, then vertex.  A point
    strictly inside edge (a, b) is a lattice point, so only edges whose
    direction vector has a gcd above 1 can hold one.  For each vertex a
    that starts such an edge, the other points are grouped by their
    gcd-reduced direction from a; a point on the edge's ray that is fewer
    reduced steps from a than b lies inside the edge.  O(n) per such
    vertex, O(n^2) at worst.
    """
    pts = g.points.points
    starts: dict[int, list[Edge]] = {}
    for e in g.edges:
        a, b = e
        if gcd(pts[b].x - pts[a].x, pts[b].y - pts[a].y) > 1:
            starts.setdefault(a, []).append(e)
    inside: dict[Edge, list[int]] = {}
    for a, es in starts.items():
        xa, ya = pts[a]
        rays: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for v, (x, y) in enumerate(pts):
            if v != a:
                dx, dy = x - xa, y - ya
                k = gcd(dx, dy)
                rays.setdefault((dx // k, dy // k), []).append((k, v))
        for e in es:
            dx, dy = pts[e[1]].x - xa, pts[e[1]].y - ya
            k = gcd(dx, dy)
            inside[e] = [v for s, v in rays[(dx // k, dy // k)] if s < k]
    return [(v, e) for e in g.edges for v in inside.get(e, ())]


def check_relaxed_edges(g: GeometricGraph) -> None:
    """Enforce the relaxed contract: no vertex lies inside an edge.

    Raises ValueError naming the first (vertex, edge) pair that
    relaxed_edge_violations reports.  Strict point sets cannot break the
    rule, so for them this is one test of the point set's mode.
    """
    if g.points.strictness is Strictness.RELAXED:
        bad = relaxed_edge_violations(g)
        if bad:
            v, e = bad[0]
            raise ValueError(f"edge {e} passes through vertex {v}")
