"""Biplane recognition: two-color the edge crossing graph or find an odd cycle.

A geometric graph is biplane exactly when its segment crossing graph is
bipartite.  Graphs with n >= 8 vertices and more than 6n - 18 edges are
rejected outright; below that the crossing graph is built by pairwise
testing behind a bounding-box sweep, which is the right trade at desk
scale.  Each pair whose boxes overlap costs two sign tests against a line
precomputed per edge, and two more only if those do not already rule the
crossing out: about 0.4 us per pair on a 2-vCPU VM, so a maximal graph
on 500 points in convex position (745,502 such pairs, 123,753
crossings) takes about 0.3 s.

The maximality oracle in `analysis` shares this module's pieces: the
per-edge line (`_edge_line`), the same exact test of one segment against
rows of such lines (`_rows_crossed_by`), and the coloring with its
component roots (`_recognize`), so it enumerates the crossings once.
Relaxed graphs with a vertex inside an edge are rejected here, before
any crossing is looked at.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from typing import Iterator

from .geometry import Edge, Point, segments_cross
from .graphs import GeometricGraph, check_relaxed_edges


def biplane_edge_cap(n: int) -> int:
    """Hard upper bound on edge count of a biplane graph with n >= 8."""
    return 6 * n - 18


def exceeds_edge_cap(n: int, m: int) -> bool:
    """Fast-reject guard: n >= 8 and m > 6n - 18 cannot be biplane."""
    return n >= 8 and m > biplane_edge_cap(n)


@dataclass(frozen=True)
class BiplaneDecomposition:
    """Disjoint split of the edges into two crossing-free layers."""

    layer1: tuple[Edge, ...]
    layer2: tuple[Edge, ...]


@dataclass(frozen=True)
class OddCycleWitness:
    """Odd cycle in the crossing graph: consecutive edges pairwise cross."""

    cycle: tuple[Edge, ...]


@dataclass(frozen=True)
class TooManyEdges:
    """Rejected without building the crossing graph: m > 6n - 18, n >= 8."""

    n: int
    m: int
    cap: int


BiplaneResult = BiplaneDecomposition | OddCycleWitness | TooManyEdges


def _edge_line(xa: int, ya: int, xb: int, yb: int) -> tuple[int, int, int]:
    """The line dx*y - dy*x = k through (xa, ya) and (xb, yb), as (dx, dy, k).

    For any point v, dx*v.y - dy*v.x - k equals geometry.cross(a, b, v):
    positive left of a -> b, negative right of it, zero on the line.
    """
    dx, dy = xb - xa, yb - ya
    return dx, dy, dx * ya - dy * xa


def crossing_pairs(g: GeometricGraph) -> list[tuple[int, int]]:
    """All pairs (i, j), i < j, of edge indices whose open segments cross, sorted.

    Each edge becomes one row holding its bounding box and its line
    (`_edge_line`).  Rows are sorted by left end; each row is
    tested only against the later rows whose left end lies within its own
    x-extent.  A candidate is rejected when its endpoints lie on one side
    of the row's line or one of them lies on it, and only the survivors
    are tested against the candidate's line.  Worst case stays quadratic.
    """
    pts = g.points.points
    X = [p[0] for p in pts]
    Y = [p[1] for p in pts]
    rows = []
    for idx, (a, b) in enumerate(g.edges):
        xa, ya, xb, yb = X[a], Y[a], X[b], Y[b]
        box = (min(xa, xb), max(xa, xb), min(ya, yb), max(ya, yb))
        rows.append((*box, a, b, *_edge_line(xa, ya, xb, yb), idx))
    rows.sort()
    xlos = [r[0] for r in rows]
    pairs: list[tuple[int, int]] = []
    for p in range(len(rows)):
        _, xhi, ylo, yhi, a, b, dx, dy, k, i = rows[p]
        for q in range(p + 1, bisect_right(xlos, xhi, p + 1)):
            _, _, qlo, qhi, c, d, ex, ey, kq, j = rows[q]
            if qlo > yhi or qhi < ylo:
                continue
            s1 = dx * Y[c] - dy * X[c] - k
            s2 = dx * Y[d] - dy * X[d] - k
            if s1 > 0:
                if s2 >= 0:
                    continue
            elif s1 < 0:
                if s2 <= 0:
                    continue
            else:
                # Both endpoints on the line: the collinear-overlap case.
                if s2 == 0 and segments_cross(pts[a], pts[b], pts[c], pts[d]):
                    pairs.append((i, j) if i < j else (j, i))
                continue
            t1 = ex * Y[a] - ey * X[a] - kq
            t2 = ex * Y[b] - ey * X[b] - kq
            if (t1 > 0 and t2 < 0) or (t1 < 0 and t2 > 0):
                pairs.append((i, j) if i < j else (j, i))
    pairs.sort()
    return pairs


def crossing_graph(g: GeometricGraph) -> list[list[int]]:
    """Adjacency lists over edge indices; arc iff the open segments cross.

    Each list comes out sorted: crossing_pairs is sorted, so the smaller
    partners of an edge arrive first, in order, and then the larger ones.
    """
    adj: list[list[int]] = [[] for _ in range(g.m)]
    for i, j in crossing_pairs(g):
        adj[i].append(j)
        adj[j].append(i)
    return adj


def _rows_crossed_by(
    rows: list[tuple[int, int, int, int, int, int, int]],
    X: list[int],
    Y: list[int],
    pts: tuple[Point, ...],
    a: int,
    b: int,
) -> Iterator[tuple[int, int]]:
    """(component, color) of each row whose edge crosses the open segment ab.

    A row is (c, d, ex, ey, k, component, color): edge cd, its
    `_edge_line`, and its place in the crossing graph; crossings come out
    in row order.  This is crossing_pairs' test without the box filter: a
    row is rejected after two signed areas against ab's line when c and d
    lie strictly on one side of it or exactly one of them lies on it; c
    and d both on it go to segments_cross (collinear overlap); the rest
    cross exactly when a and b lie strictly on opposite sides of the
    row's own line.
    """
    xa, ya, xb, yb = X[a], Y[a], X[b], Y[b]
    dx, dy, k = _edge_line(xa, ya, xb, yb)
    for c, d, ex, ey, kr, comp, side in rows:
        s1 = dx * Y[c] - dy * X[c] - k
        s2 = dx * Y[d] - dy * X[d] - k
        if s1 > 0:
            if s2 >= 0:
                continue
        elif s1 < 0:
            if s2 <= 0:
                continue
        else:
            if s2 == 0 and segments_cross(pts[a], pts[b], pts[c], pts[d]):
                yield comp, side
            continue
        t1 = ex * ya - ey * xa - kr
        t2 = ex * yb - ey * xb - kr
        if (t1 > 0 and t2 < 0) or (t1 < 0 and t2 > 0):
            yield comp, side


def _recognize(
    g: GeometricGraph,
) -> tuple[list[int], list[int]] | OddCycleWitness | TooManyEdges:
    """Two-color g's crossing graph by BFS in edge index order.

    Returns (color, root): edge i's color, 0 or 1, and the edge whose BFS
    reached it, the lowest-index edge of its crossing-graph component,
    which has color 0.  An odd cycle or the edge cap stops it instead.
    Raises ValueError on a relaxed graph with a vertex inside an edge.
    """
    check_relaxed_edges(g)
    n, m = g.n, g.m
    if exceeds_edge_cap(n, m):
        return TooManyEdges(n, m, biplane_edge_cap(n))
    adj = crossing_graph(g)
    color = [-1] * m
    parent = [-1] * m
    root = [-1] * m
    for r in range(m):
        if color[r] != -1:
            continue
        color[r] = 0
        root[r] = r
        queue = deque([r])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if color[v] == -1:
                    color[v] = color[u] ^ 1
                    parent[v] = u
                    root[v] = r
                    queue.append(v)
                elif color[v] == color[u]:
                    return OddCycleWitness(_odd_cycle(g, parent, u, v))
    return color, root


def test_biplane(g: GeometricGraph) -> BiplaneResult:
    """Decide biplanarity.

    Returns a BiplaneDecomposition, an OddCycleWitness, or TooManyEdges.
    Deterministic: BFS two-coloring in edge index order, and within each
    crossing-graph component the lowest-index edge lands in layer1.
    Raises ValueError, naming the edge and the vertex, on a relaxed graph
    with a vertex inside an edge.
    """
    verdict = _recognize(g)
    if not isinstance(verdict, tuple):
        return verdict
    color = verdict[0]
    layer1 = tuple(e for e, c in zip(g.edges, color) if c == 0)
    layer2 = tuple(e for e, c in zip(g.edges, color) if c == 1)
    return BiplaneDecomposition(layer1, layer2)


# Keep pytest from collecting the library function as a test.
test_biplane.__test__ = False  # type: ignore[attr-defined]


def _odd_cycle(
    g: GeometricGraph, parent: list[int], u: int, v: int
) -> tuple[Edge, ...]:
    """Close the BFS tree paths of u and v (same color) with the arc uv."""
    path_u = [u]
    while parent[path_u[-1]] != -1:
        path_u.append(parent[path_u[-1]])
    on_u = {node: i for i, node in enumerate(path_u)}
    path_v = [v]
    while path_v[-1] not in on_u:
        path_v.append(parent[path_v[-1]])
    lca = path_v[-1]
    nodes = path_u[: on_u[lca] + 1] + path_v[-2::-1]
    assert len(nodes) % 2 == 1 and len(nodes) >= 3
    return tuple(g.edges[i] for i in nodes)
