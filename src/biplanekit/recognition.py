"""Biplane recognition: two-color the edge crossing graph or find an odd cycle.

A geometric graph is biplane exactly when its segment crossing graph is
bipartite.  Graphs with n >= 8 vertices and more than 6n - 18 edges are
rejected outright; below that the crossing graph is built by pairwise
testing behind a bounding-box sweep, which is the right trade at desk
scale.  Each pair whose boxes overlap costs two sign tests against a line
precomputed per edge, and two more only if those do not already rule the
crossing out; each crossing goes straight into both edges' adjacency lists.
Recognizing a maximal graph on 500 points in convex position (745,502 such
pairs, 123,753 crossings) takes about 0.25 s on a 2-vCPU VM.

One kernel answers "which of these edges cross segment ab" for both
callers: `_crossed` scans rows that each hold an edge's box, endpoints,
line (`_edge_line`) and a payload.  `crossing_graph` scans each row's
x-window with edge indices as payloads (`crossing_pairs` reads its pairs
off those lists); the maximality oracle in `analysis` scans all rows with
(component, color) payloads and shares the coloring with its component
roots (`_recognize`), so it enumerates the crossings once.  A relaxed
graph with a vertex inside an edge is rejected before any crossing test.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from typing import Any, Iterable, Iterator, NamedTuple, Sequence

from .geometry import Edge, _typed_eq, segments_cross
from .graphs import GeometricGraph, check_relaxed_edges


def biplane_edge_cap(n: int) -> int:
    """Hard upper bound on edge count of a biplane graph with n >= 8."""
    return 6 * n - 18


def exceeds_edge_cap(n: int, m: int) -> bool:
    """Fast-reject guard: n >= 8 and m > 6n - 18 cannot be biplane."""
    return n >= 8 and m > biplane_edge_cap(n)


@_typed_eq
class BiplaneDecomposition(NamedTuple):
    """Disjoint split of the edges into two crossing-free layers."""

    layer1: tuple[Edge, ...]
    layer2: tuple[Edge, ...]


@_typed_eq
class OddCycleWitness(NamedTuple):
    """Odd cycle in the crossing graph: consecutive edges pairwise cross."""

    cycle: tuple[Edge, ...]


@_typed_eq
class TooManyEdges(NamedTuple):
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


def _crossed(
    rows: Sequence[tuple], lo: int, hi: int, xa: int, ya: int, xb: int, yb: int
) -> Iterator[Any]:
    """Payload of each row in rows[lo:hi] whose edge crosses the open segment ab.

    A row is (xlo, xhi, ylo, yhi, xc, yc, xd, yd, ex, ey, k, payload): the
    box of edge cd, its endpoints, its `_edge_line` and whatever the
    caller wants back; crossings come out in row order.  A row is
    rejected when its y-extent misses ab's (`crossing_graph` windows the
    x-extents itself), then after two signed areas against ab's line when
    c and d lie strictly on one side of it or exactly one of them lies on
    it; c and d both on it go to segments_cross (collinear overlap); the
    rest cross exactly when a and b lie strictly on opposite sides of the
    row's own line.
    """
    dx, dy, k = _edge_line(xa, ya, xb, yb)
    low, high = (ya, yb) if ya < yb else (yb, ya)
    for _, _, ylo, yhi, xc, yc, xd, yd, ex, ey, kr, payload in rows[lo:hi]:
        if ylo > high or yhi < low:
            continue
        s1 = dx * yc - dy * xc - k
        s2 = dx * yd - dy * xd - k
        if s1 > 0:
            if s2 >= 0:
                continue
        elif s1 < 0:
            if s2 <= 0:
                continue
        else:
            if s2 == 0 and segments_cross((xa, ya), (xb, yb), (xc, yc), (xd, yd)):
                yield payload
            continue
        t1 = ex * ya - ey * xa - kr
        t2 = ex * yb - ey * xb - kr
        if (t1 > 0 and t2 < 0) or (t1 < 0 and t2 > 0):
            yield payload


def _edge_rows(g: GeometricGraph, payloads: Iterable[Any]) -> list[tuple]:
    """One `_crossed` row per edge of g, in edge order, with its payload."""
    pts = g.points.points
    rows = []
    for (a, b), payload in zip(g.edges, payloads):
        (xa, ya), (xb, yb) = pts[a], pts[b]
        xlo, xhi = (xa, xb) if xa < xb else (xb, xa)
        ylo, yhi = (ya, yb) if ya < yb else (yb, ya)
        line = _edge_line(xa, ya, xb, yb)
        rows.append((xlo, xhi, ylo, yhi, xa, ya, xb, yb, *line, payload))
    return rows


def crossing_graph(g: GeometricGraph) -> list[list[int]]:
    """Adjacency lists over edge indices, each sorted; arc iff the open segments cross.

    Each edge becomes one `_crossed` row with its index as payload.  Rows
    are sorted by left end; each row is tested only against the later
    rows whose left end lies within its own x-extent, and each crossing
    is appended to both edges' lists.  Worst case stays quadratic.
    """
    rows = _edge_rows(g, range(g.m))
    rows.sort()
    xlos = [r[0] for r in rows]
    adj: list[list[int]] = [[] for _ in range(g.m)]
    for p, (_, xhi, _, _, xa, ya, xb, yb, _, _, _, i) in enumerate(rows):
        out = adj[i]
        for j in _crossed(rows, p + 1, bisect_right(xlos, xhi, p + 1), xa, ya, xb, yb):
            out.append(j)
            adj[j].append(i)
    for out in adj:
        out.sort()
    return adj


def crossing_pairs(g: GeometricGraph) -> list[tuple[int, int]]:
    """All pairs (i, j), i < j, of edge indices whose open segments cross, sorted.

    Read off `crossing_graph` in index order, which is already sorted.
    """
    return [(i, j) for i, out in enumerate(crossing_graph(g)) for j in out if j > i]


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
    if isinstance(verdict, (OddCycleWitness, TooManyEdges)):
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
