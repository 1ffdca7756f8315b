"""Biplane recognition: two-color the edge crossing graph or find an odd cycle.

A geometric graph is biplane exactly when its segment crossing graph is
bipartite.  Graphs with n >= 8 vertices and more than 6n - 18 edges are
rejected outright; below that the crossings are found by pairwise
testing behind a bounding-box sweep, which is the right trade at desk
scale.  Each pair whose boxes overlap costs two sign tests against a line
precomputed per edge, and two more only if those do not already rule the
crossing out.  Recognition colors as it sweeps: each crossing goes
straight into a quick-find parity table over edges, and the first
crossing between two edges of one class and one color ends the sweep with
an odd cycle.  No crossing is stored.  Edges joining consecutive hull
vertices get no row, since no other edge can cross them, and a row's
window leaves out the rows that can meet it only at a shared endpoint.
Recognizing a maximal graph on 500 points in convex position (994 rows
of 1,494 edges, 247,009 rows handed to the kernel, 123,753 crossings)
takes about 0.10 s on a 2-vCPU VM; with the rows that share an endpoint
in the windows it handed the kernel 493,521 and took about 0.19 s.

One kernel answers "which of these edges cross segment ab" for every
scan: `_crossed` scans rows that each hold an edge's box, endpoints,
line (`_edge_line`) and a payload.  `_recognize` and `crossing_graph`
scan each row's x-window with edge indices as payloads; `crossing_graph`
keeps a row for every edge and the full window, and fills adjacency
lists, for `crossing_pairs` and the SVG renderer.  The maximality oracle
in `analysis` takes `_recognize_rows`'s rows, so one hull and one row per
edge serve both, swaps their payloads for (component, color), and scans
them only for a non-edge whose ends show no clash; the edges around the
ends it tests itself, by one signed area each.  A relaxed graph with a
vertex inside an edge is rejected before any crossing test.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from typing import Any, Iterable, Iterator, NamedTuple, Sequence

from .geometry import Edge, _typed_eq, convex_hull, edge, segments_cross
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
    rejected when its y-extent misses ab's (the callers window the
    x-extents themselves), then after two signed areas against ab's line
    when c and d lie strictly on one side of it or exactly one of them
    lies on it; c and d both on it go to segments_cross (collinear
    overlap); the rest cross exactly when a and b lie strictly on
    opposite sides of the row's own line.
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


def _edge_rows(
    g: GeometricGraph, keep: Iterable[int], payloads: Sequence[Any]
) -> list[tuple]:
    """One `_crossed` row for each edge index i in keep, with payloads[i]."""
    pts = g.points.points
    edges = g.edges
    rows = []
    for i in keep:
        a, b = edges[i]
        (xa, ya), (xb, yb) = pts[a], pts[b]
        xlo, xhi = (xa, xb) if xa < xb else (xb, xa)
        ylo, yhi = (ya, yb) if ya < yb else (yb, ya)
        line = _edge_line(xa, ya, xb, yb)
        rows.append((xlo, xhi, ylo, yhi, xa, ya, xb, yb, *line, payloads[i]))
    return rows


def _crossable(g: GeometricGraph) -> Sequence[int]:
    """Indices of the edges of g that another edge of g may cross, in order.

    An edge joining two consecutive vertices of the weak convex hull holds
    no point of S and has every point of S on one side, so only a segment
    along it that runs through one of its ends can cross it.  Such a
    segment is no edge once check_relaxed_edges has passed, so callers run
    that check first.  A graph with no edges skips the hull, which would
    cost more than it saves; a hull that convex_hull rejects (n < 3, all
    points collinear) keeps every edge.
    """
    if g.m == 0:
        return ()
    try:
        hull = convex_hull(g.points)
    except ValueError:
        return range(g.m)
    sides = {edge(a, b) for a, b in zip(hull, hull[1:] + hull[:1])}
    return [i for i, e in enumerate(g.edges) if e not in sides]


def crossing_graph(g: GeometricGraph) -> list[list[int]]:
    """Adjacency lists over edge indices, each sorted; arc iff the open segments cross.

    Each edge becomes one `_crossed` row with its index as payload.  Rows
    are sorted by left end; each row is tested only against the later
    rows whose left end lies within its own x-extent, and each crossing
    is appended to both edges' lists.  Worst case stays quadratic.

    The window keeps the rows that start at the row's right end's x or
    at its left end, which `_recognize_rows` leaves out: g need not pass
    check_relaxed_edges here, and in a graph that breaks the relaxed
    contract such a row can be a collinear crossing, an edge along
    another from their shared end, or an overlapping vertical edge in
    the same column.
    """
    rows = _edge_rows(g, range(g.m), range(g.m))
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
    """Two-color g's crossing graph while sweeping for its crossings.

    Returns (color, root): edge i's color, 0 or 1, and the lowest-index
    edge of its crossing-graph component, which has color 0.  An odd
    cycle or the edge cap stops it instead.  Raises ValueError on a
    relaxed graph with a vertex inside an edge.
    """
    return _recognize_rows(g)[0]


def _recognize_rows(
    g: GeometricGraph,
) -> tuple[tuple[list[int], list[int]] | OddCycleWitness | TooManyEdges, list[tuple]]:
    """`_recognize`'s verdict and the rows it swept, sorted by left end.

    The rows are those of the `_crossable` edges, edge indices as
    payloads; none are built when the edge cap rejects g.

    The sweep is `crossing_graph`'s over the `_crossable` edges, with
    narrower windows.  Row p, whose edge spans xlo <= x <= xhi, is
    tested against rows[lo:hi]: hi is the first later row that starts at
    x >= xhi, and lo is the first later row that starts right of xlo
    when the vertical line x = xlo holds no point of S but p's left end,
    p + 1 otherwise.  Both cuts drop only rows that cannot cross p, once
    check_relaxed_edges has passed, which rules out collinear overlaps:

    - A row q that starts at x = xhi lies in x >= xhi and p in x <= xhi,
      so they can meet only on that line.  If p is not vertical, its open
      segment does not reach the line.  If p is vertical, q is either
      vertical in p's column, where they could cross only by overlapping,
      or q's open segment lies right of the line.
    - If the line x = xlo holds one point, p is not vertical and every
      later row that starts at x = xlo starts at p's left end.  Two edges
      from one point cross only by overlapping.

    A vertical row's window is therefore empty: what crosses it starts
    left of its column and tests it from there.  The rows keep
    `crossing_graph`'s order and only rows that do not cross are cut,
    so the crossings come out in the same order; every row still makes
    one `_crossed` call, with an empty window if it has nothing to test.

    Each crossing (i, j) goes straight into a quick-find parity table:
    per edge its class label and its parity relative to the label, per
    label its size, and a `link` circle through each class.  Edges of
    different classes merge, the smaller class taking the other's label,
    and (i, j) joins the spanning forest; edges of one class and one
    parity close an odd cycle through that forest, and the sweep stops.
    """
    check_relaxed_edges(g)
    n, m = g.n, g.m
    if exceeds_edge_cap(n, m):
        return TooManyEdges(n, m, biplane_edge_cap(n)), []
    rows = _edge_rows(g, _crossable(g), range(m))
    rows.sort()
    xlos = [r[0] for r in rows]
    xs = sorted(x for x, _ in g.points.points)
    shared = {x for x, y in zip(xs, xs[1:]) if x == y}
    label = list(range(m))
    par = [0] * m
    size = [1] * m
    link = list(range(m))
    forest: list[tuple[int, int]] = []
    for p, (xlo, xhi, _, _, xa, ya, xb, yb, _, _, _, i) in enumerate(rows):
        lo = p + 1 if xlo in shared else bisect_right(xlos, xlo, p + 1)
        for j in _crossed(rows, lo, bisect_left(xlos, xhi, lo), xa, ya, xb, yb):
            # A merge can relabel i itself, so its label is read afresh.
            f, h = label[i], label[j]
            if f != h:
                forest.append((i, j))
                x = par[i] ^ par[j] ^ 1
                if size[f] < size[h]:
                    f, h = h, f
                size[f] += size[h]
                w = h
                while True:
                    label[w] = f
                    par[w] ^= x
                    w = link[w]
                    if w == h:
                        break
                link[f], link[h] = link[h], link[f]
            elif par[i] == par[j]:
                return OddCycleWitness(_forest_cycle(g, forest, i, j)), rows
    # Colors relative to each class's lowest-index edge, its root.
    first = [-1] * m
    root = [0] * m
    for i, f in enumerate(label):
        if first[f] == -1:
            first[f] = i
        root[i] = first[f]
    return ([p ^ par[r] for p, r in zip(par, root)], root), rows


def _forest_cycle(
    g: GeometricGraph, forest: list[tuple[int, int]], i: int, j: int
) -> tuple[Edge, ...]:
    """Close the forest path from j to i, two edges of one color, by the arc ij.

    Colors alternate along the path, so it has an even number of arcs and
    the cycle an odd number of edges.
    """
    adj: dict[int, list[int]] = {}
    for u, v in forest:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    parent = {i: i}
    queue = deque([i])
    while j not in parent:
        u = queue.popleft()
        for v in adj[u]:
            if v not in parent:
                parent[v] = u
                queue.append(v)
    nodes = [j]
    while nodes[-1] != i:
        nodes.append(parent[nodes[-1]])
    assert len(nodes) % 2 == 1 and len(nodes) >= 3
    return tuple(g.edges[k] for k in nodes)


def test_biplane(g: GeometricGraph) -> BiplaneResult:
    """Decide biplanarity.

    Returns a BiplaneDecomposition, an OddCycleWitness, or TooManyEdges.
    Deterministic: within each crossing-graph component the lowest-index
    edge lands in layer1.  The witness is the first odd cycle the sweep
    closes: the crossing of two edges that are already joined, with one
    color, by a path of earlier crossings, followed by that path.
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

