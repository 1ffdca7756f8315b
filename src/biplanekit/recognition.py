"""Biplane recognition: two-color the edge crossing graph or find an odd cycle.

A geometric graph is biplane exactly when its segment crossing graph is
bipartite.  Graphs with n >= 8 vertices and more than 6n - 18 edges are
rejected outright; below that the crossings are found by pairwise
testing behind a bounding-box sweep, which is the right trade at desk
scale.  Each pair whose boxes overlap costs two sign tests against a line
precomputed per edge, and two more only if those do not already rule the
crossing out.  Recognition colors as it sweeps: each crossing goes
straight into a quick-find parity table over edges (`_merge`, which the
augmentation's face table shares), and the first crossing between two
edges of one class and one color ends the sweep with an odd cycle.  No
crossing is stored.  Edges joining consecutive hull vertices get no row,
since no other edge can cross them, and a row's window leaves out the
rows that can meet it only at a shared endpoint.

When every point lies on the weak hull, an edge is an interval of hull
positions and two edges cross exactly when their intervals overlap
without nesting, so `_convex_coloring` two-colors the crossings in one
sweep over the hull order, in O(m) merges and O(m log m) bisections
plus list inserts, and no pair reaches the kernel; only an odd cycle
sends the input through the sweep above, which names the witness.
Recognizing a maximal graph on 500 points in convex position (1,494
edges, 123,753 crossings) takes about 3 ms on a 2-vCPU VM, against about
0.04 s through the sweep, and builds no row.

One kernel answers "which of these edges cross segment ab" for every
scan: `_crossed` scans rows (`_edge_rows`) that each hold an edge's box,
endpoints, line (`_edge_line`) and its index.  `_recognize` and
`crossing_pairs` scan each row's x-window; `crossing_pairs` keeps a row
for every edge and the full window, and returns the sorted pairs, to
name the pair when a completion loses an input edge and for the segment
masks of triangulation enumeration.  The maximality oracle in `analysis`
builds its own rows of the `_crossable` edges and scans them whole.  A
relaxed graph with a vertex inside an edge is rejected before any
crossing test.  The SVG renderer reads its strokes off `_recognize`;
it and the augmentation raise `NotBiplaneError` on a negative verdict.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections import deque
from typing import Iterable, Iterator, NamedTuple, Sequence

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


class NotBiplaneError(ValueError):
    """Input graph is not biplane; carries the recognition verdict."""

    def __init__(self, verdict: BiplaneResult) -> None:
        super().__init__(f"input graph is not biplane: {type(verdict).__name__}")
        self.verdict = verdict


def _edge_line(xa: int, ya: int, xb: int, yb: int) -> tuple[int, int, int]:
    """The line dx*y - dy*x = k through (xa, ya) and (xb, yb), as (dx, dy, k).

    For any point v, dx*v.y - dy*v.x - k equals geometry.cross(a, b, v):
    positive left of a -> b, negative right of it, zero on the line.
    """
    dx, dy = xb - xa, yb - ya
    return dx, dy, dx * ya - dy * xa


def _crossed(
    rows: Sequence[tuple], lo: int, hi: int, xa: int, ya: int, xb: int, yb: int
) -> Iterator[int]:
    """Index of each edge in rows[lo:hi] that crosses the open segment ab.

    A row is (xlo, xhi, ylo, yhi, xc, yc, xd, yd, ex, ey, k, i): the box
    of edge i = cd, its endpoints and its `_edge_line`; crossings come
    out in row order.  A row is
    rejected when its y-extent misses ab's (the callers window the
    x-extents themselves), then after two signed areas against ab's line
    when c and d lie strictly on one side of it or exactly one of them
    lies on it; c and d both on it go to segments_cross (collinear
    overlap); the rest cross exactly when a and b lie strictly on
    opposite sides of the row's own line.
    """
    dx, dy, k = _edge_line(xa, ya, xb, yb)
    low, high = (ya, yb) if ya < yb else (yb, ya)
    for _, _, ylo, yhi, xc, yc, xd, yd, ex, ey, kr, i in rows[lo:hi]:
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
                yield i
            continue
        t1 = ex * ya - ey * xa - kr
        t2 = ex * yb - ey * xb - kr
        if (t1 > 0 and t2 < 0) or (t1 < 0 and t2 > 0):
            yield i


def _edge_rows(g: GeometricGraph, keep: Iterable[int]) -> list[tuple]:
    """One `_crossed` row for each edge index i in keep."""
    pts = g.points.points
    edges = g.edges
    rows = []
    for i in keep:
        a, b = edges[i]
        (xa, ya), (xb, yb) = pts[a], pts[b]
        xlo, xhi = (xa, xb) if xa < xb else (xb, xa)
        ylo, yhi = (ya, yb) if ya < yb else (yb, ya)
        line = _edge_line(xa, ya, xb, yb)
        rows.append((xlo, xhi, ylo, yhi, xa, ya, xb, yb, *line, i))
    return rows


def _weak_hull(g: GeometricGraph) -> list[int] | None:
    """g's weak convex hull, or None when g has no edges or convex_hull rejects
    its points (n < 3, all points collinear).

    A graph with no edges skips the hull, which would cost more than the
    rest of its recognition.
    """
    if g.m == 0:
        return None
    try:
        return convex_hull(g.points)
    except ValueError:
        return None


def _crossable(g: GeometricGraph, hull: list[int] | None) -> Sequence[int]:
    """Indices of the edges of g that another edge of g may cross, in order.

    An edge joining two consecutive vertices of the weak convex hull holds
    no point of S and has every point of S on one side, so only a segment
    along it that runs through one of its ends can cross it.  Such a
    segment is no edge once check_relaxed_edges has passed, so callers run
    that check first.  Without a hull (`_weak_hull` gave None) every edge
    is kept.
    """
    if hull is None:
        return range(g.m)
    sides = {edge(a, b) for a, b in zip(hull, hull[1:] + hull[:1])}
    return [i for i, e in enumerate(g.edges) if e not in sides]


def crossing_pairs(g: GeometricGraph) -> list[tuple[int, int]]:
    """All pairs (i, j), i < j, of edge indices whose open segments cross, sorted.

    Each edge becomes one `_crossed` row.  Rows are sorted by left end;
    each row is tested only against the later rows whose left end lies
    within its own x-extent, so each crossing is found once.  Worst case
    stays quadratic.

    The window keeps the rows that start at the row's right end's x or
    at its left end, which `_recognize` leaves out: g need not pass
    check_relaxed_edges here, and in a graph that breaks the relaxed
    contract such a row can be a collinear crossing, an edge along
    another from their shared end, or an overlapping vertical edge in
    the same column.
    """
    rows = _edge_rows(g, range(g.m))
    rows.sort()
    xlos = [r[0] for r in rows]
    pairs = []
    for p, (_, xhi, _, _, xa, ya, xb, yb, _, _, _, i) in enumerate(rows):
        for j in _crossed(rows, p + 1, bisect_right(xlos, xhi, p + 1), xa, ya, xb, yb):
            pairs.append((i, j) if i < j else (j, i))
    pairs.sort()
    return pairs


def _merge(
    label: list[int], par: list[int], rank: list[int], link: list[int], f: int, g: int, x: int
) -> None:
    """Merge the classes labeled f and g of a quick-find parity table.

    Each member w has a class label[w] and a parity par[w] relative to it;
    a label is a member of its own class, and link threads each class in
    a circle.  Union by rank picks the surviving label, f on a tie, so a
    class of rank r has at least 2 ** r members.  The other class's
    members take the survivor's label and have their parities toggled by
    x, and its circle is spliced into the survivor's.  A member is
    relabeled only into a class of higher rank, so at most log2 N times
    over a run on N members.
    """
    if rank[f] < rank[g]:
        f, g = g, f
    elif rank[f] == rank[g]:
        rank[f] += 1
    w = g
    while True:
        label[w] = f
        par[w] ^= x
        w = link[w]
        if w == g:
            break
    link[f], link[g] = link[g], link[f]


def _colors(label: list[int], par: list[int]) -> tuple[list[int], list[int]]:
    """(color, root) of a quick-find parity table over edges.

    Each edge's root is the lowest-index edge of its class, and its color
    is its parity relative to the root, so the root has color 0.
    """
    m = len(label)
    first = [-1] * m
    root = [0] * m
    for i, f in enumerate(label):
        if first[f] == -1:
            first[f] = i
        root[i] = first[f]
    return [p ^ par[r] for p, r in zip(par, root)], root


def _convex_coloring(
    g: GeometricGraph, hull: list[int], keep: Sequence[int]
) -> tuple[list[int], list[int]] | None:
    """(color, root) of the crossing graph of g's keep edges, or None on an odd cycle.

    Every point of S lies on the weak hull, and its order numbers them
    0 .. n - 1, so an edge is a chord, an interval [l, r] of positions.
    Once check_relaxed_edges has passed, no chord runs along a hull side
    or through a point, so [a, b] and [c, d] cross exactly when
    a < c < b < d.  The sweep meets that crossing when [c, d] starts: of
    the chords active at c (a < c < b), it crosses those with b < d, a
    prefix of the active chords sorted by right end.  The prefix takes
    one color and [c, d] the other, as in the two-stack problem of Even
    and Itai (1971).

    `keys` holds the active chords sorted by right end, then by edge
    index, as r * m + i.  `cuts` holds, sorted, the keys of the active
    chords that are not yet known to share their predecessor's class and
    color.  A query merges across the cuts in its prefix and drops them;
    an insertion adds at most two, so the merges are O(m).  Chords ending
    at x leave before the chords starting at x are queried, and these are
    all queried before any is inserted, since chords that share an end do
    not cross.
    """
    m = g.m
    pos = [0] * g.n
    for k, v in enumerate(hull):
        pos[v] = k
    starts: list[list[tuple[int, int]]] = [[] for _ in hull]
    for i in keep:
        a, b = g.edges[i]
        l, r = (pos[a], pos[b]) if pos[a] < pos[b] else (pos[b], pos[a])
        starts[l].append((r, i))
    label = list(range(m))
    par = [0] * m
    rank = [0] * m
    link = list(range(m))
    keys: list[int] = []
    cuts: list[int] = []
    for x, new in enumerate(starts):
        ended = bisect_left(keys, (x + 1) * m)
        if ended:
            del keys[:ended]
            # The new first chord has no predecessor, so no cut either.
            del cuts[: bisect_right(cuts, keys[0]) if keys else len(cuts)]
        for r, i in new:
            lo = bisect_left(keys, r * m)
            if not lo:
                continue
            c = bisect_left(cuts, r * m)
            for key in cuts[:c]:
                u, v = keys[bisect_left(keys, key) - 1] % m, key % m
                f, h = label[u], label[v]
                if f != h:
                    _merge(label, par, rank, link, f, h, par[u] ^ par[v])
                elif par[u] != par[v]:
                    return None
            del cuts[:c]
            # i meets no chord before its own query, so it is alone in its class.
            u = keys[lo - 1] % m
            _merge(label, par, rank, link, label[u], i, par[u] ^ 1)
        for r, i in new:
            key = r * m + i
            p = bisect_left(keys, key)
            keys.insert(p, key)
            if p:
                insort(cuts, key)
            if p + 1 < len(keys):
                after = keys[p + 1]
                q = bisect_left(cuts, after)
                if q == len(cuts) or cuts[q] != after:
                    cuts.insert(q, after)
    return _colors(label, par)


def _recognize(
    g: GeometricGraph,
) -> tuple[list[int], list[int]] | OddCycleWitness | TooManyEdges:
    """Two-color g's crossing graph while sweeping for its crossings.

    Returns (color, root): edge i's color, 0 or 1, and the lowest-index
    edge of its crossing-graph component, which has color 0; an odd
    cycle or the edge cap stops it instead.  Raises ValueError on a
    relaxed graph with a vertex inside an edge.

    When the weak hull holds every point of S, `_convex_coloring` colors
    the crossings in one sweep over the hull order instead, and no row is
    built.  If it meets an odd cycle, the sweep below runs from the
    start, so the witness is the one the sweep alone would name.

    The sweep is `crossing_pairs`' over the `_crossable` edges, with
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
    `crossing_pairs`' order and only rows that do not cross are cut, so
    the crossings are met in the order `crossing_pairs` finds them
    before it sorts them; every row still makes one `_crossed` call,
    with an empty window if it has nothing to test.

    Each crossing (i, j) goes straight into a quick-find parity table
    (`_merge`): per edge its class label and its parity relative to the
    label, per label its rank, and a `link` circle through each class.
    Edges of different classes merge, the class of lower rank taking the
    other's label, and (i, j) joins the spanning forest; edges of one
    class and one parity close an odd cycle through that forest, and the
    sweep stops.
    """
    check_relaxed_edges(g)
    n, m = g.n, g.m
    if exceeds_edge_cap(n, m):
        return TooManyEdges(n, m, biplane_edge_cap(n))
    hull = _weak_hull(g)
    keep = _crossable(g, hull)
    if hull is not None and len(hull) == n:
        coloring = _convex_coloring(g, hull, keep)
        if coloring is not None:
            return coloring
    rows = _edge_rows(g, keep)
    rows.sort()
    xlos = [r[0] for r in rows]
    xs = sorted(x for x, _ in g.points.points)
    shared = {x for x, y in zip(xs, xs[1:]) if x == y}
    label = list(range(m))
    par = [0] * m
    rank = [0] * m
    link = list(range(m))
    forest: list[tuple[int, int]] = []
    for p, (xlo, xhi, _, _, xa, ya, xb, yb, _, _, _, i) in enumerate(rows):
        lo = p + 1 if xlo in shared else bisect_right(xlos, xlo, p + 1)
        for j in _crossed(rows, lo, bisect_left(xlos, xhi, lo), xa, ya, xb, yb):
            # A merge can relabel i itself, so its label is read afresh.
            f, h = label[i], label[j]
            if f != h:
                forest.append((i, j))
                _merge(label, par, rank, link, f, h, par[i] ^ par[j] ^ 1)
            elif par[i] == par[j]:
                return OddCycleWitness(_forest_cycle(g, forest, i, j))
    return _colors(label, par)


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

