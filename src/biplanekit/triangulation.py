"""Plane triangulations as dart maps, with exact integer flips.

Representation: one dict over darts (directed edges).  `left[(u, v)]` is
the apex of the triangle left of u -> v, or None where the outer face lies
there; both darts of every edge are keys.  This is a half-edge map
(Guibas and Stolfi, "Primitives for the manipulation of general
subdivisions", ACM TOG 4, 1985): the triangle on a given side of an edge
is one lookup, and so is a vertex's next neighbour counterclockwise, since
the apex left of v -> u follows u around v.  Only building a triangle
tests an orientation; reading, walking and flipping the map test none.

Completion of a plane graph to a triangulation runs in two deterministic
stages: a lexicographic sweep triangulates the bare point set, keeping the
hull as a linked ring so that each point costs only the hull edges it sees,
then each input edge is inserted as a constraint.  Several plane edge sets
on one point set can be completed from a single sweep.  Insertion walks
along the segment: it starts at the triangle around the endpoint of lower
degree whose wedge holds the segment's direction and steps from triangle to
triangle through the dart map, so it visits only the edges the segment
crosses, already in order along it.  The crossed edges are removed and the
two resulting pockets, each weakly visible from the segment, are
retriangulated by one stack pass along their boundary (Toussaint and Avis,
"On a convex hull algorithm for polygons and its application to
triangulation problems", Pattern Recognition 15, 1982).  The walk reads each
vertex's incident edges from a neighbour index that completion builds after
the sweep, only when there are constraints, and that insertion keeps current
as it removes and adds edges.  The result is deterministic, idempotent, and
contains every input edge.

The faces of a plane subgraph are traced through the map of a triangulation
holding it: the face left of u -> v continues along v -> w, w the first
subgraph neighbour clockwise from u around v, one lookup per step.  The
turn also passes the other darts leaving v into that face, so all turns
together place every dart in O(darts).
"""

from __future__ import annotations

from collections import deque
from enum import Enum
from typing import Iterable, Sequence

from .geometry import Edge, Point, PointSet, cross, edge, proper_cross
from .graphs import GeometricGraph
from .recognition import crossing_pairs

Dart = tuple[int, int]  # directed edge (u, v); (v, u) is the other dart of the edge


class GeometryError(RuntimeError):
    """Internal geometric invariant broke (degenerate or inconsistent input)."""


class CollinearError(ValueError):
    """All points lie on one line, so they span no triangle."""


class NotPlaneError(ValueError):
    """Input graph has a crossing edge pair and cannot be completed."""

    def __init__(self, pair: tuple[Edge, Edge]) -> None:
        super().__init__(f"edges {pair[0]} and {pair[1]} cross")
        self.pair = pair


class FlipStatus(Enum):
    FLIPPABLE = "flippable"
    NOT_AN_EDGE = "not-an-edge"
    HULL_EDGE = "hull-edge"
    NOT_CONVEX = "not-convex"


def _add_triangle(
    pts: Sequence[Point], left: dict[Dart, int | None], u: int, v: int, w: int
) -> None:
    """Record triangle uvw, given in either orientation, in the dart map."""
    c = cross(pts[u], pts[v], pts[w])
    if c == 0:
        raise GeometryError(f"degenerate triangle ({u}, {v}, {w})")
    if c < 0:
        v, w = w, v
    for d, z in (((u, v), w), ((v, w), u), ((w, u), v)):
        if left.get(d) is not None:
            raise GeometryError(f"overlapping triangles at edge {edge(*d)}")
        left[d] = z
        left.setdefault((d[1], d[0]), None)


class Triangulation:
    """Value-style triangulation; flip() returns a new object.

    `left` is the dart map described in the module docstring.  Instances
    are not thread-shared during mutation; finished values are safe to
    share.  Hull edges refuse to flip.
    """

    __slots__ = ("points", "left", "boundary", "_hull_edges")

    def __init__(
        self,
        points: PointSet,
        left: dict[Dart, int | None],
        boundary: Sequence[int],
    ) -> None:
        self.points = points
        self.left = left
        self.boundary = tuple(boundary)
        b = self.boundary
        self._hull_edges = frozenset(
            edge(b[i], b[(i + 1) % len(b)]) for i in range(len(b))
        )

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def edge_count(self) -> int:
        return len(self.left) // 2

    def edge_set(self) -> frozenset[Edge]:
        return frozenset(d for d in self.left if d[0] < d[1])

    def sorted_edges(self) -> list[Edge]:
        return sorted(d for d in self.left if d[0] < d[1])

    def hull_edges(self) -> frozenset[Edge]:
        return self._hull_edges

    def flip_status(self, e: Edge) -> FlipStatus:
        a, b = e
        if (a, b) not in self.left:
            return FlipStatus.NOT_AN_EDGE
        l, r = self.left[(a, b)], self.left[(b, a)]
        if l is None or r is None:
            return FlipStatus.HULL_EDGE
        pts = self.points.points
        if proper_cross(pts[a], pts[b], pts[l], pts[r]):
            return FlipStatus.FLIPPABLE
        return FlipStatus.NOT_CONVEX

    def is_flippable(self, e: Edge) -> bool:
        return self.flip_status(e) is FlipStatus.FLIPPABLE

    def flip(self, e: Edge) -> "Triangulation":
        out = Triangulation(self.points, dict(self.left), self.boundary)
        out._flip_in_place(e)
        return out

    def _flip_in_place(self, e: Edge) -> Edge:
        status = self.flip_status(e)
        if status is not FlipStatus.FLIPPABLE:
            raise ValueError(f"edge {e} is not flippable: {status.value}")
        left = self.left
        a, b = e
        l, r = left[(a, b)], left[(b, a)]
        if (l, r) in left:
            raise GeometryError(f"flip target {edge(l, r)} already present")
        del left[(a, b)], left[(b, a)]
        #           b                     b
        #         / | \                 /   \
        #        l  |  r     ->        l-----r
        #         \ | /                 \   /
        #           a                     a
        # The new edge has a left of r -> l and b left of l -> r; the four
        # rim darts facing the quad trade their apex.
        left[(r, l)] = a
        left[(l, r)] = b
        for d, old, new in (((a, r), b, l), ((r, b), a, l), ((b, l), a, r), ((l, a), b, r)):
            if left[d] != old:
                raise GeometryError(f"dart map inconsistent at {d}")
            left[d] = new
        return edge(l, r)

# ---------------------------------------------------------------------------
# Sweep triangulation of a bare point set
# ---------------------------------------------------------------------------


def _sweep_triangulation(
    pts: Sequence[Point],
) -> tuple[dict[Dart, int | None], list[int]]:
    """Triangulate all points, processing them in lexicographic order.

    Maintains the weak hull of the processed prefix as a counterclockwise
    ring of `nxt`/`prv` links; each new point fans to the hull chain it
    sees, found by walking from the last inserted point, and the chain is
    unlinked.  Collinear prefixes (relaxed sets) are kept as a chain until
    an off-line point arrives.
    """
    n = len(pts)
    order = sorted(range(n), key=lambda i: pts[i])
    left: dict[Dart, int | None] = {}
    chain: list[int] = order[:1]
    nxt = [-1] * n
    prv = [-1] * n
    last = -1

    for idx in range(1, n):
        p = order[idx]
        pp = pts[p]
        if last < 0:
            if len(chain) == 1 or cross(pts[chain[0]], pts[chain[-1]], pp) == 0:
                chain.append(p)
                continue
            turn = cross(pts[chain[0]], pts[chain[-1]], pp)
            for u, v in zip(chain, chain[1:]):
                _add_triangle(pts, left, p, u, v)
            ring = chain + [p] if turn > 0 else chain[::-1] + [p]
            for u, v in zip(ring, ring[1:] + ring[:1]):
                nxt[u] = v
                prv[v] = u
            last = p
            continue

        def visible(u: int) -> bool:
            # Hull edge u -> nxt[u] has p strictly on its outer side.
            return cross(pts[u], pts[nxt[u]], pp) < 0

        if visible(last):
            start = last
        elif visible(prv[last]):
            start = prv[last]
        else:
            start = nxt[last]
            while not visible(start):
                start = nxt[start]
                if start == last:
                    raise GeometryError("sweep: new point sees no hull edge")
        lo = start
        while visible(prv[lo]):
            lo = prv[lo]
            if lo == start:
                raise GeometryError("sweep: hull fully visible")
        hi = nxt[start]
        while visible(hi):
            hi = nxt[hi]
            if hi == start:
                raise GeometryError("sweep: hull fully visible")
        u = lo
        while u != hi:
            v = nxt[u]
            _add_triangle(pts, left, p, u, v)
            u = v
        nxt[lo] = p
        prv[p] = lo
        nxt[p] = hi
        prv[hi] = p
        last = p

    if last < 0:
        raise CollinearError("all points are collinear; cannot triangulate")
    hull = [nxt[last]]
    while hull[-1] != last:
        hull.append(nxt[hull[-1]])
    return left, hull


# ---------------------------------------------------------------------------
# Constraint insertion
# ---------------------------------------------------------------------------


def _crossed_edges(
    pts: Sequence[Point],
    left: dict[Dart, int | None],
    nbrs: list[set[int]],
    a: int,
    b: int,
) -> list[Dart]:
    """Edges crossed by the absent segment ab, in order from a to b.

    Each comes as the dart (p, q) with p left of a -> b and q right of it,
    so the next triangle along the segment is the one left of p -> q.
    Finds the triangle at a whose wedge holds direction a -> b, then steps
    through the triangle left of each crossed dart until its apex is b.
    """
    e = edge(a, b)
    pa, pb = pts[a], pts[b]
    dx, dy = pb.x - pa.x, pb.y - pa.y
    first: Dart | None = None
    for u in nbrs[a]:
        pu = pts[u]
        s = cross(pa, pb, pu)
        if s == 0 and (pu.x - pa.x) * dx + (pu.y - pa.y) * dy > 0:
            raise GeometryError(f"constraint {e} passes through vertex {u}")
        if s < 0:
            # u lies right of a -> b; w is the apex left of a -> u.
            w = left[(a, u)]
            if w is not None and cross(pa, pb, pts[w]) > 0:
                first = (w, u)
                break
    if first is None:
        raise GeometryError(f"constraint {e} crosses nothing yet is absent")
    p, q = first
    crossed: list[Dart] = []
    while True:
        crossed.append((p, q))
        v = left[(p, q)]
        if v == b:
            return crossed
        if v is None:
            raise GeometryError(f"constraint {e} leaves the hull at edge {edge(p, q)}")
        s = cross(pa, pb, pts[v])
        if s == 0:
            raise GeometryError(f"constraint {e} passes through vertex {v}")
        if s > 0:
            p = v
        else:
            q = v


def _insert_constraint(
    pts: Sequence[Point],
    left: dict[Dart, int | None],
    nbrs: list[set[int]],
    a: int,
    b: int,
) -> None:
    """Force edge (a, b) into the triangulation held in `left` and `nbrs`."""
    if (a, b) in left:
        return
    # The walk's start scans the neighbours of its first vertex, so it
    # starts at the endpoint of lower degree; reversed, the walk from b
    # crosses the same edges.
    if len(nbrs[b]) < len(nbrs[a]):
        crossed = [(q, p) for p, q in reversed(_crossed_edges(pts, left, nbrs, b, a))]
    else:
        crossed = _crossed_edges(pts, left, nbrs, a, b)
    upper: list[int] = []
    lower: list[int] = []
    for p, q in crossed:
        if not upper or upper[-1] != p:
            upper.append(p)
        if not lower or lower[-1] != q:
            lower.append(q)
        del left[(p, q)], left[(q, p)]
        nbrs[p].discard(q)
        nbrs[q].discard(p)
    _fill_pocket(pts, left, nbrs, a, b, upper, True)
    _fill_pocket(pts, left, nbrs, a, b, lower, False)


def _fill_pocket(
    pts: Sequence[Point],
    left: dict[Dart, int | None],
    nbrs: list[set[int]],
    base_u: int,
    base_v: int,
    chain: list[int],
    up: bool,
) -> None:
    """Triangulate the pocket bounded by segment (base_u, base_v) and chain.

    The chain lies left of base_u -> base_v when `up`, right of it
    otherwise.  Every chain vertex ends an edge that crossed the base, so
    the pocket is weakly visible from the base and one Graham-scan-like
    pass along the walk base_u, chain..., base_v triangulates it (Toussaint
    and Avis, 1982): whenever the top two stack vertices and the next walk
    vertex turn strictly toward the base, their triangle is cut off and the
    top is popped.  Collinear turns are pushed and never cut.  The pass
    ends with the stack [base_u, base_v], the last triangle having the base
    as a side.  The walk's darts that face the pocket, which named
    triangles the constraint crossed, are cleared first.
    """
    if not chain:
        return
    walk = [base_u, *chain, base_v]
    for u, v in zip(walk, walk[1:]):
        # Above the base the pocket lies right of the walk, below it left.
        d = (v, u) if up else (u, v)
        if d not in left:
            raise GeometryError(f"pocket boundary edge {edge(u, v)} missing")
        left[d] = None
    stack = [base_u]
    for v in walk[1:]:
        pv = pts[v]
        while len(stack) >= 2:
            x, y = stack[-2], stack[-1]
            c = cross(pts[x], pts[y], pv)
            if c == 0 or (c > 0) == up:
                break
            _add_triangle(pts, left, x, y, v)
            nbrs[x].add(v)
            nbrs[v].add(x)
            stack.pop()
        stack.append(v)
    if stack != [base_u, base_v]:
        raise GeometryError(
            f"pocket on ({base_u}, {base_v}) is not weakly visible from its base"
        )


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def complete_to_triangulation(source: GeometricGraph | PointSet) -> Triangulation:
    """Deterministically extend a plane graph to a full triangulation.

    Idempotent (a triangulation comes back unchanged) and monotone (every
    input edge appears in the output).  Raises NotPlaneError if two input
    edges cross, and CollinearError if the points span no triangle.
    """
    if isinstance(source, PointSet):
        ps = source
        in_edges: tuple[Edge, ...] = ()
    else:
        ps = source.points
        in_edges = source.edges
    if in_edges:
        pairs = crossing_pairs(source)
        if pairs:
            i, j = pairs[0]
            raise NotPlaneError((in_edges[i], in_edges[j]))
    return complete_layers(ps, [in_edges])[0]


def complete_layers(
    ps: PointSet, layers: Sequence[Iterable[Edge]]
) -> list[Triangulation]:
    """Complete each plane edge set in `layers` to a triangulation of ps.

    The bare points are swept once; each layer but the last starts from a
    copy of that sweep, the last from the sweep itself.  Layers are not
    checked for crossings.  Raises CollinearError if ps spans no triangle.
    """
    pts = ps.points
    sweep, hull = _sweep_triangulation(pts)
    out = []
    for i, in_edges in enumerate(layers):
        left = sweep if i == len(layers) - 1 else dict(sweep)
        in_edges = sorted(in_edges)
        if in_edges:
            nbrs: list[set[int]] = [set() for _ in pts]
            for u, v in left:
                nbrs[u].add(v)
            for a, b in in_edges:
                _insert_constraint(pts, left, nbrs, a, b)
        out.append(Triangulation(ps, left, hull))
    return out


def enumerate_triangulations(ps: PointSet, cap: int = 9) -> list[Triangulation]:
    """All triangulations of ps, by breadth-first search over edge flips."""
    if len(ps) > cap:
        raise ValueError(f"point set size {len(ps)} exceeds cap {cap}")
    start = complete_to_triangulation(ps)
    seen = {start.edge_set()}
    out = [start]
    queue = deque([start])
    while queue:
        t = queue.popleft()
        for e in t.sorted_edges():
            if t.is_flippable(e):
                t2 = t.flip(e)
                key = t2.edge_set()
                if key not in seen:
                    seen.add(key)
                    out.append(t2)
                    queue.append(t2)
    return out


# ---------------------------------------------------------------------------
# Plane-graph face traversal (clockwise turns through the dart map)
# ---------------------------------------------------------------------------


def plane_face_walks(
    ps: PointSet, edges: Iterable[Edge]
) -> tuple[dict[Dart, int], list[list[Dart]]]:
    """Trace the faces of a plane graph on ps.

    Returns (dart -> walk id, walks), read off a completion of the graph
    by `trace_face_walks`.  Every dart (directed edge) belongs to exactly
    one closed walk; bounded faces trace counterclockwise.  Faces with
    holes give one walk per boundary component; grouping walks into faces
    is the caller's concern.
    """
    edges = sorted(edges)
    t = complete_to_triangulation(GeometricGraph(ps, tuple(edges)))
    dart_of, walk, walks, _ = trace_face_walks(t, edges)
    darts = list(dart_of)
    return dict(zip(darts, walk)), [[darts[d] for d in w] for w in walks]


def face_turns(
    t: Triangulation, dart_of: dict[Dart, int]
) -> tuple[list[int], dict[Dart, int]]:
    """One clockwise turn around the head of each numbered dart of t.

    The numbered darts are those of a subgraph of t.  The turn for u -> v
    steps x = left[(x, v)] from x = u, one neighbour clockwise around v, or
    to v's boundary predecessor where the outer face lies left of x -> v.
    It stops at the first numbered v -> w, the dart after u -> v in the
    face walk on its left.  Returns (the successor's number for each
    number; for each unnumbered dart of t that a turn passes, and so leaves
    v into that face, the number of the dart whose turn passed it).
    """
    left, b = t.left, t.boundary
    before = dict(zip(b, b[-1:] + b[:-1]))
    succ = [0] * len(dart_of)
    passed: dict[Dart, int] = {}
    for (u, v), d in dart_of.items():
        x = u
        while True:
            x = left[(x, v)]
            if x is None:
                x = before[v]
            nxt = dart_of.get((v, x))
            if nxt is not None:
                break
            passed[(v, x)] = d
        succ[d] = nxt
    return succ, passed


def trace_face_walks(
    t: Triangulation, edges: Iterable[Edge]
) -> tuple[dict[Dart, int], list[int], list[list[int]], dict[Dart, int]]:
    """Trace the closed walks of a plane subgraph `edges` of t.

    The k-th edge (a, b) of `edges` gets dart 2k for a -> b and 2k + 1 for
    b -> a, and walks are started in dart order.  Returns (dart -> number,
    listed in number order; walk id of each dart; walks as lists of dart
    numbers; the passed darts of `face_turns`); the walk of a dart traces
    the face on its left.
    """
    dart_of: dict[Dart, int] = {}
    for k, (a, b) in enumerate(edges):
        dart_of[(a, b)] = 2 * k
        dart_of[(b, a)] = 2 * k + 1
    succ, passed = face_turns(t, dart_of)
    walk = [-1] * len(succ)
    walks: list[list[int]] = []
    for start in range(len(succ)):
        d = start
        path = []
        while walk[d] < 0:  # succ is a permutation: the walk closes at start
            walk[d] = len(walks)
            path.append(d)
            d = succ[d]
        if path:
            walks.append(path)
    return dart_of, walk, walks, passed
