"""Plane triangulations with exact integer flips.

Representation: for each edge (a, b), a < b, we store the apex vertex of the
adjacent triangle on each side of the directed line a -> b (index 0 = left /
counterclockwise side, index 1 = right).  Hull edges carry None on the outer
side.  This gives constant-time adjacent-face lookup, flip tests, and flips.

Completion of a plane graph to a triangulation runs in two deterministic
stages: a lexicographic sweep triangulates the bare point set, keeping the
hull as a linked ring so that each point costs only the hull edges it sees,
then each input edge is inserted as a constraint.  Several plane edge sets
on one point set can be completed from a single sweep.  Insertion walks
along the segment: it starts at the triangle around one endpoint whose wedge
holds the segment's direction and steps from triangle to triangle through
the apex map, so it visits only the edges the segment crosses, already in
order along it.  The crossed edges are removed and the two resulting pockets,
each weakly visible from the segment, are retriangulated by one stack pass
along their boundary (Toussaint and Avis, "On a convex hull algorithm for
polygons and its application to triangulation problems", Pattern
Recognition 15, 1982).  The walk reads each vertex's incident edges from a
neighbour index that completion builds after the sweep, only when there are
constraints, and that insertion keeps current as it removes and adds edges.
The result is deterministic, idempotent, and contains every input edge.
"""

from __future__ import annotations

from collections import defaultdict, deque
from enum import Enum
from functools import cmp_to_key
from typing import Iterable, Sequence

from .geometry import (
    Edge,
    Point,
    PointSet,
    convex_hull,
    cross,
    direction_cmp,
    edge,
    proper_cross,
)
from .graphs import GeometricGraph
from .recognition import crossing_pairs


class GeometryError(RuntimeError):
    """Internal geometric invariant broke (degenerate or inconsistent input)."""


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
    pts: Sequence[Point], apex: dict[Edge, list[int | None]], u: int, v: int, w: int
) -> None:
    for x, y, z in ((u, v, w), (v, w, u), (w, u, v)):
        e = edge(x, y)
        c = cross(pts[e[0]], pts[e[1]], pts[z])
        if c == 0:
            raise GeometryError(f"degenerate triangle ({u}, {v}, {w})")
        s = 0 if c > 0 else 1
        entry = apex.get(e)
        if entry is None:
            entry = [None, None]
            apex[e] = entry
        if entry[s] is not None:
            raise GeometryError(f"overlapping triangles at edge {e}")
        entry[s] = z


class Triangulation:
    """Value-style triangulation; flip() returns a new object.

    Instances are not thread-shared during mutation; finished values are
    safe to share.  Hull edges refuse to flip.
    """

    __slots__ = ("points", "_apex", "boundary", "_hull_edges")

    def __init__(
        self,
        points: PointSet,
        apex: dict[Edge, list[int | None]],
        boundary: Sequence[int],
    ) -> None:
        self.points = points
        self._apex = apex
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
        return len(self._apex)

    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self._apex)

    def sorted_edges(self) -> list[Edge]:
        return sorted(self._apex)

    def hull_edges(self) -> frozenset[Edge]:
        return self._hull_edges

    def is_hull_edge(self, e: Edge) -> bool:
        return e in self._hull_edges

    def apexes(self, e: Edge) -> tuple[int | None, int | None]:
        """(left apex, right apex) of edge e; None on the outer side."""
        l, r = self._apex[e]
        return l, r

    def ring(self, v: int, u0: int) -> list[int]:
        """All neighbours of v in counterclockwise order, from neighbour u0.

        Read off the apex map in time linear in v's degree: the left apex
        of dart v -> u is v's next neighbour counterclockwise.  At a hull
        vertex the order is cut at the outer face instead, so the list
        runs from one hull neighbour to the other.
        """
        apex = self._apex
        ccw = [u0]
        u = u0
        while True:
            w = apex[(v, u)][0] if v < u else apex[(u, v)][1]
            if w is None:
                break  # hull vertex: the rest lies clockwise from u0
            if w == u0:
                return ccw
            ccw.append(w)
            u = w
        cw: list[int] = []
        u = u0
        while True:
            w = apex[(v, u)][1] if v < u else apex[(u, v)][0]
            if w is None:
                break
            cw.append(w)
            u = w
        cw.reverse()
        return cw + ccw

    def rotation(self, edges: Iterable[Edge]) -> dict[int, list[int]]:
        """Counterclockwise neighbour order of a subgraph of this triangulation.

        Each vertex's list is its `ring` restricted to `edges`, so it equals
        the angular order up to a cyclic shift.
        """
        adj: dict[int, list[int]] = defaultdict(list)
        for a, b in edges:
            adj[a].append(b)
            adj[b].append(a)
        rot: dict[int, list[int]] = {}
        for v, nbrs in adj.items():
            sub = set(nbrs)
            rot[v] = [u for u in self.ring(v, nbrs[0]) if u in sub]
            if len(rot[v]) < len(sub):
                raise GeometryError(f"vertex {v}: edges missing from triangulation")
        return rot

    def flip_status(self, e: Edge) -> FlipStatus:
        entry = self._apex.get(e)
        if entry is None:
            return FlipStatus.NOT_AN_EDGE
        if e in self._hull_edges:
            return FlipStatus.HULL_EDGE
        l, r = entry
        pts = self.points.points
        if proper_cross(pts[e[0]], pts[e[1]], pts[l], pts[r]):
            return FlipStatus.FLIPPABLE
        return FlipStatus.NOT_CONVEX

    def is_flippable(self, e: Edge) -> bool:
        return self.flip_status(e) is FlipStatus.FLIPPABLE

    def copy(self) -> "Triangulation":
        apex = {e: list(v) for e, v in self._apex.items()}
        return Triangulation(self.points, apex, self.boundary)

    def flip(self, e: Edge) -> "Triangulation":
        out = self.copy()
        out._flip_in_place(e)
        return out

    def _flip_in_place(self, e: Edge) -> Edge:
        status = self.flip_status(e)
        if status is not FlipStatus.FLIPPABLE:
            raise ValueError(f"edge {e} is not flippable: {status.value}")
        a, b = e
        l, r = self._apex[e]
        f = edge(l, r)
        if f in self._apex:
            raise GeometryError(f"flip target {f} already present")
        del self._apex[e]
        pts = self.points.points
        entry: list[int | None] = [None, None]
        sa = 0 if cross(pts[f[0]], pts[f[1]], pts[a]) > 0 else 1
        entry[sa] = a
        entry[1 - sa] = b
        self._apex[f] = entry
        #           b                     b
        #         / | \                 /   \
        #        l  |  r     ->        l-----r
        #         \ | /                 \   /
        #           a                     a
        # The four rim edges trade their apex on the quad side.
        for u, w, old, new in ((a, l, b, r), (l, b, a, r), (b, r, a, l), (r, a, b, l)):
            g = edge(u, w)
            ge = self._apex[g]
            s = 0 if ge[0] == old else 1
            if ge[s] != old:
                raise GeometryError(f"apex map inconsistent at {g}")
            ge[s] = new
        return f

    def triangles(self) -> list[tuple[int, int, int]]:
        out = set()
        for (a, b), (l, r) in self._apex.items():
            for w in (l, r):
                if w is not None:
                    out.add(tuple(sorted((a, b, w))))
        return sorted(out)  # type: ignore[return-value]

    def validate(self) -> None:
        """Raise GeometryError if an invariant is broken or two edges cross."""
        pts = self.points.points
        n = self.n
        h = len(self.boundary)
        if self.edge_count != 3 * n - h - 3:
            raise GeometryError(
                f"edge count {self.edge_count} != 3n-h-3 = {3 * n - h - 3}"
            )
        for e, (l, r) in self._apex.items():
            if e in self._hull_edges:
                if (l is None) == (r is None):
                    raise GeometryError(f"hull edge {e} must have one outer side")
            elif l is None or r is None:
                raise GeometryError(f"interior edge {e} lacks an apex")
            if l is not None and cross(pts[e[0]], pts[e[1]], pts[l]) <= 0:
                raise GeometryError(f"left apex of {e} not on the left")
            if r is not None and cross(pts[e[0]], pts[e[1]], pts[r]) >= 0:
                raise GeometryError(f"right apex of {e} not on the right")
        tris = self.triangles()
        if len(tris) != 2 * n - h - 2:
            raise GeometryError("Euler check failed: wrong triangle count")
        for t in tris:
            for i in range(3):
                e = edge(t[i], t[(i + 1) % 3])
                w = t[(i + 2) % 3]
                if w not in self._apex[e]:
                    raise GeometryError(f"triangle {t} missing from apex map")
        g = GeometricGraph(self.points, tuple(self._apex))
        pairs = crossing_pairs(g)
        if pairs:
            i, j = pairs[0]
            raise GeometryError(f"edges {g.edges[i]} and {g.edges[j]} cross")


# ---------------------------------------------------------------------------
# Sweep triangulation of a bare point set
# ---------------------------------------------------------------------------


def _sweep_triangulation(
    pts: Sequence[Point],
) -> tuple[dict[Edge, list[int | None]], list[int]]:
    """Triangulate all points, processing them in lexicographic order.

    Maintains the weak hull of the processed prefix as a counterclockwise
    ring of `nxt`/`prv` links; each new point fans to the hull chain it
    sees, found by walking from the last inserted point, and the chain is
    unlinked.  Collinear prefixes (relaxed sets) are kept as a chain until
    an off-line point arrives.
    """
    n = len(pts)
    order = sorted(range(n), key=lambda i: pts[i])
    apex: dict[Edge, list[int | None]] = {}
    chain: list[int] = [order[0]]
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
                _add_triangle(pts, apex, p, u, v)
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
            _add_triangle(pts, apex, p, u, v)
            u = v
        nxt[lo] = p
        prv[p] = lo
        nxt[p] = hi
        prv[hi] = p
        last = p

    if last < 0:
        raise ValueError("all points are collinear; cannot triangulate")
    hull = [nxt[last]]
    while hull[-1] != last:
        hull.append(nxt[hull[-1]])
    return apex, hull


# ---------------------------------------------------------------------------
# Constraint insertion
# ---------------------------------------------------------------------------


def _crossed_edges(
    pts: Sequence[Point],
    apex: dict[Edge, list[int | None]],
    nbrs: list[set[int]],
    a: int,
    b: int,
) -> list[Edge]:
    """Edges crossed by the absent segment ab, in order from a to b.

    Finds the triangle at a whose wedge holds direction a -> b, then steps
    across the edge opposite the previous apex until the apex is b.
    """
    e = edge(a, b)
    pa, pb = pts[a], pts[b]
    dx, dy = pb.x - pa.x, pb.y - pa.y
    first: Edge | None = None
    for u in nbrs[a]:
        pu = pts[u]
        s = cross(pa, pb, pu)
        if s == 0 and (pu.x - pa.x) * dx + (pu.y - pa.y) * dy > 0:
            raise GeometryError(f"constraint {e} passes through vertex {u}")
        if s < 0:
            # u lies right of a -> b; w is the apex left of a -> u.
            w = apex[edge(a, u)][0 if a < u else 1]
            if w is not None and cross(pa, pb, pts[w]) > 0:
                first = (w, u)
                break
    if first is None:
        raise GeometryError(f"constraint {e} crosses nothing yet is absent")
    p, q = first  # p left of a -> b, q right
    prev = a
    crossed: list[Edge] = []
    while True:
        g = edge(p, q)
        crossed.append(g)
        l, r = apex[g]
        v = r if l == prev else l
        if v == b:
            return crossed
        if v is None:
            raise GeometryError(f"constraint {e} leaves the hull at edge {g}")
        s = cross(pa, pb, pts[v])
        if s == 0:
            raise GeometryError(f"constraint {e} passes through vertex {v}")
        if s > 0:
            prev, p = p, v
        else:
            prev, q = q, v


def _insert_constraint(
    pts: Sequence[Point],
    apex: dict[Edge, list[int | None]],
    nbrs: list[set[int]],
    a: int,
    b: int,
) -> None:
    """Force edge (a, b) into the triangulation held in `apex` and `nbrs`."""
    if edge(a, b) in apex:
        return
    pa, pb = pts[a], pts[b]
    crossed = _crossed_edges(pts, apex, nbrs, a, b)
    # _crossed_edges has raised if an endpoint lies on the line through ab.
    upper: list[int] = []
    lower: list[int] = []
    for g in crossed:
        for v in g:
            side = upper if cross(pa, pb, pts[v]) > 0 else lower
            if not side or side[-1] != v:
                side.append(v)
    for g in crossed:
        del apex[g]
        nbrs[g[0]].discard(g[1])
        nbrs[g[1]].discard(g[0])
    _fill_pocket(pts, apex, nbrs, a, b, upper)
    _fill_pocket(pts, apex, nbrs, a, b, lower)


def _fill_pocket(
    pts: Sequence[Point],
    apex: dict[Edge, list[int | None]],
    nbrs: list[set[int]],
    base_u: int,
    base_v: int,
    chain: list[int],
) -> None:
    """Triangulate the pocket bounded by segment (base_u, base_v) and chain.

    Every chain vertex ends an edge that crossed the base, so the pocket is
    weakly visible from the base and one Graham-scan-like pass along the
    walk base_u, chain..., base_v triangulates it (Toussaint and Avis,
    1982): whenever the top two stack vertices and the next walk vertex
    turn strictly toward the base, their triangle is cut off and the top
    is popped.  Collinear turns are pushed and never cut.  The pass ends
    with the stack [base_u, base_v], the last triangle having the base as
    a side.  The pocket-side apex slots of the walk edges, which named
    triangles the constraint crossed, are cleared first.
    """
    if not chain:
        return
    walk = [base_u, *chain, base_v]
    # The chain lies on one side of base_u -> base_v; a turn toward the base
    # has the opposite sign, and the pocket lies on that side of the walk.
    up = cross(pts[base_u], pts[base_v], pts[chain[0]]) > 0
    for u, v in zip(walk, walk[1:]):
        entry = apex.get(edge(u, v))
        if entry is None:
            raise GeometryError(f"pocket boundary edge {edge(u, v)} missing")
        entry[(u < v) == up] = None
    stack = [base_u]
    for v in walk[1:]:
        pv = pts[v]
        while len(stack) >= 2:
            x, y = stack[-2], stack[-1]
            c = cross(pts[x], pts[y], pv)
            if c == 0 or (c > 0) == up:
                break
            _add_triangle(pts, apex, x, y, v)
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
    edges cross.
    """
    if isinstance(source, PointSet):
        ps = source
        in_edges: tuple[Edge, ...] = ()
    else:
        ps = source.points
        in_edges = source.edges
    if len(ps) < 3:
        raise ValueError("triangulation needs at least 3 points")
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
    checked for crossings.
    """
    pts = ps.points
    sweep, hull = _sweep_triangulation(pts)
    out = []
    for i, in_edges in enumerate(layers):
        if i == len(layers) - 1:
            apex = sweep
        else:
            apex = {e: list(s) for e, s in sweep.items()}
        in_edges = sorted(in_edges)
        if in_edges:
            nbrs: list[set[int]] = [set() for _ in pts]
            for u, v in apex:
                nbrs[u].add(v)
                nbrs[v].add(u)
            for a, b in in_edges:
                _insert_constraint(pts, apex, nbrs, a, b)
        out.append(Triangulation(ps, apex, hull))
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
# Plane-graph face traversal (rotation system)
# ---------------------------------------------------------------------------


def plane_face_walks(
    pts: Sequence[Point], edges: Iterable[Edge]
) -> tuple[
    dict[int, list[int]],
    dict[tuple[int, int], int],
    dict[tuple[int, int], int],
    list[list[tuple[int, int]]],
]:
    """Trace the faces of a plane graph via its rotation system.

    Returns (rotations, dart positions, dart -> walk id, walks).  Every dart
    (directed edge) belongs to exactly one closed walk; bounded faces trace
    counterclockwise.  Faces with holes produce one walk per boundary
    component; grouping walks into faces is the caller's concern.
    """
    edges = sorted(edges)
    rot = _angular_rotation(pts, edges)
    return (rot, *trace_face_walks(rot, edges))


def _angular_rotation(
    pts: Sequence[Point], edges: Sequence[Edge]
) -> dict[int, list[int]]:
    """Each vertex's neighbours sorted counterclockwise by direction."""
    adj: dict[int, list[int]] = defaultdict(list)
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    rot: dict[int, list[int]] = {}
    for v, nbrs in adj.items():
        pv = pts[v]

        def cmp(i: int, j: int, pv: Point = pv) -> int:
            return direction_cmp(
                Point(pts[i].x - pv.x, pts[i].y - pv.y),
                Point(pts[j].x - pv.x, pts[j].y - pv.y),
            )

        rot[v] = sorted(nbrs, key=cmp_to_key(cmp))
    return rot


def trace_face_walks(
    rot: dict[int, list[int]], edges: Sequence[Edge]
) -> tuple[
    dict[tuple[int, int], int],
    dict[tuple[int, int], int],
    list[list[tuple[int, int]]],
]:
    """Trace the closed walks of a plane graph given its rotation system.

    `rot[v]` lists v's neighbours counterclockwise, starting anywhere; the
    walks depend only on the cyclic order.  Darts are started in the order
    of the sorted `edges`.  Returns (dart positions, dart -> walk id, walks).
    """
    pos: dict[tuple[int, int], int] = {}
    for v, nbrs in rot.items():
        for i, u in enumerate(nbrs):
            pos[(v, u)] = i
    walk_of: dict[tuple[int, int], int] = {}
    walks: list[list[tuple[int, int]]] = []
    for a, b in edges:
        for dart in ((a, b), (b, a)):
            if dart in walk_of:
                continue
            wid = len(walks)
            path = []
            u, v = dart
            while True:
                walk_of[(u, v)] = wid
                path.append((u, v))
                r = rot[v]
                w = r[(pos[(v, u)] - 1) % len(r)]
                u, v = v, w
                if (u, v) == dart:
                    break
            walks.append(path)
    return pos, walk_of, walks


def triangulation_from_edges(
    ps: PointSet, edges: Iterable[Edge]
) -> Triangulation:
    """Rebuild a Triangulation from a bare edge set, validating it."""
    edges = sorted({edge(a, b) for a, b in edges})
    pts = ps.points
    boundary = convex_hull(ps)
    touched = {v for e in edges for v in e}
    if touched != set(range(len(ps))):
        raise GeometryError("edge set does not cover every vertex")
    pairs = crossing_pairs(GeometricGraph(ps, tuple(edges)))
    if pairs:
        raise GeometryError(f"edge set is not plane: {pairs[0]}")
    _, _, walk_of, walks = plane_face_walks(pts, edges)
    outer_dart = (boundary[1], boundary[0])
    if outer_dart not in walk_of:
        raise GeometryError("hull edge missing from edge set")
    outer = walk_of[outer_dart]
    apex: dict[Edge, list[int | None]] = {}
    for wid, path in enumerate(walks):
        if wid == outer:
            continue
        if len(path) != 3:
            raise GeometryError(f"bounded face {path} is not a triangle")
        _add_triangle(pts, apex, path[0][0], path[1][0], path[2][0])
    tri = Triangulation(ps, apex, boundary)
    if tri.edge_count != len(edges):
        raise GeometryError("reconstructed triangulation lost edges")
    return tri
