"""Plane triangulations with exact integer flips.

Representation: for each edge (a, b), a < b, we store the apex vertex of the
adjacent triangle on each side of the directed line a -> b (index 0 = left /
counterclockwise side, index 1 = right).  Hull edges carry None on the outer
side.  This gives constant-time adjacent-face lookup, flip tests, and flips.

Completion of a plane graph to a triangulation runs in two deterministic
stages: a lexicographic sweep triangulates the bare point set, then each
input edge is inserted as a constraint (crossed edges are removed and the
two resulting pockets are retriangulated).  The result is deterministic,
idempotent, and contains every input edge.
"""

from __future__ import annotations

from collections import defaultdict, deque
from enum import Enum
from fractions import Fraction
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
    point_in_triangle_strict,
    proper_cross,
    segments_cross,
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

    Maintains the weak hull of the processed prefix; each new point fans to
    the hull chain it sees.  Collinear prefixes (relaxed sets) are kept as a
    chain until an off-line point arrives.
    """
    n = len(pts)
    order = sorted(range(n), key=lambda i: pts[i])
    apex: dict[Edge, list[int | None]] = {}
    chain: list[int] = [order[0]]
    hull: list[int] | None = None
    last = -1

    for idx in range(1, n):
        p = order[idx]
        if hull is None:
            if len(chain) == 1 or cross(pts[chain[0]], pts[chain[-1]], pts[p]) == 0:
                chain.append(p)
                continue
            turn = cross(pts[chain[0]], pts[chain[-1]], pts[p])
            for u, v in zip(chain, chain[1:]):
                _add_triangle(pts, apex, p, u, v)
            hull = chain + [p] if turn > 0 else chain[::-1] + [p]
            last = len(hull) - 1
            continue

        h = len(hull)

        def visible(i: int) -> bool:
            return cross(pts[hull[i]], pts[hull[(i + 1) % h]], pts[p]) < 0

        if visible(last):
            start = last
        elif visible((last - 1) % h):
            start = (last - 1) % h
        else:
            start = next((i for i in range(h) if visible(i)), -1)
            if start < 0:
                raise GeometryError("sweep: new point sees no hull edge")
        lo = start
        while visible((lo - 1) % h):
            lo = (lo - 1) % h
            if lo == start:
                raise GeometryError("sweep: hull fully visible")
        hi = (start + 1) % h
        while visible(hi):
            hi = (hi + 1) % h
            if hi == start:
                raise GeometryError("sweep: hull fully visible")
        span = []
        i = lo
        while True:
            span.append(hull[i])
            if i == hi:
                break
            i = (i + 1) % h
        for u, v in zip(span, span[1:]):
            _add_triangle(pts, apex, p, u, v)
        keep = []
        i = hi
        while True:
            keep.append(hull[i])
            if i == lo:
                break
            i = (i + 1) % h
        keep.append(p)
        hull = keep
        last = len(hull) - 1

    if hull is None:
        raise ValueError("all points are collinear; cannot triangulate")
    return apex, hull


# ---------------------------------------------------------------------------
# Constraint insertion
# ---------------------------------------------------------------------------


def _insert_constraint(
    pts: Sequence[Point], apex: dict[Edge, list[int | None]], a: int, b: int
) -> None:
    """Force edge (a, b) into the triangulation held in `apex`."""
    e = edge(a, b)
    if e in apex:
        return
    pa, pb = pts[a], pts[b]
    crossed = [
        g for g in apex if segments_cross(pa, pb, pts[g[0]], pts[g[1]])
    ]
    if not crossed:
        raise GeometryError(f"constraint {e} crosses nothing yet is absent")

    dx, dy = pb.x - pa.x, pb.y - pa.y

    def t_param(g: Edge) -> Fraction:
        u, v = pts[g[0]], pts[g[1]]
        ex, ey = v.x - u.x, v.y - u.y
        den = dx * ey - dy * ex
        num = (u.x - pa.x) * ey - (u.y - pa.y) * ex
        return Fraction(num, den)

    crossed.sort(key=t_param)

    dead = set()
    for g in crossed:
        for w in apex[g]:
            if w is not None:
                dead.add(frozenset((g[0], g[1], w)))

    upper: list[int] = []
    lower: list[int] = []
    for g in crossed:
        for v in g:
            s = cross(pa, pb, pts[v])
            if s == 0:
                raise GeometryError("crossed edge endpoint collinear with constraint")
            side = upper if s > 0 else lower
            if not side or side[-1] != v:
                side.append(v)
    for g in crossed:
        del apex[g]

    for side in (upper, lower):
        walk = [a] + side + [b]
        for u, v in zip(walk, walk[1:]):
            g = edge(u, v)
            entry = apex.get(g)
            if entry is None:
                raise GeometryError(f"pocket boundary edge {g} missing")
            for s in (0, 1):
                w = entry[s]
                if w is not None and frozenset((g[0], g[1], w)) in dead:
                    entry[s] = None

    _fill_pocket(pts, apex, a, b, upper)
    _fill_pocket(pts, apex, a, b, lower)


def _fill_pocket(
    pts: Sequence[Point],
    apex: dict[Edge, list[int | None]],
    base_u: int,
    base_v: int,
    chain: list[int],
) -> None:
    """Triangulate the pocket bounded by segment (base_u, base_v) and chain.

    At every step the first chain vertex whose triangle with the base is
    empty of chain vertices and uncrossed by chain edges is used; such a
    vertex always exists because the pocket admits a triangulation.
    """
    if not chain:
        return
    stack = [(base_u, base_v, 0, len(chain))]
    while stack:
        x, y, i, j = stack.pop()
        if i == j:
            continue
        px, py = pts[x], pts[y]
        segs = [(chain[t], chain[t + 1]) for t in range(i, j - 1)]
        segs.append((x, chain[i]))
        segs.append((chain[j - 1], y))
        pick = -1
        for k in range(i, j):
            c = chain[k]
            pc = pts[c]
            ok = True
            for t in range(i, j):
                if t == k or chain[t] == c:
                    continue
                if point_in_triangle_strict(pts[chain[t]], px, py, pc):
                    ok = False
                    break
            if ok:
                for u, v in segs:
                    if c in (u, v):
                        continue
                    if segments_cross(px, pc, pts[u], pts[v]) or segments_cross(
                        py, pc, pts[u], pts[v]
                    ):
                        ok = False
                        break
            if ok:
                pick = k
                break
        if pick < 0:
            raise GeometryError("pocket retriangulation found no valid vertex")
        c = chain[pick]
        _add_triangle(pts, apex, x, y, c)
        stack.append((x, c, i, pick))
        stack.append((c, y, pick + 1, j))


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def complete_to_triangulation(
    source: GeometricGraph | PointSet,
    *,
    check_plane: bool = True,
) -> Triangulation:
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
    if check_plane and in_edges:
        g = source if isinstance(source, GeometricGraph) else None
        assert g is not None
        pairs = crossing_pairs(g)
        if pairs:
            i, j = pairs[0]
            raise NotPlaneError((g.edges[i], g.edges[j]))
    pts = ps.points
    apex, hull = _sweep_triangulation(pts)
    for a, b in sorted(in_edges):
        _insert_constraint(pts, apex, a, b)
    return Triangulation(ps, apex, hull)


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
    adj: dict[int, list[int]] = defaultdict(list)
    edges = sorted(edges)
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    rot: dict[int, list[int]] = {}
    pos: dict[tuple[int, int], int] = {}
    for v, nbrs in adj.items():
        pv = pts[v]

        def cmp(i: int, j: int, pv: Point = pv) -> int:
            return direction_cmp(
                Point(pts[i].x - pv.x, pts[i].y - pv.y),
                Point(pts[j].x - pv.x, pts[j].y - pv.y),
            )

        nbrs_sorted = sorted(nbrs, key=cmp_to_key(cmp))
        rot[v] = nbrs_sorted
        for i, u in enumerate(nbrs_sorted):
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
    return rot, pos, walk_of, walks


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
