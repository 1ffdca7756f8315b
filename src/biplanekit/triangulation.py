"""Plane triangulations over numbered darts.

Representation: edge k owns two darts (directed edges), 2k from its lower
vertex to its higher one and 2k + 1 back, so `d ^ 1` is the other dart of
d's edge.  Three int lists are indexed by dart: `head[d]`, the vertex d
points to; `apex[d]`, the apex of the triangle left of d, or OUTER where
the outer face lies there; and `nxt[d]`, the dart after d
counterclockwise around that triangle, or after it clockwise around the
hull where the outer face lies.  `out[v]` is one dart leaving vertex v.
This is a half-edge map (Guibas and Stolfi, "Primitives for the
manipulation of general subdivisions", ACM TOG 4, 1985): the triangle on
a given side of an edge is one lookup, and so is a vertex's next
neighbour, since `nxt[d ^ 1]` is the dart after d clockwise around d's
tail.  Only building a triangle tests an orientation; reading and
walking the map test none.

Completion of a plane graph to a triangulation runs in two deterministic
stages: a lexicographic sweep triangulates the bare point set, keeping the
hull as a linked ring so that each point costs only the hull edges it sees
and appending two darts per new edge, then each input edge is inserted as
a constraint.  Several plane edge sets on one point set can be completed
from a single sweep.  Insertion walks along the segment: it starts at the
triangle around the endpoint of lower degree whose wedge holds the
segment's direction and steps from triangle to triangle through the dart
map, so it visits only the edges the segment crosses, already in order
along it.  The crossed edges are removed and the two resulting pockets,
each weakly visible from the segment, are retriangulated by one stack pass
along their boundary (Toussaint and Avis, "On a convex hull algorithm for
polygons and its application to triangulation problems", Pattern
Recognition 15, 1982).  A triangulation of n points with h on the hull
always has 3n - 3 - h edges, so the constraint and the new pocket
diagonals take over the numbers of the crossed edges, and edge numbers
stay below 3n.  The result is deterministic, idempotent, and contains
every input edge.

The faces of a plane subgraph are traced through the map of a triangulation
holding it: the face left of dart d continues along the first subgraph dart
clockwise after d's twin around d's head, found by stepping c = nxt[d],
then c = nxt[c ^ 1].  The turn also passes the other darts leaving that
vertex into the face, so all turns together place every dart in O(darts).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .geometry import Edge, Point, PointSet, cross, edge
from .graphs import GeometricGraph, relaxed_edge_violations
from .recognition import crossing_pairs

OUTER = -1  # apex of a dart whose left side is the outer face


class GeometryError(RuntimeError):
    """Internal geometric invariant broke (degenerate or inconsistent input)."""


class CollinearError(ValueError):
    """All points lie on one line, so they span no triangle."""


class NotPlaneError(ValueError):
    """Input graph has a crossing edge pair and cannot be completed."""

    def __init__(self, pair: tuple[Edge, Edge]) -> None:
        super().__init__(f"edges {pair[0]} and {pair[1]} cross")
        self.pair = pair


def _set_triangle(
    head: list[int], apex: list[int], nxt: list[int], x: int, y: int, z: int
) -> None:
    """Link darts x, y, z, given counterclockwise, into one triangle."""
    nxt[x] = y
    nxt[y] = z
    nxt[z] = x
    apex[x] = head[y]
    apex[y] = head[z]
    apex[z] = head[x]


class Triangulation:
    """Value-style triangulation.

    `head`, `apex`, `nxt` and `out` are the lists described in the module
    docstring.  Instances are not thread-shared during mutation; finished
    values are safe to share.
    """

    __slots__ = ("points", "head", "apex", "nxt", "out")

    def __init__(
        self, points: PointSet, head: list[int], apex: list[int], nxt: list[int], out: list[int]
    ) -> None:
        self.points = points
        self.head = head
        self.apex = apex
        self.nxt = nxt
        self.out = out

    def copy(self) -> "Triangulation":
        return Triangulation(self.points, self.head[:], self.apex[:], self.nxt[:], self.out[:])

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def edge_count(self) -> int:
        return len(self.head) // 2

    def edge_set(self) -> frozenset[Edge]:
        return frozenset(zip(self.head[1::2], self.head[::2]))

    def sorted_edges(self) -> list[Edge]:
        return sorted(zip(self.head[1::2], self.head[::2]))

    def dart(self, u: int, v: int) -> int:
        """The dart u -> v, or -1 if uv is not an edge; scans u's rotation."""
        if not 0 <= u < len(self.out):
            return -1
        head, nxt = self.head, self.nxt
        d = start = self.out[u]
        while head[d] != v:
            d = nxt[d ^ 1]
            if d == start:
                return -1
        return d


# ---------------------------------------------------------------------------
# Sweep triangulation of a bare point set
# ---------------------------------------------------------------------------


def _sweep_triangulation(
    pts: Sequence[Point],
) -> tuple[list[int], list[int], list[int], list[int]]:
    """Triangulate all points, processing them in lexicographic order.

    Maintains the weak hull of the processed prefix as a counterclockwise
    ring of `rn`/`rp` links, with `hd[u]` the dart from u to rn[u]; each
    new point fans to the hull chain it sees, which holds a side of the
    last inserted point, and the chain is unlinked.  Collinear prefixes
    (relaxed sets) are kept as a chain until an off-line point arrives.
    Returns (head, apex, nxt, out).
    """
    n = len(pts)
    order = sorted(range(n), key=pts.__getitem__)
    size = 6 * n  # more than two darts per edge of any triangulation
    head = [0] * size
    apex = [OUTER] * size
    nxt = [0] * size
    out = [-1] * n
    m = 0  # darts in use
    chain: list[int] = order[:1]
    rn = [-1] * n
    rp = [-1] * n
    hd = [-1] * n
    last = -1

    for idx in range(1, n):
        p = order[idx]
        pp = pts[p]
        if last < 0:
            if len(chain) == 1 or cross(pts[chain[0]], pts[chain[-1]], pp) == 0:
                chain.append(p)
                continue
            # The chain's edges and its spokes to p, counterclockwise.
            ring = chain if cross(pts[chain[0]], pts[chain[-1]], pp) > 0 else chain[::-1]
            spokes = []
            for c in ring:
                s = m + (c > p)  # c -> p
                head[s], head[s ^ 1] = p, c
                m += 2
                out[c] = s
                spokes.append(s)
            for i in range(len(ring) - 1):
                u, v = ring[i], ring[i + 1]
                x = m + (u > v)  # u -> v
                head[x], head[x ^ 1] = v, u
                m += 2
                y, z = spokes[i + 1], spokes[i] ^ 1
                nxt[x], nxt[y], nxt[z] = y, z, x
                apex[x], apex[y], apex[z] = p, u, v
                hd[u] = x
            hd[ring[-1]] = spokes[-1]
            hd[p] = out[p] = spokes[0] ^ 1
            ring = ring + [p]
            for u, v in zip(ring, ring[1:] + ring[:1]):
                rn[u] = v
                rp[v] = u
            last = p
            continue

        def visible(u: int) -> bool:
            # Hull edge u -> rn[u] has p strictly on its outer side.
            return cross(pts[u], pts[rn[u]], pp) < 0

        # last is the largest point so far: both ring neighbours lie below
        # it in lexicographic order, so it is a strict hull corner whose cone
        # holds only lower directions.  p lies above last, so it sees a side.
        if visible(last):
            start = last
        elif visible(rp[last]):
            start = rp[last]
        else:
            raise GeometryError("sweep: new point sees neither hull edge at the last point")
        lo = start
        while visible(rp[lo]):
            lo = rp[lo]
            if lo == start:
                raise GeometryError("sweep: hull fully visible")
        hi = rn[start]
        while visible(hi):
            hi = rn[hi]
            if hi == start:
                raise GeometryError("sweep: hull fully visible")
        s = first = m + (lo > p)  # lo -> p
        head[s], head[s ^ 1] = p, lo
        m += 2
        out[p] = s ^ 1
        u = lo
        while u != hi:
            v = rn[u]
            o = hd[u] ^ 1  # v -> u, the outer side of the hull edge p sees
            if apex[o] != OUTER:
                raise GeometryError(f"overlapping triangles at edge {edge(u, v)}")
            t = m + (p > v)  # p -> v
            head[t], head[t ^ 1] = v, p
            m += 2
            nxt[o], nxt[s], nxt[t] = s, t, o
            apex[o], apex[s], apex[t] = p, v, u
            s = t ^ 1
            u = v
        hd[lo] = first
        hd[p] = s ^ 1
        rn[lo] = p
        rp[p] = lo
        rn[p] = hi
        rp[hi] = p
        last = p

    if last < 0:
        raise CollinearError("all points are collinear; cannot triangulate")
    hull = [rn[last]]
    while hull[-1] != last:
        hull.append(rn[hull[-1]])
    # The outer face runs clockwise: rn[u] -> u, then u -> rp[u].
    for u in hull:
        nxt[hd[u] ^ 1] = hd[rp[u]] ^ 1
    del head[m:], apex[m:], nxt[m:]
    return head, apex, nxt, out


# ---------------------------------------------------------------------------
# Constraint insertion
# ---------------------------------------------------------------------------


def _crossed_edges(
    pts: Sequence[Point], t: Triangulation, a: int, b: int
) -> list[int]:
    """Darts of the edges crossed by the absent segment ab, from a to b.

    Each is the dart p -> q with p left of a -> b and q right of it, so
    the next triangle along the segment is the one left of it.  Finds the
    triangle at a whose wedge holds direction a -> b, then steps through
    the triangle left of each crossed dart until its apex is b.
    """
    head, apex, nxt = t.head, t.apex, t.nxt
    e = edge(a, b)
    pa, pb = pts[a], pts[b]
    dx, dy = pb.x - pa.x, pb.y - pa.y
    d = start = t.out[a]
    while True:
        u = head[d]
        pu = pts[u]
        s = cross(pa, pb, pu)
        if s == 0 and (pu.x - pa.x) * dx + (pu.y - pa.y) * dy > 0:
            raise GeometryError(f"constraint {e} passes through vertex {u}")
        if s < 0:
            # u lies right of a -> b; w is the apex left of a -> u.
            w = apex[d]
            if w != OUTER and cross(pa, pb, pts[w]) > 0:
                c = nxt[d] ^ 1  # w -> u
                break
        d = nxt[d ^ 1]
        if d == start:
            raise GeometryError(f"constraint {e} crosses nothing yet is absent")
    crossed: list[int] = []
    while True:
        crossed.append(c)
        v = apex[c]
        if v == b:
            return crossed
        if v == OUTER:
            raise GeometryError(
                f"constraint {e} leaves the hull at edge {edge(head[c ^ 1], head[c])}"
            )
        s = cross(pa, pb, pts[v])
        if s == 0:
            raise GeometryError(f"constraint {e} passes through vertex {v}")
        # Left of p -> q lie q -> v and v -> p; the segment leaves through
        # v -> q if v is left of it, else through p -> v.
        c = (nxt[c] if s > 0 else nxt[nxt[c]]) ^ 1


def _insert_constraint(
    pts: Sequence[Point], t: Triangulation, deg: list[int], a: int, b: int
) -> None:
    """Force edge (a, b) into t; `deg` holds t's vertex degrees."""
    head, nxt = t.head, t.nxt
    # Presence and the walk's start both scan the rotation of one endpoint,
    # so that is the endpoint of lower degree; reversed, the walk from b
    # crosses the same edges.
    u, v = (b, a) if deg[b] < deg[a] else (a, b)
    if t.dart(u, v) >= 0:
        return
    if u == b:
        crossed = [c ^ 1 for c in reversed(_crossed_edges(pts, t, b, a))]
    else:
        crossed = _crossed_edges(pts, t, a, b)
    # The darts facing the two pockets: the upper pocket lies right of its
    # boundary walk a, ..., b, the lower one left of it.  The first
    # triangle, left of crossed[0] ^ 1, has one side on each; every later
    # one has a side on the pocket of its apex, and the last on both.
    t0 = nxt[crossed[0] ^ 1]
    up_rims, low_rims = [t0], [nxt[t0]]
    for c, c2 in zip(crossed, crossed[1:]):
        n1 = nxt[c]
        if c2 == n1 ^ 1:
            up_rims.append(nxt[n1])
        else:
            low_rims.append(n1)
    n1 = nxt[crossed[-1]]
    up_rims.append(nxt[n1])
    low_rims.append(n1)
    # The crossed edges' numbers go to the constraint and the diagonals.
    ids = [c >> 1 for c in crossed]
    for c in crossed:
        deg[head[c]] -= 1
        deg[head[c ^ 1]] -= 1
    free = ids[:]
    base = free.pop()
    _fill_pocket(pts, t, [a, *(head[r ^ 1] for r in up_rims)], up_rims, True, free, base)
    _fill_pocket(pts, t, [a, *(head[r] for r in low_rims)], low_rims, False, free, base)
    for k in ids:
        deg[head[2 * k]] += 1
        deg[head[2 * k + 1]] += 1
    # Every pocket vertex keeps its rim darts.
    out = t.out
    for r in up_rims + low_rims:
        out[head[r ^ 1]] = r


def _fill_pocket(
    pts: Sequence[Point],
    t: Triangulation,
    walk: list[int],
    rims: list[int],
    up: bool,
    free: list[int],
    base: int,
) -> None:
    """Triangulate the pocket bounded by its base, walk[0] to walk[-1], and
    the chain walk[1:-1].

    The chain lies left of the base's direction when `up`, right of it
    otherwise; rims[i] is the dart of walk[i], walk[i + 1] that faces the
    pocket.  Every chain vertex ends an edge that crossed the base, so
    the pocket is weakly visible from the base and one Graham-scan-like
    pass along the walk triangulates it (Toussaint and Avis, 1982):
    whenever the top two stack vertices and the next walk vertex turn
    strictly toward the base, their triangle is cut off and the top is
    popped.  Collinear turns are pushed and never cut.  The pass ends with
    the stack [walk[0], walk[-1]], the last triangle having the base, edge
    number `base`, as a side.  Every other new edge takes its number from
    `free`.
    """
    head, apex, nxt = t.head, t.apex, t.nxt
    base_u, base_v = walk[0], walk[-1]
    stack = [base_u]
    links: list[int] = []  # links[i]: the pocket's dart of stack[i], stack[i + 1]
    for i in range(1, len(walk)):
        v = walk[i]
        pv = pts[v]
        cur = rims[i - 1]  # the pocket's dart of stack[-1], v
        while len(stack) >= 2:
            x, y = stack[-2], stack[-1]
            c = cross(pts[x], pts[y], pv)
            if c == 0 or (c > 0) == up:
                break
            k = base if x == base_u and v == base_v else free.pop()
            # Above the base the triangle is x, v, y counterclockwise and
            # keeps x -> v; below it is x, y, v and keeps v -> x.
            if up:
                dd = 2 * k + (x > v)
                head[dd], head[dd ^ 1] = v, x
                _set_triangle(head, apex, nxt, dd, cur, links[-1])
            else:
                dd = 2 * k + (v > x)
                head[dd], head[dd ^ 1] = x, v
                _set_triangle(head, apex, nxt, links[-1], cur, dd)
            stack.pop()
            links.pop()
            cur = dd ^ 1
        stack.append(v)
        links.append(cur)
    if len(stack) != 2:
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
    edges cross, and CollinearError if the points span no triangle.  A
    triangulation is plane, so a completion that keeps every input edge
    proves the input plane; only one that loses an edge or raises lists
    the crossings, to name the first pair.
    """
    if isinstance(source, PointSet):
        return complete_layers(source, [()])[0]
    edges = source.edges
    try:
        t = complete_layers(source.points, [edges])[0]
    except (GeometryError, CollinearError):
        pairs = crossing_pairs(source)
        if not pairs:
            raise
    else:
        if t.edge_set().issuperset(edges):
            return t
        pairs = crossing_pairs(source)
        if not pairs:
            return t
    i, j = pairs[0]
    raise NotPlaneError((edges[i], edges[j]))


def complete_layers(
    ps: PointSet, layers: Sequence[Iterable[Edge]]
) -> list[Triangulation]:
    """Complete each plane edge set in `layers` to a triangulation of ps.

    The bare points are swept once; each layer but the last starts from a
    copy of that sweep, the last from the sweep itself.  Layers are not
    checked for crossings.  Raises CollinearError if ps spans no triangle.
    """
    pts = ps.points
    sweep = Triangulation(ps, *_sweep_triangulation(pts))
    out = []
    for i, in_edges in enumerate(layers):
        t = sweep if i == len(layers) - 1 else sweep.copy()
        in_edges = sorted(in_edges)
        if in_edges:
            deg = [0] * len(pts)
            for v in t.head:
                deg[v] += 1
            for a, b in in_edges:
                _insert_constraint(pts, t, deg, a, b)
        out.append(t)
    return out


def _triangulation_masks(
    ps: PointSet, cap: int
) -> tuple[list[Edge], list[int], list[int]]:
    """All triangulations of ps as bit masks, by breadth-first search over
    edge flips, which reaches them all (Lawson, Discrete Math. 3, 1972).

    Returns (segments, crossing, masks).  Bit k of a mask stands for
    segments[k], and the segments are the point pairs with no point inside
    them, in sorted order.  crossing[k] masks the segments that cross
    segment k, read off `crossing_pairs`.  masks[0] is the completion of
    the bare points.  The edges of each triangulation T are tried in
    sorted order; edge e flips to the segment that crosses e and no other
    edge of T.  Raises ValueError when ps has more than `cap` points.
    """
    if len(ps) > cap:
        raise ValueError(f"point set size {len(ps)} exceeds cap {cap}")
    start = complete_to_triangulation(ps)
    n = len(ps)
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    inside = {e for _, e in relaxed_edge_violations(GeometricGraph(ps, pairs))}
    segments = [e for e in pairs if e not in inside]
    crossing = [0] * len(segments)
    for i, j in crossing_pairs(GeometricGraph(ps, segments)):
        crossing[i] |= 1 << j
        crossing[j] |= 1 << i
    crossers = [
        [(1 << j, crossing[j]) for j in range(len(crossing)) if c >> j & 1] for c in crossing
    ]
    bit = {e: 1 << k for k, e in enumerate(segments)}
    masks = [sum(bit[e] for e in start.edge_set())]
    seen = set(masks)
    for t in masks:  # masks grows as the search finds triangulations
        rest = t
        while rest:
            low = rest & -rest
            rest ^= low
            for f, across in crossers[low.bit_length() - 1]:
                if across & t == low:
                    t2 = t ^ low | f
                    if t2 not in seen:
                        seen.add(t2)
                        masks.append(t2)
                    break
    return segments, crossing, masks


# ---------------------------------------------------------------------------
# Plane-graph face traversal (clockwise turns through the dart map)
# ---------------------------------------------------------------------------


def plane_face_walks(
    ps: PointSet, edges: Iterable[Edge]
) -> tuple[dict[Edge, int], list[list[Edge]]]:
    """Trace the faces of a plane graph on ps.

    Returns (dart -> walk id, walks), each dart (directed edge) written as
    a vertex pair, read off a completion of the graph by
    `trace_face_walks`.  Walks are started at a -> b, then b -> a, for each
    edge (a, b) in sorted order.  Every dart belongs to exactly one closed
    walk; bounded faces trace counterclockwise.  Faces with holes give one
    walk per boundary component; grouping walks into faces is the caller's
    concern.
    """
    g = GeometricGraph(ps, tuple(edges))
    t = complete_to_triangulation(g)
    head = t.head
    ids = [t.dart(a, b) >> 1 for a, b in g.edges]
    member = bytearray(t.edge_count)
    for k in ids:
        member[k] = 1
    walk, walks, _ = trace_face_walks(t.nxt, member, ids)
    darts = [d for k in ids for d in (2 * k, 2 * k + 1)]
    return (
        {(head[d ^ 1], head[d]): walk[d] for d in darts},
        [[(head[d ^ 1], head[d]) for d in w] for w in walks],
    )


def face_turns(nxt: list[int], member: bytearray) -> tuple[list[int], list[int]]:
    """One clockwise turn around the head of each dart of a subgraph.

    `nxt` is a triangulation's dart list, and `member[k]` marks the edges k
    of the subgraph.  The turn for subgraph dart d steps c = nxt[d], then
    c = nxt[c ^ 1], one neighbour clockwise around d's head each step (the
    outer face included), and stops at the first subgraph dart: the dart
    after d in the face walk on its left.  Returns (each subgraph dart's
    successor, -1 elsewhere; for each other dart that a turn passes, and
    so leaves its tail into that face, the dart whose turn passed it, -1
    for darts no turn passes).
    """
    succ = [-1] * len(nxt)
    passed = [-1] * len(nxt)
    for d, c in enumerate(nxt):
        if member[d >> 1]:
            while not member[c >> 1]:
                passed[c] = d
                c = nxt[c ^ 1]
            succ[d] = c
    return succ, passed


def trace_face_walks(
    nxt: list[int], member: bytearray, order: Iterable[int]
) -> tuple[list[int], list[list[int]], list[int]]:
    """Trace the closed walks of the subgraph `member` of a triangulation.

    Walks are started at dart 2k, then 2k + 1, for each edge k in `order`.
    Returns (walk id of each subgraph dart, -1 elsewhere; walks as lists
    of darts; the passed darts of `face_turns`); the walk of a dart traces
    the face on its left.
    """
    succ, passed = face_turns(nxt, member)
    walk = [-1] * len(succ)
    walks: list[list[int]] = []
    for k in order:
        for d in (2 * k, 2 * k + 1):
            path = []
            while walk[d] < 0:  # succ is a permutation: the walk closes at start
                walk[d] = len(walks)
                path.append(d)
                d = succ[d]
            if path:
                walks.append(path)
    return walk, walks, passed
