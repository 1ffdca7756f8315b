"""Connectivity, degree statistics, and brute-force oracles.

The oracles here are deliberately independent of the fast augmentation
path.  Maximality is checked against its definition: recognition colors
the crossing graph once, and each non-edge is tried by a parity check of
the edges it crosses (non-edges through a vertex are skipped on relaxed
point sets, found by one relaxed_edge_violations pass over all
non-edges).  A non-edge uv first tests the edges filed under the angular
gap at u that holds v, then at v: each edge xy joining two neighbours of
u is filed under the gaps its wedge at u spans, and uv crosses it
exactly when v lies strictly across line xy from u, one signed area.
Only when those show no clash does it scan a row of every edge but the
hull sides, built here and sorted longest edge first, with recognition's
exact kernel `_crossed`.  On a maximal random graph at n = 1000 (494,494
non-edges) the ends settle all but 6,892 and the oracle takes about
1.1 s on a 2-vCPU VM.  Maximum size is the largest
union of two triangulations, each a bitmask over the segments, so every
pair costs one OR and a bit count.  They exist to verify the fast
algorithms on desk-scale instances.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections import Counter, deque
from typing import NamedTuple

from .augmentation import maximal_augment
from .geometry import COORD_LIMIT, Edge, Point, PointSet, Strictness, _typed_eq, edge
from .graphs import GeometricGraph, relaxed_edge_violations
from .recognition import (
    OddCycleWitness,
    TooManyEdges,
    _crossable,
    _crossed,
    _edge_rows,
    _recognize,
    _weak_hull,
    exceeds_edge_cap,
)
from .triangulation import CollinearError, _triangulation_masks


@_typed_eq
class ConnectivityReport(NamedTuple):
    kappa: int
    min_degree: int
    witness_cut: tuple[int, ...]  # empty when kappa == 0 or the graph is complete


def _split_network(g: GeometricGraph) -> tuple[list[int], list[int], list[list[int]]]:
    """Unit-capacity split graph of g as paired arc lists.

    Node 2i is the in-copy and 2i+1 the out-copy of vertex i; each vertex
    arc has capacity 1 and each edge is a pair of infinite arcs.  Arc e
    runs to head[e] with capacity cap[e], and arc e ^ 1 is its reverse.
    """
    n = g.n
    inf = n + 1
    head: list[int] = []
    cap: list[int] = []
    out: list[list[int]] = [[] for _ in range(2 * n)]

    def add(u: int, v: int, c: int) -> None:
        out[u].append(len(head))
        head.append(v)
        cap.append(c)
        out[v].append(len(head))
        head.append(u)
        cap.append(0)

    for v in range(n):
        add(2 * v, 2 * v + 1, 1)
    for a, b in g.edges:
        add(2 * a + 1, 2 * b, inf)
        add(2 * b + 1, 2 * a, inf)
    return head, cap, out


def _min_vertex_cut(
    network: tuple[list[int], list[int], list[list[int]]], s: int, t: int, limit: int
) -> tuple[int, list[int]]:
    """Exact s-t vertex cut by unit-capacity max flow, or a flow of `limit`.

    Augmenting stops once the flow reaches `limit`; the value is then only
    a lower bound and no cut is returned.  Below `limit` the value is the
    exact minimum and the cut is the one next to the source.
    """
    head, base_cap, out = network
    cap = list(base_cap)
    nodes = len(out)
    src, sink = 2 * s + 1, 2 * t
    flow = 0
    while flow < limit:
        via = [-1] * nodes  # arc that first reached each node
        via[src] = -2
        q = deque([src])
        while q and via[sink] == -1:
            u = q.popleft()
            for e in out[u]:
                v = head[e]
                if via[v] == -1 and cap[e] > 0:
                    via[v] = e
                    q.append(v)
        if via[sink] == -1:
            # The search ran to exhaustion: via marks the residual reach of src.
            cut = [v for v in range(nodes // 2) if via[2 * v] != -1 and via[2 * v + 1] == -1]
            return flow, cut
        v = sink
        while v != src:
            e = via[v]
            cap[e] -= 1
            cap[e ^ 1] += 1
            v = head[e ^ 1]
        flow += 1
    return flow, []


def vertex_connectivity(g: GeometricGraph) -> ConnectivityReport:
    """Exact vertex connectivity with a witness cut.

    Uses the standard pair set: a fixed minimum-degree vertex against all
    its non-neighbors, plus all non-adjacent pairs of its neighbors.  Each
    pair's flow is capped at the smallest cut found so far.  A disconnected
    graph needs no special case: a pair across two components has flow 0
    and an empty cut.
    """
    n = g.n
    if n < 2:
        raise ValueError("vertex connectivity needs at least 2 vertices")
    adj = g.adjacency()
    deg = g.degrees()
    present = set(g.edges)
    if g.m == n * (n - 1) // 2:
        return ConnectivityReport(n - 1, n - 1, ())
    v = min(range(n), key=lambda i: (deg[i], i))
    nb = sorted(adj[v])
    nb_set = set(nb)
    pairs = [(v, u) for u in range(n) if u != v and u not in nb_set]
    pairs.extend(
        (x, y)
        for i, x in enumerate(nb)
        for y in nb[i + 1 :]
        if edge(x, y) not in present
    )
    network = _split_network(g)
    best = deg[v]
    best_cut: list[int] = list(nb)
    for s, t in pairs:
        value, cut = _min_vertex_cut(network, s, t, best)
        if value < best:
            best = value
            best_cut = cut
    return ConnectivityReport(best, min(deg), tuple(sorted(best_cut)))


# Coordinate differences are at most D = 2 * COORD_LIMIT, and 2**_SHIFT > 2 * D**2.
_SHIFT = 2 * (2 * COORD_LIMIT).bit_length() + 1


def _angle_key(dx: int, dy: int) -> tuple[bool, bool, int]:
    """Exact sort key of direction (dx, dy), counterclockwise from (1, 0).

    The half plane (y > 0, or y = 0 and x > 0, first), then -dx/dy, which
    grows with the angle inside either half, scaled by 2**_SHIFT and
    floored.  Two slopes with denominators of at most D differ by at least
    1/D**2, so the floors keep their order and only equal directions tie.
    """
    if dy == 0:
        return dx < 0, False, 0
    return dy < 0, True, (-dx << _SHIFT) // dy


def _gap_index(
    g: GeometricGraph, adj: list[set[int]], payload: dict[Edge, tuple[int, int]]
) -> tuple[list[list[tuple[bool, bool, int]]], list[list[list[tuple]]]]:
    """Per vertex u, its neighbours' `_angle_key`s and the edges in each gap.

    The neighbours w_0 .. w_{d-1} of u are sorted by angle around u; gap
    i is the open wedge from w_i counterclockwise to w_{i+1}, the last
    one wrapping round to w_0, so the gap of a direction with key q is
    bisect_right(keys, q) - 1.  Each edge xy in payload, and each common
    neighbour u of x and y, is filed under every gap that the wedge x-u-y
    (less than pi) spans, as (ex, ey, k, *payload[xy]) with
    ex*py - ey*px > k exactly for the points p strictly across line xy
    from u.  A vertex with no neighbours has one empty gap.
    """
    pts = g.points.points
    angles: list[list[tuple[bool, bool, int]]] = []
    gaps: list[list[list[tuple]]] = []
    pos: list[dict[int, int]] = []
    for u, nbrs in enumerate(adj):
        ux, uy = pts[u]
        keyed = sorted((_angle_key(pts[w][0] - ux, pts[w][1] - uy), w) for w in nbrs)
        angles.append([q for q, _ in keyed])
        gaps.append([[] for _ in range(max(len(keyed), 1))])
        pos.append({w: i for i, (_, w) in enumerate(keyed)})
    for (x, y), pay in payload.items():
        (x0, y0), (x1, y1) = pts[x], pts[y]
        ex, ey = x1 - x0, y1 - y0
        k = ex * y0 - ey * x0
        for u in adj[x] & adj[y]:
            ux, uy = pts[u]
            i, j = pos[u][x], pos[u][y]
            if ex * uy - ey * ux > k:  # u left of x -> y: y follows x around u
                entry = (-ex, -ey, -k, *pay)
            else:
                entry = (ex, ey, k, *pay)
                i, j = j, i
            at = gaps[u]
            while i != j:
                at[i].append(entry)
                i += 1
                if i == len(at):
                    i = 0
    return angles, gaps


def maximality_oracle(g: GeometricGraph) -> bool:
    """Definition-level maximality: every non-edge insertion breaks biplanarity.

    g + e is biplane exactly when, inside each component of g's crossing
    graph, all the edges e crosses have the same color, so one recognition
    of g decides every non-edge.  On relaxed point sets a non-edge with a
    vertex on its open segment is not a valid edge and is skipped.  Raises
    ValueError when g is not biplane or breaks the relaxed contract.

    A non-edge uv first tries the edges filed under the gap at u that
    holds v's direction, then those at v (`_gap_index`): in each
    triangulation of a maximal g = T1 + T2, the first edge uv crosses next
    to u joins two neighbours of u and spans v's direction.  The ray from
    u towards v meets such an edge xy inside it, so uv crosses xy exactly
    when v lies strictly across line xy from u, and a clash found there
    is two real crossings.  (That needs v off the lines ux, uy and xy,
    which holds for every non-edge tried: a vertex inside an edge is
    rejected, and a non-edge with one inside it is skipped.)  Only a
    non-edge with no clash there gets the scan over every row, one
    `_edge_rows` row per `_crossable` edge, and reads the (root, color)
    of each edge it crosses.
    """
    verdict = _recognize(g)
    if isinstance(verdict, (OddCycleWitness, TooManyEdges)):
        raise ValueError("input graph is not biplane")
    if exceeds_edge_cap(g.n, g.m + 1):
        return True
    color, root = verdict
    pts = g.points.points
    edges = g.edges
    keep = _crossable(g, _weak_hull(g))
    adj = [set(nbrs) for nbrs in g.adjacency()]
    angles, gaps = _gap_index(g, adj, {edges[i]: (root[i], color[i]) for i in keep})

    def longest_first(i: int) -> tuple[int, Point, Point]:
        # Longest edges first: they cross the most non-edges, so a clash is
        # found early, and the scan's length depends on the geometry alone,
        # not on how the vertices are labelled.
        a, b = edges[i]
        p, q = (pts[a], pts[b]) if pts[a] < pts[b] else (pts[b], pts[a])
        return -((p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2), p, q

    rows = _edge_rows(g, sorted(keep, key=longest_first))
    through_vertex: set[Edge] = set()
    if g.points.strictness is Strictness.RELAXED:
        non_edges = GeometricGraph(g.points, tuple(g.complement_edges()))
        through_vertex = {e for _, e in relaxed_edge_violations(non_edges)}
    n = g.n
    for a in range(n):
        xa, ya = pts[a]
        keys, at, linked = angles[a], gaps[a], adj[a]
        for b in range(a + 1, n):
            if b in linked or (a, b) in through_vertex:
                continue
            xb, yb = pts[b]
            seen: dict[int, int] = {}
            near = at[bisect_right(keys, _angle_key(xb - xa, yb - ya)) - 1]
            for ex, ey, k, comp, side in near:
                if ex * yb - ey * xb > k and seen.setdefault(comp, side) != side:
                    break
            else:
                near = gaps[b][bisect_right(angles[b], _angle_key(xa - xb, ya - yb)) - 1]
                for ex, ey, k, comp, side in near:
                    if ex * ya - ey * xa > k and seen.setdefault(comp, side) != side:
                        break
                else:
                    for i in _crossed(rows, 0, len(rows), xa, ya, xb, yb):
                        if seen.setdefault(root[i], color[i]) != color[i]:
                            break
                    else:
                        return False
    return True


@_typed_eq
class OracleResult(NamedTuple):
    maximum_edges: int
    witness: GeometricGraph
    triangulation_count: int


def brute_force_maximum(ps: PointSet, cap: int = 9) -> OracleResult:
    """Maximum biplane size by exhausting all triangulation pairs.

    Every maximal (hence every maximum) biplane graph is a union of two
    triangulations, so maximizing |E1 union E2| over all pairs is exact.
    Points that span no triangle have no triangulation; their maximum is
    the path that `maximal_augment` returns.
    """
    try:
        segments, _, masks = _triangulation_masks(ps, cap)
    except CollinearError:
        path = maximal_augment(GeometricGraph(ps, ())).graph
        return OracleResult(path.m, path, 0)
    union = max((mi | mj for i, mi in enumerate(masks) for mj in masks[i:]), key=int.bit_count)
    edges = tuple(e for k, e in enumerate(segments) if union >> k & 1)
    return OracleResult(union.bit_count(), GeometricGraph(ps, edges), len(masks))


@_typed_eq
class GapReport(NamedTuple):
    smallest: int
    largest: int
    smallest_graph: GeometricGraph
    largest_graph: GeometricGraph
    sizes: tuple[int, ...]


def find_maximal_gap(ps: PointSet, trials: int, seed: int) -> GapReport:
    """Hunt for maximal biplane graphs of different sizes on one point set.

    Runs the augmentation from the empty graph and then repeatedly from a
    single random edge absent from the previous maximal graph.  On relaxed
    point sets a pair with a point inside it is no edge, so it is never
    drawn.  Reproducible for a fixed seed; raises ValueError if trials < 1.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = random.Random(seed)
    res = maximal_augment(GeometricGraph(ps, ()))
    results = [res.graph]
    through_vertex: set[Edge] = set()
    if ps.strictness is Strictness.RELAXED:
        # Such a pair is missing from every graph, the first one included.
        non_edges = GeometricGraph(ps, res.graph.complement_edges())
        through_vertex = {e for _, e in relaxed_edge_violations(non_edges)}
    for _ in range(trials - 1):
        prev = results[-1]
        missing = [e for e in prev.complement_edges() if e not in through_vertex]
        if not missing:
            break
        start = rng.choice(missing)
        results.append(maximal_augment(GeometricGraph(ps, (start,))).graph)
    small = min(results, key=lambda g: g.m)
    large = max(results, key=lambda g: g.m)
    return GapReport(small.m, large.m, small, large, tuple(g.m for g in results))


def degree_histogram(g: GeometricGraph) -> dict[int, int]:
    """Map degree -> number of vertices of that degree."""
    return dict(sorted(Counter(g.degrees()).items()))
