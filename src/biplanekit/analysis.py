"""Connectivity, degree statistics, and brute-force oracles.

The oracles here are deliberately independent of the fast augmentation
path.  Maximality is checked against its definition: recognition colors
the crossing graph once, and each non-edge is tried by a parity check of
the edges it crosses (non-edges through a vertex are skipped on relaxed
point sets, found by one relaxed_edge_violations pass over all
non-edges).  The crossings of one non-edge are found with recognition's
exact kernel `_crossed`, the one that `crossing_graph` runs: a y-extent test,
two signed areas against the non-edge's line per edge, and two more
against the edge's stored line only when those do not already rule the
crossing out.  On maximal random graphs a non-edge meets a clash after
about 30 edges, so n = 200 (18,926 non-edges) takes about 0.5 s on a
2-vCPU VM.  Maximum size is found by enumerating all triangulation
pairs.  They exist to verify the fast algorithms on desk-scale instances.
"""

from __future__ import annotations

import random
from collections import Counter, deque
from typing import NamedTuple

from .augmentation import maximal_augment
from .geometry import Edge, PointSet, Strictness, _typed_eq, edge
from .graphs import GeometricGraph, relaxed_edge_violations
from .recognition import (
    OddCycleWitness,
    TooManyEdges,
    _crossed,
    _edge_rows,
    _recognize,
    exceeds_edge_cap,
)
from .triangulation import enumerate_triangulations


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


def maximality_oracle(g: GeometricGraph) -> bool:
    """Definition-level maximality: every non-edge insertion breaks biplanarity.

    g + e is biplane exactly when, inside each component of g's crossing
    graph, all the edges e crosses have the same color, so one recognition
    of g decides every non-edge in a pass over the edges.  On relaxed point
    sets a non-edge with a vertex on its open segment is not a valid edge
    and is skipped.  Raises ValueError when g is not biplane or breaks the
    relaxed contract.
    """
    coloring = _recognize(g)
    if isinstance(coloring, (OddCycleWitness, TooManyEdges)):
        raise ValueError("input graph is not biplane")
    if exceeds_edge_cap(g.n, g.m + 1):
        return True
    color, root = coloring
    rows = _edge_rows(g, zip(root, color))
    # Longest edges first: they cross the most non-edges, so a clash is
    # found early, and the scan's length depends on the geometry alone,
    # not on how the vertices are labelled.
    rows.sort(
        key=lambda r: (
            -((r[4] - r[6]) ** 2 + (r[5] - r[7]) ** 2),
            min(r[4:6], r[6:8]),
            max(r[4:6], r[6:8]),
        )
    )
    non_edges = g.complement_edges()
    through_vertex: set[Edge] = set()
    if g.points.strictness is Strictness.RELAXED:
        blocked = relaxed_edge_violations(GeometricGraph(g.points, tuple(non_edges)))
        through_vertex = {e for _, e in blocked}
    pts = g.points.points
    for e in non_edges:
        if e in through_vertex:
            continue
        seen: dict[int, int] = {}
        (xa, ya), (xb, yb) = pts[e[0]], pts[e[1]]
        for comp, side in _crossed(rows, 0, len(rows), xa, ya, xb, yb):
            if seen.setdefault(comp, side) != side:
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
    """
    tris = enumerate_triangulations(ps, cap=cap)
    universe: dict[Edge, int] = {}
    masks = []
    edge_lists = []
    for t in tris:
        es = t.sorted_edges()
        mask = 0
        for e in es:
            bit = universe.setdefault(e, len(universe))
            mask |= 1 << bit
        masks.append(mask)
        edge_lists.append(es)
    best = -1
    best_pair = (0, 0)
    k = len(masks)
    for i in range(k):
        mi = masks[i]
        for j in range(i, k):
            size = (mi | masks[j]).bit_count()
            if size > best:
                best = size
                best_pair = (i, j)
    i, j = best_pair
    union_edges = tuple(sorted(set(edge_lists[i]) | set(edge_lists[j])))
    return OracleResult(best, GeometricGraph(ps, union_edges), k)


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
    single random edge absent from the previous maximal graph.  Reproducible
    for a fixed seed.
    """
    rng = random.Random(seed)
    n = len(ps)
    results = []
    res = maximal_augment(GeometricGraph(ps, ()))
    results.append(res.graph)
    for _ in range(max(0, trials - 1)):
        prev = results[-1]
        missing = prev.complement_edges()
        if not missing:
            break
        start = rng.choice(missing)
        res = maximal_augment(GeometricGraph(ps, (start,)))
        results.append(res.graph)
    sizes = tuple(g.m for g in results)
    smallest = min(range(len(results)), key=lambda i: sizes[i])
    largest = max(range(len(results)), key=lambda i: sizes[i])
    return GapReport(
        sizes[smallest],
        sizes[largest],
        results[smallest],
        results[largest],
        sizes,
    )


def degree_histogram(g: GeometricGraph) -> dict[int, int]:
    """Map degree -> number of vertices of that degree."""
    return dict(sorted(Counter(g.degrees()).items()))
