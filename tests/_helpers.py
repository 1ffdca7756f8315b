"""Shared fixtures-in-code for the test suite: seeded generators and
independent re-checks that deliberately avoid the library's fast paths."""

from __future__ import annotations

import random
from collections import deque
from fractions import Fraction

from biplanekit.geometry import (
    PointSet,
    Strictness,
    ValidationReport,
    cross,
    edge,
    point_in_triangle_strict,
    point_on_open_segment,
    segments_cross,
    validate,
)
from biplanekit.augmentation import (
    AugmentResult,
    apply_flip,
    build_state,
    certify_maximal,
    is_colorblind_flippable,
)
from biplanekit.graphs import GeometricGraph
from biplanekit.recognition import BiplaneDecomposition, test_biplane
from biplanekit.triangulation import GeometryError, _add_triangle


def random_strict_points(rng: random.Random, n: int, span: int = 10**6) -> PointSet:
    """Random distinct integer points with no collinear triple."""
    while True:
        coords = [(rng.randrange(span), rng.randrange(span)) for _ in range(n)]
        if len(set(coords)) < n:
            continue
        ps = PointSet.from_coords(coords)
        if validate(ps).ok:
            return ps


def random_edge_subset_graph(
    rng: random.Random, ps: PointSet, density: float | None = None
) -> GeometricGraph:
    """Uniformly random subset of all vertex pairs (not necessarily biplane)."""
    n = len(ps)
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    p = rng.random() if density is None else density
    chosen = tuple(e for e in pairs if rng.random() < p)
    return GeometricGraph(ps, chosen)


def random_biplane_graph(
    rng: random.Random, ps: PointSet, target: int
) -> GeometricGraph:
    """Greedy random biplane graph: add edges while the crossing graph stays
    bipartite (checked incrementally, independent of test_biplane)."""
    n = len(ps)
    pts = ps.points
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    rng.shuffle(pairs)
    edges: list[tuple[int, int]] = []
    adj: list[list[int]] = []
    for a, b in pairs:
        if len(edges) >= target:
            break
        crossers = [
            i
            for i, (u, v) in enumerate(edges)
            if segments_cross(pts[a], pts[b], pts[u], pts[v])
        ]
        edges.append((a, b))
        adj.append(list(crossers))
        for i in crossers:
            adj[i].append(len(edges) - 1)
        if not crossing_adjacency_is_bipartite(adj):
            for i in crossers:
                adj[i].pop()
            edges.pop()
            adj.pop()
    return GeometricGraph(ps, tuple(edge(a, b) for a, b in edges))


def crossing_adjacency_is_bipartite(adj: list[list[int]]) -> bool:
    color = [-1] * len(adj)
    for root in range(len(adj)):
        if color[root] != -1:
            continue
        color[root] = 0
        q = deque([root])
        while q:
            u = q.popleft()
            for v in adj[u]:
                if color[v] == -1:
                    color[v] = color[u] ^ 1
                    q.append(v)
                elif color[v] == color[u]:
                    return False
    return True


def brute_crossing_pairs(g: GeometricGraph) -> list[tuple[int, int]]:
    """Crossing pairs by the earlier bounding-box sweep: an active list
    rebuilt for every edge and four orientation tests per candidate."""
    pts = g.points.points
    m = g.m
    boxes = []
    for a, b in g.edges:
        pa, pb = pts[a], pts[b]
        boxes.append(
            (
                min(pa.x, pb.x),
                max(pa.x, pb.x),
                min(pa.y, pb.y),
                max(pa.y, pb.y),
            )
        )
    order = sorted(range(m), key=lambda i: boxes[i][0])
    pairs: list[tuple[int, int]] = []
    active: list[int] = []
    for i in order:
        x0, _, ylo, yhi = boxes[i]
        ai, bi = g.edges[i]
        pa, pb = pts[ai], pts[bi]
        keep = []
        for j in active:
            bj = boxes[j]
            if bj[1] < x0:
                continue
            keep.append(j)
            if bj[3] < ylo or bj[2] > yhi:
                continue
            aj, bj2 = g.edges[j]
            if segments_cross(pa, pb, pts[aj], pts[bj2]):
                pairs.append((j, i) if j < i else (i, j))
        keep.append(i)
        active = keep
    pairs.sort()
    return pairs


def brute_validate(ps: PointSet) -> ValidationReport:
    """The general-position check by scanning every triple in order."""
    if ps.strictness is Strictness.RELAXED:
        return ValidationReport(True)
    pts = ps.points
    n = len(pts)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                if cross(pts[i], pts[j], pts[k]) == 0:
                    return ValidationReport(
                        False,
                        (i, j, k),
                        f"collinear points {i}, {j}, {k}",
                    )
    return ValidationReport(True)


def brute_relaxed_edge_violations(g: GeometricGraph) -> list[tuple[int, tuple[int, int]]]:
    """Vertices strictly inside an edge, by testing every vertex against
    every edge in order."""
    pts = g.points.points
    bad = []
    for e in g.edges:
        a, b = pts[e[0]], pts[e[1]]
        for v in range(g.n):
            if v not in e and point_on_open_segment(pts[v], a, b):
                bad.append((v, e))
    return bad


def brute_crossing_adjacency(g: GeometricGraph) -> list[list[int]]:
    """Crossing graph by plain double loop (no sweep acceleration)."""
    pts = g.points.points
    m = g.m
    adj: list[list[int]] = [[] for _ in range(m)]
    for i in range(m):
        a, b = g.edges[i]
        for j in range(i + 1, m):
            c, d = g.edges[j]
            if segments_cross(pts[a], pts[b], pts[c], pts[d]):
                adj[i].append(j)
                adj[j].append(i)
    return adj


def layer_is_plane(g: GeometricGraph, layer) -> bool:
    pts = g.points.points
    layer = list(layer)
    for i in range(len(layer)):
        a, b = layer[i]
        for j in range(i + 1, len(layer)):
            c, d = layer[j]
            if segments_cross(pts[a], pts[b], pts[c], pts[d]):
                return False
    return True


def witness_cycle_is_valid(g: GeometricGraph, cycle) -> bool:
    """Odd length >= 3 and cyclically consecutive edges pairwise cross."""
    if len(cycle) < 3 or len(cycle) % 2 == 0:
        return False
    pts = g.points.points
    k = len(cycle)
    for i in range(k):
        a, b = cycle[i]
        c, d = cycle[(i + 1) % k]
        if not segments_cross(pts[a], pts[b], pts[c], pts[d]):
            return False
    return True


def graph_is_connected_after_removal(g: GeometricGraph, removed) -> bool:
    removed = set(removed)
    keep = [v for v in range(g.n) if v not in removed]
    if len(keep) <= 1:
        return True
    adj = {v: [] for v in keep}
    for a, b in g.edges:
        if a in adj and b in adj:
            adj[a].append(b)
            adj[b].append(a)
    seen = {keep[0]}
    q = deque([keep[0]])
    while q:
        u = q.popleft()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                q.append(v)
    return len(seen) == len(keep)


def brute_crossed_edges(pts, apex, a, b) -> list[tuple[int, int]]:
    """Edges of the apex map crossed by segment ab, by testing every edge
    and sorting the crossings by their exact parameter along ab."""
    pa, pb = pts[a], pts[b]
    crossed = [g for g in apex if segments_cross(pa, pb, pts[g[0]], pts[g[1]])]
    dx, dy = pb.x - pa.x, pb.y - pa.y

    def t_param(g) -> Fraction:
        u, v = pts[g[0]], pts[g[1]]
        ex, ey = v.x - u.x, v.y - u.y
        return Fraction((u.x - pa.x) * ey - (u.y - pa.y) * ex, dx * ey - dy * ex)

    return sorted(crossed, key=t_param)


def brute_fill_pocket(pts, apex, nbrs, base_u, base_v, chain) -> None:
    """Triangulate the pocket bounded by segment (base_u, base_v) and chain.

    At every step the first chain vertex that is not collinear with the base
    and whose triangle with the base has no chain vertex inside it or on its
    two new sides, and no chain edge crossing them, is used; such a vertex
    always exists because the pocket admits a triangulation.
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
            if cross(px, py, pc) == 0:
                continue
            ok = True
            for t in range(i, j):
                if t == k or chain[t] == c:
                    continue
                q = pts[chain[t]]
                if (
                    point_in_triangle_strict(q, px, py, pc)
                    or point_on_open_segment(q, px, pc)
                    or point_on_open_segment(q, py, pc)
                ):
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
        for u, v in ((x, y), (y, c), (c, x)):
            nbrs[u].add(v)
            nbrs[v].add(u)
        stack.append((x, c, i, pick))
        stack.append((c, y, pick + 1, j))


def brute_maximality_oracle(g: GeometricGraph) -> bool:
    """Definition-level maximality: every non-edge insertion breaks biplanarity.

    A non-edge with a vertex strictly inside it is not an edge on a relaxed
    point set, so it is skipped (found by testing every vertex against it).
    """
    if not isinstance(test_biplane(g), BiplaneDecomposition):
        raise ValueError("input graph is not biplane")
    pts = g.points.points
    for e in g.complement_edges():
        a, b = pts[e[0]], pts[e[1]]
        if any(point_on_open_segment(p, a, b) for p in pts):
            continue
        if isinstance(test_biplane(g.with_edges([e])), BiplaneDecomposition):
            return False
    return True


def random_lattice_points(rng: random.Random, k: int, lo: int) -> PointSet:
    """At least lo distinct cells of the k x k lattice, as a RELAXED set.

    More than k cells of a k x k lattice are never all collinear.
    """
    cells = [(x, y) for x in range(k) for y in range(k)]
    return PointSet.from_coords(rng.sample(cells, rng.randint(lo, k * k)), Strictness.RELAXED)


def drop_edges_through_vertices(g: GeometricGraph) -> GeometricGraph:
    """g without the edges that have a vertex strictly inside them."""
    bad = {e for _, e in brute_relaxed_edge_violations(g)}
    return GeometricGraph(g.points, tuple(e for e in g.edges if e not in bad))


def random_plane_graph(rng: random.Random, ps: PointSet, target: int) -> GeometricGraph:
    """Greedy random crossing-free graph with no vertex inside an edge."""
    pts = ps.points
    n = len(ps)
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    rng.shuffle(pairs)
    edges: list[tuple[int, int]] = []
    for a, b in pairs:
        if len(edges) >= target:
            break
        if any(point_on_open_segment(p, pts[a], pts[b]) for p in pts):
            continue
        if any(segments_cross(pts[a], pts[b], pts[u], pts[v]) for u, v in edges):
            continue
        edges.append((a, b))
    return GeometricGraph(ps, tuple(edges))


def brute_sweep_triangulation(pts):
    """Lexicographic sweep triangulation that keeps the hull as a list and
    copies it for every new point (O(n * h)); returns (apex map, hull)."""
    n = len(pts)
    order = sorted(range(n), key=lambda i: pts[i])
    apex = {}
    chain = [order[0]]
    hull = None
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


def reference_augment(g: GeometricGraph, *, collect_trace: bool = False) -> AugmentResult:
    """maximal_augment (n >= 3) through the public per-edge API: every
    popped purple edge is tested with is_colorblind_flippable and flipped
    with apply_flip, which evaluates its clause a second time."""
    state = build_state(g, collect_trace=collect_trace)
    while state.queue:
        e = state.queue.popleft()
        if e not in state.purple:
            continue
        if not is_colorblind_flippable(state, e):
            continue
        apply_flip(state, e)
    if not certify_maximal(state):
        raise GeometryError("queue drained but a flippable purple edge remains")
    red = tuple(state.red_edges())
    blue = tuple(state.blue_edges())
    layer2 = tuple(e for e in blue if e not in state.purple)
    graph = GeometricGraph(g.points, tuple(sorted(state.edges)))
    trace = tuple(state.trace) if state.trace is not None else None
    return AugmentResult(graph, BiplaneDecomposition(red, layer2), red, blue, state, trace)
