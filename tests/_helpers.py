"""Shared fixtures-in-code for the test suite: seeded generators and
independent re-checks that deliberately avoid the library's fast paths."""

from __future__ import annotations

import itertools
import math
import random
from collections import deque
from enum import Enum
from fractions import Fraction
from functools import cmp_to_key

from biplanekit.augmentation import (
    BLUE,
    RED,
    AugmentResult,
    MaximalState,
    _clause,
    _flip,
    build_state,
    certify_maximal,
)
from biplanekit.constructions import GridGraph
from biplanekit.geometry import (
    Edge,
    PointSet,
    Strictness,
    ValidationReport,
    convex_hull,
    cross,
    edge,
    point_in_triangle_strict,
    segments_cross,
    validate,
)
from biplanekit.graphs import GeometricGraph, check_relaxed_edges, relaxed_edge_violations
from biplanekit.recognition import (
    BiplaneDecomposition,
    OddCycleWitness,
    TooManyEdges,
    _crossable,
    _crossed,
    _edge_rows,
    _recognize,
    biplane_edge_cap,
    crossing_graph,
    crossing_pairs,
    exceeds_edge_cap,
    test_biplane,
)
from biplanekit.triangulation import (
    OUTER,
    GeometryError,
    Triangulation,
    _set_triangle,
    _triangulation_masks,
    complete_to_triangulation,
    face_turns,
)


def dict_add_triangle(pts, left, u, v, w) -> None:
    """Record triangle uvw, given in either orientation, in a dart dict
    {(u, v): apex left of u -> v, or None}, as the brute references keep
    their triangulations."""
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


def dart_dict(t: Triangulation) -> dict[tuple[int, int], int | None]:
    """t as a dart dict {(u, v): apex left of u -> v, or None}, the form
    the brute references read."""
    head = t.head
    return {
        (head[d ^ 1], head[d]): (None if w == OUTER else w) for d, w in enumerate(t.apex)
    }


def boundary_edges(t: Triangulation) -> frozenset[Edge]:
    """The hull edges of t, read off its boundary cycle."""
    b = t.boundary
    return frozenset(edge(u, v) for u, v in zip(b, b[1:] + b[:1]))


def turn_passed(t: Triangulation, edges) -> dict[tuple[int, int], int]:
    """face_turns' passed darts for the subgraph `edges` of t, as
    {(tail, head): number of the dart whose turn passed it}, with the k-th
    edge (a, b) numbered 2k as a -> b and 2k + 1 as b -> a."""
    member = bytearray(t.edge_count)
    num = {}
    for k, (a, b) in enumerate(edges):
        d = t.dart(a, b)
        member[d >> 1] = 1
        num[d], num[d ^ 1] = 2 * k, 2 * k + 1
    head = t.head
    _, passed = face_turns(t.nxt, member)
    return {(head[c ^ 1], head[c]): num[p] for c, p in enumerate(passed) if p >= 0}


def check_dart_lists(t: Triangulation) -> None:
    """Raise GeometryError unless t's dart lists are consistent: the darts
    of edge k run lower -> higher vertex (2k) and back (2k + 1); `nxt` has
    order 3 on inner darts, whose apex is the head of their next dart, and
    runs once around the h hull vertices on the outer darts; `out[v]`
    leaves v; and there are exactly 3n - 3 - h edge ids."""
    head, apex, nxt, out = t.head, t.apex, t.nxt, t.out
    n, h = t.n, len(t.boundary)
    if len(head) != 2 * (3 * n - 3 - h) or len(apex) != len(head) or len(nxt) != len(head):
        raise GeometryError(f"{len(head)} darts, not 2(3n - 3 - h) = {2 * (3 * n - 3 - h)}")
    for k in range(len(head) // 2):
        if not head[2 * k + 1] < head[2 * k]:
            raise GeometryError(f"edge {k} darts {head[2 * k + 1]}, {head[2 * k]} out of order")
    outer = []
    for d, w in enumerate(apex):
        x = nxt[d]
        if w == OUTER:
            outer.append(d)
            if apex[x] != OUTER or head[x ^ 1] != head[d]:
                raise GeometryError(f"outer dart {d} is not followed by the next outer dart")
            continue
        if nxt[nxt[x]] != d:
            raise GeometryError(f"nxt does not have order 3 at dart {d}")
        if head[x ^ 1] != head[d]:
            raise GeometryError(f"dart {x} after {d} does not start at its head")
        if w != head[x]:
            raise GeometryError(f"apex {w} of dart {d} is not the head {head[x]} of the next")
    if len(outer) != h:
        raise GeometryError(f"{len(outer)} outer darts, {h} hull vertices")
    d, steps = outer[0], 0
    while True:
        d, steps = nxt[d], steps + 1
        if d == outer[0]:
            break
    if steps != h:
        raise GeometryError(f"outer face walk has {steps} darts, not {h}")
    for v in range(n):
        if head[out[v] ^ 1] != v:
            raise GeometryError(f"out[{v}] = {out[v]} does not leave {v}")


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


def gcd_validate(ps: PointSet) -> ValidationReport:
    """The general-position check by grouping later points by reduced direction.

    For each i in turn the later points are grouped by their gcd-reduced
    direction from i, sign-normalised so that opposite directions meet;
    the first i with a group of two or more names the first such group's
    two smallest members.  O(n^2) with a gcd per pair.
    """
    if ps.strictness is Strictness.RELAXED:
        return ValidationReport(True)
    pts = ps.points
    n = len(pts)
    for i in range(n):
        xi, yi = pts[i]
        groups: dict[tuple[int, int], list[int]] = {}
        for j in range(i + 1, n):
            dx, dy = pts[j][0] - xi, pts[j][1] - yi
            g = math.gcd(dx, dy)
            if dx < 0 or (dx == 0 and dy < 0):
                g = -g
            groups.setdefault((dx // g, dy // g), []).append(j)
        # Groups come in the order of their smallest members.
        for grp in groups.values():
            if len(grp) > 1:
                j, k = grp[0], grp[1]
                return ValidationReport(False, (i, j, k), f"collinear points {i}, {j}, {k}")
    return ValidationReport(True)


def proper_cross(a, b, c, d) -> bool:
    """Open segments ab and cd cross in exactly one interior point."""
    s1, s2 = cross(a, b, c), cross(a, b, d)
    if s1 == 0 or s2 == 0 or (s1 > 0) == (s2 > 0):
        return False
    s3, s4 = cross(c, d, a), cross(c, d, b)
    return s3 != 0 and s4 != 0 and (s3 > 0) != (s4 > 0)


def line_separates(l, r, a, b) -> bool:
    """Are a and b strictly on opposite sides of the line through l and r?

    With l strictly left of a -> b and r strictly right of it, as the apexes
    of the two triangles at an edge ab of a triangulation are, this says
    whether the open segments ab and lr cross: whether ab can be flipped.
    """
    sa, sb = cross(l, r, a), cross(l, r, b)
    return (sa < 0 < sb) or (sb < 0 < sa)


def point_on_open_segment(p, a, b) -> bool:
    """Does p lie strictly inside segment ab?"""
    if cross(a, b, p) != 0:
        return False
    if a[0] != b[0]:
        lo, hi = sorted((a[0], b[0]))
        return lo < p[0] < hi
    lo, hi = sorted((a[1], b[1]))
    return lo < p[1] < hi


def dir_in_ccw_sector(d, u, w) -> bool:
    """Is direction d strictly inside the counterclockwise sector u -> w?"""

    def c(p, q) -> int:
        return p[0] * q[1] - p[1] * q[0]

    cu_w = c(u, w)
    if cu_w > 0:
        return c(u, d) > 0 and c(d, w) > 0
    if cu_w < 0:
        # Reflex sector: complement of the closed sector w -> u.
        return not (c(w, d) >= 0 and c(d, u) >= 0)
    # u and w collinear: either opposite (half-plane sector) or equal.
    if u[0] * w[0] + u[1] * w[1] < 0:
        return c(u, d) > 0
    raise ValueError("sector endpoints point in the same direction")


def direction_cmp(d1, d2) -> int:
    """Compare two nonzero direction vectors counterclockwise, starting
    just above the positive x-axis.  Returns -1, 0, or 1."""
    h1 = 0 if (d1[1] > 0 or (d1[1] == 0 and d1[0] > 0)) else 1
    h2 = 0 if (d2[1] > 0 or (d2[1] == 0 and d2[0] > 0)) else 1
    if h1 != h2:
        return -1 if h1 < h2 else 1
    c = d1[0] * d2[1] - d1[1] * d2[0]
    return -1 if c > 0 else 1 if c < 0 else 0


def brute_angular_rotation(pts, edges) -> dict[int, list[int]]:
    """Each vertex's neighbours sorted counterclockwise by direction."""
    adj: dict[int, list[int]] = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    rot = {}
    for v, nbrs in adj.items():
        pv = pts[v]

        def cmp(i: int, j: int, pv=pv) -> int:
            return direction_cmp(
                (pts[i].x - pv.x, pts[i].y - pv.y), (pts[j].x - pv.x, pts[j].y - pv.y)
            )

        rot[v] = sorted(nbrs, key=cmp_to_key(cmp))
    return rot


def brute_face_walks(rot, edges):
    """Closed walks of a plane graph traced from its rotation system.

    `rot[v]` lists v's neighbours counterclockwise, starting anywhere.
    Numbers darts and starts walks as trace_face_walks does, and returns
    (dart -> number, walk id of each dart, walks as dart numbers).
    """
    dart_of = {}
    for k, (a, b) in enumerate(edges):
        dart_of[(a, b)] = 2 * k
        dart_of[(b, a)] = 2 * k + 1
    # The face left of u -> v continues along v -> w, w the neighbour
    # before u around v.
    succ = [0] * len(dart_of)
    for v, nbrs in rot.items():
        prev = nbrs[-1]
        for u in nbrs:
            succ[dart_of[(u, v)]] = dart_of[(v, prev)]
            prev = u
    walk = [-1] * len(succ)
    walks = []
    for start in range(len(succ)):
        if walk[start] >= 0:
            continue
        path = []
        d = start
        while True:
            walk[d] = len(walks)
            path.append(d)
            d = succ[d]
            if d == start:
                break
        walks.append(path)
    return dart_of, walk, walks


def brute_wedge_anchor(pts, rot, walk_of, iso_anchor, v, toward) -> int:
    """Walk id of the purple face the direction v -> toward leaves v into.

    `rot` is the purple rotation system; each sector between consecutive
    purple neighbours of v is tested angularly, and the walk left of the
    dart starting the sector holding the direction is returned.  A vertex
    with no purple edge answers iso_anchor[v].
    """
    nbrs = rot.get(v)
    if not nbrs:
        return iso_anchor[v]
    if len(nbrs) == 1:
        return walk_of[(v, nbrs[0])]
    pv = pts[v]
    d = (pts[toward][0] - pv[0], pts[toward][1] - pv[1])
    k = len(nbrs)
    for i in range(k):
        u, w = nbrs[i], nbrs[(i + 1) % k]
        du = (pts[u][0] - pv[0], pts[u][1] - pv[1])
        dw = (pts[w][0] - pv[0], pts[w][1] - pv[1])
        if dir_in_ccw_sector(d, du, dw):
            return walk_of[(v, u)]
    raise GeometryError(f"chord ({v}, {toward}) collinear with a purple edge")


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


def reference_recognize(
    g: GeometricGraph,
) -> tuple[list[int], list[int]] | OddCycleWitness | TooManyEdges:
    """Reference recognition: the whole crossing graph, then a BFS.

    `crossing_graph`'s adjacency lists over every edge, hull sides
    included, then a BFS two-coloring in edge index order.  Returns
    (color, root) as `recognition._recognize` does, or an odd cycle that
    closes the BFS tree paths of two same-colored crossing edges.
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
                    return OddCycleWitness(_bfs_odd_cycle(g, parent, u, v))
    return color, root


def _bfs_odd_cycle(g: GeometricGraph, parent: list[int], u: int, v: int) -> tuple[Edge, ...]:
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
    return tuple(g.edges[i] for i in nodes)


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
    """Edges of the dart map crossed by segment ab, by testing every edge
    (once, at its dart u -> v with u < v) and sorting the crossings by
    their exact parameter along ab."""
    pa, pb = pts[a], pts[b]
    crossed = [
        g for g in apex if g[0] < g[1] and segments_cross(pa, pb, pts[g[0]], pts[g[1]])
    ]
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
        dict_add_triangle(pts, apex, x, y, c)
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


def reference_maximality_oracle(g: GeometricGraph) -> bool:
    """The maximality oracle as it was before it tried each non-edge's ends
    first: every non-edge scans the rows of all edges but the hull sides,
    longest first, until two crossed edges of one component clash.

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
    rows = _edge_rows(g, _crossable(g), list(zip(root, color)))
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


def reference_convex_hull(ps: PointSet) -> list[int]:
    """Monotone-chain weak hull through geometry.cross, as `convex_hull` was
    before its turn test was written out on the coordinates."""
    pts = ps.points
    order = sorted(range(len(pts)), key=lambda i: pts[i])

    def build(seq: list[int]) -> list[int]:
        chain: list[int] = []
        for i in seq:
            while len(chain) >= 2 and cross(pts[chain[-2]], pts[chain[-1]], pts[i]) < 0:
                chain.pop()
            chain.append(i)
        return chain

    return build(order)[:-1] + build(order[::-1])[:-1]


class FlipStatus(Enum):
    FLIPPABLE = "flippable"
    NOT_AN_EDGE = "not-an-edge"
    HULL_EDGE = "hull-edge"
    NOT_CONVEX = "not-convex"


def flip_status(t: Triangulation, e: Edge) -> FlipStatus:
    """Whether edge e of t can be flipped, and why not: hull edges and
    edges whose quadrilateral is not strictly convex cannot."""
    a, b = e
    d = t.dart(a, b)
    if d < 0:
        return FlipStatus.NOT_AN_EDGE
    l, r = t.apex[d], t.apex[d ^ 1]
    if l == OUTER or r == OUTER:
        return FlipStatus.HULL_EDGE
    pts = t.points.points
    if line_separates(pts[l], pts[r], pts[a], pts[b]):
        return FlipStatus.FLIPPABLE
    return FlipStatus.NOT_CONVEX


def is_flippable(t: Triangulation, e: Edge) -> bool:
    return flip_status(t, e) is FlipStatus.FLIPPABLE


def flip(t: Triangulation, e: Edge) -> Triangulation:
    """A copy of t with edge e replaced by the other diagonal of its
    quadrilateral, which keeps e's edge number."""
    status = flip_status(t, e)
    if status is not FlipStatus.FLIPPABLE:
        raise ValueError(f"edge {e} is not flippable: {status.value}")
    d = t.dart(*e)
    t = t.copy()
    head, apex, nxt, out = t.head, t.apex, t.nxt, t.out
    a, b, l, r = head[d ^ 1], head[d], apex[d], apex[d ^ 1]
    #           b                     b
    #         / | \                 /   \
    #        l  |  r     ->        l-----r
    #         \ | /                 \   /
    #           a                     a
    # The edge keeps its number; its dart r -> l takes triangle a, r, l
    # and its dart l -> r triangle r, b, l.
    bl, la = nxt[d], nxt[nxt[d]]
    ar, rb = nxt[d ^ 1], nxt[nxt[d ^ 1]]
    rl = (d & ~1) | (r > l)
    head[rl], head[rl ^ 1] = l, r
    _set_triangle(head, apex, nxt, ar, rl, la)
    _set_triangle(head, apex, nxt, rb, bl, rl ^ 1)
    out[a], out[b] = ar, bl
    return t


def reference_enumerate_triangulations(ps: PointSet, cap: int = 9) -> list[Triangulation]:
    """All triangulations of ps, by breadth-first search over dart-list
    flips from the completion of the bare points, each triangulation's
    edges tried in sorted order."""
    if len(ps) > cap:
        raise ValueError(f"point set size {len(ps)} exceeds cap {cap}")
    start = complete_to_triangulation(ps)
    seen = {start.edge_set()}
    out = [start]
    queue = deque([start])
    while queue:
        t = queue.popleft()
        for e in t.sorted_edges():
            if is_flippable(t, e):
                t2 = flip(t, e)
                key = t2.edge_set()
                if key not in seen:
                    seen.add(key)
                    out.append(t2)
                    queue.append(t2)
    return out


def reference_brute_force_maximum(ps: PointSet) -> tuple[int, tuple[Edge, ...], int]:
    """(maximum size, the first largest union in pair order, triangulation
    count) over the pairs of reference_enumerate_triangulations."""
    tris = [t.edge_set() for t in reference_enumerate_triangulations(ps, cap=len(ps))]
    best = max(
        (len(a | b), -i, -j) for i, a in enumerate(tris) for j, b in enumerate(tris) if i <= j
    )
    size, i, j = best
    return size, tuple(sorted(tris[-i] | tris[-j])), len(tris)


def union_is_maximal(crossing: list[int], union: int) -> bool:
    """Is the union of segment masks `union` a maximal biplane graph?

    The union is two-colored by a breadth-first search over the crossing
    masks, one pair of color masks per component.  An absent segment is
    blocked when it crosses both colors of one component; the union is
    maximal when every absent segment is blocked.  It shares no code with
    recognition: the crossing masks come from segments_cross.
    """
    comps = []
    left = union
    while left:
        frontier = left & -left
        left ^= frontier
        colors, side = [frontier, 0], 0
        while frontier:
            reach = 0
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                reach |= crossing[low.bit_length() - 1]
            if reach & colors[side]:
                raise ValueError("union is not biplane")
            side ^= 1
            frontier = reach & left
            colors[side] |= frontier
            left ^= frontier
        comps.append(colors)
    absent = ~union & ((1 << len(crossing)) - 1)
    while absent:
        low = absent & -absent
        absent ^= low
        c = crossing[low.bit_length() - 1]
        if not any(c & red and c & blue for red, blue in comps):
            return False
    return True


def maximal_unions(ps: PointSet) -> tuple[list[Edge], list[int], dict[int, bool]]:
    """(segments, crossing masks, {distinct union of two triangulations:
    union_is_maximal}) over the triangulations of ps."""
    segments, crossing, masks, _ = _triangulation_masks(ps, len(ps))
    unions = {a | b for i, a in enumerate(masks) for b in masks[i:]}
    return segments, crossing, {u: union_is_maximal(crossing, u) for u in unions}


def maximal_size_range(ps: PointSet) -> tuple[int, int]:
    """Smallest and largest size of a maximal biplane graph on ps.

    Every maximal biplane graph is the union of two triangulations, so the
    distinct pairwise unions that union_is_maximal accepts are all of them.
    """
    _, _, verdicts = maximal_unions(ps)
    sizes = [u.bit_count() for u, maximal in verdicts.items() if maximal]
    return min(sizes), max(sizes)


def random_lattice_points(rng: random.Random, k: int, lo: int) -> PointSet:
    """At least lo distinct cells of the k x k lattice, as a RELAXED set.

    More than k cells of a k x k lattice are never all collinear.
    """
    cells = [(x, y) for x in range(k) for y in range(k)]
    return PointSet.from_coords(rng.sample(cells, rng.randint(lo, k * k)), Strictness.RELAXED)


def with_first_non_edge(g: GeometricGraph) -> GeometricGraph:
    """g plus its first absent vertex pair in (a, b) order; on a maximal
    graph it makes the graph NOT-BIPLANE."""
    present = set(g.edges)
    chord = next(
        (a, b) for a in range(g.n) for b in range(a + 1, g.n) if (a, b) not in present
    )
    return GeometricGraph(g.points, g.edges + (chord,))


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
                dict_add_triangle(pts, apex, p, u, v)
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
            dict_add_triangle(pts, apex, p, u, v)
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


def validate_triangulation(t: Triangulation) -> None:
    """Raise GeometryError if a dart-map invariant is broken, the edge or
    triangle count is not the one Euler's formula gives, or two edges cross."""
    check_dart_lists(t)
    pts = t.points.points
    n, h = t.n, len(t.boundary)
    hull = boundary_edges(t)
    left = dart_dict(t)
    triangles = set()
    for (a, b), w in left.items():
        if (b, a) not in left:
            raise GeometryError(f"dart ({a}, {b}) lacks its reverse")
        if w is None:
            if edge(a, b) not in hull:
                raise GeometryError(f"interior edge {edge(a, b)} lacks an apex")
            continue
        if cross(pts[a], pts[b], pts[w]) <= 0:
            raise GeometryError(f"apex {w} of dart ({a}, {b}) not on its left")
        if left.get((b, w)) != a or left.get((w, a)) != b:
            raise GeometryError(f"triangle ({a}, {b}, {w}) not closed in the dart map")
        triangles.add(frozenset((a, b, w)))
    for a, b in hull:
        if (left.get((a, b)) is None) == (left.get((b, a)) is None):
            raise GeometryError(f"hull edge {(a, b)} must have one outer side")
    if t.edge_count != 3 * n - h - 3:
        raise GeometryError(f"edge count {t.edge_count} != 3n-h-3 = {3 * n - h - 3}")
    if len(triangles) != 2 * n - h - 2:
        raise GeometryError("Euler check failed: wrong triangle count")
    g = GeometricGraph(t.points, tuple(t.sorted_edges()))
    pairs = crossing_pairs(g)
    if pairs:
        i, j = pairs[0]
        raise GeometryError(f"edges {g.edges[i]} and {g.edges[j]} cross")


# Expected degree by vertex class in the untransformed grid; an
# "inner-frame" vertex has degree at least 11.
GRID_DEGREE_CLASSES = {
    "corner": 4,
    "corner-neighbor": 6,
    "boundary": 7,
    "inner-corner": 10,
    "inner-frame": 11,
    "interior": 12,
}


def classify_grid_vertex(k: int, i: int, j: int) -> str:
    """Vertex class of (i, j) in the degree classification of the grid."""
    if (i, j) in {(1, 1), (1, k), (k, 1), (k, k)}:
        return "corner"
    if (i, j) in {(1, 2), (2, k), (k, k - 1), (k - 1, 1)}:
        return "corner-neighbor"
    if i in (1, k) or j in (1, k):
        return "boundary"
    if (i, j) in {(2, 2), (2, k - 1), (k - 1, 2), (k - 1, k - 1)}:
        return "inner-corner"
    if i in (2, k - 1) or j in (2, k - 1):
        return "inner-frame"
    return "interior"


def grid_coord(grid: GridGraph, v: int) -> tuple[int, int]:
    """(i, j) of vertex v; the inverse of GridGraph.index."""
    return v // grid.k + 1, v % grid.k + 1


def assert_grid_degree_classes(grid: GridGraph) -> None:
    deg = grid.graph.degrees()
    for v in range(grid.graph.n):
        i, j = grid_coord(grid, v)
        cls = classify_grid_vertex(grid.k, i, j)
        want = GRID_DEGREE_CLASSES[cls]
        ok = deg[v] >= want if cls == "inner-frame" else deg[v] == want
        assert ok, (grid.k, (i, j), cls, deg[v])


# ---------------------------------------------------------------------------
# Per-edge view of the augmentation state.  maximal_augment numbers the
# purple edges, evaluates each popped edge's clause once, hands it to the
# flip, and skips an edge it found unflippable until a flip re-enqueues it;
# these take edges, go through the clause again, and skip nothing, so that
# tests can ask about any purple edge at any time.
# ---------------------------------------------------------------------------


def edge_of(state: MaximalState, k: int) -> Edge:
    """Edge number k of the state, as (lower, higher) vertex."""
    return state.head[2 * k + 1], state.head[2 * k]


def purple_id(state: MaximalState, e: Edge) -> int:
    """Number of purple edge e; ValueError if e is not purple.  Scans the
    darts into e's higher vertex."""
    head = state.head
    d = -1
    while True:
        try:
            d = head.index(e[1], d + 1)
        except ValueError:
            raise ValueError(f"{e} is not a purple edge") from None
        if d % 2 == 0 and head[d + 1] == e[0] and state.alive[d // 2]:
            return d // 2


def state_edges(state: MaximalState) -> set[Edge]:
    """Every edge of the state: the purple edges and the chords."""
    return state.purple | state.chord_anchor.keys()


def hull_edges(state: MaximalState) -> set[Edge]:
    """The purple edges on the convex hull."""
    return {edge_of(state, k) for k, h in enumerate(state.hull) if h}


def queued_edges(state: MaximalState) -> list[Edge]:
    """The queue, front first, as edges."""
    return [edge_of(state, k) for k in state.queue]


def pop_edge(state: MaximalState) -> Edge:
    """Pop the front of the queue, as an edge."""
    return edge_of(state, state.queue.popleft())


def purple_dart(state: MaximalState, u: int, v: int) -> int:
    """Number of the dart u -> v of a purple edge."""
    return 2 * purple_id(state, edge(u, v)) + (u > v)


def parity_of(state: MaximalState, w: int) -> int:
    """Parity of walk w: which lineage is red in its face."""
    return state.face_par[w] ^ state.face_flip[state.face[w]]


def eff_apex(state: MaximalState, e: Edge, side: int, layer: int) -> int:
    """Apex of the triangle in `layer` left (side 0) or right (side 1) of
    purple edge e, directed from e[0] to e[1]."""
    d = purple_dart(state, *e) ^ side
    return state.apex[parity_of(state, state.walk[d]) ^ layer][d]


def face_of(state: MaximalState, e: Edge, side: int) -> int:
    """Purple face left (side 0) or right (side 1) of purple edge e,
    directed from e[0] to e[1]."""
    d = purple_dart(state, *e) ^ side
    return state.face[state.walk[d]]


def flip_neighborhood(state: MaximalState, e: Edge) -> set[Edge]:
    """Edges of the up-to-four triangles, in either layer, that contain e."""
    a, b = e
    out = set()
    for layer in (RED, BLUE):
        c, d = eff_apex(state, e, 0, layer), eff_apex(state, e, 1, layer)
        out.update(edge(u, v) for u, v in ((a, c), (c, b), (b, d), (d, a)))
    return out


def is_colorblind_flippable(state: MaximalState, e: Edge) -> bool:
    """Can purple edge e be flipped under some decomposition of the edges?

    True iff e is flippable in the red or blue triangulation, or e borders
    two different purple faces and a red and a blue triangle on opposite
    sides of e form a strictly convex quadrilateral.
    """
    k = purple_id(state, e)
    if state.hull[k]:
        raise ValueError(f"{e} is a hull edge and never flippable")
    return _clause(state, k) is not None


def reference_clause(state: MaximalState, k: int) -> tuple[str, int] | None:
    """The colorblind-flip clause of purple edge k by four signed areas per
    candidate quadrilateral: ("red", -1), ("blue", -1), ("cross", side) with
    `side` the side whose face is recolored, or None."""
    d = 2 * k
    wl, wr = state.walk[d], state.walk[d + 1]
    par_l, par_r = parity_of(state, wl), parity_of(state, wr)
    apex = state.apex
    pts = state.points.points
    a, b = edge_of(state, k)
    pa, pb = pts[a], pts[b]
    prl = pts[apex[par_l][d]]
    prr = pts[apex[par_r][d + 1]]
    if proper_cross(pa, pb, prl, prr):
        return ("red", -1)
    pbl = pts[apex[par_l ^ 1][d]]
    pbr = pts[apex[par_r ^ 1][d + 1]]
    if proper_cross(pa, pb, pbl, pbr):
        return ("blue", -1)
    if state.face[wl] != state.face[wr]:
        if proper_cross(pa, pb, prl, pbr):
            return ("cross", 1)
        if proper_cross(pa, pb, pbl, prr):
            return ("cross", 0)
    return None


def apply_flip(state: MaximalState, e: Edge) -> None:
    """Flip purple edge e, or raise ValueError if it is not flippable."""
    k = purple_id(state, e)
    if state.hull[k]:
        raise ValueError(f"{e} is a hull edge and never flippable")
    cl = _clause(state, k)
    if cl is None:
        raise ValueError(f"{e} is not colorblind flippable")
    _flip(state, k, cl)


def purple_faces(state: MaximalState) -> dict[int, tuple[list[Edge], list[Edge]]]:
    """Each bounded face of the purple graph, keyed by its label, with its
    red and blue chords."""
    face = state.face
    hull = convex_hull(state.points)
    outer = face_of(state, (hull[0], hull[1]), 1)
    live = [state.walk[d] for d in range(len(state.walk)) if state.alive[d // 2]]
    faces = {label: ([], []) for label in sorted({face[w] for w in live})}
    del faces[outer]
    for c in sorted(state.chord_anchor):
        anchor = state.chord_anchor[c]
        color = state.chord_color0[c] ^ parity_of(state, anchor)
        faces.setdefault(face[anchor], ([], []))[color].append(c)
    return faces


def assert_face_table(state: MaximalState) -> None:
    """Following face_link from each label visits exactly the walks that
    carry that label, and a label of rank r has at least 2 ** r walks, so
    no rank exceeds log2 of the walk count."""
    face, link, rank = state.face, state.face_link, state.face_rank
    members: dict[int, list[int]] = {}
    for w, f in enumerate(face):
        members.setdefault(f, []).append(w)
    for f, walks in members.items():
        circle = [f]
        while link[circle[-1]] != f and len(circle) <= len(face):
            circle.append(link[circle[-1]])
        assert sorted(circle) == walks, (f, circle, walks)
        assert 1 << rank[f] <= len(walks), (f, rank[f], len(walks))


def assert_face_chords_bipartite(state: MaximalState) -> None:
    """In each purple face the chords' crossing graph is connected and
    properly 2-colored by the chords' layers."""
    pts = state.points.points
    for red, blue in purple_faces(state).values():
        chords = red + blue
        if not chords:
            continue
        adj: dict[Edge, list[Edge]] = {c: [] for c in chords}
        for c1, c2 in itertools.combinations(chords, 2):
            if segments_cross(pts[c1[0]], pts[c1[1]], pts[c2[0]], pts[c2[1]]):
                adj[c1].append(c2)
                adj[c2].append(c1)
        seen, stack = {chords[0]}, [chords[0]]
        while stack:
            for v in adj[stack.pop()]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        assert len(seen) == len(chords), "face chord graph disconnected"
        for c1 in chords:
            for c2 in adj[c1]:
                assert (c1 in red) != (c2 in red), "crossing chords share a color"


def assert_flippability_ignores_face_exchanges(state: MaximalState) -> bool:
    """Exchanging the chord colors of any subset of the purple faces changes
    no purple edge's colorblind flippability.  Returns False, checking
    nothing, when no edge can flip or there are more than 10 faces."""
    faces = list(purple_faces(state))
    purple = sorted(state.purple - hull_edges(state))
    if not purple or len(faces) > 10:
        return False
    baseline = {p: is_colorblind_flippable(state, p) for p in purple}
    for r in range(1, len(faces) + 1):
        for subset in itertools.combinations(faces, r):
            for f in subset:
                state.face_flip[f] ^= 1
            for p, verdict in baseline.items():
                assert is_colorblind_flippable(state, p) == verdict
            for f in subset:
                state.face_flip[f] ^= 1
    return True


def checked_flips(state: MaximalState) -> tuple[int, int]:
    """Drain the FIFO queue as maximal_augment does, checking flip locality
    at every flip; returns (flips, merge revocations).

    An edge can only BECOME flippable inside the triangles that contained
    the flipped edge.  It can LOSE flippability farther away only when its
    two faces were exactly the two the flip merged (the cross-face clause
    needs two different faces); that is a merge revocation.
    """
    flips = revocations = 0
    hull = hull_edges(state)
    while state.queue:
        e = pop_edge(state)
        if e not in state.purple or not is_colorblind_flippable(state, e):
            continue
        before = {
            p: (is_colorblind_flippable(state, p), {face_of(state, p, 0), face_of(state, p, 1)})
            for p in sorted(state.purple - hull)
        }
        merged = {face_of(state, e, 0), face_of(state, e, 1)}
        allowed = flip_neighborhood(state, e)
        apply_flip(state, e)
        flips += 1
        for p in sorted(state.purple - hull):
            if p not in before or p in allowed:
                continue
            was, faces = before[p]
            if was == is_colorblind_flippable(state, p):
                continue
            assert was, f"flip of {e} enabled faraway {p}"
            assert faces == merged and face_of(state, p, 0) == face_of(state, p, 1), (
                f"revocation of {p} by flip of {e} not explained by the face merge"
            )
            revocations += 1
    return flips, revocations


def reference_augment(g: GeometricGraph, *, collect_trace: bool = False) -> AugmentResult:
    """maximal_augment (n >= 3) through the per-edge helpers: every popped
    purple edge is tested with is_colorblind_flippable, settled or not, and
    flipped with apply_flip, which evaluates its clause a second time."""
    state = build_state(g, collect_trace=collect_trace)
    while state.queue:
        k = state.queue.popleft()
        e = edge_of(state, k)
        if not state.alive[k]:
            continue
        if not is_colorblind_flippable(state, e):
            continue
        apply_flip(state, e)
    if not certify_maximal(state):
        raise GeometryError("queue drained but a flippable purple edge remains")
    red, blue = state.layers()
    layer2 = tuple(e for e in blue if e not in state.purple)
    graph = GeometricGraph(g.points, tuple(sorted(state_edges(state))))
    trace = tuple(state.trace) if state.trace is not None else None
    return AugmentResult(graph, BiplaneDecomposition(red, layer2), red, blue, state, trace)
