import math
import random
from collections import Counter

import pytest
from _helpers import (
    brute_crossing_adjacency,
    brute_crossing_pairs,
    crossing_adjacency_is_bipartite,
    drop_edges_through_vertices,
    layer_is_plane,
    point_on_open_segment,
    random_biplane_graph,
    random_edge_subset_graph,
    random_lattice_points,
    random_strict_points,
    rectangle_boundary,
    reference_recognize,
    witness_cycle_is_valid,
    with_first_non_edge,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from biplanekit import analysis, recognition
from biplanekit.analysis import maximality_oracle
from biplanekit.augmentation import maximal_augment
from biplanekit.constructions import gen_convex, gen_grid
from biplanekit.geometry import (
    Point,
    PointSet,
    Strictness,
    convex_hull,
    cross,
    edge,
    segments_cross,
    validate,
)
from biplanekit.graphs import GeometricGraph
from biplanekit.recognition import (
    BiplaneDecomposition,
    OddCycleWitness,
    TooManyEdges,
    _crossed,
    _edge_line,
    _recognize,
    crossing_pairs,
    exceeds_edge_cap,
    test_biplane,
)


def k_complete(ps: PointSet) -> GeometricGraph:
    n = len(ps)
    return GeometricGraph(ps, tuple((a, b) for a in range(n) for b in range(a + 1, n)))


def convex_polygon(n: int, r: int = 10**6) -> PointSet:
    pts = [
        (int(r * math.cos(2 * math.pi * i / n)), int(r * math.sin(2 * math.pi * i / n)))
        for i in range(n)
    ]
    return PointSet.from_coords(pts)


def test_quad_with_diagonals_single_crossing_arc():
    ps = PointSet.from_coords([(0, 0), (2, 0), (2, 2), (0, 2)])
    g = k_complete(ps)
    pairs = crossing_pairs(g)
    assert len(pairs) == 1
    i, j = pairs[0]
    assert {g.edges[i], g.edges[j]} == {(0, 2), (1, 3)}


def test_pentagon_k5_crossing_graph_is_five_cycle_plus_isolated_sides():
    g = k_complete(convex_polygon(5))
    adj: list[list[int]] = [[] for _ in range(g.m)]
    for i, j in crossing_pairs(g):
        adj[i].append(j)
        adj[j].append(i)
    degs = sorted(len(lst) for lst in adj)
    assert degs == [0] * 5 + [2] * 5
    # derived check: the degree-2 nodes form one cycle of length 5
    cyc = [i for i, lst in enumerate(adj) if lst]
    start = cyc[0]
    seen = {start}
    cur, prev = adj[start][0], start
    while cur != start:
        seen.add(cur)
        nxt = [x for x in adj[cur] if x != prev]
        assert len(nxt) == 1
        prev, cur = cur, nxt[0]
    assert len(seen) == 5


def test_plane_graph_has_empty_crossing_graph():
    ps = PointSet.from_coords([(0, 0), (4, 0), (2, 3), (2, 1)])
    g = GeometricGraph(ps, ((0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)))
    assert crossing_pairs(g) == []


def test_k4_decomposes_with_diagonals_split():
    ps = PointSet.from_coords([(0, 0), (2, 0), (2, 2), (0, 2)])
    res = test_biplane(k_complete(ps))
    assert isinstance(res, BiplaneDecomposition)
    in1 = (0, 2) in res.layer1
    assert ((0, 2) in res.layer1) != ((0, 2) in res.layer2)
    assert ((1, 3) in res.layer1) != ((1, 3) in res.layer2)
    assert in1 != ((1, 3) in res.layer1)


def test_k5_pentagon_witness_is_the_five_diagonals():
    g = k_complete(convex_polygon(5))
    res = test_biplane(g)
    assert isinstance(res, OddCycleWitness)
    assert len(res.cycle) == 5
    assert witness_cycle_is_valid(g, res.cycle)


def test_fast_reject_guard_arithmetic():
    # A 9-vertex graph can never reach 37 edges, so the guard is exercised
    # at the arithmetic level: 37 > 6*9 - 18 = 36.
    assert exceeds_edge_cap(9, 37)
    assert not exceeds_edge_cap(9, 36)
    assert not exceeds_edge_cap(7, 100)  # no rejection below n = 8


def test_too_many_edges_returned_without_crossing_graph():
    ps = random_strict_points(random.Random(1), 10)
    g = k_complete(ps)  # 45 > 6*10 - 18 = 42
    res = test_biplane(g)
    assert isinstance(res, TooManyEdges)
    assert res == TooManyEdges(10, 45, 42)


def test_decomposition_deterministic_and_canonical():
    rng = random.Random(7)
    ps = random_strict_points(rng, 9)
    g = random_edge_subset_graph(rng, ps, density=0.5)
    r1 = test_biplane(g)
    r2 = test_biplane(g)
    assert r1 == r2
    if isinstance(r1, BiplaneDecomposition):
        # the lowest-index edge of each crossing component sits in layer1
        assert g.edges[0] in r1.layer1


def test_random_graphs_match_brute_force_bipartiteness():
    rng = random.Random(11)
    for _ in range(80):
        n = rng.randint(3, 11)
        ps = random_strict_points(rng, n)
        g = random_edge_subset_graph(rng, ps)
        res = test_biplane(g)
        expected = crossing_adjacency_is_bipartite(brute_crossing_adjacency(g))
        if isinstance(res, BiplaneDecomposition):
            assert expected
            assert set(res.layer1) | set(res.layer2) == set(g.edges)
            assert not (set(res.layer1) & set(res.layer2))
            assert layer_is_plane(g, res.layer1)
            assert layer_is_plane(g, res.layer2)
        elif isinstance(res, OddCycleWitness):
            assert not expected
            assert witness_cycle_is_valid(g, res.cycle)
        else:
            assert isinstance(res, TooManyEdges)
            assert not expected  # cap exceeded implies non-bipartite


def test_component_color_swap_is_also_valid():
    # Each crossing component admits exactly two colorings; swapping the
    # component holding the K4 diagonals keeps both layers plane.
    ps = PointSet.from_coords([(0, 0), (2, 0), (2, 2), (0, 2)])
    g = k_complete(ps)
    res = test_biplane(g)
    assert isinstance(res, BiplaneDecomposition)
    component = {(0, 2), (1, 3)}
    swapped1 = tuple(
        e for e in g.edges if (e in set(res.layer1)) != (e in component)
    )
    swapped2 = tuple(e for e in g.edges if e not in swapped1)
    assert layer_is_plane(g, swapped1)
    assert layer_is_plane(g, swapped2)


def test_crossing_pairs_match_brute_sweep():
    rng = random.Random(5)
    graphs = []
    for _ in range(40):
        ps = random_strict_points(rng, rng.randint(3, 14))
        graphs.append(random_edge_subset_graph(rng, ps))
    # Relaxed lattice sets with every kind of pair: shared endpoints,
    # vertices inside edges, and collinear edges that overlap or only touch.
    for _ in range(150):
        k = rng.randint(2, 6)
        cells = [(x, y) for x in range(k) for y in range(k)]
        ps = PointSet.from_coords(
            rng.sample(cells, rng.randint(3, len(cells))), Strictness.RELAXED
        )
        graphs.append(random_edge_subset_graph(rng, ps))
    graphs += [maximal_augment(GeometricGraph(gen_convex(n), ())).graph for n in (8, 21, 60)]
    # The dense input the check-convex benchmark runs at n = 500, plus one
    # chord: maximality makes it NOT-BIPLANE.
    graphs.append(with_first_non_edge(graphs[-1]))
    overlaps = vertical_overlaps = 0
    for g in graphs:
        pairs = crossing_pairs(g)
        assert pairs == brute_crossing_pairs(g)
        pts = g.points.points
        for i, j in pairs:
            (a, b), (c, d) = g.edges[i], g.edges[j]
            if cross(pts[a], pts[b], pts[c]) == 0 == cross(pts[a], pts[b], pts[d]):
                overlaps += 1
                vertical_overlaps += pts[a].x == pts[b].x
    # The cases above reach the collinear test, including vertical edges
    # that share their x-extent exactly.
    assert overlaps and vertical_overlaps
    g = graphs[-1]
    res = test_biplane(g)
    assert isinstance(res, OddCycleWitness) and len(res.cycle) % 2 == 1
    index = {e: i for i, e in enumerate(g.edges)}
    crossing = set(brute_crossing_pairs(g))
    ids = [index[e] for e in res.cycle]
    for i, j in zip(ids, ids[1:] + ids[:1]):
        assert (min(i, j), max(i, j)) in crossing


def test_recognition_never_builds_the_pair_list(monkeypatch):
    # test_biplane and the maximality oracle color the crossings as the
    # sweep finds them; the pair list never exists.
    convex = maximal_augment(GeometricGraph(gen_convex(60), ())).graph
    chorded = with_first_non_edge(convex)
    ps = random_strict_points(random.Random(3), 40)
    maximal = maximal_augment(GeometricGraph(ps, ())).graph
    want = (test_biplane(convex), test_biplane(chorded), maximality_oracle(maximal))
    assert isinstance(want[0], BiplaneDecomposition)
    assert isinstance(want[1], OddCycleWitness)
    assert want[2] is True

    def no_pair_list(g):
        raise AssertionError("recognition built the crossing pair list")

    monkeypatch.setattr(recognition, "crossing_pairs", no_pair_list)
    got = (test_biplane(convex), test_biplane(chorded), maximality_oracle(maximal))
    assert got == want


def _hull_sides(ps: PointSet) -> set[tuple[int, int]]:
    hull = convex_hull(ps)
    return {edge(a, b) for a, b in zip(hull, hull[1:] + hull[:1])}


def test_hull_sides_get_no_kernel_row(monkeypatch):
    # Recognition scans one x-window per edge that is not a hull side, and
    # stops at the first odd cycle; a biplane graph in convex position is
    # colored in hull order and reaches no window at all.  The oracle's full
    # scan, for a non-edge whose ends show no clash, covers every such edge
    # and no hull side.
    ps = gen_convex(60)
    convex = maximal_augment(GeometricGraph(ps, ())).graph
    inner = len([e for e in convex.edges if e not in _hull_sides(ps)])
    assert (convex.m, inner) == (174, 114)
    strict = random_strict_points(random.Random(6), 30)
    swept = [maximal_augment(GeometricGraph(strict, ())).graph, gen_grid(6).graph]
    calls = []

    def counted(rows, lo, hi, *segment):
        calls.append(hi - lo)
        return _crossed(rows, lo, hi, *segment)

    monkeypatch.setattr(recognition, "_crossed", counted)
    assert isinstance(test_biplane(convex), BiplaneDecomposition)
    assert calls == []
    # One chord more and the hull order finds an odd cycle, and the sweep
    # names it.
    assert isinstance(test_biplane(with_first_non_edge(convex)), OddCycleWitness)
    assert 0 < len(calls) < inner
    counts = []
    for g in swept:
        calls.clear()
        assert isinstance(test_biplane(g), BiplaneDecomposition)
        counts.append((g.m, len(calls)))
        assert len(calls) == len([e for e in g.edges if e not in _hull_sides(g.points)])
    assert counts == [(137, 131), (150, 130)]
    monkeypatch.undo()
    scanned = []

    def recorded(rows, lo, hi, *segment):
        scanned.append(rows[lo:hi])
        return _crossed(rows, lo, hi, *segment)

    monkeypatch.setattr(analysis, "_crossed", recorded)
    rng = random.Random(4)
    for ps in (random_strict_points(rng, 30), random_lattice_points(rng, 6, 20)):
        maximal = maximal_augment(GeometricGraph(ps, ())).graph
        sides = _hull_sides(ps)
        inner = len([e for e in maximal.edges if e not in sides])
        assert inner < maximal.m
        pts = ps.points
        side_ends = {frozenset((pts[a], pts[b])) for a, b in sides}
        scanned.clear()
        assert maximality_oracle(maximal) is True
        # The ends may settle every non-edge, so a scan is not required.
        for window in scanned:
            assert len(window) == inner
            assert not any(frozenset((r[4:6], r[6:8])) in side_ends for r in window)


def test_hull_order_route_builds_no_rows(monkeypatch):
    # Rows are built only for the box sweep: never for a biplane graph in
    # convex position, once when one chord more makes the hull order meet
    # an odd cycle, and once for points off the hull.
    convex = maximal_augment(GeometricGraph(gen_convex(60), ())).graph
    strict = random_strict_points(random.Random(6), 30)
    graphs = [
        (convex, BiplaneDecomposition),
        (with_first_non_edge(convex), OddCycleWitness),
        (maximal_augment(GeometricGraph(strict, ())).graph, BiplaneDecomposition),
    ]
    edge_rows = recognition._edge_rows
    calls = []

    def counted(g, keep):
        calls.append(g)
        return edge_rows(g, keep)

    monkeypatch.setattr(recognition, "_edge_rows", counted)
    counts = []
    for g, verdict in graphs:
        calls.clear()
        assert isinstance(test_biplane(g), verdict)
        counts.append(len(calls))
    assert counts == [0, 1, 1]


def test_windows_leave_out_edges_that_meet_at_an_end(monkeypatch):
    # Recognition tests a row against no row that starts at its right
    # end's x, and, where its left end is alone in its column, against no
    # row from that end; neither can cross it once edges through vertices
    # are rejected.  The grid's columns hold many points each.  A biplane
    # graph in convex position is colored in hull order and scans no
    # window; one chord more makes it sweep until the odd cycle.
    convex = maximal_augment(GeometricGraph(gen_convex(60), ())).graph
    ps = random_strict_points(random.Random(23), 40)
    maximal = maximal_augment(GeometricGraph(ps, ())).graph
    grid = gen_grid(6).graph
    windows = []

    def recorded(rows, lo, hi, xa, ya, xb, yb):
        windows.append((rows[lo:hi], min((xa, ya), (xb, yb)), max(xa, xb)))
        return _crossed(rows, lo, hi, xa, ya, xb, yb)

    monkeypatch.setattr(recognition, "_crossed", recorded)
    assert isinstance(test_biplane(convex), BiplaneDecomposition)
    assert windows == []
    totals = []
    lone_ends = 0
    for g, verdict in (
        (with_first_non_edge(convex), OddCycleWitness),
        (maximal, BiplaneDecomposition),
        (grid, BiplaneDecomposition),
    ):
        windows.clear()
        assert isinstance(test_biplane(g), verdict)
        column = Counter(x for x, _ in g.points.points)
        for window, left, right_x in windows:
            assert all(r[0] != right_x for r in window)
            if column[left[0]] == 1:
                lone_ends += 1
                assert all(left not in (r[4:6], r[6:8]) for r in window)
        totals.append(sum(len(window) for window, _, _ in windows))
    assert lone_ends
    assert totals == [3306, 2404, 1700]


def test_crossing_pairs_keeps_pairs_that_meet_at_an_end():
    # Graphs that break the relaxed contract: an edge along another from
    # their shared end, and two overlapping vertical edges in one column.
    # Recognition rejects both, but crossing_pairs windows every row in
    # full and reports each overlap as a crossing.
    along = PointSet.from_coords([(0, 0), (2, 0), (1, 0)], Strictness.RELAXED)
    column = PointSet.from_coords([(1, 0), (1, 2), (1, 1), (1, 3)], Strictness.RELAXED)
    for g in (GeometricGraph(along, ((0, 1), (0, 2))), GeometricGraph(column, ((0, 1), (2, 3)))):
        assert crossing_pairs(g) == brute_crossing_pairs(g) == [(0, 1)]
        with pytest.raises(ValueError):
            test_biplane(g)


def test_hull_rule_needs_edges_and_a_hull(monkeypatch):
    # An empty graph computes no hull (at n = 4000 it would cost more than
    # the rest of its recognition); where convex_hull rejects the points,
    # every edge keeps its row.
    def no_hull(ps):
        raise AssertionError("recognition computed a hull for an empty graph")

    monkeypatch.setattr(recognition, "convex_hull", no_hull)
    empty = GeometricGraph(random_strict_points(random.Random(5), 50), ())
    assert test_biplane(empty) == BiplaneDecomposition((), ())
    monkeypatch.undo()
    line = PointSet.from_coords([(0, 0), (1, 0), (2, 0), (3, 0)], Strictness.RELAXED)
    pair = PointSet.from_coords([(0, 0), (1, 1)])
    for g in (GeometricGraph(line, ((0, 1), (1, 2), (2, 3))), GeometricGraph(pair, ((0, 1),))):
        with pytest.raises(ValueError):
            convex_hull(g.points)
        assert recognition._weak_hull(g) is None
        assert list(recognition._crossable(g, None)) == list(range(g.m))
        assert test_biplane(g) == BiplaneDecomposition(g.edges, ())


def test_merges_relabel_the_class_of_lower_rank(monkeypatch):
    # k stacked near-horizontal edges each cross one near-vertical edge
    # whose left end lies to the right of theirs, so the sweep meets the k
    # crossings one by one, each joining a lone edge to the class that
    # holds all the earlier ones.  Relabelling the class of lower rank,
    # the lone edge, writes one label and two links per merge;
    # relabelling the other class would write about k**2 / 2 labels.
    k = 200
    coords = [(-(10**6) - t**3, 1000 * t) for t in range(k)]
    coords += [(10**6 + t**3, 1000 * t + 1) for t in range(k)]
    coords += [(0, -5), (1, 1000 * k + 5)]
    assert validate(PointSet.from_coords(coords)).ok
    edges = tuple((t, k + t) for t in range(k)) + ((2 * k, 2 * k + 1),)
    g = GeometricGraph(PointSet.from_coords(coords), edges)
    writes = 0

    class CountedList(list):
        # _recognize builds its label and link tables with list().
        def __setitem__(self, i, v):
            nonlocal writes
            writes += 1
            super().__setitem__(i, v)

    monkeypatch.setattr(recognition, "list", CountedList, raising=False)
    color, root = _recognize(g)
    assert root == [0] * g.m and color == [0] * k + [1]
    assert 0 < writes <= g.m * math.log2(g.m)


def _lattice_graph_with_hull_sides(rng: random.Random) -> GeometricGraph:
    # A random biplane graph on lattice cells plus every side of their weak
    # hull, without edges through vertices; the hull sides cross nothing.
    ps = random_lattice_points(rng, rng.randint(3, 6), 4)
    g = random_biplane_graph(rng, ps, rng.randint(1, 3 * len(ps)))
    g = GeometricGraph(ps, tuple(sorted(set(g.edges) | _hull_sides(ps))))
    return drop_edges_through_vertices(g)


def _hull_side_holds_a_point(ps: PointSet) -> bool:
    hull = convex_hull(ps)
    pts = [ps.points[v] for v in hull]
    return any(cross(pts[k - 2], pts[k - 1], pts[k]) == 0 for k in range(len(pts)))


def test_recognition_matches_the_bfs_reference():
    # The sweep's coloring against crossing_pairs plus BFS: the same
    # verdict, the same (color, root) and decomposition, and an odd cycle
    # of distinct edges whenever the reference finds one.
    rng = random.Random(20)
    graphs = []
    for _ in range(60):
        ps = random_strict_points(rng, rng.randint(3, 12))
        graphs.append(random_edge_subset_graph(rng, ps))
        graphs.append(random_biplane_graph(rng, ps, rng.randint(1, 4 * len(ps))))
    lattice = [_lattice_graph_with_hull_sides(rng) for _ in range(80)]
    # Some hull sides hold a point between two corners, and the graphs
    # keep the weak hull's sides on either side of it.
    assert any(_hull_side_holds_a_point(g.points) for g in lattice)
    graphs += lattice
    graphs += [gen_grid(k).graph for k in (5, 6, 9)]
    for n in (8, 21, 60):
        maximal = maximal_augment(GeometricGraph(gen_convex(n), ())).graph
        graphs += [maximal, with_first_non_edge(maximal)]
    kinds = set()
    for g in graphs:
        want = reference_recognize(g)
        got = _recognize(g)
        assert type(got) is type(want)
        kinds.add(type(got).__name__)
        if isinstance(want, OddCycleWitness):
            assert witness_cycle_is_valid(g, got.cycle)
            assert len(set(got.cycle)) == len(got.cycle)
        else:
            assert got == want
        if type(want) is tuple:
            color = want[0]
            assert test_biplane(g) == BiplaneDecomposition(
                tuple(e for e, c in zip(g.edges, color) if c == 0),
                tuple(e for e, c in zip(g.edges, color) if c == 1),
            )
    assert kinds == {"tuple", "OddCycleWitness", "TooManyEdges"}


def test_convex_position_coloring_matches_the_bfs_reference(monkeypatch):
    # Every point on the weak hull: shuffled convex polygons, and lattice
    # rectangle boundaries with points between the corners.  Recognition
    # colors these in hull order, and falls back to the sweep for the
    # witness exactly when the reference finds an odd cycle.
    coloring = recognition._convex_coloring
    routed = []

    def recorded(g, hull, keep):
        res = coloring(g, hull, keep)
        routed.append(res is not None)
        return res

    monkeypatch.setattr(recognition, "_convex_coloring", recorded)
    rng = random.Random(27)
    graphs = []
    for _ in range(300):
        coords = list(gen_convex(rng.randint(4, 13)).points)
        rng.shuffle(coords)
        ps = PointSet.from_coords(coords)
        graphs.append(random_edge_subset_graph(rng, ps))
        ps = rectangle_boundary(rng, rng.randint(1, 4), rng.randint(1, 4))
        graphs.append(drop_edges_through_vertices(random_edge_subset_graph(rng, ps)))
    kinds = Counter()
    for g in graphs:
        routed.clear()
        want = reference_recognize(g)
        got = _recognize(g)
        assert type(got) is type(want)
        kinds[type(got).__name__] += 1
        if isinstance(want, OddCycleWitness):
            assert routed == [False]
            assert witness_cycle_is_valid(g, got.cycle)
        elif isinstance(want, TooManyEdges):
            assert routed == [] and got == want
        else:
            assert routed == ([True] if g.m else [])
            assert got == want
    assert kinds["tuple"] > 100 and kinds["OddCycleWitness"] > 100


def test_oracle_row_test_matches_segments_cross():
    # Two segments on a scaled and shifted 4 x 4 lattice, endpoints drawn
    # independently, so they share endpoints, meet in T-junctions, stand
    # vertical, and lie on one line overlapping, touching or apart.  Each
    # kind is also pinned by an explicit example, so that none of them
    # depends on what the generator happens to draw.
    cell = st.tuples(st.integers(0, 3), st.integers(0, 3))
    kinds = set()

    @given(
        st.lists(cell, min_size=4, max_size=4).filter(lambda c: c[0] != c[1] and c[2] != c[3]),
        st.integers(min_value=1, max_value=1000),
        st.tuples(st.integers(-(10**6), 10**6), st.integers(-(10**6), 10**6)),
    )
    @example([(0, 0), (2, 2), (0, 2), (2, 0)], 1, (0, 0))  # proper crossing
    @example([(0, 0), (1, 1), (1, 1), (2, 0)], 1, (0, 0))  # shared endpoint
    @example([(1, 0), (1, 3), (0, 1), (3, 1)], 7, (5, -5))  # vertical
    @example([(0, 0), (2, 0), (1, 0), (3, 0)], 1, (0, 0))  # collinear overlap
    @example([(0, 0), (1, 0), (1, 0), (2, 0)], 1, (0, 0))  # collinear touching
    @example([(0, 0), (1, 1), (2, 2), (3, 3)], 3, (0, 0))  # collinear apart
    @example([(0, 0), (2, 0), (1, 0), (1, 2)], 1, (0, 0))  # T-junction
    @settings(max_examples=600, derandomize=True)
    def check(cells, scale, shift):
        pts = tuple(Point(scale * x + shift[0], scale * y + shift[1]) for x, y in cells)
        pa, pb, pc, pd = pts
        (xc, yc), (xd, yd) = pc, pd
        box = (min(xc, xd), max(xc, xd), min(yc, yd), max(yc, yd))
        row = (*box, xc, yc, xd, yd, *_edge_line(xc, yc, xd, yd), "cd")
        got = list(_crossed([row, row], 1, 2, pa.x, pa.y, pb.x, pb.y))
        want = segments_cross(pa, pb, pc, pd)
        assert got == (["cd"] if want else [])
        if {pa, pb} & {pc, pd}:
            kinds.add("shared endpoint")
        if pa.x == pb.x or pc.x == pd.x:
            kinds.add("vertical")
        if cross(pa, pb, pc) == 0 == cross(pa, pb, pd):
            if want:
                kinds.add("collinear overlap")
            elif {pa, pb} & {pc, pd}:
                kinds.add("collinear touching")
            else:
                kinds.add("collinear apart")
        elif any(
            point_on_open_segment(p, q, r)
            for p, q, r in ((pa, pc, pd), (pb, pc, pd), (pc, pa, pb), (pd, pa, pb))
        ):
            kinds.add("T-junction")

    check()
    assert kinds == {
        "shared endpoint",
        "vertical",
        "collinear overlap",
        "collinear touching",
        "collinear apart",
        "T-junction",
    }


def test_relaxed_edge_through_vertex_rejected_by_library():
    # (1, 0) lies inside edge (0, 2); the points above and below keep the
    # set from being collinear.
    ps = PointSet.from_coords([(0, 0), (1, 0), (2, 0), (1, 5), (1, -5)], Strictness.RELAXED)
    g = GeometricGraph(ps, ((0, 2),))
    for call in (test_biplane, maximal_augment, maximality_oracle):
        with pytest.raises(ValueError, match=r"edge \(0, 2\) passes through vertex 1"):
            call(g)
    # Splitting the edge at the vertex gives a valid relaxed graph.
    valid = GeometricGraph(ps, ((0, 1), (1, 2), (1, 3)))
    assert isinstance(test_biplane(valid), BiplaneDecomposition)
    assert not maximality_oracle(valid)
