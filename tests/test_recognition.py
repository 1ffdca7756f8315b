import math
import random

import pytest
from _helpers import (
    brute_crossing_adjacency,
    brute_crossing_pairs,
    crossing_adjacency_is_bipartite,
    layer_is_plane,
    point_on_open_segment,
    random_edge_subset_graph,
    random_strict_points,
    witness_cycle_is_valid,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from biplanekit import recognition
from biplanekit.analysis import maximality_oracle
from biplanekit.augmentation import maximal_augment
from biplanekit.constructions import gen_convex
from biplanekit.geometry import (
    Point,
    PointSet,
    Strictness,
    cross,
    segments_cross,
)
from biplanekit.graphs import GeometricGraph
from biplanekit.recognition import (
    BiplaneDecomposition,
    OddCycleWitness,
    TooManyEdges,
    _crossed,
    _edge_line,
    crossing_graph,
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
    adj = crossing_graph(g)
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
    graphs.append(_with_first_non_edge(graphs[-1]))
    overlaps = vertical_overlaps = 0
    for g in graphs:
        pairs = crossing_pairs(g)
        assert pairs == brute_crossing_pairs(g)
        # Each edge's partners, sorted by index, whichever side found them.
        assert crossing_graph(g) == brute_crossing_adjacency(g)
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


def _with_first_non_edge(g: GeometricGraph) -> GeometricGraph:
    present = set(g.edges)
    chord = next(
        (a, b) for a in range(g.n) for b in range(a + 1, g.n) if (a, b) not in present
    )
    return GeometricGraph(g.points, g.edges + (chord,))


def test_recognition_never_builds_the_pair_list(monkeypatch):
    # test_biplane and the maximality oracle read the crossings straight off
    # crossing_graph's adjacency lists.
    convex = maximal_augment(GeometricGraph(gen_convex(60), ())).graph
    chorded = _with_first_non_edge(convex)
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
