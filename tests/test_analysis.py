import random

import pytest
from _helpers import (
    brute_maximality_oracle,
    drop_edges_through_vertices,
    graph_is_connected_after_removal,
    maximal_size_range,
    random_biplane_graph,
    random_lattice_points,
    random_strict_points,
)

from biplanekit.analysis import (
    ConnectivityReport,
    brute_force_maximum,
    degree_histogram,
    find_maximal_gap,
    maximality_oracle,
    vertex_connectivity,
)
from biplanekit.augmentation import maximal_augment
from biplanekit.constructions import (
    bounds,
    gen_arc_in_triangle,
    gen_convex,
    gen_grid,
    gen_hgon_with_arc,
)
from biplanekit.geometry import PointSet, Strictness, convex_hull
from biplanekit.graphs import GeometricGraph
from biplanekit.triangulation import complete_to_triangulation


def test_connectivity_triangle():
    g = GeometricGraph(PointSet.from_coords([(0, 0), (4, 0), (0, 4)]), ((0, 1), (1, 2), (0, 2)))
    rep = vertex_connectivity(g)
    assert rep.kappa == 2 == rep.min_degree


def test_connectivity_path():
    g = GeometricGraph(PointSet.from_coords([(0, 0), (4, 0), (8, 1)]), ((0, 1), (1, 2)))
    rep = vertex_connectivity(g)
    assert rep.kappa == 1
    assert rep.witness_cut == (1,)


def test_connectivity_disconnected():
    # With isolated vertices, and with two triangles and no isolated vertex:
    # a pair across two components has flow 0 and an empty cut.
    g = GeometricGraph(PointSet.from_coords([(0, 0), (4, 0), (9, 1), (0, 7)]), ((0, 1),))
    assert vertex_connectivity(g) == ConnectivityReport(0, 0, ())
    ps = PointSet.from_coords([(0, 0), (4, 0), (1, 3), (10, 0), (14, 1), (11, 5)])
    g = GeometricGraph(ps, ((0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)))
    assert vertex_connectivity(g) == ConnectivityReport(0, 2, ())


def test_connectivity_complete_graph():
    ps = PointSet.from_coords([(0, 0), (5, 0), (5, 5), (0, 5)])
    g = GeometricGraph(ps, tuple((a, b) for a in range(4) for b in range(a + 1, 4)))
    assert vertex_connectivity(g).kappa == 3


def test_maximal_outputs_three_connected_with_verified_cuts():
    rng = random.Random(20)
    for _ in range(12):
        n = rng.randint(4, 10)
        ps = random_strict_points(rng, n)
        res = maximal_augment(GeometricGraph(ps, ()))
        rep = vertex_connectivity(res.graph)
        assert rep.kappa >= 3
        if rep.witness_cut:
            assert not graph_is_connected_after_removal(res.graph, rep.witness_cut)


def test_connectivity_witness_cut_random_graphs():
    rng = random.Random(21)
    for _ in range(15):
        n = rng.randint(4, 10)
        ps = random_strict_points(rng, n)
        g = random_biplane_graph(rng, ps, rng.randint(n - 1, 2 * n))
        rep = vertex_connectivity(g)
        assert rep.kappa <= rep.min_degree
        if 0 < rep.kappa < n - 1:
            assert len(rep.witness_cut) == rep.kappa
            assert not graph_is_connected_after_removal(g, rep.witness_cut)


def test_connectivity_matches_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(24)
    for trial in range(40):
        n = rng.randint(5, 16)
        ps = random_strict_points(rng, n)
        if trial % 2:
            g = random_biplane_graph(rng, ps, rng.randint(n - 1, 3 * n))
            if rng.random() < 0.5:
                g = maximal_augment(g).graph
        else:
            # Two dense sides joined only through vertices 0..k-1, so the
            # minimum cut is usually smaller than the minimum degree.
            k = rng.randint(1, 3)
            side = [2] * k + [rng.randrange(2) for _ in range(n - k)]
            g = GeometricGraph(
                ps,
                tuple(
                    (a, b)
                    for a in range(n)
                    for b in range(a + 1, n)
                    if (side[a] == side[b] or 2 in (side[a], side[b])) and rng.random() < 0.8
                ),
            )
        reference = nx.Graph()
        reference.add_nodes_from(range(n))
        reference.add_edges_from(g.edges)
        rep = vertex_connectivity(g)
        assert rep.kappa == nx.node_connectivity(reference)
        if rep.kappa and g.m < n * (n - 1) // 2:
            assert len(rep.witness_cut) == rep.kappa
            assert not graph_is_connected_after_removal(g, rep.witness_cut)


def test_maximality_oracle_matches_brute_reference():
    # Relaxed sets are lattice subsets: collinear non-edges through a
    # vertex, which both oracles skip, and edges that touch end to end.
    rng = random.Random(25)
    for strictness in Strictness:
        verdicts = set()
        for trial in range(48):
            if strictness is Strictness.STRICT:
                n = rng.randint(5, 24)
                ps = random_strict_points(rng, n)
            else:
                ps = random_lattice_points(rng, rng.randint(3, 6), 5)
                n = len(ps)
            g = drop_edges_through_vertices(random_biplane_graph(rng, ps, rng.randint(n, 4 * n)))
            if trial % 3:
                g = maximal_augment(g).graph
            if trial % 3 == 2:
                drop = rng.choice(g.edges)
                g = GeometricGraph(ps, tuple(e for e in g.edges if e != drop))
            verdict = maximality_oracle(g)
            assert verdict == brute_maximality_oracle(g)
            verdicts.add(verdict)
        assert verdicts == {True, False}, strictness


def test_maximality_oracles_reject_graph_over_edge_cap():
    ps = random_strict_points(random.Random(26), 10)
    k10 = GeometricGraph(ps, tuple((a, b) for a in range(10) for b in range(a + 1, 10)))
    assert k10.m == 45 > 6 * 10 - 18
    with pytest.raises(ValueError, match="^input graph is not biplane$"):
        maximality_oracle(k10)
    with pytest.raises(ValueError):
        brute_maximality_oracle(k10)


@pytest.mark.parametrize("k", [5, 6, 7, 8])
def test_maximality_oracle_on_relaxed_grid(k):
    g = maximal_augment(gen_grid(k).graph).graph
    assert maximality_oracle(g)
    drop = random.Random(k).choice(g.edges)
    assert not maximality_oracle(GeometricGraph(g.points, tuple(e for e in g.edges if e != drop)))


def test_maximality_oracle_k4_true():
    ps = PointSet.from_coords([(0, 0), (5, 0), (5, 5), (0, 5)])
    g = GeometricGraph(ps, tuple((a, b) for a in range(4) for b in range(a + 1, 4)))
    assert maximality_oracle(g)


def test_single_triangulation_usually_not_maximal():
    # one triangulation with a nonconvex 5-point set leaves room in layer 2
    ps = PointSet.from_coords([(0, 0), (10, 1), (11, 10), (1, 9), (5, 6)])
    t = complete_to_triangulation(ps)
    g = GeometricGraph(ps, tuple(t.sorted_edges()))
    assert not maximality_oracle(g)


def test_oracle_rejects_non_biplane_input():
    import math

    pts = [
        (int(1e6 * math.cos(2 * math.pi * i / 5)), int(1e6 * math.sin(2 * math.pi * i / 5)))
        for i in range(5)
    ]
    ps = PointSet.from_coords(pts)
    k5 = GeometricGraph(ps, tuple((a, b) for a in range(5) for b in range(a + 1, 5)))
    with pytest.raises(ValueError, match="^input graph is not biplane$"):
        maximality_oracle(k5)


def test_brute_force_maximum_convex5():
    res = brute_force_maximum(gen_convex(5))
    assert res.maximum_edges == 9
    assert res.triangulation_count == 5
    assert res.witness.m == 9


def test_brute_force_maximum_arc6():
    assert brute_force_maximum(gen_arc_in_triangle(6)).maximum_edges == 14


def test_brute_force_maximum_hgon74():
    assert brute_force_maximum(gen_hgon_with_arc(7, 4)).maximum_edges == 18


def test_brute_force_maximum_cap():
    with pytest.raises(ValueError):
        brute_force_maximum(gen_convex(10), cap=9)


def test_brute_force_dominates_augmentation():
    rng = random.Random(22)
    for _ in range(6):
        n = rng.randint(4, 8)
        ps = random_strict_points(rng, n)
        res = maximal_augment(GeometricGraph(ps, ()))
        assert brute_force_maximum(ps).maximum_edges >= res.graph.m


def test_gap_on_convex_sets_is_always_zero():
    for n in (4, 5, 6, 7):
        rep = find_maximal_gap(gen_convex(n), trials=5, seed=3)
        assert rep.smallest == rep.largest == 3 * n - 6


def test_gap_on_triangle():
    ps = PointSet.from_coords([(0, 0), (4, 0), (0, 4)])
    rep = find_maximal_gap(ps, trials=3, seed=1)
    assert (rep.smallest, rep.largest) == (3, 3)


def test_gap_reproducible_per_seed():
    rng = random.Random(23)
    ps = random_strict_points(rng, 9)
    a = find_maximal_gap(ps, trials=8, seed=99)
    b = find_maximal_gap(ps, trials=8, seed=99)
    assert a.sizes == b.sizes


def test_maximal_sizes_lie_in_the_exact_range():
    # The exact range comes from all triangulation pairs, independent of
    # the augmentation; augmentation from any start and the gap search
    # must land inside it.
    rng = random.Random(24)
    for n in (7, 7, 7, 8, 8, 8):
        ps = random_strict_points(rng, n)
        lo, hi = maximal_size_range(ps)
        assert hi == brute_force_maximum(ps).maximum_edges
        assert lo >= bounds(n, len(convex_hull(ps))).min_maximal
        starts = [GeometricGraph(ps, ())]
        starts += [random_biplane_graph(rng, ps, rng.randint(1, 2 * n)) for _ in range(4)]
        sizes = [maximal_augment(g).graph.m for g in starts]
        sizes += find_maximal_gap(ps, trials=8, seed=rng.randrange(1000)).sizes
        assert all(lo <= m <= hi for m in sizes), (ps, lo, hi, sizes)


# Two maximal biplane graphs of 22 and 23 edges on
# random_strict_points(Random(0), 8, span=1000), found by a gap search.
# They are stored because the search's result depends on how completion
# fills pockets: with seed 1000 and 24 trials it now meets only 22 edges.
GAP_SMALL = (
    (0, 2), (0, 4), (0, 6), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7),
    (2, 3), (2, 4), (2, 5), (2, 6), (3, 4), (3, 5), (3, 7), (4, 5), (4, 6),
    (4, 7), (5, 6), (5, 7), (6, 7),
)
GAP_LARGE = (
    (0, 2), (0, 4), (0, 5), (0, 6), (0, 7), (1, 2), (1, 3), (1, 4), (1, 5),
    (1, 6), (1, 7), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (3, 5), (3, 7),
    (4, 5), (4, 7), (5, 6), (5, 7), (6, 7),
)


def test_gap_finds_differing_maximal_sizes_somewhere():
    # The paper's claim: maximal biplane graphs on one point set can differ
    # in size.  The search's power to find such a gap is covered by
    # test_criterion_06_maximal_size_gap.
    rng = random.Random(0)
    ps = random_strict_points(rng, 8, span=1000)
    small = GeometricGraph(ps, GAP_SMALL)
    large = GeometricGraph(ps, GAP_LARGE)
    assert (small.m, large.m) == (22, 23)
    assert maximality_oracle(small)
    assert maximality_oracle(large)
    assert brute_force_maximum(ps).maximum_edges == 23
    rep = find_maximal_gap(ps, trials=24, seed=1000)
    assert maximality_oracle(rep.smallest_graph)
    assert maximality_oracle(rep.largest_graph)


def test_degree_histogram_examples():
    ps = PointSet.from_coords([(0, 0), (5, 0), (5, 5), (0, 5)])
    k4 = GeometricGraph(ps, tuple((a, b) for a in range(4) for b in range(a + 1, 4)))
    assert degree_histogram(k4) == {3: 4}
    assert degree_histogram(GeometricGraph(ps, ())) == {0: 4}
    grid = gen_grid(10)
    hist = degree_histogram(grid.graph)
    assert hist[4] == 4  # the four corners
    assert sum(d * c for d, c in hist.items()) == 2 * grid.graph.m
