
import pytest
from _helpers import assert_grid_degree_classes, grid_coord, layer_is_plane

from biplanekit.analysis import brute_force_maximum
from biplanekit.augmentation import maximal_augment
from biplanekit.constructions import (
    _transform,
    apply_boundary_flips,
    apply_corner_flips,
    bounds,
    gen_arc_in_triangle,
    gen_convex,
    gen_grid,
    gen_hgon_with_arc,
)
from biplanekit.geometry import convex_hull, edge, validate
from biplanekit.graphs import GeometricGraph, relaxed_edge_violations
from biplanekit.recognition import BiplaneDecomposition, test_biplane


def test_bounds_examples():
    b = bounds(10, 3)
    assert b.min_maximal == 27
    assert b.maximum_lower == 30
    assert b.max_edges_abs == 42
    assert b.max_edges_hull == 45
    assert bounds(6, 6).min_maximal == 12  # n = h: 3n - 6
    b3 = bounds(3, 3)
    assert b3.min_maximal == 3 and b3.maximum_lower == 3
    assert bounds(7, 3).max_edges_abs is None


def test_bounds_rejects_bad_parameters():
    with pytest.raises(ValueError):
        bounds(5, 2)
    with pytest.raises(ValueError):
        bounds(4, 5)


def test_gen_convex_hull_size():
    for n in (3, 4, 8, 20):
        ps = gen_convex(n)
        assert len(convex_hull(ps)) == n
        assert validate(ps).ok
    with pytest.raises(ValueError):
        gen_convex(2)


def test_gen_convex_augment_tight():
    res = maximal_augment(GeometricGraph(gen_convex(8), ()))
    assert res.graph.m == 18


def test_gen_convex_oracle_small():
    assert brute_force_maximum(gen_convex(5)).maximum_edges == 9


def test_gen_arc_in_triangle_small_cases():
    with pytest.raises(ValueError):
        gen_arc_in_triangle(3)
    assert brute_force_maximum(gen_arc_in_triangle(4)).maximum_edges == 6
    assert brute_force_maximum(gen_arc_in_triangle(6)).maximum_edges == 14


def test_gen_arc_hull_is_triangle():
    for n in (4, 6, 9):
        ps = gen_arc_in_triangle(n)
        assert len(convex_hull(ps)) == 3
        assert validate(ps).ok


def test_gen_hgon_with_arc_parameters():
    with pytest.raises(ValueError):
        gen_hgon_with_arc(6, 3)
    with pytest.raises(ValueError):
        gen_hgon_with_arc(4, 5)


def test_gen_hgon_reduces_to_convex_at_n_equals_h():
    ps = gen_hgon_with_arc(6, 6)
    assert len(convex_hull(ps)) == 6
    res = maximal_augment(GeometricGraph(ps, ()))
    assert res.graph.m == 3 * 6 - 6


def test_gen_hgon_oracle():
    assert brute_force_maximum(gen_hgon_with_arc(7, 5)).maximum_edges == 4 * 7 - 5 - 6


def test_gen_hgon_forced_edges_in_every_maximal_graph():
    n, h = 7, 4
    ps = gen_hgon_with_arc(n, h)
    forced = {edge(i, (i + 1) % h) for i in range(h)}
    forced |= {edge(0, w) for w in range(h, n)}
    path = [1] + list(range(h, n))
    forced |= {edge(a, b) for a, b in zip(path, path[1:])}
    assert len(forced) == 2 * n - h
    for seed in range(4):
        rep_graph = maximal_augment(GeometricGraph(ps, ())).graph
        assert forced <= set(rep_graph.edges)


def test_grid_rejects_small_k():
    with pytest.raises(ValueError):
        gen_grid(4)


def test_grid_edge_count_and_degree_classification():
    # spot checks across the documented range, including large boards
    for k in (5, 6, 9, 25, 40):
        grid = gen_grid(k)
        assert grid.graph.m == 6 * (k - 1) ** 2
        assert_grid_degree_classes(grid)


def test_grid_adjacency_symmetric_under_negation():
    grid = gen_grid(6)
    # edge set closed under 180-degree rotation of the board
    k = grid.k
    edges = set(grid.graph.edges)
    for a, b in edges:
        ia, ja = grid_coord(grid, a)
        ib, jb = grid_coord(grid, b)
        ra = grid.index(k + 1 - ia, k + 1 - ja)
        rb = grid.index(k + 1 - ib, k + 1 - jb)
        assert edge(ra, rb) in edges


def test_grid_layers_are_plane_and_partition():
    grid = gen_grid(7)
    assert not (grid.red_edges & grid.blue_edges)
    assert grid.red_edges | grid.blue_edges == set(grid.graph.edges)
    assert layer_is_plane(grid.graph, grid.red_edges)
    assert layer_is_plane(grid.graph, grid.blue_edges)


def test_grid_is_biplane_and_relaxed_valid():
    grid = gen_grid(6)
    assert isinstance(test_biplane(grid.graph), BiplaneDecomposition)
    assert not relaxed_edge_violations(grid.graph)


def test_corner_flips_require_k8():
    with pytest.raises(ValueError):
        apply_corner_flips(gen_grid(7))


def test_corner_flips_degrees_and_biplanarity():
    k = 9
    grid = gen_grid(k)
    d0 = grid.graph.degrees()
    out = apply_corner_flips(grid)
    d1 = out.graph.degrees()
    assert out.graph.m == grid.graph.m
    for ci, cj in ((k - 1, 1), (1, 2), (2, k), (k, k - 1)):
        v = grid.index(ci, cj)
        assert d1[v] == d0[v] + 1
    for ci, cj in ((k - 1, 2), (2, 2), (2, k - 1), (k - 1, k - 1)):
        v = grid.index(ci, cj)
        assert d1[v] == d0[v] + 1
    assert isinstance(test_biplane(out.graph), BiplaneDecomposition)
    assert layer_is_plane(out.graph, out.red_edges)
    assert layer_is_plane(out.graph, out.blue_edges)
    assert len(out.flips) == 4


def test_boundary_flip_degree_and_biplanarity():
    k = 10
    grid = gen_grid(k)
    d0 = grid.graph.degrees()
    out = apply_boundary_flips(grid, 5)
    d1 = out.graph.degrees()
    v = grid.index(5, 1)
    assert d1[v] == d0[v] + 1
    assert out.graph.m == grid.graph.m
    assert isinstance(test_biplane(out.graph), BiplaneDecomposition)


def test_boundary_flip_position_validation():
    grid = gen_grid(10)
    with pytest.raises(ValueError):
        apply_boundary_flips(grid, 3)
    with pytest.raises(ValueError):
        apply_boundary_flips(grid, 8)


def test_boundary_flips_on_other_sides():
    grid = gen_grid(12)
    for side in range(4):
        out = apply_boundary_flips(grid, 5, side=side)
        assert isinstance(test_biplane(out.graph), BiplaneDecomposition)
        assert out.graph.m == grid.graph.m


def test_inapplicable_flips_raise_value_error():
    grid = gen_grid(8)
    with pytest.raises(ValueError, match="to remove is not in the layer"):
        apply_corner_flips(apply_corner_flips(grid))
    with pytest.raises(ValueError, match="to remove is not in the layer"):
        apply_boundary_flips(apply_boundary_flips(grid, 4), 4)
    with pytest.raises(ValueError, match="to add already exists"):
        _transform(grid, "boundary", (4, 0), [], [((1, 1), (1, 2))], 0)


def test_far_apart_boundary_flips_commute():
    grid = gen_grid(14)
    a = apply_boundary_flips(apply_boundary_flips(grid, 4), 11)
    b = apply_boundary_flips(apply_boundary_flips(grid, 11), 4)
    assert set(a.graph.edges) == set(b.graph.edges)


def test_generator_outputs_respect_bounds():
    for gen in (lambda: gen_convex(7), lambda: gen_arc_in_triangle(7), lambda: gen_hgon_with_arc(7, 4)):
        ps = gen()
        n = len(ps)
        h = len(convex_hull(ps))
        res = maximal_augment(GeometricGraph(ps, ()))
        b = bounds(n, h)
        assert b.min_maximal <= res.graph.m <= b.max_edges_hull
