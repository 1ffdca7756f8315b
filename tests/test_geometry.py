import pytest
from _helpers import brute_relaxed_edge_violations, brute_validate, point_on_open_segment
from hypothesis import given, settings
from hypothesis import strategies as st

from biplanekit.geometry import (
    COORD_LIMIT,
    Point,
    PointSet,
    Strictness,
    convex_hull,
    cross,
    edge,
    segments_cross,
    validate,
)
from biplanekit.graphs import GeometricGraph, relaxed_edge_violations

P = Point


def turn(p: Point, q: Point, r: Point) -> int:
    """Sign of cross: 1 counterclockwise, 0 collinear, -1 clockwise."""
    c = cross(p, q, r)
    return (c > 0) - (c < 0)


def test_orientation_examples():
    assert turn(P(0, 0), P(1, 0), P(0, 1)) == 1
    assert turn(P(0, 0), P(1, 1), P(2, 2)) == 0
    assert turn(P(0, 0), P(0, 1), P(1, 0)) == -1


coords = st.integers(min_value=-(10**6), max_value=10**6)
points = st.builds(P, coords, coords)


@given(points, points, points)
def test_orientation_antisymmetric_under_swaps(p, q, r):
    base = turn(p, q, r)
    assert turn(q, p, r) == -base
    assert turn(p, r, q) == -base
    assert turn(r, q, p) == -base


@given(points, points, points, points)
def test_segments_cross_symmetric(a, b, c, d):
    if a == b or c == d:
        return
    assert segments_cross(a, b, c, d) == segments_cross(c, d, a, b)
    assert segments_cross(a, b, c, d) == segments_cross(b, a, d, c)


def test_segments_cross_examples():
    assert segments_cross(P(0, 0), P(2, 2), P(0, 2), P(2, 0))
    assert not segments_cross(P(0, 0), P(1, 1), P(1, 1), P(2, 0))
    assert segments_cross(P(0, 0), P(3, 0), P(1, 0), P(2, 0))


def test_segments_shared_endpoint_collinear_do_not_cross():
    assert not segments_cross(P(0, 0), P(1, 0), P(1, 0), P(2, 0))


def test_t_junction_is_not_an_open_crossing():
    # endpoint of one segment interior to the other: open segments share
    # no point of the second's interior
    assert not segments_cross(P(0, 0), P(4, 0), P(2, 0), P(2, 3))


def test_hull_square():
    ps = PointSet.from_coords([(0, 0), (2, 0), (2, 2), (0, 2)])
    assert convex_hull(ps) == [0, 1, 2, 3]


def test_hull_triangle_with_interior_point():
    ps = PointSet.from_coords([(0, 0), (6, 0), (3, 5), (3, 2)])
    assert sorted(convex_hull(ps)) == [0, 1, 2]


def test_hull_parabola_six_points_all_on_hull():
    ps = PointSet.from_coords([(x, x * x) for x in range(6)])
    hull = convex_hull(ps)
    assert sorted(hull) == list(range(6))
    # independent oracle: every triple of a convex polygon turns one way
    pts = ps.points
    k = len(hull)
    for i in range(k):
        assert cross(pts[hull[i]], pts[hull[(i + 1) % k]], pts[hull[(i + 2) % k]]) > 0


def test_hull_output_is_counterclockwise():
    ps = PointSet.from_coords([(0, 0), (10, 1), (9, 9), (2, 8), (5, 5)])
    hull = convex_hull(ps)
    pts = ps.points
    k = len(hull)
    for i in range(k):
        assert cross(pts[hull[i]], pts[hull[(i + 1) % k]], pts[hull[(i + 2) % k]]) > 0


def test_weak_hull_keeps_collinear_boundary_points():
    grid = [(i, j) for i in range(1, 6) for j in range(1, 6)]
    ps = PointSet.from_coords(grid, Strictness.RELAXED)
    hull = convex_hull(ps)
    assert len(hull) == 16  # 4(k-1) boundary points for k=5


def test_validate_collinear_strict():
    ps = PointSet.from_coords([(0, 0), (1, 0), (2, 0)])
    rep = validate(ps)
    assert not rep.ok and rep.collinear_triple == (0, 1, 2)


def test_validate_ok():
    assert validate(PointSet.from_coords([(0, 0), (1, 0), (0, 1)])).ok


def test_validate_grid_strict_vs_relaxed():
    grid = [(i, j) for i in range(5) for j in range(5)]
    assert not validate(PointSet.from_coords(grid, Strictness.STRICT)).ok
    assert validate(PointSet.from_coords(grid, Strictness.RELAXED)).ok


@given(
    st.integers(min_value=2, max_value=7).flatmap(
        lambda k: st.lists(
            st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)),
            min_size=3,
            max_size=14,
            unique=True,
        )
    ),
    st.integers(min_value=1, max_value=1000),
    st.tuples(coords, coords),
)
@settings(max_examples=300)
def test_validate_matches_triple_scan(cells, scale, shift):
    # Scaled and shifted lattice points keep their collinear triples, and
    # their directions need reducing by a common divisor.
    ps = PointSet.from_coords([(scale * x + shift[0], scale * y + shift[1]) for x, y in cells])
    assert validate(ps) == brute_validate(ps)


@given(
    st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 5)),
        min_size=3,
        max_size=14,
        unique=True,
    ),
    st.integers(min_value=1, max_value=1000),
    st.tuples(coords, coords),
    st.randoms(use_true_random=False),
)
@settings(max_examples=200)
def test_relaxed_edge_violations_match_scan(cells, scale, shift, rng):
    ps = PointSet.from_coords(
        [(scale * x + shift[0], scale * y + shift[1]) for x, y in cells],
        Strictness.RELAXED,
    )
    n = len(ps)
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    g = GeometricGraph(ps, tuple(e for e in pairs if rng.random() < 0.4))
    assert relaxed_edge_violations(g) == brute_relaxed_edge_violations(g)


def test_pointset_rejects_duplicates_and_huge_coords():
    with pytest.raises(ValueError):
        PointSet.from_coords([(0, 0), (0, 0)])
    with pytest.raises(ValueError):
        PointSet.from_coords([(0, 0), (COORD_LIMIT + 1, 0)])
    PointSet.from_coords([(COORD_LIMIT, -COORD_LIMIT), (0, 0)])  # at the cap: fine


def test_edge_canonicalization():
    assert edge(5, 2) == (2, 5)
    with pytest.raises(ValueError):
        edge(3, 3)


def test_point_on_open_segment():
    assert point_on_open_segment(P(1, 1), P(0, 0), P(2, 2))
    assert not point_on_open_segment(P(0, 0), P(0, 0), P(2, 2))
    assert not point_on_open_segment(P(3, 3), P(0, 0), P(2, 2))


@given(st.lists(st.tuples(coords, coords), min_size=3, max_size=12, unique=True))
@settings(max_examples=60)
def test_hull_convex_on_random_sets(coord_list):
    ps = PointSet.from_coords(coord_list, Strictness.RELAXED)
    try:
        hull = convex_hull(ps)
    except ValueError:
        return  # fully collinear sample
    pts = ps.points
    k = len(hull)
    for i in range(k):
        assert cross(pts[hull[i]], pts[hull[(i + 1) % k]], pts[hull[(i + 2) % k]]) >= 0
    inside = set(range(len(ps))) - set(hull)
    for v in inside:
        for i in range(k):
            assert cross(pts[hull[i]], pts[hull[(i + 1) % k]], pts[v]) >= 0
