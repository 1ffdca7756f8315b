import itertools
import random
import re

import pytest
from _helpers import (
    brute_relaxed_edge_violations,
    brute_validate,
    gcd_validate,
    line_separates,
    point_on_open_segment,
    proper_cross,
    random_lattice_points,
    random_strict_points,
    rectangle_boundary,
    reference_convex_hull,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from biplanekit.constructions import gen_convex, gen_grid
from biplanekit.geometry import (
    COORD_LIMIT,
    Point,
    PointSet,
    Strictness,
    ValidationReport,
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


small = st.builds(P, st.integers(-4, 4), st.integers(-4, 4))


@given(small, small, small, small)
def test_line_separates_is_proper_cross_across_an_edge(a, b, l, r):
    # With l strictly left of a -> b and r strictly right, as the apexes at
    # a triangulation edge are, the two-area test answers proper_cross, and
    # a separating line always has a on its right.
    if not cross(a, b, l) > 0 > cross(a, b, r):
        return
    assert line_separates(l, r, a, b) == proper_cross(a, b, l, r)
    assert line_separates(l, r, a, b) == (cross(l, r, a) < 0 < cross(l, r, b))


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


def test_hull_matches_reference_hull():
    # The turn test is written out on the coordinates; the reference calls
    # cross.  Lattice sets and the grid keep collinear weak-hull points.
    rng = random.Random(31)
    sets = [random_strict_points(rng, n) for n in (3, 4, 10, 60, 500)]
    sets += [random_lattice_points(rng, k, k + 1) for k in (3, 4, 6, 9) for _ in range(5)]
    sets += [gen_convex(40), gen_grid(6).graph.points]
    weak = 0
    for ps in sets:
        hull = convex_hull(ps)
        assert hull == reference_convex_hull(ps)
        pts = ps.points
        k = len(hull)
        turns = [cross(pts[hull[i - 1]], pts[hull[i]], pts[hull[(i + 1) % k]]) for i in range(k)]
        weak += 0 in turns
    assert weak >= 5


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
    assert validate(ps) == gcd_validate(ps) == brute_validate(ps)


@given(
    st.integers(min_value=2, max_value=6).flatmap(
        lambda k: st.lists(
            st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)),
            min_size=3,
            max_size=12,
            unique=True,
        )
    ),
    st.integers(min_value=1, max_value=2 * COORD_LIMIT // 15),
    st.integers(min_value=-1, max_value=1),
)
@settings(max_examples=200)
def test_validate_matches_triple_scan_near_the_cap(cells, scale, tilt):
    # Lattice points sheared and scaled out to the coordinate cap: the
    # sheared y + tilt * x + 5 lies in [0, 15], so every coordinate fits.
    ps = PointSet.from_coords(
        [(scale * x - COORD_LIMIT, scale * (y + tilt * x + 5) - COORD_LIMIT) for x, y in cells]
    )
    assert validate(ps) == gcd_validate(ps) == brute_validate(ps)


def symmetric_images(pts):
    """The set under all 8 symmetries of the square, in every vertex order."""
    for sx, sy, swap in itertools.product((1, -1), (1, -1), (False, True)):
        img = [(sx * x, sy * y) for x, y in pts]
        if swap:
            img = [(y, x) for x, y in img]
        yield from itertools.permutations(img)


C = COORD_LIMIT


@pytest.mark.parametrize(
    "pts, collinear",
    [
        # Slopes (2**31 - 1) / 2**31 and (2**31 - 2) / (2**31 - 1) from the
        # first point differ by 1 / (2**31 * (2**31 - 1)), about 2**-62.
        ([(-C, -C), (C, C - 1), (C - 1, C - 2)], False),
        ([(-C, -C), (C, C - 1), (C - 1, C - 2), (-C, C)], False),
        ([(-C, -C), (C, C - 2), (0, -2)], False),
        ([(-C, -C), (0, 0), (C, C)], True),
        ([(-C, -C), (C, C - 2), (0, -1)], True),
        ([(-C, C), (C, -C), (-C, -C), (C, C), (0, 0)], True),
    ],
)
def test_validate_at_the_coordinate_cap(pts, collinear):
    for img in symmetric_images(pts):
        ps = PointSet.from_coords(img)
        rep = validate(ps)
        assert rep.ok is not collinear
        assert rep == gcd_validate(ps) == brute_validate(ps)


@pytest.mark.parametrize(
    "pts, triple",
    [
        ([(0, 0), (0, 5), (0, -3)], (0, 1, 2)),
        ([(0, 0), (5, 0), (-3, 0)], (0, 1, 2)),
        ([(0, 0), (4, 4), (-7, -7)], (0, 1, 2)),
        ([(0, 0), (0, 5), (5, 0)], None),
        ([(1, 1), (4, 0), (0, 7), (0, -2), (-9, 0), (3, 9)], None),
        # From point 0 the horizontal line holds {1, 4} and the vertical
        # line {2, 3}; the first group by smallest member wins.
        ([(0, 0), (4, 0), (0, 7), (0, -2), (-9, 0)], (0, 1, 4)),
        ([(0, 0), (0, 7), (4, 0), (-9, 0), (0, -2)], (0, 1, 4)),
        ([(3, 1), (0, 0), (0, 7), (0, -2), (-9, 0)], (1, 2, 3)),
    ],
)
def test_validate_axis_lines_in_both_directions(pts, triple):
    ps = PointSet.from_coords(pts)
    rep = validate(ps)
    assert rep.collinear_triple == triple and rep.ok is (triple is None)
    assert rep == gcd_validate(ps) == brute_validate(ps)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_validate_fewer_than_three_points(n):
    ps = PointSet.from_coords([(C, -C), (-C, C)][:n])
    assert validate(ps) == gcd_validate(ps) == brute_validate(ps) == ValidationReport(True)


def parabola(k: int, scale: int = 1, shift: int = 0) -> list[tuple[int, int]]:
    """k strictly convex points (scale * x + shift, scale * x * x + shift)."""
    return [(scale * x + shift, scale * x * x + shift) for x in range(k)]


def shuffled(rng: random.Random, coords) -> PointSet:
    """A STRICT point set of `coords` in random order."""
    coords = list(coords)
    rng.shuffle(coords)
    return PointSet.from_coords(coords)


def convex_position_sets(rng: random.Random):
    """(point set, whether it has no collinear triple), every point on or
    near the weak hull, in shuffled order."""
    octagon = [(-C, 1 - C), (1 - C, -C), (C - 1, -C), (C, 1 - C)]
    octagon += [(-x, -y) for x, y in octagon]
    yield shuffled(rng, octagon), True
    # A point on the octagon's long bottom side; one inside, on the line
    # through two corners; and one just inside, on no such line.
    yield shuffled(rng, [*octagon, (0, -C)]), False
    yield shuffled(rng, [*octagon, (0, 1 - C)]), False
    yield shuffled(rng, [*octagon, (0, 2 - C)]), True
    for _ in range(40):
        k = rng.randint(3, 12)
        yield shuffled(rng, gen_convex(k).points), True
        # Strictly convex out to the coordinate cap, reflected at random.
        scale = 2 * C // (k - 1) ** 2
        sx, sy = rng.choice((1, -1)), rng.choice((1, -1))
        arc = [(sx * x, sy * y) for x, y in parabola(k, scale, -C)]
        yield shuffled(rng, arc if rng.random() < 0.5 else [(y, x) for x, y in arc]), True
        # Weakly convex: rectangle boundaries, with collinear sides unless
        # the rectangle is a unit square.
        w, h = rng.randint(1, 4), rng.randint(1, 4)
        yield shuffled(rng, rectangle_boundary(rng, w, h).points), w == h == 1
        if k < 4:
            continue
        # One point strictly inside the hull y <= (k - 1) x of the arc.
        x = rng.randint(1, k - 2)
        inner = (x, rng.randint(x * x + 1, (k - 1) * x - 1))
        yield shuffled(rng, parabola(k) + [inner]), None
        # Arc point i moved onto the side between its neighbours, or
        # point 1 moved onto the long side from 0 to k - 1.
        pts = parabola(k)
        i = rng.randint(1, k - 2)
        pts[i] = (i, i * i + 1)
        yield shuffled(rng, pts), False
        pts = parabola(k)
        pts[1] = (1, k - 1)
        yield shuffled(rng, pts), False


def test_validate_on_convex_position_sets():
    # Strictly convex sets end at the hull; the rest, weakly convex ones
    # and convex sets with an interior point, need the full scan, whose
    # first triple must be the same.
    kinds = set()
    for ps, ok in convex_position_sets(random.Random(28)):
        assert len(convex_hull(ps)) >= len(ps) - 1
        rep = validate(ps)
        assert rep == gcd_validate(ps) == brute_validate(ps)
        assert ok is None or rep.ok is ok
        kinds.add(rep.ok)
    assert kinds == {True, False}


def test_validate_matches_gcd_reference_on_large_sets():
    ps = gen_convex(500)
    assert validate(ps) == gcd_validate(ps) == ValidationReport(True)
    coords = list(ps.points)
    random.Random(28).shuffle(coords)
    ps = PointSet.from_coords(coords)
    assert validate(ps) == gcd_validate(ps) == ValidationReport(True)
    # The middle arc point moved onto the side between its neighbours.
    coords[coords.index((250, 250**2))] = (250, 250**2 + 1)
    ps = PointSet.from_coords(coords)
    assert validate(ps) == gcd_validate(ps) != ValidationReport(True)
    rng = random.Random(15)
    for _ in range(6):
        # 297 random points and one collinear triple at random indices.
        pts = [(rng.randrange(-(2**29), 2**29), rng.randrange(-(2**29), 2**29)) for _ in range(297)]
        base = (rng.randrange(-(2**28), 2**28), rng.randrange(-(2**28), 2**28))
        d = (rng.randrange(-(2**20), 2**20), rng.randrange(-(2**20), 2**20))
        line = [(base[0] + t * d[0], base[1] + t * d[1]) for t in rng.sample(range(-50, 50), 3)]
        for idx, p in zip(sorted(rng.sample(range(300), 3)), line):
            pts.insert(idx, p)
        ps = PointSet.from_coords(pts)
        rep = validate(ps)
        assert not rep.ok and rep == gcd_validate(ps)


def test_random_strict_points_gives_up_on_a_box_too_small():
    # A span x span box holds at most two such points per row, so 7 points
    # with span 3 raise before any draw; 6 fit only in a few placements,
    # and a bounded number of draws gives up instead of drawing forever.
    class NoDraws(random.Random):
        def randrange(self, *args):
            raise AssertionError("drew points for an impossible size")

    with pytest.raises(ValueError, match=r"\b7 points\b.*\bspan 3\b"):
        random_strict_points(NoDraws(), 7, 3)
    with pytest.raises(ValueError, match=r"\b6 points\b.*\bspan 3 after 5 draws"):
        random_strict_points(random.Random(1), 6, 3, draws=5)
    ps = random_strict_points(random.Random(1), 4, 3)
    assert len(ps) == 4 and validate(ps).ok


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
    with pytest.raises(ValueError, match=r"^duplicate point at indices 1 and 3$"):
        PointSet.from_coords([(0, 0), (5, 1), (2, 2), (5, 1), (0, 0)])
    over = [(0, 0), (0, 0), (1, -COORD_LIMIT - 1), (COORD_LIMIT + 1, 0)]
    msg = rf"^point 2 = \(1, {-COORD_LIMIT - 1}\) exceeds \|coord\| <= 2\*\*30$"
    for make in (PointSet.from_coords, PointSet):
        with pytest.raises(ValueError, match=msg):
            make(over)
    PointSet.from_coords([(COORD_LIMIT, -COORD_LIMIT), (0, 0)])  # at the cap: fine


def test_edge_canonicalization():
    assert edge(5, 2) == (2, 5)
    with pytest.raises(ValueError):
        edge(3, 3)


def test_graph_canonicalizes_and_merges_duplicate_edges():
    ps = PointSet.from_coords([(0, 0), (4, 0), (0, 4), (3, 3)])
    g = GeometricGraph(ps, ((2, 3), (0, 2), (1, 0), (3, 2), (0, 1), (1, 3)))
    assert g.edges == ((0, 1), (0, 2), (1, 3), (2, 3))


def test_graph_errors_name_the_first_loop_then_the_first_missing_vertex():
    # Loops are found in input order, before any range check; a missing
    # vertex is reported at the first offending edge in sorted order.
    ps = PointSet.from_coords([(0, 0), (4, 0), (0, 4)])
    cases = [
        (((0, 7), (2, 2), (1, 1)), "degenerate edge (2, 2)"),
        (((5, -1), (0, 1), (0, 0)), "degenerate edge (0, 0)"),
        (((1, 9), (5, 0), (2, 1)), "edge (0, 5) references a missing vertex"),
        (((0, 5), (2, -1), (0, 1)), "edge (-1, 2) references a missing vertex"),
        (((2, 3), (0, 1)), "edge (2, 3) references a missing vertex"),
    ]
    for edges, message in cases:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            GeometricGraph(ps, edges)


@pytest.mark.parametrize("bad", [1.7, 2.0, "3", None])
def test_constructors_reject_non_integer_input(bad):
    # Coordinates and vertex indices are exact integers: a float, even an
    # integral one, or a numeric string is rejected, not truncated.
    with pytest.raises(TypeError, match=rf"^point 1 = \(10, {re.escape(repr(bad))}\) "):
        PointSet.from_coords([(0, 0), (10, bad), (0, 10)])
    with pytest.raises(TypeError, match=r"^point 0 = "):
        PointSet([(bad, 0)])
    ps = PointSet.from_coords([(0, 0), (4, 0), (0, 4)])
    with pytest.raises(TypeError, match=rf"^edge 1 = \({re.escape(repr(bad))}, 2\) "):
        GeometricGraph(ps, ((0, 1), (bad, 2)))
    # The loop at edge 0 comes first in input order.
    with pytest.raises(ValueError, match=r"^degenerate edge \(1, 1\)$"):
        GeometricGraph(ps, ((1, 1), (0, bad)))


def test_constructors_accept_bools_and_numpy_integers():
    np = pytest.importorskip("numpy")
    ps = PointSet.from_coords([(np.int64(0), False), (np.int32(4), 0), (0, np.uint8(4))])
    assert ps.points == ((0, 0), (4, 0), (0, 4))
    assert all(type(c) is int for p in ps.points for c in p)
    g = GeometricGraph(ps, ((np.int64(2), True), (False, np.int16(1))))
    assert g.edges == ((0, 1), (1, 2))
    assert all(type(v) is int for e in g.edges for v in e)


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
