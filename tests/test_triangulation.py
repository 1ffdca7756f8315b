import random

import pytest
from _helpers import (
    brute_angular_rotation,
    brute_crossed_edges,
    brute_face_walks,
    brute_fill_pocket,
    brute_sweep_triangulation,
    random_lattice_points,
    random_plane_graph,
    random_strict_points,
    validate_triangulation,
)

from biplanekit import triangulation
from biplanekit.augmentation import maximal_augment
from biplanekit.constructions import gen_convex, gen_grid
from biplanekit.geometry import PointSet, Strictness, convex_hull, cross, edge
from biplanekit.graphs import GeometricGraph
from biplanekit.recognition import test_biplane
from biplanekit.triangulation import (
    FlipStatus,
    NotPlaneError,
    complete_layers,
    complete_to_triangulation,
    enumerate_triangulations,
    plane_face_walks,
    trace_face_walks,
)


def convex4() -> PointSet:
    return PointSet.from_coords([(0, 0), (5, 0), (5, 5), (0, 5)])


def test_empty_convex4_completion_edge_count():
    t = complete_to_triangulation(convex4())
    assert t.edge_count == 3 * 4 - 4 - 3
    validate_triangulation(t)


def test_completion_of_triangulation_is_identity():
    rng = random.Random(2)
    for _ in range(10):
        ps = random_strict_points(rng, rng.randint(4, 9))
        t = complete_to_triangulation(ps)
        again = complete_to_triangulation(
            GeometricGraph(ps, tuple(t.sorted_edges()))
        )
        assert again.edge_set() == t.edge_set()


def test_triangle_with_interior_point_and_hull_edges():
    ps = PointSet.from_coords([(0, 0), (6, 0), (3, 5), (3, 2)])
    g = GeometricGraph(ps, ((0, 1), (1, 2), (0, 2)))
    t = complete_to_triangulation(g)
    assert t.edge_count == 3 * 4 - 3 - 3
    validate_triangulation(t)


def test_completion_rejects_crossing_input():
    ps = convex4()
    g = GeometricGraph(ps, ((0, 2), (1, 3)))
    with pytest.raises(NotPlaneError):
        complete_to_triangulation(g)


def test_completion_monotone_contains_input():
    rng = random.Random(3)
    for _ in range(20):
        ps = random_strict_points(rng, rng.randint(4, 10))
        full = complete_to_triangulation(ps)
        subset = tuple(e for e in full.sorted_edges() if rng.random() < 0.4)
        t = complete_to_triangulation(GeometricGraph(ps, subset))
        assert set(subset) <= t.edge_set()
        validate_triangulation(t)


def test_walk_matches_brute_crossed_edges(monkeypatch):
    # Blue layers of maximal graphs are not the sweep triangulation, so
    # completing their subsets inserts constraints that cross edges.
    # Each crossed edge comes as the dart from its endpoint left of a -> b.
    walk = triangulation._crossed_edges
    lengths = []

    def checked(pts, left, nbrs, a, b):
        got = walk(pts, left, nbrs, a, b)
        assert [edge(p, q) for p, q in got] == brute_crossed_edges(pts, left, a, b)
        pa, pb = pts[a], pts[b]
        assert all(cross(pa, pb, pts[p]) > 0 > cross(pa, pb, pts[q]) for p, q in got)
        lengths.append(len(got))
        return got

    monkeypatch.setattr(triangulation, "_crossed_edges", checked)
    rng = random.Random(17)
    for _ in range(40):
        ps = random_strict_points(rng, rng.randint(6, 60))
        blue = maximal_augment(GeometricGraph(ps, ())).blue_layer
        subset = tuple(e for e in blue if rng.random() < 0.6)
        t = complete_to_triangulation(GeometricGraph(ps, subset))
        assert set(subset) <= t.edge_set()
    assert len(lengths) > 100 and max(lengths) > 2


def test_constraint_walk_starts_at_lower_degree_endpoint(monkeypatch):
    # The sweep fans the first point of a convex set to every other point,
    # so a walk that started there would scan ~n neighbours for each of its
    # ~n chords.  Started at the other endpoint, completing both layers of
    # the maximal convex graph costs about 10 orientation tests per point.
    n = 500
    g = maximal_augment(GeometricGraph(gen_convex(n), ())).graph
    verdict = test_biplane(g)
    calls = [0]
    cross_ = triangulation.cross

    def counting(*args):
        calls[0] += 1
        return cross_(*args)

    monkeypatch.setattr(triangulation, "cross", counting)
    complete_layers(g.points, (verdict.layer1, verdict.layer2))
    assert calls[0] <= 20 * n, calls[0]


def test_relaxed_grid_layer_subsets_complete():
    # Pocket fills on lattice points meet chain vertices collinear with the
    # base or lying on a candidate side.
    for k in range(5, 11):
        res = maximal_augment(gen_grid(k).graph)
        ps = res.graph.points
        for seed in range(10):
            rng = random.Random(1000 * k + seed)
            for layer in (res.red_layer, res.blue_layer):
                subset = tuple(e for e in layer if rng.random() < 0.5)
                t = complete_to_triangulation(GeometricGraph(ps, subset))
                assert set(subset) <= t.edge_set()
                validate_triangulation(t)
                again = complete_to_triangulation(
                    GeometricGraph(ps, tuple(t.sorted_edges()))
                )
                assert again.edge_set() == t.edge_set()


def _doubled_area(pts, triangles) -> int:
    return sum(abs(cross(pts[u], pts[v], pts[w])) for u, v, w in triangles)


def test_scan_fill_matches_brute_fill_per_pocket(monkeypatch):
    # Each pocket that completion fills is also filled by the reference
    # search on an empty apex map; both must cover the pocket with
    # len(chain) strictly oriented triangles.  The fill's calls to the
    # geometry predicates are counted: one linear pass makes at most
    # 2 * len(chain) + 1 turn tests plus three per triangle.
    fill = triangulation._fill_pocket
    add = triangulation._add_triangle
    predicates = (
        "cross",
        "proper_cross",
        "segments_cross",
        "point_in_triangle_strict",
    )
    names = [name for name in predicates if hasattr(triangulation, name)]
    pockets = {"strict": 0, "lattice": 0, "grid": 0}
    family = ["strict"]
    collinear = [0]

    def checked(pts, left, nbrs, a, b, chain, up):
        walk = [a, *chain, b]
        collinear[0] += sum(
            cross(pts[u], pts[v], pts[w]) == 0
            for u, v, w in zip(walk, walk[1:], walk[2:])
        )
        calls = [0]
        added = []

        def counting(f):
            def wrapper(*args):
                calls[0] += 1
                return f(*args)

            return wrapper

        def recording(pts_, left_, u, v, w):
            added.append((u, v, w))
            add(pts_, left_, u, v, w)

        with monkeypatch.context() as m:
            for name in names:
                m.setattr(triangulation, name, counting(getattr(triangulation, name)))
            m.setattr(triangulation, "_add_triangle", recording)
            fill(pts, left, nbrs, a, b, chain, up)
        assert calls[0] <= 6 * (len(chain) + 1), (len(chain), calls[0])

        scratch = {}
        brute_fill_pocket(pts, scratch, [set() for _ in pts], a, b, chain)
        brute = {tuple(sorted((*d, w))) for d, w in scratch.items() if w is not None}
        for tris in (added, brute):
            assert len(tris) == len(chain)
            assert all(cross(pts[u], pts[v], pts[w]) != 0 for u, v, w in tris)
        assert _doubled_area(pts, added) == _doubled_area(pts, brute)
        pockets[family[0]] += 1

    monkeypatch.setattr(triangulation, "_fill_pocket", checked)
    rng = random.Random(41)
    for _ in range(30):
        ps = random_strict_points(rng, rng.randint(6, 50))
        blue = maximal_augment(GeometricGraph(ps, ())).blue_layer
        subset = tuple(e for e in blue if rng.random() < 0.6)
        complete_to_triangulation(GeometricGraph(ps, subset))
    family[0] = "lattice"
    for _ in range(60):
        ps = random_lattice_points(rng, rng.randint(4, 9), 10)
        g = random_plane_graph(rng, ps, rng.randint(1, 3 * len(ps)))
        complete_to_triangulation(g)
    family[0] = "grid"
    for k in range(5, 11):
        res = maximal_augment(gen_grid(k).graph)
        for layer in (res.red_layer, res.blue_layer):
            subset = tuple(e for e in layer if rng.random() < 0.5)
            complete_to_triangulation(GeometricGraph(res.graph.points, subset))
    assert min(pockets.values()) > 50, pockets
    assert collinear[0] > 0


def test_grid_reaugmentation_returns_the_grid():
    # Both layers are completed from thousands of constraints on lattice
    # points; the maximal grid comes back edge for edge.
    for k in [*range(5, 21), 30, 40]:
        g = gen_grid(k).graph
        assert maximal_augment(g).graph.edges == g.edges


def test_flip_of_quad_diagonal():
    t = complete_to_triangulation(convex4())
    diag = next(e for e in t.sorted_edges() if e not in t.hull_edges())
    assert t.is_flippable(diag)
    t2 = t.flip(diag)
    other = next(e for e in t2.sorted_edges() if e not in t2.hull_edges())
    assert {diag, other} == {(0, 2), (1, 3)}
    assert t2.edge_count == t.edge_count


def test_flip_is_involution():
    t = complete_to_triangulation(convex4())
    diag = next(e for e in t.sorted_edges() if e not in t.hull_edges())
    back = t.flip(diag).flip(next(
        e for e in t.flip(diag).sorted_edges() if e not in t.hull_edges() and e != diag
    ))
    assert back.edge_set() == t.edge_set()


def test_flip_preserves_edge_count_randomly():
    rng = random.Random(5)
    for _ in range(10):
        ps = random_strict_points(rng, rng.randint(5, 9))
        t = complete_to_triangulation(ps)
        flippable = [e for e in t.sorted_edges() if t.is_flippable(e)]
        for e in flippable[:3]:
            t2 = t.flip(e)
            assert t2.edge_count == t.edge_count
            validate_triangulation(t2)


def test_spoke_to_interior_point_not_flippable():
    ps = PointSet.from_coords([(0, 0), (6, 0), (3, 5), (3, 2)])
    t = complete_to_triangulation(ps)
    for c in range(3):
        assert t.flip_status(edge(c, 3)) is FlipStatus.NOT_CONVEX


def test_hull_edge_flip_status_reported_distinctly():
    t = complete_to_triangulation(convex4())
    assert t.flip_status((0, 1)) is FlipStatus.HULL_EDGE
    assert not t.is_flippable((0, 1))
    assert t.flip_status((0, 4)) is FlipStatus.NOT_AN_EDGE


def test_flippable_count_lower_bound():
    # every triangulation has at least max(n/2 - 2, h - 3) flippable edges
    rng = random.Random(8)
    for _ in range(25):
        n = rng.randint(4, 12)
        ps = random_strict_points(rng, n)
        t = complete_to_triangulation(ps)
        h = len(convex_hull(ps))
        count = sum(1 for e in t.sorted_edges() if t.is_flippable(e))
        assert count >= max(n / 2 - 2, h - 3)


def test_separating_chord_always_flippable():
    rng = random.Random(13)
    found = 0
    for _ in range(40):
        n = rng.randint(5, 10)
        ps = random_strict_points(rng, n)
        t = complete_to_triangulation(ps)
        hull = set(convex_hull(ps))
        if len(hull) == n:
            continue
        for e in t.sorted_edges():
            if e in t.hull_edges() or e[0] not in hull or e[1] not in hull:
                continue
            found += 1
            assert t.is_flippable(e), f"separating chord {e} not flippable"
    assert found > 0


def test_sweep_boundary_is_convex_hull_up_to_rotation():
    # build_state takes its hull from the sweep instead of convex_hull.
    rng = random.Random(11)
    sets = [gen_grid(k).graph.points for k in (5, 8)]
    for _ in range(40):
        sets.append(random_strict_points(rng, rng.randint(3, 30)))
        cells = [(x, y) for x in range(6) for y in range(6)]
        coords = rng.sample(cells, rng.randint(4, 20))
        sets.append(PointSet.from_coords(coords, Strictness.RELAXED))
    for ps in sets:
        try:
            hull = convex_hull(ps)
        except ValueError:
            continue  # all points collinear
        b = list(complete_to_triangulation(ps).boundary)
        k = b.index(hull[0])
        assert b[k:] + b[:k] == hull


def test_ring_sweep_matches_brute_sweep():
    # Same apex map (in insertion order) and the same boundary list.
    rng = random.Random(23)
    sets = [gen_convex(40).points, gen_grid(6).graph.points]
    for m in (3, 7):
        line = [(3 * i, 2 - i) for i in range(m)]
        sets.append(PointSet.from_coords(line, Strictness.RELAXED).points)
        sets.append(PointSet.from_coords(line + [(1, 5)], Strictness.RELAXED).points)
    for _ in range(100):
        sets.append(random_strict_points(rng, rng.randint(3, 60)).points)
    for _ in range(100):
        k = rng.randint(2, 8)
        cells = [(x, y) for x in range(k) for y in range(k)]
        coords = rng.sample(cells, rng.randint(3, k * k))
        sets.append(PointSet.from_coords(coords, Strictness.RELAXED).points)
    collinear = 0
    for pts in sets:
        try:
            want = brute_sweep_triangulation(pts)
        except ValueError:
            collinear += 1
            with pytest.raises(ValueError):
                triangulation._sweep_triangulation(pts)
            continue
        apex, hull = triangulation._sweep_triangulation(pts)
        assert list(apex.items()) == list(want[0].items())
        assert hull == want[1]
    assert collinear == 2


def test_apex_rotation_matches_angular_rotation():
    # The face walks plane_face_walks reads off a completion's dart map are
    # the ones traced from the angular sort of each vertex's neighbours.
    rng = random.Random(29)
    sets = [gen_grid(5).graph.points]
    for _ in range(30):
        sets.append(random_strict_points(rng, rng.randint(3, 40)))
        cells = [(x, y) for x in range(6) for y in range(6)]
        coords = rng.sample(cells, rng.randint(4, 24))
        sets.append(PointSet.from_coords(coords, Strictness.RELAXED))
    hull_multi = degree_one = outer_steps = 0
    for ps in sets:
        try:
            t = complete_to_triangulation(ps)
        except ValueError:
            continue  # all points collinear
        b = t.boundary
        for density in (1.0, 0.6, 0.3, 0.1):
            sub = [e for e in t.sorted_edges() if rng.random() < density]
            rot = brute_angular_rotation(ps.points, sub)
            dart_of, walk, walks = brute_face_walks(rot, sub)
            darts = list(dart_of)
            walk_of, got = plane_face_walks(ps, sub)
            assert dict(zip(darts, walk)) == walk_of
            assert [[darts[d] for d in w] for w in walks] == got
            for v, order in rot.items():
                hull_multi += v in b and len(order) > 1
                degree_one += len(order) == 1
            # A turn that passes the hull dart v -> next(v), missing from
            # sub, next steps across the outer face.  sub lies in t, so its
            # completion is t and these are plane_face_walks' own turns.
            passed = trace_face_walks(t, sub)[3]
            outer_steps += sum(d in passed for d in zip(b, b[1:] + b[:1]))
    assert hull_multi > 100 and degree_one > 20 and outer_steps > 20


def test_enumerate_convex4_two():
    assert len(enumerate_triangulations(convex4())) == 2


def test_enumerate_convex5_catalan():
    ps = PointSet.from_coords([(x, x * x) for x in range(5)])
    assert len(enumerate_triangulations(ps)) == 5


def test_enumerate_convex6_catalan():
    ps = PointSet.from_coords([(x, x * x) for x in range(6)])
    assert len(enumerate_triangulations(ps)) == 14


def test_enumerate_wheel_unique():
    ps = PointSet.from_coords([(0, 0), (6, 0), (3, 5), (3, 2)])
    assert len(enumerate_triangulations(ps)) == 1


def test_enumeration_cap():
    ps = PointSet.from_coords([(x, x * x) for x in range(10)])
    with pytest.raises(ValueError):
        enumerate_triangulations(ps, cap=9)


def test_flip_graph_connected_same_set_from_any_start():
    rng = random.Random(21)
    ps = random_strict_points(rng, 7)
    tris = enumerate_triangulations(ps)
    keys = {t.edge_set() for t in tris}
    # restart the BFS from a different triangulation: same reachable set
    from collections import deque

    start = tris[-1]
    seen = {start.edge_set()}
    queue = deque([start])
    while queue:
        t = queue.popleft()
        for e in t.sorted_edges():
            if t.is_flippable(e):
                t2 = t.flip(e)
                if t2.edge_set() not in seen:
                    seen.add(t2.edge_set())
                    queue.append(t2)
    assert seen == keys


def test_euler_and_count_invariants_random():
    rng = random.Random(34)
    for _ in range(15):
        n = rng.randint(4, 11)
        ps = random_strict_points(rng, n)
        t = complete_to_triangulation(ps)
        h = len(convex_hull(ps))
        assert t.edge_count == 3 * n - h - 3
        faces = sum(w is not None for w in t.left.values()) // 3 + 1  # plus the outer face
        assert n - t.edge_count + faces == 2


def test_relaxed_grid_completion():
    coords = [(i, j) for i in range(1, 6) for j in range(1, 6)]
    ps = PointSet.from_coords(coords, Strictness.RELAXED)
    t = complete_to_triangulation(ps)
    assert t.edge_count == 3 * 25 - 16 - 3
    validate_triangulation(t)


def test_face_walks_triangle():
    ps = PointSet.from_coords([(0, 0), (4, 0), (0, 4)])
    walk_of, walks = plane_face_walks(ps, [(0, 1), (1, 2), (0, 2)])
    assert len(walks) == 2  # inner face and outer face
    inner = walk_of[(0, 1)]
    assert len(walks[inner]) == 3
