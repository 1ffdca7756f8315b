import random

import pytest
from _helpers import (
    FlipStatus,
    boundary_edges,
    brute_angular_rotation,
    brute_crossed_edges,
    brute_crossing_pairs,
    brute_face_walks,
    brute_fill_pocket,
    brute_sweep_triangulation,
    check_dart_lists,
    dart_dict,
    flip,
    flip_status,
    is_flippable,
    outer_cycle,
    random_lattice_points,
    random_plane_graph,
    random_strict_points,
    reference_brute_force_maximum,
    reference_enumerate_triangulations,
    turn_passed,
    validate_triangulation,
)

from biplanekit import triangulation
from biplanekit.analysis import brute_force_maximum
from biplanekit.augmentation import maximal_augment
from biplanekit.constructions import gen_convex, gen_grid
from biplanekit.geometry import PointSet, Strictness, convex_hull, cross, edge
from biplanekit.graphs import GeometricGraph
from biplanekit.recognition import crossing_pairs, test_biplane
from biplanekit.triangulation import (
    OUTER,
    NotPlaneError,
    Triangulation,
    _triangulation_masks,
    complete_layers,
    complete_to_triangulation,
    plane_face_walks,
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
        check_dart_lists(again)
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


def test_completion_that_loses_an_input_edge_raises(monkeypatch):
    # With no crossing to name, a completion without an input edge is an
    # error, never a triangulation that breaks "every input edge appears".
    ps = gen_convex(6)
    bare = complete_to_triangulation(ps).edge_set()
    lost = next(e for e in GeometricGraph(ps, ()).complement_edges() if e not in bare)
    monkeypatch.setattr(
        triangulation, "complete_layers", lambda ps, layers: complete_layers(ps, [()])
    )
    a, b = lost
    with pytest.raises(triangulation.GeometryError, match=rf"lost input edge \({a}, {b}\)"):
        complete_to_triangulation(GeometricGraph(ps, (lost,)))


def test_completion_of_plane_input_never_lists_crossings(monkeypatch):
    # A completion that keeps every input edge proves the input plane, so
    # the crossing enumeration runs only after a completion loses an edge
    # or raises.
    convex = maximal_augment(GeometricGraph(gen_convex(60), ()))
    ps = random_strict_points(random.Random(26), 80)
    rand = maximal_augment(GeometricGraph(ps, ()))
    grid = gen_grid(8)
    lattice = random_plane_graph(
        random.Random(27), random_lattice_points(random.Random(28), 6, 30), 60
    )
    pts = lattice.points.points
    # Two lattice edges that share an end and lie on one line.
    assert any(
        len({*e, *f}) == 3 and all(cross(pts[e[0]], pts[e[1]], pts[v]) == 0 for v in f)
        for i, e in enumerate(lattice.edges)
        for f in lattice.edges[i + 1 :]
    )
    graphs = [
        GeometricGraph(convex.graph.points, convex.red_layer),
        GeometricGraph(ps, rand.red_layer),
        GeometricGraph(grid.graph.points, sorted(grid.red_edges)),
        lattice,
    ]
    want = [complete_to_triangulation(g).sorted_edges() for g in graphs]

    def no_pair_list(g):
        raise AssertionError("completion listed the crossings of a plane input")

    monkeypatch.setattr(triangulation, "crossing_pairs", no_pair_list)
    for g, edges in zip(graphs, want):
        assert complete_to_triangulation(g).sorted_edges() == edges
        assert set(g.edges) <= set(edges)


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

    def checked(pts, t, a, b):
        got = walk(pts, t, a, b)
        darts = [(t.head[c ^ 1], t.head[c]) for c in got]
        assert [edge(p, q) for p, q in darts] == brute_crossed_edges(pts, dart_dict(t), a, b)
        pa, pb = pts[a], pts[b]
        assert all(cross(pa, pb, pts[p]) > 0 > cross(pa, pb, pts[q]) for p, q in darts)
        lengths.append(len(got))
        return got

    monkeypatch.setattr(triangulation, "_crossed_edges", checked)
    rng = random.Random(17)
    for _ in range(40):
        ps = random_strict_points(rng, rng.randint(6, 60))
        blue = maximal_augment(GeometricGraph(ps, ())).blue_layer
        subset = tuple(e for e in blue if rng.random() < 0.6)
        t = complete_to_triangulation(GeometricGraph(ps, subset))
        check_dart_lists(t)
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
    add = triangulation._set_triangle
    predicates = (
        "cross",
        "segments_cross",
        "point_in_triangle_strict",
    )
    names = [name for name in predicates if hasattr(triangulation, name)]
    pockets = {"strict": 0, "lattice": 0, "grid": 0}
    family = ["strict"]
    collinear = [0]

    def checked(pts, t, walk, rims, up, free, base):
        a, chain, b = walk[0], walk[1:-1], walk[-1]
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

        def recording(head, apex, nxt, x, y, z):
            added.append((head[x], head[y], head[z]))
            add(head, apex, nxt, x, y, z)

        with monkeypatch.context() as m:
            for name in names:
                m.setattr(triangulation, name, counting(getattr(triangulation, name)))
            m.setattr(triangulation, "_set_triangle", recording)
            fill(pts, t, walk, rims, up, free, base)
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
        check_dart_lists(complete_to_triangulation(GeometricGraph(ps, subset)))
    family[0] = "lattice"
    for _ in range(60):
        ps = random_lattice_points(rng, rng.randint(4, 9), 10)
        g = random_plane_graph(rng, ps, rng.randint(1, 3 * len(ps)))
        check_dart_lists(complete_to_triangulation(g))
    family[0] = "grid"
    for k in range(5, 11):
        res = maximal_augment(gen_grid(k).graph)
        for layer in (res.red_layer, res.blue_layer):
            subset = tuple(e for e in layer if rng.random() < 0.5)
            check_dart_lists(complete_to_triangulation(GeometricGraph(res.graph.points, subset)))
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
    diag = next(e for e in t.sorted_edges() if e not in boundary_edges(t))
    assert is_flippable(t, diag)
    t2 = flip(t, diag)
    other = next(e for e in t2.sorted_edges() if e not in boundary_edges(t2))
    assert {diag, other} == {(0, 2), (1, 3)}
    assert t2.edge_count == t.edge_count


def test_flip_is_involution():
    t = complete_to_triangulation(convex4())
    diag = next(e for e in t.sorted_edges() if e not in boundary_edges(t))
    once = flip(t, diag)
    back = flip(once, next(
        e for e in once.sorted_edges() if e not in boundary_edges(t) and e != diag
    ))
    assert back.edge_set() == t.edge_set()


def test_flip_preserves_edge_count_randomly():
    rng = random.Random(5)
    for _ in range(10):
        ps = random_strict_points(rng, rng.randint(5, 9))
        t = complete_to_triangulation(ps)
        flippable = [e for e in t.sorted_edges() if is_flippable(t, e)]
        for e in flippable[:3]:
            t2 = flip(t, e)
            assert t2.edge_count == t.edge_count
            validate_triangulation(t2)


def test_spoke_to_interior_point_not_flippable():
    ps = PointSet.from_coords([(0, 0), (6, 0), (3, 5), (3, 2)])
    t = complete_to_triangulation(ps)
    for c in range(3):
        assert flip_status(t, edge(c, 3)) is FlipStatus.NOT_CONVEX


def test_hull_edge_flip_status_reported_distinctly():
    t = complete_to_triangulation(convex4())
    assert flip_status(t, (0, 1)) is FlipStatus.HULL_EDGE
    assert not is_flippable(t, (0, 1))
    assert flip_status(t, (0, 4)) is FlipStatus.NOT_AN_EDGE


def test_flippable_count_lower_bound():
    # every triangulation has at least max(n/2 - 2, h - 3) flippable edges
    rng = random.Random(8)
    for _ in range(25):
        n = rng.randint(4, 12)
        ps = random_strict_points(rng, n)
        t = complete_to_triangulation(ps)
        h = len(convex_hull(ps))
        count = sum(1 for e in t.sorted_edges() if is_flippable(t, e))
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
            if e in boundary_edges(t) or e[0] not in hull or e[1] not in hull:
                continue
            found += 1
            assert is_flippable(t, e), f"separating chord {e} not flippable"
    assert found > 0


def test_sweep_boundary_is_convex_hull_up_to_rotation():
    # build_state reads its hull off the completion's outer darts instead of
    # calling convex_hull.
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
        t = complete_to_triangulation(ps)
        check_dart_lists(t)
        b = outer_cycle(t)
        k = b.index(hull[0])
        assert b[k:] + b[:k] == hull


def test_ring_sweep_matches_brute_sweep():
    # Same apex map and the same hull cycle, and consistent dart lists.
    rng = random.Random(23)
    sets = [gen_convex(40), gen_grid(6).graph.points]
    for m in (3, 7):
        line = [(3 * i, 2 - i) for i in range(m)]
        sets.append(PointSet.from_coords(line, Strictness.RELAXED))
        sets.append(PointSet.from_coords(line + [(1, 5)], Strictness.RELAXED))
    for _ in range(100):
        sets.append(random_strict_points(rng, rng.randint(3, 60)))
    for _ in range(100):
        k = rng.randint(2, 8)
        cells = [(x, y) for x in range(k) for y in range(k)]
        coords = rng.sample(cells, rng.randint(3, k * k))
        sets.append(PointSet.from_coords(coords, Strictness.RELAXED))
    collinear = 0
    for ps in sets:
        pts = ps.points
        try:
            want = brute_sweep_triangulation(pts)
        except ValueError:
            collinear += 1
            with pytest.raises(ValueError):
                triangulation._sweep_triangulation(pts)
            continue
        t = Triangulation(ps, *triangulation._sweep_triangulation(pts))
        check_dart_lists(t)
        assert dart_dict(t) == want[0]
        b = outer_cycle(t)
        k = b.index(want[1][0])
        assert b[k:] + b[:k] == want[1]
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
        check_dart_lists(t)
        b = convex_hull(ps)
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
            passed = turn_passed(t, sub)
            outer_steps += sum(d in passed for d in zip(b, b[1:] + b[:1]))
    assert hull_multi > 100 and degree_one > 20 and outer_steps > 20


def mask_edge_lists(ps: PointSet) -> list[list[tuple[int, int]]]:
    """The sorted edge list of each triangulation `_triangulation_masks`
    finds, in its order."""
    segments, masks = _triangulation_masks(ps, len(ps))
    return [[e for k, e in enumerate(segments) if mask >> k & 1] for mask in masks]


def test_enumerate_convex4_two():
    assert len(_triangulation_masks(convex4(), 9)[1]) == 2


def test_enumerate_convex5_catalan():
    ps = PointSet.from_coords([(x, x * x) for x in range(5)])
    assert len(_triangulation_masks(ps, 9)[1]) == 5


def test_enumerate_convex6_catalan():
    ps = PointSet.from_coords([(x, x * x) for x in range(6)])
    assert len(_triangulation_masks(ps, 9)[1]) == 14


def test_enumerate_wheel_unique():
    ps = PointSet.from_coords([(0, 0), (6, 0), (3, 5), (3, 2)])
    assert len(_triangulation_masks(ps, 9)[1]) == 1


def test_enumeration_cap():
    ps = PointSet.from_coords([(x, x * x) for x in range(10)])
    with pytest.raises(ValueError):
        _triangulation_masks(ps, 9)


def test_mask_enumeration_matches_the_flip_reference():
    # The library flips bit masks; the reference flips dart lists.  Both
    # search breadth first from the completion of the bare points, so they
    # list the same triangulations in the same order.  On lattice sets the
    # segments leave out every point pair with a point inside it, and
    # collinear overlaps count as crossings.
    # The segments' crossing pairs, from which the search builds its masks,
    # match the brute sweep's, also where lattice segments lie on one line,
    # touching or apart.
    rng = random.Random(47)
    sets = [gen_convex(6)]
    sets += [random_strict_points(rng, n) for n in (7, 8, 9)]
    sets += [random_lattice_points(rng, 3, 7) for _ in range(6)]
    collinear_hull = interior = collinear_segments = 0
    for ps in sets:
        segments, _ = _triangulation_masks(ps, len(ps))
        segs = GeometricGraph(ps, segments)
        assert crossing_pairs(segs) == brute_crossing_pairs(segs)
        pts = ps.points
        collinear_segments += sum(
            cross(pts[a], pts[b], pts[c]) == 0 == cross(pts[a], pts[b], pts[d])
            for k, (a, b) in enumerate(segments)
            for c, d in segments[:k]
        )
        want = reference_enumerate_triangulations(ps)
        assert mask_edge_lists(ps) == [t.sorted_edges() for t in want]
        res = brute_force_maximum(ps)
        best = (res.maximum_edges, res.witness.edges, res.triangulation_count)
        assert best == reference_brute_force_maximum(ps)
        if ps.strictness is Strictness.RELAXED:
            hull = convex_hull(ps)
            pts = [ps.points[v] for v in hull]
            collinear_hull += any(
                cross(p, q, r) == 0 for p, q, r in zip(pts, pts[1:] + pts[:1], pts[2:] + pts[:2])
            )
            interior += len(hull) < len(ps)
    assert collinear_hull >= 3 and interior >= 3 and collinear_segments


def test_flip_graph_connected_same_set_from_any_start():
    rng = random.Random(21)
    ps = random_strict_points(rng, 7)
    keys = {frozenset(edges) for edges in mask_edge_lists(ps)}
    # restart the BFS from a different triangulation: same reachable set
    from collections import deque

    start = reference_enumerate_triangulations(ps)[-1]
    seen = {start.edge_set()}
    queue = deque([start])
    while queue:
        t = queue.popleft()
        for e in t.sorted_edges():
            if is_flippable(t, e):
                t2 = flip(t, e)
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
        faces = sum(w != OUTER for w in t.apex) // 3 + 1  # plus the outer face
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
