import itertools
import random

import pytest
from _helpers import (
    layer_is_plane,
    random_biplane_graph,
    random_plane_graph,
    random_strict_points,
    reference_augment,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from biplanekit.analysis import maximality_oracle
from biplanekit.augmentation import (
    BLUE,
    RED,
    NotBiplaneError,
    apply_flip,
    build_state,
    certify_maximal,
    is_colorblind_flippable,
    maximal_augment,
)
from biplanekit.constructions import gen_arc_in_triangle, gen_convex
from biplanekit.geometry import PointSet, Strictness, convex_hull, edge, segments_cross
from biplanekit.graphs import GeometricGraph, relaxed_edge_violations
from biplanekit.triangulation import triangulation_from_edges


def empty_graph(ps: PointSet) -> GeometricGraph:
    return GeometricGraph(ps, ())


def purple_nonhull(state):
    return sorted(state.purple - state.hull_edges)


def uncrossed_edges(g: GeometricGraph) -> set:
    pts = g.points.points
    out = set()
    for e in g.edges:
        pa, pb = pts[e[0]], pts[e[1]]
        if all(
            e == f or not segments_cross(pa, pb, pts[f[0]], pts[f[1]])
            for f in g.edges
        ):
            out.add(e)
    return out


def test_not_biplane_input_raises_with_witness():
    import math

    pts = [
        (int(1e6 * math.cos(2 * math.pi * i / 5)), int(1e6 * math.sin(2 * math.pi * i / 5)))
        for i in range(5)
    ]
    ps = PointSet.from_coords(pts)
    k5 = GeometricGraph(ps, tuple((a, b) for a in range(5) for b in range(a + 1, 5)))
    with pytest.raises(NotBiplaneError):
        build_state(k5)


def test_build_state_hull_edges_always_purple():
    rng = random.Random(1)
    ps = random_strict_points(rng, 8)
    state = build_state(empty_graph(ps))
    assert state.hull_edges <= state.purple


def test_build_state_purple_equals_uncrossed():
    rng = random.Random(2)
    for _ in range(15):
        n = rng.randint(4, 11)
        ps = random_strict_points(rng, n)
        g = random_biplane_graph(rng, ps, rng.randint(0, 2 * n))
        state = build_state(g)
        union = GeometricGraph(ps, tuple(sorted(state.edges)))
        assert state.purple == uncrossed_edges(union)


def test_forced_apex_star_is_purple_in_every_state():
    ps = gen_arc_in_triangle(6)
    res = maximal_augment(empty_graph(ps))
    star = {edge(0, i) for i in range(1, 6)}
    assert star <= res.state.purple


def test_each_flip_decreases_purple_by_one_and_adds_an_edge():
    rng = random.Random(3)
    ps = random_strict_points(rng, 9)
    state = build_state(empty_graph(ps))
    while state.queue:
        e = state.queue.popleft()
        if e not in state.purple:
            continue
        if not is_colorblind_flippable(state, e):
            continue
        p0, m0 = len(state.purple), len(state.edges)
        apply_flip(state, e)
        assert len(state.purple) == p0 - 1
        assert len(state.edges) == m0 + 1


def test_flips_never_remove_input_edges():
    rng = random.Random(4)
    for _ in range(10):
        n = rng.randint(4, 10)
        ps = random_strict_points(rng, n)
        g = random_biplane_graph(rng, ps, rng.randint(1, 2 * n))
        res = maximal_augment(g)
        assert set(g.edges) <= set(res.graph.edges)


def test_empty_convex8_reaches_18_edges():
    res = maximal_augment(empty_graph(gen_convex(8)))
    assert res.graph.m == 18


def test_triangle_stays_three_edges():
    ps = PointSet.from_coords([(0, 0), (4, 0), (0, 4)])
    res = maximal_augment(empty_graph(ps))
    assert res.graph.m == 3


def test_tiny_point_sets():
    two = PointSet.from_coords([(0, 0), (1, 0)])
    res = maximal_augment(empty_graph(two))
    assert res.graph.m == 1


def test_output_decomposes_into_two_triangulations():
    rng = random.Random(6)
    for _ in range(8):
        n = rng.randint(4, 10)
        ps = random_strict_points(rng, n)
        res = maximal_augment(empty_graph(ps))
        tr = triangulation_from_edges(ps, res.red_layer)
        tb = triangulation_from_edges(ps, res.blue_layer)
        h = len(convex_hull(ps))
        assert tr.edge_count == tb.edge_count == 3 * n - h - 3
        assert set(res.red_layer) | set(res.blue_layer) == set(res.graph.edges)
        # stored per-edge apex slots agree with the rebuilt triangulations
        st = res.state
        for e in purple_nonhull(st):
            assert (st.eff_apex(e, 0, RED), st.eff_apex(e, 1, RED)) == tr.apexes(e)
            assert (st.eff_apex(e, 0, BLUE), st.eff_apex(e, 1, BLUE)) == tb.apexes(e)


def test_decomposition_layers_disjoint_partition_and_plane():
    rng = random.Random(7)
    ps = random_strict_points(rng, 10)
    res = maximal_augment(empty_graph(ps))
    d = res.decomposition
    assert not (set(d.layer1) & set(d.layer2))
    assert set(d.layer1) | set(d.layer2) == set(res.graph.edges)
    assert layer_is_plane(res.graph, d.layer1)
    assert layer_is_plane(res.graph, d.layer2)


def test_certify_maximal_true_on_output_false_after_restoring_flippable():
    rng = random.Random(8)
    ps = random_strict_points(rng, 9)
    state = build_state(empty_graph(ps))
    flipped_any = False
    while state.queue:
        e = state.queue.popleft()
        if e not in state.purple:
            continue
        if is_colorblind_flippable(state, e):
            if not flipped_any:
                assert not certify_maximal(state)
                flipped_any = True
            apply_flip(state, e)
    assert flipped_any
    assert certify_maximal(state)


def test_certificate_agrees_with_definition_oracle():
    rng = random.Random(9)
    for _ in range(20):
        n = rng.randint(4, 10)
        ps = random_strict_points(rng, n)
        g = random_biplane_graph(rng, ps, rng.randint(0, 2 * n))
        res = maximal_augment(g)
        assert certify_maximal(res.state)
        assert maximality_oracle(res.graph)


def test_output_edge_bounds():
    rng = random.Random(10)
    for _ in range(20):
        n = rng.randint(3, 12)
        ps = random_strict_points(rng, n)
        res = maximal_augment(empty_graph(ps))
        h = len(convex_hull(ps))
        m = res.graph.m
        assert m >= max((7 * n + 1) // 2 - h - 5, 3 * n - 6)
        assert m <= 6 * n - 3 * h - 6
        if n >= 8:
            assert m <= 6 * n - 18


def test_reenqueued_edges_within_flip_neighborhood():
    rng = random.Random(11)
    ps = random_strict_points(rng, 10)
    state = build_state(empty_graph(ps))
    while state.queue:
        e = state.queue.popleft()
        if e not in state.purple or not is_colorblind_flippable(state, e):
            continue
        allowed = set()
        for layer in (RED, BLUE):
            c = state.eff_apex(e, 0, layer)
            d = state.eff_apex(e, 1, layer)
            a, b = e
            for u, v in ((a, c), (c, b), (b, d), (d, a)):
                allowed.add(edge(u, v))
        before_len = len(state.queue)
        apply_flip(state, e)
        added = list(state.queue)[before_len:]
        assert set(added) <= allowed


def test_flip_locality():
    # edges only BECOME flippable inside the four triangles that contained
    # the flipped edge; flippability can be LOST farther away, but only by
    # an edge whose two purple faces were exactly the pair the flip merged
    rng = random.Random(12)
    for _ in range(12):
        n = rng.randint(5, 10)
        ps = random_strict_points(rng, n)
        g = random_biplane_graph(rng, ps, rng.randint(0, n))
        state = build_state(g)
        while state.queue:
            e = state.queue.popleft()
            if e not in state.purple or not is_colorblind_flippable(state, e):
                continue
            before = {
                p: is_colorblind_flippable(state, p) for p in purple_nonhull(state)
            }
            merged = frozenset((state.face_of(e, 0), state.face_of(e, 1)))
            faces_before = {
                p: frozenset((state.face_of(p, 0), state.face_of(p, 1)))
                for p in purple_nonhull(state)
            }
            allowed = set()
            for layer in (RED, BLUE):
                c = state.eff_apex(e, 0, layer)
                d = state.eff_apex(e, 1, layer)
                a, b = e
                for u, v in ((a, c), (c, b), (b, d), (d, a)):
                    allowed.add(edge(u, v))
            apply_flip(state, e)
            after = {
                p: is_colorblind_flippable(state, p) for p in purple_nonhull(state)
            }
            for p, verdict in after.items():
                if p not in before or before[p] == verdict or p in allowed:
                    continue
                assert before[p] and not verdict, f"flip of {e} enabled faraway {p}"
                assert faces_before[p] == merged, f"unexplained revocation at {p}"


def test_face_merge_can_revoke_faraway_cross_flippability():
    # Concrete 10-point instance where flipping one edge merges the two
    # faces another purple edge straddles, revoking its cross-face
    # flippability without touching its triangles.  The final graph is
    # nevertheless maximal: flippability is only ever lost this way, never
    # gained, so the queue discipline stays sound.
    coords = [
        (125268, 384283), (728878, 69337), (950100, 489943), (312997, 885299),
        (270125, 38331), (761406, 130424), (727035, 699810), (871341, 123586),
        (615578, 316787), (712789, 346733),
    ]
    ps = PointSet.from_coords(coords)
    g = GeometricGraph(ps, ())
    state = build_state(g)
    observed = False
    while state.queue:
        e = state.queue.popleft()
        if e not in state.purple or not is_colorblind_flippable(state, e):
            continue
        before = {p: is_colorblind_flippable(state, p) for p in purple_nonhull(state)}
        merged = frozenset((state.face_of(e, 0), state.face_of(e, 1)))
        faces_before = {
            p: frozenset((state.face_of(p, 0), state.face_of(p, 1)))
            for p in purple_nonhull(state)
        }
        allowed = set()
        for layer in (RED, BLUE):
            c = state.eff_apex(e, 0, layer)
            d = state.eff_apex(e, 1, layer)
            a, b = e
            for u, v in ((a, c), (c, b), (b, d), (d, a)):
                allowed.add(edge(u, v))
        apply_flip(state, e)
        for p in purple_nonhull(state):
            if p in before and p not in allowed:
                now = is_colorblind_flippable(state, p)
                if before[p] and not now:
                    assert faces_before[p] == merged
                    observed = True
    assert observed, "expected at least one merge-induced revocation"
    assert certify_maximal(state)
    final = GeometricGraph(ps, tuple(sorted(state.edges)))
    assert maximality_oracle(final)


def test_purple_face_chord_graphs_connected_and_bipartite():
    rng = random.Random(13)
    for _ in range(12):
        n = rng.randint(5, 11)
        ps = random_strict_points(rng, n)
        g = random_biplane_graph(rng, ps, rng.randint(0, 2 * n))
        state = build_state(g)
        pts = ps.points
        for face in state.purple_faces():
            chords = list(face.red_chords) + list(face.blue_chords)
            if not chords:
                continue
            # crossing graph over this face's chords
            adj = {c: [] for c in chords}
            for i, c1 in enumerate(chords):
                for c2 in chords[i + 1 :]:
                    if segments_cross(
                        pts[c1[0]], pts[c1[1]], pts[c2[0]], pts[c2[1]]
                    ):
                        adj[c1].append(c2)
                        adj[c2].append(c1)
            # connected
            seen = {chords[0]}
            stack = [chords[0]]
            while stack:
                u = stack.pop()
                for v in adj[u]:
                    if v not in seen:
                        seen.add(v)
                        stack.append(v)
            assert len(seen) == len(chords), "face chord graph disconnected"
            # bipartite with parts exactly (red, blue)
            for c1 in chords:
                for c2 in adj[c1]:
                    in_red1 = c1 in face.red_chords
                    in_red2 = c2 in face.red_chords
                    assert in_red1 != in_red2, "crossing chords share a color"


def test_colorblind_flippability_invariant_under_face_exchanges():
    # decomposition independence: exchanging chord colors in any subset of
    # purple faces never changes any edge's colorblind flippability
    rng = random.Random(14)
    checked = 0
    for _ in range(20):
        n = rng.randint(5, 10)
        ps = random_strict_points(rng, n)
        g = random_biplane_graph(rng, ps, rng.randint(0, 2 * n))
        state = build_state(g)
        faces = [f.face_id for f in state.purple_faces()]
        if not purple_nonhull(state) or len(faces) > 10:
            continue
        baseline = {
            p: is_colorblind_flippable(state, p) for p in purple_nonhull(state)
        }
        for r in range(1, len(faces) + 1):
            for subset in itertools.combinations(faces, r):
                for f in subset:
                    state.exchange_face_colors(f)
                for p, verdict in baseline.items():
                    assert is_colorblind_flippable(state, p) == verdict
                for f in subset:
                    state.exchange_face_colors(f)
        checked += 1
    assert checked >= 5


def test_exchanged_decomposition_is_still_two_triangulations():
    rng = random.Random(15)
    ps = random_strict_points(rng, 9)
    g = random_biplane_graph(rng, ps, 10)
    state = build_state(g)
    for face in state.purple_faces():
        state.exchange_face_colors(face.face_id)
        tr = triangulation_from_edges(ps, state.red_edges())
        tb = triangulation_from_edges(ps, state.blue_edges())
        assert tr.edge_count == tb.edge_count


def test_cross_clause_occurs_and_is_correct():
    # hunt a state where an edge is flippable only through the cross-face
    # clause; verify via the definition-level oracle that flipping helps
    rng = random.Random(42)
    seen_cross = 0
    for _ in range(60):
        n = rng.randint(4, 12)
        ps = random_strict_points(rng, n)
        g = random_biplane_graph(rng, ps, rng.randint(0, 3 * n))
        res = maximal_augment(g, collect_trace=True)
        for rec in res.trace:
            if rec.clause == "cross":
                seen_cross += 1
    assert seen_cross > 0, "cross-face clause never fired in the search"


def test_augmenting_a_maximal_graph_is_a_fixpoint():
    rng = random.Random(54321)
    for _ in range(10):
        n = rng.randint(4, 12)
        ps = random_strict_points(rng, n)
        first = maximal_augment(empty_graph(ps))
        second = maximal_augment(first.graph, collect_trace=True)
        assert set(second.graph.edges) == set(first.graph.edges)
        assert second.trace == ()


def test_augmentation_is_deterministic():
    rng = random.Random(424242)
    ps = random_strict_points(rng, 11)
    a = maximal_augment(empty_graph(ps))
    b = maximal_augment(empty_graph(ps))
    assert a.graph.edges == b.graph.edges
    assert a.decomposition == b.decomposition


def test_trace_records_faces_merged_and_new_edges():
    rng = random.Random(16)
    ps = random_strict_points(rng, 9)
    res = maximal_augment(empty_graph(ps), collect_trace=True)
    assert res.trace
    for rec in res.trace:
        assert rec.new_edge in set(res.graph.edges)
        assert rec.clause in ("red", "blue", "cross")


def isolated_anchor_graph() -> GeometricGraph:
    # Hexagon 0..5 around vertex 6: the input forces triangle 0-2-4 plus its
    # spokes into one layer and 1-3-5 plus its spokes into the other, so no
    # edge at 6 is in both triangulations.  Points 7..9 leave room to flip.
    coords = [(10, 0), (5, 9), (-5, 10), (-10, 1), (-4, -9), (6, -8), (1, 2)]
    coords += [(30, 31), (-27, 40), (3, -33)]
    spokes = [(0, 2), (2, 4), (0, 4), (0, 6), (2, 6), (4, 6)]
    spokes += [(1, 3), (3, 5), (1, 5), (1, 6), (3, 6), (5, 6)]
    return GeometricGraph(PointSet.from_coords(coords), tuple(spokes))


def test_fast_loop_matches_reference_loop():
    # maximal_augment hands each popped edge's clause to the flip; the
    # reference goes through is_colorblind_flippable and apply_flip.
    rng = random.Random(31)
    graphs = [isolated_anchor_graph()]
    state = build_state(graphs[0])
    assert 6 not in {v for e in state.purple for v in e}
    for _ in range(40):
        n = rng.randint(4, 40)
        ps = random_strict_points(rng, n)
        graphs.append(random_biplane_graph(rng, ps, rng.randint(0, 2 * n)))
    while len(graphs) < 70:
        k = rng.randint(3, 7)
        cells = [(x, y) for x in range(k) for y in range(k)]
        # More than k cells of a k x k lattice are never all collinear.
        ps = PointSet.from_coords(rng.sample(cells, rng.randint(k + 1, k * k)), Strictness.RELAXED)
        g = random_biplane_graph(rng, ps, rng.randint(0, 2 * len(ps)))
        if not relaxed_edge_violations(g):
            graphs.append(g)
    clauses = set()
    for g in graphs:
        res = maximal_augment(g, collect_trace=True)
        ref = reference_augment(g, collect_trace=True)
        assert res.graph.edges == ref.graph.edges
        assert res.red_layer == ref.red_layer
        assert res.blue_layer == ref.blue_layer
        assert res.decomposition == ref.decomposition
        assert res.trace == ref.trace
        clauses.update(rec.clause for rec in res.trace)
    assert clauses == {"red", "blue", "cross"}


@given(
    st.integers(min_value=3, max_value=6).flatmap(
        lambda k: st.lists(
            st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)),
            min_size=k + 1,
            max_size=k * k,
            unique=True,
        )
    ),
    st.randoms(use_true_random=False),
)
@settings(max_examples=60, deadline=None)
def test_relaxed_lattice_outputs_are_oracle_maximal(cells, rng):
    # More than k cells of a k x k lattice are never all collinear.
    ps = PointSet.from_coords(cells, Strictness.RELAXED)
    for g in (empty_graph(ps), random_plane_graph(rng, ps, rng.randint(1, 2 * len(ps)))):
        out = maximal_augment(g).graph
        assert set(g.edges) <= set(out.edges)
        assert maximality_oracle(out)
