import random
import re

import pytest
from _helpers import (
    apply_flip,
    assert_face_chords_bipartite,
    assert_face_table,
    assert_flippability_ignores_face_exchanges,
    brute_angular_rotation,
    brute_face_walks,
    brute_wedge_anchor,
    check_dart_lists,
    checked_flips,
    edge_of,
    eff_apex,
    flip_neighborhood,
    hull_edges,
    is_colorblind_flippable,
    layer_is_plane,
    pop_edge,
    purple_dart,
    purple_faces,
    queued_edges,
    random_biplane_graph,
    random_lattice_points,
    random_plane_graph,
    random_strict_points,
    reference_augment,
    reference_clause,
    state_edges,
    turn_passed,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from biplanekit import augmentation
from biplanekit.analysis import maximality_oracle
from biplanekit.augmentation import (
    BLUE,
    RED,
    NotBiplaneError,
    build_state,
    certify_maximal,
    maximal_augment,
)
from biplanekit.constructions import gen_arc_in_triangle, gen_convex, gen_grid
from biplanekit.geometry import PointSet, Strictness, convex_hull, cross, edge, segments_cross
from biplanekit.graphs import GeometricGraph, relaxed_edge_violations
from biplanekit.recognition import test_biplane
from biplanekit.triangulation import complete_layers, complete_to_triangulation


def empty_graph(ps: PointSet) -> GeometricGraph:
    return GeometricGraph(ps, ())


def purple_nonhull(state):
    return sorted(state.purple - hull_edges(state))


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
    for _ in range(10):
        ps = random_strict_points(rng, rng.randint(3, 12))
        hull = convex_hull(ps)
        ring = {edge(a, b) for a, b in zip(hull, hull[1:] + hull[:1])}
        for g in (empty_graph(ps), random_biplane_graph(rng, ps, 2 * len(ps))):
            state = build_state(g)
            assert ring <= state.purple
            assert hull_edges(state) == ring


def test_build_state_purple_equals_uncrossed():
    rng = random.Random(2)
    for _ in range(15):
        n = rng.randint(4, 11)
        ps = random_strict_points(rng, n)
        g = random_biplane_graph(rng, ps, rng.randint(0, 2 * n))
        state = build_state(g)
        union = GeometricGraph(ps, tuple(sorted(state_edges(state))))
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
        e = pop_edge(state)
        if e not in state.purple:
            continue
        if not is_colorblind_flippable(state, e):
            continue
        p0, m0 = len(state.purple), len(state_edges(state))
        apply_flip(state, e)
        assert len(state.purple) == p0 - 1
        assert len(state_edges(state)) == m0 + 1


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
    for n in (0, 1):
        res = maximal_augment(empty_graph(PointSet.from_coords([(3, 4)] * n)))
        assert res.graph.m == 0 and res.decomposition.layer1 == ()


def test_collinear_points_augment_to_the_sorted_path():
    # Points on one line span no triangle; the path through them in sorted
    # order is maximal, one layer holds it, and both layers equal it.
    coords = [(6, 9), (0, 0), (4, 6), (2, 3), (8, 12)]
    ps = PointSet.from_coords(coords, Strictness.RELAXED)
    path = ((0, 2), (0, 4), (1, 3), (2, 3))
    for edges in ((), ((1, 3),), path):
        res = maximal_augment(GeometricGraph(ps, edges), collect_trace=True)
        assert res.graph.edges == path
        assert res.decomposition.layer1 == path and res.decomposition.layer2 == ()
        assert res.red_layer == res.blue_layer == path
        assert maximality_oracle(res.graph)
    diag = PointSet.from_coords([(0, 0), (1, 1), (2, 2), (3, 3)], Strictness.RELAXED)
    assert maximal_augment(GeometricGraph(diag, ((1, 2),))).graph.edges == (
        (0, 1),
        (1, 2),
        (2, 3),
    )
    # The vertex named is the lowest-numbered one inside the edge, as in
    # relaxed_edge_violations; a STRICT set gets the same check.
    for strictness in Strictness:
        ps = PointSet.from_coords(coords, strictness)
        for edges, message in (
            (((1, 2),), "edge (1, 2) passes through vertex 3"),
            (((1, 4), (2, 3)), "edge (1, 4) passes through vertex 0"),
        ):
            with pytest.raises(ValueError, match=re.escape(message)):
                maximal_augment(GeometricGraph(ps, edges))


def test_output_decomposes_into_two_triangulations():
    rng = random.Random(6)
    for _ in range(8):
        n = rng.randint(4, 10)
        ps = random_strict_points(rng, n)
        res = maximal_augment(empty_graph(ps))
        h = len(convex_hull(ps))
        assert set(res.red_layer) | set(res.blue_layer) == set(res.graph.edges)
        for layer, edges in ((RED, res.red_layer), (BLUE, res.blue_layer)):
            t = complete_to_triangulation(GeometricGraph(ps, edges))
            assert t.edge_count == len(edges) == 3 * n - h - 3
            # stored per-edge apex slots agree with the rebuilt triangulation
            for a, b in purple_nonhull(res.state):
                got = (eff_apex(res.state, (a, b), 0, layer), eff_apex(res.state, (a, b), 1, layer))
                assert got == (t.apex[t.dart(a, b)], t.apex[t.dart(b, a)])


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
        e = pop_edge(state)
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
        e = pop_edge(state)
        if e not in state.purple or not is_colorblind_flippable(state, e):
            continue
        allowed = flip_neighborhood(state, e)
        before_len = len(state.queue)
        apply_flip(state, e)
        added = queued_edges(state)[before_len:]
        assert set(added) <= allowed


def test_flip_locality():
    # edges only BECOME flippable inside the four triangles that contained
    # the flipped edge; flippability can be LOST farther away, but only by
    # an edge whose two purple faces were exactly the pair the flip merged
    rng = random.Random(12)
    for _ in range(12):
        n = rng.randint(5, 10)
        ps = random_strict_points(rng, n)
        checked_flips(build_state(random_biplane_graph(rng, ps, rng.randint(0, n))))


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
    observed = checked_flips(state)[1]
    assert observed, "expected at least one merge-induced revocation"
    assert certify_maximal(state)
    final = GeometricGraph(ps, tuple(sorted(state_edges(state))))
    assert maximality_oracle(final)


def test_chord_walks_match_angular_sector_scan():
    # Each dart of each chord leaves its tail into the face walk of the
    # purple dart whose clockwise turn passed it in the chord's own layer;
    # the angular scan of the sectors between purple neighbours must agree,
    # both at the chord's anchor and at its far end.
    rng = random.Random(29)
    graphs = []
    for _ in range(30):
        ps = random_strict_points(rng, rng.randint(5, 30))
        graphs.append(random_biplane_graph(rng, ps, rng.randint(0, 4 * len(ps))))
    for _ in range(30):
        ps = random_lattice_points(rng, rng.randint(3, 6), 4)
        layers = [random_plane_graph(rng, ps, rng.randint(0, 2 * len(ps))) for _ in range(2)]
        graphs.append(GeometricGraph(ps, tuple(set(layers[0].edges) | set(layers[1].edges))))
    no_purple = multi_walk = chords = 0
    for g in graphs:
        state = build_state(g)
        verdict = test_biplane(g)
        layers = complete_layers(g.points, (verdict.layer1, verdict.layer2))
        for t in layers:
            check_dart_lists(t)
        red = layers[RED].edge_set()
        pts = g.points.points
        purple = sorted(state.purple)
        rot = brute_angular_rotation(pts, purple)
        dart_of, walk, walks = brute_face_walks(rot, purple)
        assert [state.walk[purple_dart(state, *d)] for d in dart_of] == walk
        walk_of = {d: walk[x] for d, x in dart_of.items()}
        isolated = [v for v in range(g.n) if v not in rot]
        iso_anchor = {v: len(walks) + i for i, v in enumerate(isolated)}
        passed = [turn_passed(t, purple) for t in layers]
        for e in sorted(state_edges(state) - state.purple):
            want = [
                brute_wedge_anchor(pts, rot, walk_of, iso_anchor, v, u) for v, u in (e, e[::-1])
            ]
            far = passed[RED if e in red else BLUE].get(e[::-1])
            got = [state.chords[e][0], iso_anchor[e[1]] if far is None else walk[far]]
            assert got == want, (g.points, g.edges, e)
            assert state.face[got[0]] == state.face[got[1]]
            chords += 1
            no_purple += any(v in iso_anchor for v in e)
            # Two different boundary walks of one purple face.
            multi_walk += got[0] != got[1] and not any(v in iso_anchor for v in e)
    assert chords and no_purple and multi_walk, (chords, no_purple, multi_walk)


def test_purple_face_chord_graphs_connected_and_bipartite():
    rng = random.Random(13)
    for _ in range(12):
        n = rng.randint(5, 11)
        ps = random_strict_points(rng, n)
        g = random_biplane_graph(rng, ps, rng.randint(0, 2 * n))
        assert_face_chords_bipartite(build_state(g))


def test_colorblind_flippability_invariant_under_face_exchanges():
    # decomposition independence: exchanging chord colors in any subset of
    # purple faces never changes any edge's colorblind flippability
    rng = random.Random(14)
    checked = 0
    for _ in range(20):
        n = rng.randint(5, 10)
        ps = random_strict_points(rng, n)
        g = random_biplane_graph(rng, ps, rng.randint(0, 2 * n))
        checked += assert_flippability_ignores_face_exchanges(build_state(g))
    assert checked >= 5


def test_exchanged_decomposition_is_still_two_triangulations():
    rng = random.Random(15)
    ps = random_strict_points(rng, 9)
    g = random_biplane_graph(rng, ps, 10)
    state = build_state(g)
    for f in purple_faces(state):
        state.face_flip[f] ^= 1
        for layer in state.layers():
            t = complete_to_triangulation(GeometricGraph(ps, layer))
            assert t.edge_count == len(layer)


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


def loop_families() -> list[GeometricGraph]:
    """Random strict graphs, relaxed lattices, the grid, a maximal convex
    graph, empty starts and the isolated-anchor graph."""
    rng = random.Random(31)
    graphs = [isolated_anchor_graph()]
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
    # Many popped edges are already settled on the empty graphs (654 skips
    # on the 300 points, 73 on the grid's points); on the maximal grid and
    # convex graphs no edge is queued at all.
    grid = gen_grid(8).graph
    graphs += [
        empty_graph(random_strict_points(rng, 300)),
        grid,
        empty_graph(grid.points),
        maximal_augment(empty_graph(gen_convex(60))).graph,
    ]
    return graphs


def test_fast_loop_matches_reference_loop():
    # maximal_augment hands each popped edge's clause to the flip; the
    # reference goes through the is_colorblind_flippable and apply_flip
    # helpers.
    graphs = loop_families()
    state = build_state(graphs[0])
    assert 6 not in {v for e in state.purple for v in e}
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


def drain(state, at_pop=None, after_flip=None) -> None:
    """Drain the queue as maximal_augment does, calling at_pop(k) on each
    live popped edge (settled ones too) and after_flip() after each flip."""
    while state.queue:
        k = state.queue.popleft()
        if not state.alive[k]:
            continue
        if at_pop is not None:
            at_pop(k)
        if state.settled[k]:
            continue
        cl = augmentation._clause(state, k)
        if cl is None:
            state.settled[k] = 1
        else:
            augmentation._flip(state, k, cl)
            if after_flip is not None:
                after_flip()


def test_two_area_clause_matches_four_area_reference():
    # The apex left of a purple dart is strictly left of it and the apex
    # right strictly right, so of proper_cross's four areas only the two
    # that place the edge's ends about the apex line decide the clause.
    kinds = set()
    for g in loop_families():
        state = build_state(g)

        def compare(k):
            cl = augmentation._clause(state, k)
            ref = reference_clause(state, k)
            assert (cl[:2] if cl else None) == ref, (edge_of(state, k), cl, ref)
            kinds.add(ref and ref[0])

        drain(state, at_pop=compare)
    assert kinds == {"red", "blue", "cross", None}


def test_apexes_lie_strictly_on_their_side_of_every_purple_dart():
    def check(state):
        pts = state.points.points
        for k in range(len(state.alive)):
            if not state.alive[k] or state.hull[k]:
                continue
            a, b = edge_of(state, k)
            for d, (u, v) in ((2 * k, (a, b)), (2 * k + 1, (b, a))):
                for lineage in state.apex:
                    assert cross(pts[u], pts[v], pts[lineage[d]]) > 0, ((u, v), lineage[d])

    for g in loop_families():
        state = build_state(g)
        check(state)
        drain(state, after_flip=lambda: check(state))


def test_face_table_circles_match_labels_and_ranks_stay_logarithmic():
    for g in loop_families():
        state = build_state(g)
        assert_face_table(state)
        drain(state, after_flip=lambda: assert_face_table(state))


def test_flip_loop_clause_calls_are_linear(monkeypatch):
    # A popped edge found unflippable is not tested again until a flip
    # re-enqueues it; testing every pop costs about 8n clause calls here.
    calls = 0
    clause = augmentation._clause

    def counted(state, k):
        nonlocal calls
        calls += 1
        return clause(state, k)

    monkeypatch.setattr(augmentation, "_clause", counted)
    ps = random_strict_points(random.Random(57), 1000)
    maximal_augment(empty_graph(ps))
    # The lower bound fails if the loop stops calling the module global.
    assert len(ps) <= calls <= 6 * len(ps)


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
