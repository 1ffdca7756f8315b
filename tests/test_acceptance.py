"""Acceptance suite: one test per criterion, one PASS line each (run -s).

Shared instance pools are module-scoped so the expensive random-biplane
corpus is built once and reused by the maximality, bounds, connectivity,
and purple-structure criteria.
"""

import math
import random
import time

import pytest
from _helpers import (
    assert_face_chords_bipartite,
    assert_flippability_ignores_face_exchanges,
    assert_grid_degree_classes,
    brute_crossing_adjacency,
    checked_flips,
    crossing_adjacency_is_bipartite,
    graph_is_connected_after_removal,
    layer_is_plane,
    random_biplane_graph,
    random_edge_subset_graph,
    random_strict_points,
    witness_cycle_is_valid,
)

from biplanekit.analysis import (
    brute_force_maximum,
    find_maximal_gap,
    maximality_oracle,
    vertex_connectivity,
)
from biplanekit.augmentation import build_state, maximal_augment
from biplanekit.constructions import (
    apply_boundary_flips,
    apply_corner_flips,
    gen_arc_in_triangle,
    gen_convex,
    gen_grid,
    gen_hgon_with_arc,
)
from biplanekit.geometry import PointSet, convex_hull
from biplanekit.graphs import GeometricGraph
from biplanekit.recognition import (
    BiplaneDecomposition,
    OddCycleWitness,
    TooManyEdges,
    test_biplane,
)


def _report(num: int, name: str) -> None:
    print(f"ACCEPTANCE {num:2d} {name}: PASS")


def assert_edge_bounds(n: int, h: int, m: int) -> None:
    lower = max((7 * n + 1) // 2 - h - 5, 3 * n - 6)
    upper = 6 * n - 3 * h - 6
    if n >= 8:
        upper = min(upper, 6 * n - 18)
    assert lower <= m <= upper, (n, h, m, lower, upper)


@pytest.fixture(scope="module")
def augmented_corpus():
    """200 random biplane inputs (n <= 12) with their augmented outputs."""
    rng = random.Random(20260810)
    corpus = []
    for _ in range(200):
        n = rng.randint(4, 12)
        ps = random_strict_points(rng, n)
        g = random_biplane_graph(rng, ps, rng.randint(0, 3 * n))
        res = maximal_augment(g, collect_trace=True)
        corpus.append((g, res))
    return corpus


def test_criterion_01_recognition_correctness():
    rng = random.Random(101)
    t0 = time.perf_counter()
    decomposed = witnessed = capped = 0
    for _ in range(500):
        n = rng.randint(3, 12)
        ps = random_strict_points(rng, n)
        g = random_edge_subset_graph(rng, ps)
        verdict = test_biplane(g)
        expected = crossing_adjacency_is_bipartite(brute_crossing_adjacency(g))
        if isinstance(verdict, BiplaneDecomposition):
            decomposed += 1
            assert expected
            assert set(verdict.layer1) | set(verdict.layer2) == set(g.edges)
            assert not (set(verdict.layer1) & set(verdict.layer2))
            assert layer_is_plane(g, verdict.layer1)
            assert layer_is_plane(g, verdict.layer2)
        elif isinstance(verdict, OddCycleWitness):
            witnessed += 1
            assert not expected
            assert witness_cycle_is_valid(g, verdict.cycle)
        else:
            assert isinstance(verdict, TooManyEdges)
            capped += 1
            assert not expected
    elapsed = time.perf_counter() - t0
    assert decomposed and witnessed and capped, "all three verdicts must occur"
    assert elapsed < 10.0, f"recognition suite took {elapsed:.1f}s"
    _report(1, f"recognition-correctness ({decomposed}/{witnessed}/{capped} verdicts, {elapsed:.1f}s)")


def test_criterion_02_maximality(augmented_corpus):
    t0 = time.perf_counter()
    for g, res in augmented_corpus:
        assert set(g.edges) <= set(res.graph.edges)
        assert maximality_oracle(res.graph), "augmented graph is not maximal"
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"maximality suite took {elapsed:.1f}s"
    _report(2, f"maximality-200-instances ({elapsed:.1f}s)")


def test_criterion_03_edge_count_bounds(augmented_corpus):
    for g, res in augmented_corpus:
        n = res.graph.n
        h = len(convex_hull(res.graph.points))
        assert_edge_bounds(n, h, res.graph.m)
    _report(3, "edge-count-bounds")


def test_criterion_04_convex_tightness():
    for n in range(4, 13):
        ps = gen_convex(n)
        res = maximal_augment(GeometricGraph(ps, ()))
        assert res.graph.m == 3 * n - 6, (n, res.graph.m)
        assert_edge_bounds(n, n, res.graph.m)
        if n <= 9:
            assert brute_force_maximum(ps).maximum_edges == 3 * n - 6
    _report(4, "convex-tightness")


def test_criterion_05_arc_construction_tightness():
    for n in range(5, 9):
        t0 = time.perf_counter()
        got = brute_force_maximum(gen_arc_in_triangle(n)).maximum_edges
        assert got == 4 * n - 10, (n, got)
        assert time.perf_counter() - t0 < 300.0
    for n, h in ((6, 4), (7, 4), (7, 5), (8, 5)):
        t0 = time.perf_counter()
        got = brute_force_maximum(gen_hgon_with_arc(n, h)).maximum_edges
        assert got == 4 * n - h - 6, (n, h, got)
        assert time.perf_counter() - t0 < 300.0
    _report(5, "tight-construction-maxima")


def test_criterion_06_maximal_size_gap():
    found = None
    for pset_seed in range(10):
        rng = random.Random(pset_seed)
        n = 8 + pset_seed % 3
        ps = random_strict_points(rng, n, span=1000)
        rep = find_maximal_gap(ps, trials=24, seed=1000 + pset_seed)
        if rep.smallest < rep.largest:
            found = (ps, n, rep)
            break
    assert found is not None, "no gap instance located in the seed window"
    ps, n, rep = found
    assert maximality_oracle(rep.smallest_graph)
    assert maximality_oracle(rep.largest_graph)
    if n <= 9:
        assert brute_force_maximum(ps).maximum_edges == rep.largest
    _report(6, f"maximal-size-gap (n={n}: {rep.smallest} vs {rep.largest})")


def test_criterion_07_three_connectivity(augmented_corpus):
    for _, res in augmented_corpus:
        if res.graph.n < 4:
            continue
        rep = vertex_connectivity(res.graph)
        assert rep.kappa >= 3, (res.graph.n, rep.kappa)
        if rep.witness_cut:
            assert len(rep.witness_cut) == rep.kappa
            assert not graph_is_connected_after_removal(res.graph, rep.witness_cut)
    _report(7, "three-connectivity")


def test_criterion_08_purple_structure(augmented_corpus):
    # Per purple face the chord crossing graph is connected and properly
    # 2-colored; flippability survives exhaustive face color exchanges; and
    # re-driving the FIFO loop, every flip is local (see checked_flips).
    exchanges_checked = flips_checked = merge_revocations = 0
    for g, _ in augmented_corpus:
        state = build_state(g)
        assert_face_chords_bipartite(state)
        exchanges_checked += assert_flippability_ignores_face_exchanges(state)
        flips, revocations = checked_flips(build_state(g))
        flips_checked += flips
        merge_revocations += revocations
    assert exchanges_checked >= 20, "too few instances with <= 10 purple faces"
    assert flips_checked > 0
    _report(
        8,
        f"purple-structure ({exchanges_checked} exchange instances, "
        f"{flips_checked} flips, {merge_revocations} merge revocations)",
    )


def test_criterion_09_grid_construction():
    for k in range(5, 21):
        grid = gen_grid(k)
        assert_grid_degree_classes(grid)
        assert isinstance(test_biplane(grid.graph), BiplaneDecomposition)

        if k >= 8:
            m0 = grid.graph.m
            flipped = apply_corner_flips(grid)
            assert flipped.graph.m == m0
            d0, d1 = grid.graph.degrees(), flipped.graph.degrees()
            for ci, cj in ((k - 1, 1), (1, 2), (2, k), (k, k - 1)):
                assert d1[grid.index(ci, cj)] == d0[grid.index(ci, cj)] + 1
            assert isinstance(test_biplane(flipped.graph), BiplaneDecomposition)

            pos = 4
            both = apply_boundary_flips(flipped, pos)
            assert both.graph.m == m0
            d2 = both.graph.degrees()
            assert d2[grid.index(pos, 1)] == d1[grid.index(pos, 1)] + 1
            assert isinstance(test_biplane(both.graph), BiplaneDecomposition)
    # The grid-core checks stand in for the full construction's kappa = 10/11
    # claims, which need attachments and k beyond desk scale.
    _report(9, "grid-construction (k=5..20)")


@pytest.fixture(scope="module")
def empty_input_runs():
    """Timed maximal_augment of the empty graph on seeded random points,
    n = 500 ... 4000: {n: (seconds, maximal graph)}."""
    rng = random.Random(2026)
    runs = {}
    for n in (500, 1000, 2000, 4000):
        coords = set()
        while len(coords) < n:
            coords.add((rng.randrange(-(2**29), 2**29), rng.randrange(-(2**29), 2**29)))
        ps = PointSet.from_coords(sorted(coords))
        g = GeometricGraph(ps, ())
        t0 = time.perf_counter()
        res = maximal_augment(g)
        runs[n] = (time.perf_counter() - t0, res.graph)
    return runs


def _fitted_exponent(times: dict[int, float]) -> float:
    xs = [math.log(n) for n in times]
    ys = [math.log(t) for t in times.values()]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum(
        (x - mx) ** 2 for x in xs
    )


def test_criterion_10_scaling_sanity(empty_input_runs):
    times = {}
    for n, (seconds, graph) in empty_input_runs.items():
        times[n] = seconds
        h = len(convex_hull(graph.points))
        assert_edge_bounds(n, h, graph.m)
    slope = _fitted_exponent(times)
    assert slope < 1.5, f"fitted exponent {slope:.2f}"
    assert times[4000] < 60.0, f"n=4000 took {times[4000]:.1f}s"
    _report(10, f"scaling-sanity (exponent {slope:.2f}, t4000 {times[4000]:.2f}s)")


def test_criterion_10_scaling_nonempty_input(empty_input_runs):
    # Re-augmenting a maximal graph completes both layers from thousands of
    # constraints and flips nothing.
    times = {}
    for n in (1000, 2000, 4000):
        graph = empty_input_runs[n][1]
        t0 = time.perf_counter()
        res = maximal_augment(graph)
        times[n] = time.perf_counter() - t0
        assert set(res.graph.edges) == set(graph.edges)
    slope = _fitted_exponent(times)
    assert slope < 1.5, f"fitted exponent {slope:.2f}"
    assert times[4000] < 60.0, f"n=4000 took {times[4000]:.1f}s"
    _report(10, f"scaling-nonempty (exponent {slope:.2f}, t4000 {times[4000]:.2f}s)")


def test_criterion_10_scaling_convex_empty_input():
    # In convex position every point stays on the sweep's hull, so any
    # per-point work proportional to the hull makes augmentation quadratic.
    # Each n is timed as the fastest of three runs: a run of 0.05-0.4 s is
    # easily slowed by a garbage collection or a busy neighbour, and one
    # slow run among three sizes would decide the fitted exponent.
    times = {}
    for n in (1000, 2000, 4000):
        g = GeometricGraph(gen_convex(n), ())
        runs = []
        for _ in range(3):
            t0 = time.perf_counter()
            res = maximal_augment(g)
            runs.append(time.perf_counter() - t0)
            assert res.graph.m == 3 * n - 6
        times[n] = min(runs)
    slope = _fitted_exponent(times)
    assert slope < 1.5, f"fitted exponent {slope:.2f}"
    assert times[4000] < 60.0, f"n=4000 took {times[4000]:.1f}s"
    _report(10, f"scaling-convex (exponent {slope:.2f}, t4000 {times[4000]:.2f}s)")
