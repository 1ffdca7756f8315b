"""Lattice symmetries keep every verdict.

Rotations by 90 degrees, reflections, translations and integer shears map
Z^2 onto itself and scale every signed area by +1 or -1, so they keep
collinearity, every crossing and the hull's point set.  Witnesses may
change with the sweep order; verdicts may not.
"""

import random

from _helpers import (
    drop_edges_through_vertices,
    random_edge_subset_graph,
    random_lattice_points,
    random_strict_points,
    rectangle_boundary,
    with_first_non_edge,
)

from biplanekit.analysis import brute_force_maximum, maximality_oracle, vertex_connectivity
from biplanekit.augmentation import maximal_augment
from biplanekit.constructions import gen_convex, gen_grid
from biplanekit.geometry import COORD_LIMIT, PointSet, validate
from biplanekit.graphs import GeometricGraph
from biplanekit.recognition import OddCycleWitness, TooManyEdges, _recognize
from biplanekit.triangulation import complete_to_triangulation

L = COORD_LIMIT


def lattice_maps(coords: list[tuple[int, int]]) -> list[list[tuple[int, int]]]:
    """coords under both 90-degree rotations, two reflections, the
    translation that puts the top right corner of their box at (L, L), and
    the largest x- and y-shears that keep every coordinate within L."""
    xs = [abs(x) for x, _ in coords]
    ys = [abs(y) for _, y in coords]
    mx, my = max(xs), max(ys)
    kx = (L - mx) // my if my else 1
    ky = (L - my) // mx if mx else 1
    top_x = L - max(x for x, _ in coords)
    top_y = L - max(y for _, y in coords)
    maps = [
        lambda x, y: (-y, x),
        lambda x, y: (y, -x),
        lambda x, y: (-x, y),
        lambda x, y: (x, -y),
        lambda x, y: (x + top_x, y + top_y),
        lambda x, y: (x + kx * y, y),
        lambda x, y: (x, y + ky * x),
    ]
    return [[f(x, y) for x, y in coords] for f in maps]


def outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return type(exc).__name__


def recognition_key(g: GeometricGraph):
    """(color, root), or the name of the verdict, whose witness may change."""
    verdict = outcome(lambda: _recognize(g))
    if isinstance(verdict, (OddCycleWitness, TooManyEdges)):
        return type(verdict).__name__
    return verdict


def completion_key(g: GeometricGraph) -> str:
    res = outcome(complete_to_triangulation, g)
    return res if isinstance(res, str) else "plane"


def verdicts(g: GeometricGraph) -> tuple:
    ps = g.points
    return (
        validate(PointSet.from_coords(ps.points)),
        recognition_key(g),
        completion_key(g),
        outcome(maximality_oracle, g),
        vertex_connectivity(g).kappa,
        brute_force_maximum(ps).maximum_edges if len(ps) <= 8 else None,
    )


def symmetry_inputs() -> list[GeometricGraph]:
    """A maximal graph, its red layer, half of it and a random edge set on
    each of strict, lattice, convex, weakly convex and grid point sets, and
    a maximal convex graph plus one chord.

    The convex and weakly convex sets take recognition's hull-order route,
    under reflections in reversed hull order; the chord makes it find an
    odd cycle and fall back to the sweep.
    """
    rng = random.Random(2606)
    sets = [random_strict_points(rng, n, span) for n, span in ((7, 50), (8, 10**6), (20, 50))]
    sets += [random_lattice_points(rng, 4, 7), random_lattice_points(rng, 5, 12)]
    sets += [gen_convex(8), gen_convex(14), gen_grid(5).graph.points]
    sets.append(rectangle_boundary(random.Random(27), 3, 2))
    graphs = []
    for ps in sets:
        res = maximal_augment(GeometricGraph(ps, ()))
        maximal = res.graph
        graphs += [maximal, GeometricGraph(ps, res.red_layer)]
        graphs.append(GeometricGraph(ps, maximal.edges[::2]))
        graphs.append(drop_edges_through_vertices(random_edge_subset_graph(rng, ps, 0.3)))
    graphs.append(with_first_non_edge(maximal_augment(GeometricGraph(gen_convex(14), ())).graph))
    return graphs


def test_lattice_symmetries_keep_every_verdict():
    kinds = set()
    for g in symmetry_inputs():
        want = verdicts(g)
        kinds.add((want[1] == "OddCycleWitness", want[2], want[3]))
        coords = [tuple(p) for p in g.points.points]
        for image in lattice_maps(coords):
            mapped = GeometricGraph(PointSet.from_coords(image, g.points.strictness), g.edges)
            assert verdicts(mapped) == want, (coords, image, g.edges)
    # The inputs reach both recognition verdicts, both completion verdicts
    # and both maximality verdicts.
    assert {k[0] for k in kinds} == {True, False}
    assert {k[1] for k in kinds} == {"plane", "NotPlaneError"}
    assert {k[2] for k in kinds} >= {True, False}
