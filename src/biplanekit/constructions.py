"""Generators for tight constructions: convex sets, arc-in-triangle sets,
h-gon-with-arc sets, and the 12-neighbor grid graph with its local flips.

The arc constructions realize order types, not metric arcs: the generators
place the "arc" points on integer parabolas and then assert exactly the
order-type facts the edge-count arguments rely on (convex chain position,
visibility, separation, and uncrossable forced edges).
"""

from __future__ import annotations

from typing import NamedTuple

from .geometry import (
    Edge,
    Point,
    PointSet,
    Strictness,
    _typed_eq,
    convex_hull,
    cross,
    edge,
    point_in_triangle_strict,
    segments_cross,
    validate,
)
from .graphs import GeometricGraph
from .recognition import biplane_edge_cap


class ConstructionError(RuntimeError):
    """A generator's self-check failed; the coordinates do not realize the
    intended order type."""


# ---------------------------------------------------------------------------
# Bounds
# ---------------------------------------------------------------------------


@_typed_eq
class BoundReport(NamedTuple):
    """Edge-count bounds for biplane graphs on n points with hull size h."""

    n: int
    h: int
    min_maximal: int        # every maximal graph has at least this many edges
    max_edges_hull: int     # no biplane graph exceeds 6n - 3h - 6
    max_edges_abs: int | None  # 6n - 18, applicable for n >= 8
    maximum_lower: int      # the maximum graph has at least this many edges


def bounds(n: int, h: int) -> BoundReport:
    if not 3 <= h <= n:
        raise ValueError(f"need 3 <= h <= n, got h={h}, n={n}")
    min_maximal = max((7 * n + 1) // 2 - h - 5, 3 * n - 6)
    maximum_lower = 4 * n - h - 6 if (h >= 4 or n == 3) else 4 * n - h - 7
    return BoundReport(
        n,
        h,
        min_maximal,
        6 * n - 3 * h - 6,
        biplane_edge_cap(n) if n >= 8 else None,
        maximum_lower,
    )


# ---------------------------------------------------------------------------
# Convex and arc constructions
# ---------------------------------------------------------------------------


def gen_convex(n: int) -> PointSet:
    """n integer points in strictly convex position (a parabola arc)."""
    if n < 3:
        raise ValueError("need n >= 3")
    ps = PointSet.from_coords([(x, x * x) for x in range(n)])
    if len(convex_hull(ps)) != n:
        raise ConstructionError("convex generator lost a hull point")
    return ps


def _assert_uncrossable(ps: PointSet, forced: list[Edge], label: str) -> None:
    """No segment between any two points may cross a forced edge."""
    pts = ps.points
    n = len(ps)
    for a in range(n):
        for b in range(a + 1, n):
            pa, pb = pts[a], pts[b]
            for u, v in forced:
                if (a, b) == (u, v):
                    continue
                if segments_cross(pa, pb, pts[u], pts[v]):
                    raise ConstructionError(
                        f"{label}: segment ({a},{b}) crosses forced edge ({u},{v})"
                    )


def gen_arc_in_triangle(n: int) -> PointSet:
    """Triangle apex plus n-1 points on a convex arc: maximum is 4n-10.

    Index 0 is the apex; indices 1..n-1 are the arc in order, whose ends
    (1 and n-1) are the other two triangle corners.  Every edge from the
    apex is uncrossable, which forces all n-1 of them into any maximal
    graph.
    """
    if n < 4:
        raise ValueError("need n >= 4")
    k = n - 2  # arc spans x = 0..k
    arc = [Point(x, x * x) for x in range(k + 1)]
    apex = Point(k // 2, -(k * k) - 1)
    pts = [apex] + arc
    ps = PointSet.from_coords(pts)

    # Order type self-checks: strict validity, arc convexity, apex below
    # every arc chord (hence seeing every arc point), arc inside the triangle.
    rep = validate(ps)
    if not rep.ok:
        raise ConstructionError(f"arc-in-triangle: {rep.message}")
    for i in range(1, len(arc) - 1):
        if cross(arc[i - 1], arc[i], arc[i + 1]) <= 0:
            raise ConstructionError("arc not strictly convex")
    for i in range(len(arc)):
        for j in range(i + 1, len(arc)):
            if cross(arc[i], arc[j], apex) >= 0:
                raise ConstructionError("apex not strictly below an arc chord")
    for w in arc[1:-1]:
        if not point_in_triangle_strict(w, apex, arc[0], arc[-1]):
            raise ConstructionError("arc point escapes the triangle")
    if sorted(convex_hull(ps)) != [0, 1, n - 1]:
        raise ConstructionError("hull is not the intended triangle")
    forced = [edge(0, i) for i in range(1, n)]
    _assert_uncrossable(ps, forced, "arc-in-triangle")
    return ps


def gen_hgon_with_arc(n: int, h: int) -> PointSet:
    """Convex h-gon with n-h points on an arc in one corner: maximum 4n-h-6.

    Indices: 0 = v1 (the corner opposite the arc), 1 = v2, 2..h-1 = v3..vh
    around the hull, h..n-1 = the arc points in path order from v2.  The
    hull edges, the v1 star to the arc, and the path (v2, arc...) are all
    uncrossable, forcing 2n-h edges into every maximal graph.
    """
    if h < 4:
        raise ValueError("need h >= 4")
    if n < h:
        raise ValueError("need n >= h")
    if n > 88:
        raise ValueError("hgon-arc needs n <= 88: v1.y = -16(n+2)^4 - 1 must fit 2**30")
    m = n - h
    d = 4 * (n + 2) * (n + 2)
    v2 = Point(0, 0)
    ws = [Point(j, j * j) for j in range(1, m + 1)]
    vh = Point(d, d * d)
    v1 = Point(0, -(d * d) - 1)
    # v3..v(h-1) sit on the concave parabola y = x (2d - x) through v2, vh.
    step = max(1, (d - (m + 2)) // (h - 2))
    xs = [m + 1 + t * step for t in range(h - 3)]
    upper = [Point(x, x * (2 * d - x)) for x in xs]
    pts = [v1, v2] + upper + [vh] + ws
    ps = PointSet.from_coords(pts)

    rep = validate(ps)
    if not rep.ok:
        raise ConstructionError(f"hgon-with-arc: {rep.message}")
    hull_order = list(range(h))
    hull = convex_hull(ps)
    if sorted(hull) != hull_order:
        raise ConstructionError("hull is not exactly v1..vh")
    # Strict convexity of the h-gon in label order (v1, v2, ..., vh).
    signs = set()
    for i in range(h):
        a, b, c = hull_order[i], hull_order[(i + 1) % h], hull_order[(i + 2) % h]
        s = cross(ps[a], ps[b], ps[c])
        if s == 0:
            raise ConstructionError("h-gon has a straight corner")
        signs.add(s > 0)
    if len(signs) != 1:
        raise ConstructionError("h-gon not convex in label order")
    # Arc points strictly inside the corner triangle (v1, v2, vh).
    for w in range(h, n):
        if not point_in_triangle_strict(ps[w], ps[0], ps[1], ps[h - 1]):
            raise ConstructionError("arc point escapes the corner triangle")
    # v1-v3 separates the arc points from v4..vh.
    if h >= 4 and m > 0:
        iv1, iv3 = 0, 2
        sides_w = {1 if cross(ps[iv1], ps[iv3], ps[w]) > 0 else -1 for w in range(h, n)}
        sides_v = {
            1 if cross(ps[iv1], ps[iv3], ps[t]) > 0 else -1 for t in range(3, h)
        }
        if len(sides_w) > 1 or len(sides_v) > 1 or sides_w == sides_v:
            raise ConstructionError("v1-v3 does not separate the arc from v4..vh")
    forced = [edge(hull_order[i], hull_order[(i + 1) % h]) for i in range(h)]
    forced += [edge(0, w) for w in range(h, n)]
    path = [1] + list(range(h, n))
    forced += [edge(a, b) for a, b in zip(path, path[1:])]
    if len(set(forced)) != 2 * n - h:
        raise ConstructionError("forced edge count is not 2n - h")
    _assert_uncrossable(ps, forced, "hgon-with-arc")
    return ps


# ---------------------------------------------------------------------------
# Grid construction
# ---------------------------------------------------------------------------

# Offsets (half of the symmetric 12-neighborhood), split by layer.
_RED_OFFSETS = ((1, 0), (1, 1), (2, 1))      # horizontals, up-diagonals, long
_BLUE_OFFSETS = ((0, 1), (1, -1), (1, -2))   # verticals, down-diagonals, long


@_typed_eq
class GridFlip(NamedTuple):
    """One applied local transformation: removed and added edges."""

    kind: str  # "corner" | "boundary"
    position: tuple[int, ...]
    removed: tuple[Edge, ...]
    added: tuple[Edge, ...]


@_typed_eq
class GridGraph(NamedTuple):
    """k x k grid with the 12-neighbor adjacency and its two-layer witness."""

    k: int
    graph: GeometricGraph
    red_edges: frozenset[Edge]
    blue_edges: frozenset[Edge]
    flips: tuple[GridFlip, ...] = ()

    def index(self, i: int, j: int) -> int:
        if not (1 <= i <= self.k and 1 <= j <= self.k):
            raise ValueError(f"({i}, {j}) outside the {self.k} x {self.k} grid")
        return (i - 1) * self.k + (j - 1)


def gen_grid(k: int) -> GridGraph:
    """The k x k grid graph that is the union of two lattice triangulations.

    Vertex (i, j), 1 <= i, j <= k, connects to (i +- 1, j), (i, j +- 1),
    (i +- 1, j + 1), (i +- 1, j - 1), (i + 2, j + 1), (i - 2, j - 1),
    (i + 1, j - 2), and (i - 1, j + 2) whenever those exist.  One layer
    holds the horizontal, up-diagonal, and (2, 1) edges, the other the
    vertical, down-diagonal, and (1, -2) edges.
    """
    if k < 5:
        raise ValueError("need k >= 5")
    coords = [(i, j) for i in range(1, k + 1) for j in range(1, k + 1)]
    ps = PointSet.from_coords(coords, Strictness.RELAXED)

    def idx(i: int, j: int) -> int:
        return (i - 1) * k + (j - 1)

    red: set[Edge] = set()
    blue: set[Edge] = set()
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            for (di, dj), layer in [
                *(((o), red) for o in _RED_OFFSETS),
                *(((o), blue) for o in _BLUE_OFFSETS),
            ]:
                ii, jj = i + di, j + dj
                if 1 <= ii <= k and 1 <= jj <= k:
                    layer.add(edge(idx(i, j), idx(ii, jj)))
    expected = 6 * (k - 1) * (k - 1)
    if len(red) + len(blue) != expected or red & blue:
        raise ConstructionError("grid layer families are not a partition")
    g = GeometricGraph(ps, tuple(sorted(red | blue)))
    return GridGraph(k, g, frozenset(red), frozenset(blue))


def _rotate_point(k: int, t: int, i: int, j: int) -> tuple[int, int]:
    """Rotate grid coordinates by t quarter turns (the grid maps to itself)."""
    for _ in range(t % 4):
        i, j = j, k + 1 - i
    return i, j


def _transform(
    grid: GridGraph,
    kind: str,
    position: tuple[int, ...],
    removed_coords: list[tuple[tuple[int, int], tuple[int, int]]],
    added_coords: list[tuple[tuple[int, int], tuple[int, int]]],
    turns: int,
) -> GridGraph:
    """Apply one coordinate-level exchange, rotated by `turns` quarter turns.

    The base exchanges replace axis-parallel edges of the vertical family;
    odd rotations land in the horizontal family, so the layer swaps.
    """
    k = grid.k
    red = set(grid.red_edges)
    blue = set(grid.blue_edges)
    layer = blue if turns % 2 == 0 else red

    def map_edge(a: tuple[int, int], b: tuple[int, int]) -> Edge:
        ai = grid.index(*_rotate_point(k, turns, *a))
        bi = grid.index(*_rotate_point(k, turns, *b))
        return edge(ai, bi)

    removed = tuple(sorted(map_edge(a, b) for a, b in removed_coords))
    added = tuple(sorted(map_edge(a, b) for a, b in added_coords))
    for e in removed:
        if e not in layer:
            raise ConstructionError(f"edge {e} to remove is not in the layer")
        layer.discard(e)
    for e in added:
        if e in red or e in blue:
            raise ConstructionError(f"edge {e} to add already exists")
        layer.add(e)
    g = GeometricGraph(grid.graph.points, tuple(sorted(red | blue)))
    rec = GridFlip(kind, position, removed, added)
    return GridGraph(k, g, frozenset(red), frozenset(blue), grid.flips + (rec,))


def apply_corner_flips(grid: GridGraph) -> GridGraph:
    """Raise the degree of the two low-degree vertices at each corner.

    At the base corner the four edges (k-2,2)(k-2,3), (k-2,3)(k-2,4),
    (k-3,3)(k-3,4), (k-3,4)(k-3,5) are replaced by (k-1,1)(k-3,4),
    (k-1,2)(k-3,5), (k-2,2)(k-4,5), (k-2,3)(k-4,6); the other corners get
    the quarter-turn images (in the other layer for odd turns).
    """
    k = grid.k
    if k < 8:
        raise ValueError("corner flips need k >= 8")
    removed = [
        ((k - 2, 2), (k - 2, 3)),
        ((k - 2, 3), (k - 2, 4)),
        ((k - 3, 3), (k - 3, 4)),
        ((k - 3, 4), (k - 3, 5)),
    ]
    added = [
        ((k - 1, 1), (k - 3, 4)),
        ((k - 1, 2), (k - 3, 5)),
        ((k - 2, 2), (k - 4, 5)),
        ((k - 2, 3), (k - 4, 6)),
    ]
    out = grid
    for t in range(4):
        out = _transform(out, "corner", (t,), removed, added, t)
    return out


def apply_boundary_flips(grid: GridGraph, i: int, side: int = 0) -> GridGraph:
    """Raise the degree of boundary vertex (i, 1) by one.

    Replaces (i-1,2)(i-1,3) and (i-2,3)(i-2,4) with (i,1)(i-2,4) and
    (i-1,2)(i-3,5).  `side` rotates the transformation by quarter turns to
    serve the other three boundary sides.
    """
    k = grid.k
    if not 4 <= i <= k - 3:
        raise ValueError(f"boundary position must satisfy 4 <= i <= {k - 3}")
    removed = [((i - 1, 2), (i - 1, 3)), ((i - 2, 3), (i - 2, 4))]
    added = [((i, 1), (i - 2, 4)), ((i - 1, 2), (i - 3, 5))]
    return _transform(grid, "boundary", (i, side), removed, added, side)

