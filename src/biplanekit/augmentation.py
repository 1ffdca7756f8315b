"""Augment a biplane graph to a maximal one via colorblind flips.

The state tracks two triangulations (red and blue) sharing the purple edges
P = R intersect B.  Faces of the purple plane graph (S, P) are held in a
parity union-find: flipping a purple edge merges its two faces, and the
cross-face flip clause exchanges a face's red and blue chords by toggling
one parity bit instead of relabeling chords.

Per purple edge we store, for each geometric side, the apex of the adjacent
triangle in each color lineage; the parity bit of the face on that side
says which stored slot is currently red.  All flip tests are therefore
constant-time, and each flip touches only its quadrilateral neighborhood,
which keeps the whole augmentation near-linearithmic.

Locality contract: an edge can only BECOME flippable if it lies in one of
the up-to-four triangles containing the flipped edge, so re-enqueueing that
neighborhood suffices.  An edge elsewhere can LOSE cross-face flippability
when the flip merges exactly the two faces it straddles; that direction
never needs a queue update, since stale queue entries are re-tested at pop
time.

The work queue is FIFO.  Processing order does not affect maximality of the
result, only which maximal graph is produced.  The loop evaluates each
popped edge's clause once: one union-find lookup per side of the edge gives
both that side's face and its parity, and the clause found is handed to the
flip instead of being tested again.

Building the state completes both layers from one sweep of the bare points
and reads the purple rotation system off the red triangulation's apex map,
so indexing the purple faces needs no angular sort.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable

from .geometry import Edge, Point, PointSet, cross, dir_in_ccw_sector, edge, proper_cross
from .graphs import GeometricGraph
from .recognition import BiplaneDecomposition, BiplaneResult, test_biplane
from .triangulation import GeometryError, complete_layers, plane_face_walks, trace_face_walks
from .unionfind import ParityDSU

RED = 0
BLUE = 1


class NotBiplaneError(ValueError):
    """Input graph is not biplane; carries the recognition verdict."""

    def __init__(self, verdict: BiplaneResult) -> None:
        super().__init__(f"input graph is not biplane: {type(verdict).__name__}")
        self.verdict = verdict


@dataclass(frozen=True)
class FlipRecord:
    """One flip: which edge, which clause fired, and what changed."""

    edge: Edge
    clause: str  # "red" | "blue" | "cross"
    recolored_anchor: int | None
    new_edge: Edge
    merged_faces: tuple[int, int]


@dataclass(frozen=True)
class PurpleFace:
    """Bounded face of the purple graph with its current chord layers."""

    face_id: int
    boundary: tuple[tuple[tuple[int, int], ...], ...]
    red_chords: tuple[Edge, ...]
    blue_chords: tuple[Edge, ...]


class MaximalState:
    """Mutable augmentation state; requires exclusive access while flipping."""

    __slots__ = (
        "points",
        "edges",
        "purple",
        "hull_vertices",
        "hull_edges",
        "queue",
        "faces",
        "side_walk",
        "apex",
        "chord_anchor",
        "chord_color0",
        "trace",
    )

    def __init__(
        self,
        points: PointSet,
        edges: set[Edge],
        purple: set[Edge],
        hull_vertices: tuple[int, ...],
        hull_edges: frozenset[Edge],
        faces: ParityDSU,
        side_walk: dict[Edge, tuple[int, int]],
        apex: dict[Edge, list[list[int | None]]],
        chord_anchor: dict[Edge, int],
        chord_color0: dict[Edge, int],
        trace: list[FlipRecord] | None,
    ) -> None:
        self.points = points
        self.edges = edges
        self.purple = purple
        self.hull_vertices = hull_vertices
        self.hull_edges = hull_edges
        self.faces = faces
        self.side_walk = side_walk
        self.apex = apex
        self.chord_anchor = chord_anchor
        self.chord_color0 = chord_color0
        self.queue: deque[Edge] = deque()
        self.trace = trace

    # -- queries ------------------------------------------------------------

    def eff_apex(self, e: Edge, side: int, layer: int) -> int | None:
        """Apex of the triangle adjacent to purple edge e in `layer` on `side`."""
        w = self.side_walk[e][side]
        return self.apex[e][side][self.faces.parity(w) ^ layer]

    def face_of(self, e: Edge, side: int) -> int:
        return self.faces.find(self.side_walk[e][side])[0]

    def chord_color(self, e: Edge) -> int:
        return self.chord_color0[e] ^ self.faces.parity(self.chord_anchor[e])

    def red_edges(self) -> list[Edge]:
        out = list(self.purple)
        out.extend(e for e in self.chord_anchor if self.chord_color(e) == RED)
        return sorted(out)

    def blue_edges(self) -> list[Edge]:
        out = list(self.purple)
        out.extend(e for e in self.chord_anchor if self.chord_color(e) == BLUE)
        return sorted(out)

    def exchange_face_colors(self, anchor: int) -> None:
        """Swap the red and blue chord sets of one purple face."""
        self.faces.flip_component(anchor)

    def purple_faces(self) -> list[PurpleFace]:
        """Current bounded faces of (S, P) with boundary walks and chords."""
        pts = self.points.points
        _, _, walk_of, walks = plane_face_walks(pts, sorted(self.purple))
        hv = self.hull_vertices
        outer = walk_of[(hv[1], hv[0])]
        bound: dict[int, list[tuple[tuple[int, int], ...]]] = {}
        for wid, path in enumerate(walks):
            if wid == outer:
                continue
            u, v = path[0]
            e = edge(u, v)
            side = 0 if (u, v) == e else 1
            root = self.faces.find(self.side_walk[e][side])[0]
            bound.setdefault(root, []).append(tuple(path))
        chords: dict[int, tuple[list[Edge], list[Edge]]] = {}
        for c in sorted(self.chord_anchor):
            root = self.faces.find(self.chord_anchor[c])[0]
            pair = chords.setdefault(root, ([], []))
            pair[self.chord_color(c)].append(c)
        out = []
        for root in sorted(set(bound) | set(chords)):
            r, b = chords.get(root, ([], []))
            out.append(
                PurpleFace(
                    root,
                    tuple(bound.get(root, [])),
                    tuple(r),
                    tuple(b),
                )
            )
        return out


@dataclass(frozen=True)
class AugmentResult:
    """Maximal biplane supergraph plus its layer witnesses.

    `decomposition` is a disjoint split (layer1 is the full red
    triangulation, layer2 the blue-only chords); `red_layer` and
    `blue_layer` are the two overlapping triangulations whose union is the
    edge set.
    """

    graph: GeometricGraph
    decomposition: BiplaneDecomposition
    red_layer: tuple[Edge, ...]
    blue_layer: tuple[Edge, ...]
    state: MaximalState | None
    trace: tuple[FlipRecord, ...] | None


def _wedge_anchor(
    pts: Iterable[Point],
    rot: dict[int, list[int]],
    walk_of: dict[tuple[int, int], int],
    iso_anchor: dict[int, int],
    v: int,
    toward: int,
) -> int:
    """Anchor of the face containing the direction v -> toward at vertex v."""
    nbrs = rot.get(v)
    if not nbrs:
        return iso_anchor[v]
    if len(nbrs) == 1:
        return walk_of[(v, nbrs[0])]
    pv = pts[v]
    pt = pts[toward]
    d = Point(pt.x - pv.x, pt.y - pv.y)
    k = len(nbrs)
    for i in range(k):
        u, w = nbrs[i], nbrs[(i + 1) % k]
        du = Point(pts[u].x - pv.x, pts[u].y - pv.y)
        dw = Point(pts[w].x - pv.x, pts[w].y - pv.y)
        if dir_in_ccw_sector(d, du, dw):
            return walk_of[(v, u)]
    raise GeometryError(f"chord ({v}, {toward}) collinear with a purple edge")


def build_state(
    g: GeometricGraph, *, collect_trace: bool = False
) -> MaximalState:
    """Decompose, complete both layers, and index the purple structure."""
    verdict = test_biplane(g)
    if not isinstance(verdict, BiplaneDecomposition):
        raise NotBiplaneError(verdict)
    ps = g.points
    pts = ps.points
    t_red, t_blue = complete_layers(ps, (verdict.layer1, verdict.layer2))
    red_set = t_red.edge_set()
    blue_set = t_blue.edge_set()
    purple = set(red_set & blue_set)
    edges = set(red_set | blue_set)

    purple_sorted = sorted(purple)
    rot = t_red.rotation(purple_sorted)
    _, walk_of, walks = trace_face_walks(rot, purple_sorted)
    isolated = [v for v in range(len(ps)) if v not in rot]
    iso_anchor = {v: len(walks) + i for i, v in enumerate(isolated)}
    faces = ParityDSU(len(walks) + len(isolated))

    side_walk: dict[Edge, tuple[int, int]] = {}
    apex: dict[Edge, list[list[int | None]]] = {}
    for e in purple_sorted:
        a, b = e
        side_walk[e] = (walk_of[(a, b)], walk_of[(b, a)])
        rl, rr = t_red.apexes(e)
        bl, br = t_blue.apexes(e)
        apex[e] = [[rl, bl], [rr, br]]

    chord_anchor: dict[Edge, int] = {}
    chord_color0: dict[Edge, int] = {}
    for e in sorted(edges - purple):
        a, b = e
        anchor_a = _wedge_anchor(pts, rot, walk_of, iso_anchor, a, b)
        anchor_b = _wedge_anchor(pts, rot, walk_of, iso_anchor, b, a)
        faces.union(anchor_a, anchor_b)
        chord_anchor[e] = anchor_a
        chord_color0[e] = RED if e in red_set else BLUE

    state = MaximalState(
        ps,
        edges,
        purple,
        t_red.boundary,
        t_red.hull_edges(),
        faces,
        side_walk,
        apex,
        chord_anchor,
        chord_color0,
        [] if collect_trace else None,
    )
    for e in purple_sorted:
        if e not in state.hull_edges:
            state.queue.append(e)
    return state


def _clause(state: MaximalState, e: Edge) -> tuple[str, int] | None:
    """Which colorblind-flip clause applies to purple edge e, if any.

    Returns ("red", -1), ("blue", -1), or ("cross", side) where `side` is
    the side whose face holds the blue triangle of the convex pair (the
    face that gets recolored so the flip can run in the red layer).
    """
    # One find per side gives both the face root and its parity; the parity
    # picks which stored apex is red (as eff_apex does).
    faces = state.faces
    wl, wr = state.side_walk[e]
    root_l, par_l = faces.find(wl)
    root_r, par_r = faces.find(wr)
    par_l ^= faces.flip[root_l]
    par_r ^= faces.flip[root_r]
    left, right = state.apex[e]
    pts = state.points.points
    a, b = e
    pa, pb = pts[a], pts[b]
    prl = pts[left[par_l]]
    prr = pts[right[par_r]]
    if proper_cross(pa, pb, prl, prr):
        return ("red", -1)
    pbl = pts[left[par_l ^ 1]]
    pbr = pts[right[par_r ^ 1]]
    if proper_cross(pa, pb, pbl, pbr):
        return ("blue", -1)
    if root_l != root_r:
        if proper_cross(pa, pb, prl, pbr):
            return ("cross", 1)
        if proper_cross(pa, pb, pbl, prr):
            return ("cross", 0)
    return None


def is_colorblind_flippable(state: MaximalState, e: Edge) -> bool:
    """Can purple edge e be flipped under some decomposition of the edges?

    True iff e is flippable in the red or blue triangulation, or e borders
    two different purple faces and a red and a blue triangle on opposite
    sides of e form a strictly convex quadrilateral.
    """
    if e not in state.purple:
        raise ValueError(f"{e} is not a purple edge")
    if e in state.hull_edges:
        raise ValueError(f"{e} is a hull edge and never flippable")
    return _clause(state, e) is not None


def apply_flip(state: MaximalState, e: Edge) -> MaximalState:
    """Flip purple edge e: add its quadrilateral diagonal as a new edge.

    The two purple faces of e merge; under the cross-face clause the face
    holding the blue triangle of the convex pair is recolored first so the
    flip runs in the red layer.  The purple edges of the up-to-four
    triangles that contained e are re-enqueued (only their flippability can
    change).
    """
    if e not in state.purple or e in state.hull_edges:
        raise ValueError(f"{e} is not a flippable purple edge")
    cl = _clause(state, e)
    if cl is None:
        raise ValueError(f"{e} is not colorblind flippable")
    _flip(state, e, cl)
    return state


def _flip(state: MaximalState, e: Edge, cl: tuple[str, int]) -> None:
    """apply_flip's body for a purple edge whose clause `cl` is known."""
    pts = state.points.points
    faces = state.faces
    a, b = e
    wl, wr = state.side_walk[e]
    left, right = state.apex[e]

    # Both layers' triangles on each side, whatever the parities.
    neighborhood: set[Edge] = set()
    for c in left:
        neighborhood.add(edge(a, c))
        neighborhood.add(edge(c, b))
    for d in right:
        neighborhood.add(edge(b, d))
        neighborhood.add(edge(d, a))

    recolored: int | None = None
    if cl[0] == "cross":
        recolored = wr if cl[1] else wl
        faces.flip_component(recolored)
        layer = RED
    else:
        layer = RED if cl[0] == "red" else BLUE

    root_l, par_l = faces.find(wl)
    root_r, par_r = faces.find(wr)
    par_l ^= faces.flip[root_l]
    par_r ^= faces.flip[root_r]
    cap = left[par_l ^ layer]
    dap = right[par_r ^ layer]
    f = edge(cap, dap)
    if f in state.edges:
        raise GeometryError(f"flip target {f} already present")

    # union() keeps every parity, so wl keeps par_l in the merged face.
    faces.union(wl, wr)
    state.chord_anchor[e] = wl
    state.chord_color0[e] = (1 - layer) ^ par_l
    state.chord_anchor[f] = wl
    state.chord_color0[f] = layer ^ par_l
    state.edges.add(f)
    state.purple.discard(e)

    for u, w, old, new in (
        (a, cap, b, dap),
        (cap, b, a, dap),
        (b, dap, a, cap),
        (dap, a, b, cap),
    ):
        rim = edge(u, w)
        entry = state.apex.get(rim)
        if entry is None:
            continue  # rim edge is a chord; chords carry no apex storage
        s = 0 if cross(pts[rim[0]], pts[rim[1]], pts[old]) > 0 else 1
        slot = faces.parity(state.side_walk[rim][s]) ^ layer
        if entry[s][slot] != old:
            raise GeometryError(f"apex bookkeeping mismatch at {rim}")
        entry[s][slot] = new

    del state.apex[e]
    del state.side_walk[e]

    for g2 in sorted(neighborhood):
        if g2 in state.purple and g2 not in state.hull_edges:
            state.queue.append(g2)

    if state.trace is not None:
        state.trace.append(FlipRecord(e, cl[0], recolored, f, (root_l, root_r)))


def certify_maximal(state: MaximalState) -> bool:
    """Maximality certificate: no purple non-hull edge is flippable."""
    return all(
        _clause(state, e) is None
        for e in state.purple
        if e not in state.hull_edges
    )


def maximal_augment(
    g: GeometricGraph, *, collect_trace: bool = False
) -> AugmentResult:
    """Extend a biplane graph to a maximal biplane graph.

    Returns the maximal graph together with a disjoint two-layer witness and
    the two (overlapping) triangulations it decomposes into.  Raises
    NotBiplaneError when the input is not biplane, and ValueError when an
    input edge on a relaxed point set has a vertex inside it.
    """
    ps = g.points
    n = len(ps)
    if n < 3:
        # Degenerate: everything fits in one plane layer.
        all_edges = tuple((i, j) for i in range(n) for j in range(i + 1, n))
        graph = GeometricGraph(ps, all_edges)
        deco = BiplaneDecomposition(graph.edges, ())
        return AugmentResult(graph, deco, graph.edges, graph.edges, None, None)
    state = build_state(g, collect_trace=collect_trace)
    queue, purple = state.queue, state.purple
    while queue:
        e = queue.popleft()
        if e not in purple:
            continue
        cl = _clause(state, e)
        if cl is not None:
            _flip(state, e, cl)
    if not certify_maximal(state):
        raise GeometryError("queue drained but a flippable purple edge remains")
    # One color lookup per chord splits the chords; each layer is the
    # purple edges plus its chords.
    chords: tuple[list[Edge], list[Edge]] = ([], [])
    color0, parity, anchor = state.chord_color0, state.faces.parity, state.chord_anchor
    for e in anchor:
        chords[color0[e] ^ parity(anchor[e])].append(e)
    shared = sorted(purple)
    blue_chords = sorted(chords[BLUE])
    red = tuple(sorted(shared + chords[RED]))
    blue = tuple(sorted(shared + blue_chords))
    layer2 = tuple(blue_chords)
    graph = GeometricGraph(ps, tuple(state.edges))
    deco = BiplaneDecomposition(red, layer2)
    trace = tuple(state.trace) if state.trace is not None else None
    return AugmentResult(graph, deco, red, blue, state, trace)
