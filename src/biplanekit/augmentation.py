"""Augment a biplane graph to a maximal one via colorblind flips.

The state tracks two triangulations (red and blue) sharing the purple edges
P = R intersect B.  Faces of the purple plane graph (S, P) are held in a
parity union-find: flipping a purple edge merges its two faces, and the
cross-face flip clause exchanges a face's red and blue chords by toggling
one parity bit instead of relabeling chords.

Both layers use the dart map of `triangulation`: a side of an edge is a
dart, and the face or triangle on that side is a lookup keyed by it, never
an orientation test.  Per purple dart (u, v) the state stores the face
walk left of u -> v and the apex of the triangle left of u -> v in each
color lineage; the parity bit of that walk's face says which stored slot
is currently red.  All flip tests are therefore constant-time, and each
flip touches only its quadrilateral neighborhood, which keeps the whole
augmentation near-linearithmic.

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
and reads the purple rotation system off the red triangulation's dart map,
so indexing the purple faces needs no angular sort.  Chords need no
angular predicate either: walking counterclockwise around a chord's
endpoint in the chord's own layer, the last purple dart passed names the
face the chord lies in.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .geometry import Edge, PointSet, edge, proper_cross
from .graphs import GeometricGraph
from .recognition import BiplaneDecomposition, BiplaneResult, test_biplane
from .triangulation import (
    CollinearError,
    Dart,
    GeometryError,
    Triangulation,
    complete_layers,
    trace_face_walks,
)
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


@dataclass(slots=True, eq=False, repr=False)
class MaximalState:
    """Mutable augmentation state; requires exclusive access while flipping.

    `walk_of` and `apex` are keyed by purple dart: the face walk left of
    u -> v, and the apexes left of u -> v in the two color lineages.
    """

    points: PointSet
    edges: set[Edge]
    purple: set[Edge]
    hull_edges: frozenset[Edge]
    faces: ParityDSU
    walk_of: dict[Dart, int]
    apex: dict[Dart, list[int | None]]
    chord_anchor: dict[Edge, int]
    chord_color0: dict[Edge, int]
    trace: list[FlipRecord] | None
    queue: deque[Edge] = field(default_factory=deque)

    def layers(self) -> tuple[tuple[Edge, ...], tuple[Edge, ...]]:
        """The red and blue triangulations, each as sorted edges.

        One color lookup per chord splits the chords; each layer is the
        purple edges plus its chords.
        """
        shared = sorted(self.purple)
        layers: tuple[list[Edge], list[Edge]] = (list(shared), shared)
        color0, parity, anchor = self.chord_color0, self.faces.parity, self.chord_anchor
        for e in anchor:
            layers[color0[e] ^ parity(anchor[e])].append(e)
        return tuple(sorted(layers[RED])), tuple(sorted(layers[BLUE]))


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


def _chord_walks(
    t: Triangulation, v: int, u0: int, walk_of: dict[tuple[int, int], int], iso: int | None
) -> dict[int, int]:
    """Face walk of each chord of t at v, keyed by the chord's other end.

    Counterclockwise around v, a chord leaves v into the purple face left
    of the last purple dart passed before it; `iso` stands in for that
    face when no purple edge meets v.
    """
    ring = t.ring(v, u0)
    last = next((walk_of[(v, u)] for u in reversed(ring) if (v, u) in walk_of), iso)
    walks: dict[int, int] = {}
    for u in ring:
        if (v, u) in walk_of:
            last = walk_of[(v, u)]
        else:
            walks[u] = last
    return walks


def build_state(
    g: GeometricGraph, *, collect_trace: bool = False
) -> MaximalState:
    """Decompose, complete both layers, and index the purple structure."""
    verdict = test_biplane(g)
    if not isinstance(verdict, BiplaneDecomposition):
        raise NotBiplaneError(verdict)
    ps = g.points
    t_red, t_blue = complete_layers(ps, (verdict.layer1, verdict.layer2))
    red_set = t_red.edge_set()
    blue_set = t_blue.edge_set()
    purple = set(red_set & blue_set)
    edges = set(red_set | blue_set)

    purple_sorted = sorted(purple)
    rot = t_red.rotation(purple_sorted)
    walk_of, walks = trace_face_walks(rot, purple_sorted)
    isolated = [v for v in range(len(ps)) if v not in rot]
    iso_anchor = {v: len(walks) + i for i, v in enumerate(isolated)}
    faces = ParityDSU(len(walks) + len(isolated))

    red_left, blue_left = t_red.left, t_blue.left
    apex = {d: [red_left[d], blue_left[d]] for d in walk_of}

    # Each chord endpoint's ring is walked once per layer, and only there:
    # with no chords (empty input) no ring is walked at all.
    layers = (t_red, t_blue)
    rings: dict[tuple[int, int], dict[int, int]] = {}
    chord_anchor: dict[Edge, int] = {}
    chord_color0: dict[Edge, int] = {}
    for e in sorted(edges - purple):
        layer = RED if e in red_set else BLUE
        anchors = []
        for v, u in (e, e[::-1]):
            at_v = rings.get((layer, v))
            if at_v is None:
                at_v = _chord_walks(layers[layer], v, u, walk_of, iso_anchor.get(v))
                rings[(layer, v)] = at_v
            anchors.append(at_v[u])
        faces.union(*anchors)
        chord_anchor[e] = anchors[0]
        chord_color0[e] = layer

    state = MaximalState(
        ps,
        edges,
        purple,
        t_red.hull_edges(),
        faces,
        walk_of,
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
    # picks which stored apex is red.
    faces = state.faces
    a, b = e
    rev = (b, a)
    root_l, par_l = faces.find(state.walk_of[e])
    root_r, par_r = faces.find(state.walk_of[rev])
    par_l ^= faces.flip[root_l]
    par_r ^= faces.flip[root_r]
    left, right = state.apex[e], state.apex[rev]
    pts = state.points.points
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


def _flip(state: MaximalState, e: Edge, cl: tuple[str, int]) -> None:
    """Flip purple edge e, whose clause `cl` is known: add its quadrilateral
    diagonal as a new edge.

    The two purple faces of e merge; under the cross-face clause the face
    holding the blue triangle of the convex pair is recolored first so the
    flip runs in the red layer.  The purple edges of the up-to-four
    triangles that contained e are re-enqueued (only their flippability can
    change).
    """
    faces = state.faces
    walk_of, apex = state.walk_of, state.apex
    a, b = e
    rev = (b, a)
    wl, wr = walk_of[e], walk_of[rev]
    left, right = apex[e], apex[rev]

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

    # The rim darts facing the quad a, dap, b, cap trade their apex in
    # `layer` (see Triangulation._flip_in_place).
    for d, old, new in (
        ((cap, a), b, dap),
        ((b, cap), a, dap),
        ((dap, b), a, cap),
        ((a, dap), b, cap),
    ):
        entry = apex.get(d)
        if entry is None:
            continue  # rim edge is a chord; chords carry no apex storage
        slot = faces.parity(walk_of[d]) ^ layer
        if entry[slot] != old:
            raise GeometryError(f"apex bookkeeping mismatch at {edge(*d)}")
        entry[slot] = new

    del apex[e], apex[rev], walk_of[e], walk_of[rev]

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
    the two (overlapping) triangulations it decomposes into.  Points that
    all lie on one line, fewer than three included, span no triangle: the
    maximal graph is then the path through them in sorted order, and both
    layers equal it.  Raises NotBiplaneError when the input is not biplane,
    and ValueError when an input edge has a vertex inside it on a relaxed
    point set, or skips a point of the path.
    """
    try:
        state = build_state(g, collect_trace=collect_trace)
    except CollinearError:
        return _path_augment(g)
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
    red, blue = state.layers()
    layer2 = tuple(e for e in blue if e not in purple)
    graph = GeometricGraph(g.points, tuple(state.edges))
    deco = BiplaneDecomposition(red, layer2)
    trace = tuple(state.trace) if state.trace is not None else None
    return AugmentResult(graph, deco, red, blue, state, trace)


def _path_augment(g: GeometricGraph) -> AugmentResult:
    """maximal_augment's result on points that all lie on one line."""
    pts = g.points.points
    order = sorted(range(len(pts)), key=pts.__getitem__)
    rank = {v: i for i, v in enumerate(order)}
    for a, b in g.edges:
        i, j = sorted((rank[a], rank[b]))
        if j > i + 1:
            raise ValueError(f"edge {(a, b)} passes through vertex {min(order[i + 1 : j])}")
    path = GeometricGraph(g.points, tuple(zip(order, order[1:])))
    deco = BiplaneDecomposition(path.edges, ())
    return AugmentResult(path, deco, path.edges, path.edges, None, None)
