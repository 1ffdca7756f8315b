"""Augment a biplane graph to a maximal one via colorblind flips.

The state tracks two triangulations (red and blue) sharing the purple edges
P = R intersect B.  Faces of the purple plane graph (S, P) are held in a
parity union-find: flipping a purple edge merges its two faces, and the
cross-face flip clause exchanges a face's red and blue chords by toggling
one parity bit instead of relabeling chords.

The purple edges are numbered once, in sorted order: edge k = (a, b), a < b,
has dart 2k = a -> b and dart 2k + 1 = b -> a.  Per dart the state keeps, in
flat lists, the face walk on its left and the apex of the triangle on its
left in each color lineage; the parity bit of that walk's face says which
lineage is currently red.  Per edge it keeps three flags: alive (still
purple), hull, and settled.  The apexes come from the dart maps of
`triangulation`, so all flip tests are constant-time, and each flip
touches only its quadrilateral neighborhood, which keeps the whole
augmentation near-linearithmic.

Locality contract: an edge can only BECOME flippable if it lies in one of
the up-to-four triangles containing the flipped edge, so re-enqueueing that
neighborhood suffices.  An edge elsewhere can LOSE cross-face flippability
when the flip merges exactly the two faces it straddles; that direction
never needs a queue update, since stale queue entries are re-tested at pop
time.  Exchanging a face's chord colors changes no edge's flippability.

The work queue is FIFO over edge ids.  Processing order does not affect
maximality of the result, only which maximal graph is produced.  The loop
evaluates a popped edge's clause once: one union-find lookup per side of
the edge gives both that side's face and its parity, and the clause found
is handed to the flip instead of being tested again.  An edge found
unflippable is marked settled, and every re-enqueue clears the mark; by the
locality contract a settled edge cannot have become flippable, so popping
it again costs no test.  `certify_maximal` re-tests every live purple edge
at the end.

Building the state completes both layers from one sweep of the bare points
and reads the purple faces off the red triangulation's dart map: one
clockwise turn around the head of each purple dart finds the dart that
follows it in its face walk, and passes the red chords leaving that vertex
into the face.  The blue chords are placed by the same turns through the
blue dart map, which only runs when there are blue-only chords.  Neither
needs an angular sort or predicate.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .geometry import Edge, PointSet, edge, proper_cross
from .graphs import GeometricGraph, relaxed_edge_violations
from .recognition import BiplaneDecomposition, BiplaneResult, test_biplane
from .triangulation import (
    CollinearError,
    Dart,
    GeometryError,
    complete_layers,
    face_turns,
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

    `ends[k]` is purple edge k, and `dart_of` maps each of its darts (u, v)
    to its number, 2k or 2k + 1.  `walk[d]` is the face walk left of dart
    d, and `apex[lineage][d]` the apex left of d in that color lineage.
    `alive` (still purple), `hull` and `settled` (found unflippable, and not
    re-enqueued since) are per-edge flags; `queue` holds edge ids.  Numbers
    stay fixed: a flipped-away edge only loses `alive`.
    """

    points: PointSet
    edges: set[Edge]
    ends: list[Edge]
    dart_of: dict[Dart, int]
    alive: bytearray
    hull: bytearray
    settled: bytearray
    faces: ParityDSU
    walk: list[int]
    apex: tuple[list[int | None], list[int | None]]
    chord_anchor: dict[Edge, int]
    chord_color0: dict[Edge, int]
    trace: list[FlipRecord] | None
    queue: deque[int]

    @property
    def purple(self) -> set[Edge]:
        """The edges that are still purple."""
        return {e for e, live in zip(self.ends, self.alive) if live}

    def layers(self) -> tuple[tuple[Edge, ...], tuple[Edge, ...]]:
        """The red and blue triangulations, each as sorted edges.

        One color lookup per chord splits the chords; each layer is the
        purple edges plus its chords.
        """
        shared = [e for e, live in zip(self.ends, self.alive) if live]
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

    ends = sorted(red_set & blue_set)
    dart_of, walk, walks, red_passed = trace_face_walks(t_red, ends)
    touched = {v for e in ends for v in e}
    isolated = [v for v in range(len(ps)) if v not in touched]
    iso_anchor = {v: len(walks) + i for i, v in enumerate(isolated)}
    faces = ParityDSU(len(walks) + len(isolated))
    red_left, blue_left = t_red.left, t_blue.left
    apex = ([red_left[d] for d in dart_of], [blue_left[d] for d in dart_of])

    # A chord dart v -> u leaves v into the face of the purple dart whose turn
    # in the chord's layer passed it, or into v's slot if no purple edge meets v.
    blue_passed = face_turns(t_blue, dart_of)[1] if blue_set - red_set else {}
    chord_anchor: dict[Edge, int] = {}
    chord_color0: dict[Edge, int] = {}
    for e in sorted(red_set ^ blue_set):
        layer = RED if e in red_set else BLUE
        passed = (red_passed, blue_passed)[layer]
        anchors = [
            walk[passed[d]] if d in passed else iso_anchor[d[0]] for d in (e, e[::-1])
        ]
        faces.union(*anchors)
        chord_anchor[e] = anchors[0]
        chord_color0[e] = layer

    hull_edges = t_red.hull_edges()
    hull = bytearray(e in hull_edges for e in ends)
    return MaximalState(
        ps,
        set(red_set | blue_set),
        ends,
        dart_of,
        bytearray(b"\x01") * len(ends),
        hull,
        bytearray(len(ends)),
        faces,
        walk,
        apex,
        chord_anchor,
        chord_color0,
        [] if collect_trace else None,
        deque(k for k, h in enumerate(hull) if not h),
    )


def _clause(state: MaximalState, k: int) -> tuple[str, int] | None:
    """Which colorblind-flip clause applies to purple edge k, if any.

    Returns ("red", -1), ("blue", -1), or ("cross", side) where `side` is
    the side whose face holds the blue triangle of the convex pair (the
    face that gets recolored so the flip can run in the red layer).
    """
    # One find per side gives both the face root and its parity; the parity
    # picks which lineage's apex is red.
    faces = state.faces
    d = 2 * k
    root_l, par_l = faces.find(state.walk[d])
    root_r, par_r = faces.find(state.walk[d + 1])
    par_l ^= faces.flip[root_l]
    par_r ^= faces.flip[root_r]
    apex = state.apex
    pts = state.points.points
    a, b = state.ends[k]
    pa, pb = pts[a], pts[b]
    prl = pts[apex[par_l][d]]
    prr = pts[apex[par_r][d + 1]]
    if proper_cross(pa, pb, prl, prr):
        return ("red", -1)
    pbl = pts[apex[par_l ^ 1][d]]
    pbr = pts[apex[par_r ^ 1][d + 1]]
    if proper_cross(pa, pb, pbl, pbr):
        return ("blue", -1)
    if root_l != root_r:
        if proper_cross(pa, pb, prl, pbr):
            return ("cross", 1)
        if proper_cross(pa, pb, pbl, prr):
            return ("cross", 0)
    return None


def _flip(state: MaximalState, k: int, cl: tuple[str, int]) -> None:
    """Flip purple edge k, whose clause `cl` is known: add its quadrilateral
    diagonal as a new edge.

    The two purple faces of the edge merge; under the cross-face clause the
    face holding the blue triangle of the convex pair is recolored first so
    the flip runs in the red layer.  The purple edges of the up-to-four
    triangles that contained the edge are re-enqueued (only their
    flippability can change) and lose their settled mark.
    """
    faces = state.faces
    walk, apex, dart_of, alive = state.walk, state.apex, state.dart_of, state.alive
    d = 2 * k
    e = state.ends[k]
    a, b = e
    wl, wr = walk[d], walk[d + 1]

    # Both layers' triangles on each side, whatever the parities.
    neighborhood: list[Dart] = []
    for lineage in apex:
        c, z = lineage[d], lineage[d + 1]
        neighborhood += ((a, c), (c, b), (b, z), (z, a))

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
    cap = apex[par_l ^ layer][d]
    dap = apex[par_r ^ layer][d + 1]
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
    alive[k] = 0

    # The rim darts facing the quad a, dap, b, cap trade their apex in
    # `layer` (see Triangulation._flip_in_place).
    for rd, old, new in (
        ((cap, a), b, dap),
        ((b, cap), a, dap),
        ((dap, b), a, cap),
        ((a, dap), b, cap),
    ):
        x = dart_of.get(rd)
        if x is None or not alive[x >> 1]:
            continue  # rim edge is a chord; chords carry no apex storage
        lineage = apex[faces.parity(walk[x]) ^ layer]
        if lineage[x] != old:
            raise GeometryError(f"apex bookkeeping mismatch at {edge(*rd)}")
        lineage[x] = new

    hull, settled, queue = state.hull, state.settled, state.queue
    ids = {x >> 1 for x in map(dart_of.get, neighborhood) if x is not None}
    for j in sorted(ids):
        if alive[j] and not hull[j]:
            queue.append(j)
            settled[j] = 0

    if state.trace is not None:
        state.trace.append(FlipRecord(e, cl[0], recolored, f, (root_l, root_r)))


def certify_maximal(state: MaximalState) -> bool:
    """Maximality certificate: no purple non-hull edge is flippable."""
    return all(
        _clause(state, k) is None
        for k, (live, h) in enumerate(zip(state.alive, state.hull))
        if live and not h
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
    queue, alive, settled = state.queue, state.alive, state.settled
    while queue:
        k = queue.popleft()
        if not alive[k] or settled[k]:
            continue
        cl = _clause(state, k)
        if cl is None:
            settled[k] = 1
        else:
            _flip(state, k, cl)
    if not certify_maximal(state):
        raise GeometryError("queue drained but a flippable purple edge remains")
    red, blue = state.layers()
    purple = state.purple
    layer2 = tuple(e for e in blue if e not in purple)
    graph = GeometricGraph(g.points, tuple(state.edges))
    deco = BiplaneDecomposition(red, layer2)
    trace = tuple(state.trace) if state.trace is not None else None
    return AugmentResult(graph, deco, red, blue, state, trace)


def _path_augment(g: GeometricGraph) -> AugmentResult:
    """maximal_augment's result on points that all lie on one line."""
    bad = relaxed_edge_violations(g)
    if bad:
        v, e = bad[0]
        raise ValueError(f"edge {e} passes through vertex {v}")
    pts = g.points.points
    order = sorted(range(len(pts)), key=pts.__getitem__)
    path = GeometricGraph(g.points, tuple(zip(order, order[1:])))
    deco = BiplaneDecomposition(path.edges, ())
    return AugmentResult(path, deco, path.edges, path.edges, None, None)
