"""Augment a biplane graph to a maximal one via colorblind flips.

The state tracks two triangulations (red and blue) sharing the purple edges
P = R intersect B.  Faces of the purple plane graph (S, P) are held in a
quick-find table over the face walks: each walk carries its face's label
and a parity relative to it, and each label a flip bit and a rank.
Flipping a purple edge merges its two faces by `recognition._merge`, the
quick-find merge recognition colors with: union by rank relabels the
walks of the face of lower rank, so a walk is relabeled at most log2 W
times over a run on W walks.  The cross-face flip clause exchanges a
face's red and blue chords by toggling its label's flip bit instead of
relabeling chords.

The edges keep the numbers of the red triangulation's darts: edge k = (a, b),
a < b, has dart 2k = a -> b and dart 2k + 1 = b -> a.  Per dart the state
keeps, in flat lists, the face walk on its left and, in each color
lineage, the apex of the triangle on its left and that triangle's other
two darts; the walk's parity in the face table says which lineage is
currently red.  Per edge it keeps three flags: alive (still purple), hull,
and settled.  The lists start as the two triangulations' own dart lists,
so all flip tests are constant-time, and each flip touches only its
quadrilateral neighborhood, which keeps the whole augmentation
near-linearithmic.

Locality contract: an edge can only BECOME flippable if it lies in one of
the up-to-four triangles containing the flipped edge, so re-enqueueing that
neighborhood suffices.  An edge elsewhere can LOSE cross-face flippability
when the flip merges exactly the two faces it straddles; that direction
never needs a queue update, since stale queue entries are re-tested at pop
time.  Exchanging a face's chord colors changes no edge's flippability.

The work queue is FIFO over edge ids.  Processing order does not affect
maximality of the result, only which maximal graph is produced.  The loop
evaluates a popped edge's clause once: two table reads per side of the
edge give both that side's face and its parity, and the clause found
is handed to the flip, with those faces and parities, instead of being
tested again.  Each candidate quadrilateral costs two signed areas: the
apexes of the two triangles at the edge lie strictly on either side of
it, so only whether their line separates the edge's ends is open.  The
flip reads the sides of its quadrilateral off the triangle lists by index,
and the four whose triangle changes take their new apex and sides from
one another.  The queue runs in sorted edge order: the edges start in it
that way, and a flip re-enqueues its neighbours by their rank.  An edge found
unflippable is marked settled, and every re-enqueue clears the mark; by the
locality contract a settled edge cannot have become flippable, so popping
it again costs no test.  `certify_maximal` re-tests every live purple edge
at the end.

Building the state completes both layers from one sweep of the bare points.
When the two completions are one triangulation, as on empty input, every
edge is purple under the same number in both; otherwise one dict lookup
per blue edge finds the purple edges, and blue's darts are renumbered as
red's.  The purple faces are read off the red triangulation's dart lists:
one clockwise turn around the head of each purple dart finds the dart that
follows it in its face walk, and passes the red chords leaving that vertex
into the face.  The blue chords are placed by the same turns through the
blue dart lists, which only runs when there are blue-only chords.  Neither
needs an angular sort or predicate.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

from .geometry import Edge, PointSet, _typed_eq, edge
from .graphs import GeometricGraph, relaxed_edge_violations
from .recognition import BiplaneDecomposition, NotBiplaneError, _merge, test_biplane
from .triangulation import (
    OUTER,
    CollinearError,
    GeometryError,
    Triangulation,
    complete_layers,
    face_turns,
    trace_face_walks,
)

RED = 0
BLUE = 1


@_typed_eq
class FlipRecord(NamedTuple):
    """One flip: which edge, which clause fired, and what changed.

    `merged_faces` are the labels of the faces left and right of the edge:
    walk ids, picked at each earlier merge by union by rank.
    """

    edge: Edge
    clause: str  # "red" | "blue" | "cross"
    recolored_anchor: int | None
    new_edge: Edge
    merged_faces: tuple[int, int]


class MaximalState:
    """Mutable augmentation state; requires exclusive access while flipping.

    Edges keep their numbers from the red triangulation: `head[d]` is the
    head of dart d, and dart 2k of edge k runs from its lower vertex to its
    higher one.  `rank[k]` is purple edge k's place in sorted edge order,
    the order the queue follows.  `walk[d]` is the face walk left of
    purple dart d.  In each color lineage, `apex[lineage][d]` is the apex
    of the triangle left of d, and `nxt[lineage][d]` and
    `prv[lineage][d]` are its darts after and before d; where such a side
    is a chord, its number is one that is not alive.  The purple faces are
    a table over walk ids: `face[w]` is the label (itself a walk id) of
    walk w's face and `face_par[w]` w's parity relative to it; per label,
    `face_flip[f]` toggles the parity of the whole face and `face_rank[f]`
    is its union-by-rank rank; `face_link[w]` is the next walk of w's
    face, in one circle per face.  The parity of walk w is
    `face_par[w] ^ face_flip[face[w]]`, and it says which lineage is red
    there.  `alive` (still purple; red chords never are), `hull` and
    `settled` (found unflippable, and not re-enqueued since) are per-edge
    flags; `queue` holds edge ids.  Numbers stay fixed: a flipped-away
    edge only loses `alive`.  `chords` maps each chord to (anchor walk,
    color when made); its color is that xor the anchor's parity.
    """

    points: PointSet
    head: list[int]
    rank: list[int]
    alive: bytearray
    hull: bytearray
    settled: bytearray
    face: list[int]
    face_par: list[int]
    face_flip: list[int]
    face_rank: list[int]
    face_link: list[int]
    walk: list[int]
    apex: tuple[list[int], list[int]]
    nxt: tuple[list[int], list[int]]
    prv: tuple[list[int], list[int]]
    chords: dict[Edge, tuple[int, int]]
    trace: list[FlipRecord] | None
    queue: deque[int]
    __slots__ = tuple(__annotations__)

    def __init__(self, *fields: object) -> None:
        # The fields in the order declared above; none is ever rebound.
        for name, value in zip(self.__slots__, fields, strict=True):
            setattr(self, name, value)

    @property
    def purple(self) -> set[Edge]:
        """The edges that are still purple."""
        head = self.head
        return {(head[2 * k + 1], head[2 * k]) for k, live in enumerate(self.alive) if live}

    def layers(self) -> tuple[tuple[Edge, ...], tuple[Edge, ...]]:
        """The red and blue triangulations, each as sorted edges.

        One color lookup per chord splits the chords; each layer is the
        purple edges plus its chords.
        """
        shared = sorted(self.purple)
        split: tuple[list[Edge], list[Edge]] = ([], [])
        face, par, flip = self.face, self.face_par, self.face_flip
        for e, (w, color0) in self.chords.items():
            split[color0 ^ par[w] ^ flip[face[w]]].append(e)
        return tuple(sorted(shared + split[RED])), tuple(sorted(shared + split[BLUE]))


@_typed_eq
class AugmentResult(NamedTuple):
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


def _match_layers(
    t_red: Triangulation, t_blue: Triangulation, key: list[int], n: int
) -> tuple[bytearray, list[int], list[tuple[Edge, int, int]], list[int], list[int]]:
    """Give blue's edges red's numbers.

    Both triangulations have the same number of edges.  One dict lookup
    per blue edge finds the purple edges, which keep their red numbers;
    the blue chords take the red chords' numbers, both in number order, so
    no blue chord is alive.  Returns (alive, purple edges in sorted order,
    chords as (edge, layer, number) in sorted order, blue apex and nxt
    lists renumbered).
    """
    head, bhead = t_red.head, t_blue.head
    m = len(head) // 2
    red_of = dict(zip(key, range(m)))
    alive = bytearray(m)
    num = [0] * m  # blue edge -> red number
    blue_only: list[int] = []
    for s, (lo, hi) in enumerate(zip(bhead[1::2], bhead[::2])):
        r = red_of.get(lo * n + hi)
        if r is None:
            blue_only.append(s)
        else:
            alive[r] = 1
            num[s] = r
    red_only = [r for r in range(m) if not alive[r]]
    for s, r in zip(blue_only, red_only):
        num[s] = r
    order = sorted((r for r in range(m) if alive[r]), key=key.__getitem__)
    chords = sorted(
        [((head[2 * r + 1], head[2 * r]), RED, r) for r in red_only]
        + [((bhead[2 * s + 1], bhead[2 * s]), BLUE, num[s]) for s in blue_only]
    )
    bapex, bnxt = t_blue.apex, t_blue.nxt
    apex = [OUTER] * (2 * m)
    nxt = [0] * (2 * m)
    for c in range(2 * m):
        d = 2 * num[c >> 1] | (c & 1)
        apex[d] = bapex[c]
        x = bnxt[c]
        nxt[d] = 2 * num[x >> 1] | (x & 1)
    return alive, order, chords, apex, nxt


def build_state(
    g: GeometricGraph, *, collect_trace: bool = False
) -> MaximalState:
    """Decompose, complete both layers, and index the purple structure."""
    verdict = test_biplane(g)
    if not isinstance(verdict, BiplaneDecomposition):
        raise NotBiplaneError(verdict)
    ps = g.points
    n = len(ps)
    t_red, t_blue = complete_layers(ps, (verdict.layer1, verdict.layer2))
    head, rapex, rnxt = t_red.head, t_red.apex, t_red.nxt
    m = len(head) // 2
    key = [lo * n + hi for lo, hi in zip(head[1::2], head[::2])]
    if t_blue.head == head:
        # One triangulation under one numbering: every edge is purple.  The
        # two layers' lists are separate copies, so the state takes them.
        alive = bytearray(b"\x01") * m
        order = sorted(range(m), key=key.__getitem__)
        chords: list[tuple[Edge, int, int]] = []
        bapex, bnxt = t_blue.apex, t_blue.nxt
    else:
        alive, order, chords, bapex, bnxt = _match_layers(t_red, t_blue, key, n)

    walk, walks, red_passed = trace_face_walks(rnxt, alive, order)
    # Every vertex of a triangulation has an edge, so a vertex without a
    # purple one needs a chord.
    iso = [-1] * n
    isolated: list[int] = []
    if chords:
        touched = bytearray(n)
        for k in order:
            touched[head[2 * k]] = touched[head[2 * k + 1]] = 1
        isolated = [v for v in range(n) if not touched[v]]
        for i, v in enumerate(isolated):
            iso[v] = len(walks) + i
    hull = bytearray(m)
    d = start = rapex.index(OUTER)
    while True:
        hull[d >> 1] = 1
        d = rnxt[d]
        if d == start:
            break
    rank = [0] * m
    for i, k in enumerate(order):
        rank[k] = i
    nw = len(walks) + len(isolated)
    state = MaximalState(
        ps,
        head,
        rank,
        alive,
        hull,
        bytearray(m),
        list(range(nw)),
        [0] * nw,
        [0] * nw,
        [0] * nw,
        list(range(nw)),
        walk,
        (rapex, bapex),
        (rnxt, bnxt),
        ([rnxt[c] for c in rnxt], [bnxt[c] for c in bnxt]),
        {},
        [] if collect_trace else None,
        deque(k for k in order if not hull[k]),
    )

    # A chord dart leaves its tail into the face of the purple dart whose
    # turn in the chord's layer passed it, or into the tail's slot if no
    # purple edge meets it.
    blue_passed = face_turns(bnxt, alive)[1] if any(c[1] for c in chords) else []
    face = state.face
    for e, layer, k in chords:
        passed = blue_passed if layer else red_passed
        pu, pv = passed[2 * k], passed[2 * k + 1]
        u = walk[pu] if pu >= 0 else iso[e[0]]
        v = walk[pv] if pv >= 0 else iso[e[1]]
        _merge_faces(state, face[u], face[v])
        state.chords[e] = (u, layer)
    return state


def _merge_faces(state: MaximalState, f: int, g: int) -> None:
    """Merge the faces labeled f and g, keeping every walk's parity.

    `_merge` relabels the walks of the face of lower rank, f surviving on
    a tie, and toggles their parities by the two labels' flip bits.
    """
    if f != g:
        x = state.face_flip[f] ^ state.face_flip[g]
        _merge(state.face, state.face_par, state.face_rank, state.face_link, f, g, x)


def _clause(
    state: MaximalState, k: int
) -> tuple[str, int, int, int, int, int] | None:
    """Which colorblind-flip clause applies to purple edge k, if any.

    Returns (clause, side, face_l, par_l, face_r, par_r) or None.  The
    clause and side are ("red", -1), ("blue", -1), or ("cross", side) where
    `side` is the side whose face holds the blue triangle of the convex pair
    (the face that gets recolored so the flip can run in the red layer).
    The face labels and parities are those of the walks left and right of
    the edge as the flip will find them: under the cross clause the
    recolored side's parity is already flipped.
    """
    # Each side's walk indexes its face label and parity; the parity picks
    # which lineage's apex is red.
    face, par, flip = state.face, state.face_par, state.face_flip
    d = 2 * k
    wl, wr = state.walk[d], state.walk[d + 1]
    face_l, face_r = face[wl], face[wr]
    par_l = par[wl] ^ flip[face_l]
    par_r = par[wr] ^ flip[face_r]
    apex = state.apex
    pts = state.points.points
    ax, ay = pts[state.head[d + 1]]
    bx, by = pts[state.head[d]]
    # Each test asks whether the line through an apex l left of a -> b and
    # an apex r right of it separates a from b, in two signed areas written
    # out because the flip loop runs it once per candidate quadrilateral.
    # Both triangles are non-degenerate, so l is strictly left and r
    # strictly right, and the open segments ab and lr cross iff the line
    # l -> r separates a from b.  Then cross(l, r, b) - cross(l, r, a) > 0,
    # so a separating line has a on its right and b on its left.
    rlx, rly = pts[apex[par_l][d]]
    rrx, rry = pts[apex[par_r][d + 1]]
    ux, uy = rrx - rlx, rry - rly
    if ux * (ay - rly) - uy * (ax - rlx) < 0 < ux * (by - rly) - uy * (bx - rlx):
        return ("red", -1, face_l, par_l, face_r, par_r)
    blx, bly = pts[apex[par_l ^ 1][d]]
    brx, bry = pts[apex[par_r ^ 1][d + 1]]
    ux, uy = brx - blx, bry - bly
    if ux * (ay - bly) - uy * (ax - blx) < 0 < ux * (by - bly) - uy * (bx - blx):
        return ("blue", -1, face_l, par_l, face_r, par_r)
    if face_l != face_r:
        ux, uy = brx - rlx, bry - rly
        if ux * (ay - rly) - uy * (ax - rlx) < 0 < ux * (by - rly) - uy * (bx - rlx):
            return ("cross", 1, face_l, par_l, face_r, par_r ^ 1)
        ux, uy = rrx - blx, rry - bly
        if ux * (ay - bly) - uy * (ax - blx) < 0 < ux * (by - bly) - uy * (bx - blx):
            return ("cross", 0, face_l, par_l ^ 1, face_r, par_r)
    return None


def _flip(state: MaximalState, k: int, cl: tuple[str, int, int, int, int, int]) -> None:
    """Flip purple edge k, whose clause `cl` from `_clause` is known: add its
    quadrilateral diagonal as a new edge.

    The two purple faces of the edge merge; under the cross-face clause the
    face holding the blue triangle of the convex pair is recolored first so
    the flip runs in the red layer.  The purple edges of the up-to-four
    triangles that contained the edge are re-enqueued (only their
    flippability can change) and lose their settled mark.
    """
    walk, apex, nxt, prv, alive = state.walk, state.apex, state.nxt, state.prv, state.alive
    face, par, flip = state.face, state.face_par, state.face_flip
    kind, side, face_l, par_l, face_r, par_r = cl
    head = state.head
    d = 2 * k
    e = (head[d + 1], head[d])
    a, b = e

    # The sides of both lineages' triangles at the edge, per lineage:
    # b -> c, c -> a on the left and a -> z, z -> b on the right.
    nl = (nxt[0][d], nxt[1][d])
    pl = (prv[0][d], prv[1][d])
    nr = (nxt[0][d + 1], nxt[1][d + 1])
    pr = (prv[0][d + 1], prv[1][d + 1])

    recolored: int | None = None
    if kind == "cross":
        recolored = walk[d + side]
        flip[face_r if side else face_l] ^= 1
        layer = RED
    else:
        layer = RED if kind == "red" else BLUE

    ll, lr = par_l ^ layer, par_r ^ layer
    cap = apex[ll][d]
    dap = apex[lr][d + 1]
    f = edge(cap, dap)
    chords = state.chords
    if f in chords:
        raise GeometryError(f"flip target {f} already present")

    # The merge keeps every walk's parity, so the left walk keeps par_l in
    # the merged face.
    wl = walk[d]
    _merge_faces(state, face_l, face_r)
    chords[e] = (wl, (1 - layer) ^ par_l)
    chords[f] = (wl, layer ^ par_l)
    alive[k] = 0

    # The rim darts facing the quad a, dap, b, cap, which are the sides of
    # the `layer` triangles at the edge, trade their triangles in `layer`
    # (see Triangulation.flip): for each, its apex before and after, and
    # its darts after and before in the new triangle, d (no longer alive)
    # standing for the new edge.
    x_bc, x_ca, x_ad, x_db = nl[ll], pl[ll], nr[lr], pr[lr]
    for x, old, new, x_nxt, x_prv in (
        (x_ca, b, dap, x_ad, d),
        (x_bc, a, dap, d, x_db),
        (x_ad, b, cap, d, x_ca),
        (x_db, a, cap, x_bc, d),
    ):
        if not alive[x >> 1]:
            continue  # rim edge is a chord; chords carry no apex storage
        w = walk[x]
        lineage = par[w] ^ flip[face[w]] ^ layer
        if apex[lineage][x] != old:
            raise GeometryError(f"apex bookkeeping mismatch at {edge(head[x], head[x ^ 1])}")
        apex[lineage][x] = new
        nxt[lineage][x] = x_nxt
        prv[lineage][x] = x_prv

    hull, settled, queue = state.hull, state.settled, state.queue
    ids = {x >> 1 for sides in (nl, pl, nr, pr) for x in sides}
    for j in sorted(ids, key=state.rank.__getitem__):
        if alive[j] and not hull[j]:
            queue.append(j)
            settled[j] = 0

    if state.trace is not None:
        state.trace.append(FlipRecord(e, kind, recolored, f, (face_l, face_r)))


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
    layer2 = tuple(e for e in blue if e in state.chords)
    graph = GeometricGraph(g.points, red + layer2)
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
