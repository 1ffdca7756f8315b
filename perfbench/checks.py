"""Output checks for the benchmark, written without biplanekit code.

Every predicate here is exact integer arithmetic on plain coordinate
tuples, so a defect in the library's own predicates cannot make a wrong
output pass.  Each check returns None when the output is correct and a
one-line reason otherwise.
"""

from __future__ import annotations

import math
from collections import deque

Coords = list[tuple[int, int]]
Edges = list[tuple[int, int]]


def orient(p, q, r) -> int:
    return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])


def cross_properly(p, q, r, s) -> bool:
    """Open segments pq and rs meet in one point interior to both."""
    d1, d2 = orient(r, s, p), orient(r, s, q)
    d3, d4 = orient(p, q, r), orient(p, q, s)
    return d1 * d2 < 0 and d3 * d4 < 0


def hull_ccw(pts: Coords) -> list[int]:
    """Strict convex hull, counterclockwise, by the monotone chain."""
    order = sorted(range(len(pts)), key=lambda i: pts[i])

    def chain(seq):
        out: list[int] = []
        for i in seq:
            while len(out) >= 2 and orient(pts[out[-2]], pts[out[-1]], pts[i]) <= 0:
                out.pop()
            out.append(i)
        return out

    return chain(order)[:-1] + chain(order[::-1])[:-1]


def edge_bounds(n: int, h: int) -> tuple[int, int]:
    """README bounds on the size of a maximal biplane graph."""
    lower = max((7 * n + 1) // 2 - h - 5, 3 * n - 6)
    upper = 6 * n - 3 * h - 6
    if n >= 8:
        upper = min(upper, 6 * n - 18)
    return lower, upper


def plane_triangulation_error(pts: Coords, edges: Edges, hull: list[int]) -> str | None:
    """Is `edges` a plane triangulation of all of `pts`?

    Traces the faces of the rotation system.  If every bounded face is a
    counterclockwise triangle and the one other face is the convex hull,
    the straight-line drawing covers the hull exactly once, so no two
    edges cross.  The angular sort may use floats: a misordered pair
    shows up as a clockwise face and fails the check.
    """
    n = len(pts)
    if len(edges) != 3 * n - len(hull) - 3:
        return f"{len(edges)} edges, a triangulation has {3 * n - len(hull) - 3}"
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        nbrs[a].append(b)
        nbrs[b].append(a)
    pos: dict[tuple[int, int], int] = {}
    for v, lst in enumerate(nbrs):
        if not lst:
            return f"vertex {v} has no edge"
        x, y = pts[v]
        lst.sort(key=lambda u: math.atan2(pts[u][1] - y, pts[u][0] - x))
        for i, u in enumerate(lst):
            pos[(v, u)] = i
    seen: set[tuple[int, int]] = set()
    outer = None
    faces = 0
    for a, b in edges:
        for dart in ((a, b), (b, a)):
            if dart in seen:
                continue
            faces += 1
            walk = []
            u, v = dart
            while (u, v) not in seen:
                seen.add((u, v))
                walk.append(u)
                r = nbrs[v]
                u, v = v, r[(pos[(v, u)] - 1) % len(r)]
            if len(walk) == 3 and orient(*(pts[i] for i in walk)) > 0:
                continue
            if outer is not None:
                return f"second non-triangular face at {walk[:4]}"
            outer = walk
    if n - len(edges) + faces != 2:
        return "Euler characteristic is not 2"
    if outer is None or sorted(outer) != sorted(hull):
        return "outer face is not the convex hull"
    k = outer.index(hull[0])
    if outer[k:] + outer[:k] != [hull[0]] + hull[:0:-1]:
        return "outer face does not run clockwise along the hull"
    return None


def laminar_error(order: dict[int, int], layer: Edges) -> str | None:
    """Chords of a convex polygon, given by hull position, pairwise non-crossing."""
    spans = sorted(
        (min(order[a], order[b]), -max(order[a], order[b])) for a, b in layer
    )
    stack: list[int] = []
    for lo, neg_hi in spans:
        hi = -neg_hi
        while stack and stack[-1] <= lo:
            stack.pop()
        if stack and hi > stack[-1]:
            return f"layer chords cross at hull positions ({lo}, {hi})"
        stack.append(hi)
    return None


def odd_cycle_error(pts: Coords, edge_set: set, cycle: Edges) -> str | None:
    """Odd closed walk of input edges in which consecutive edges cross."""
    if len(cycle) < 3 or len(cycle) % 2 == 0:
        return f"witness has length {len(cycle)}"
    for i, e in enumerate(cycle):
        if e not in edge_set:
            return f"witness edge {e} is not an input edge"
        f = cycle[(i + 1) % len(cycle)]
        if not cross_properly(pts[e[0]], pts[e[1]], pts[f[0]], pts[f[1]]):
            return f"witness edges {e} and {f} do not cross"
    return None


def disconnects(n: int, edges: Edges, cut: tuple[int, ...]) -> bool:
    """Does removing the vertices of `cut` leave a disconnected graph?"""
    removed = set(cut)
    keep = [v for v in range(n) if v not in removed]
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        if a not in removed and b not in removed:
            adj[a].append(b)
            adj[b].append(a)
    seen = {keep[0]}
    queue = deque([keep[0]])
    while queue:
        for w in adj[queue.popleft()]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) < len(keep)
