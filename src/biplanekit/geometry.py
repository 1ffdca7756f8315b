"""Exact integer geometry: predicates, hulls, and validated point sets.

Every predicate here works on plain Python integers, so all signs are exact.
Point coordinates are capped at |x|, |y| <= 2**30 when a PointSet is built;
with that bound a 3x3 orientation determinant always fits in double-width
integer arithmetic, which matters for any port of these routines to a
fixed-width backend (Python itself never overflows).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import gcd
from typing import Iterable, NamedTuple, Sequence

COORD_LIMIT = 2**30

Edge = tuple[int, int]


class Strictness(Enum):
    """General-position contract carried by a point set.

    STRICT forbids any three collinear points.  RELAXED only requires
    distinct points; graphs on relaxed sets must separately guarantee that
    no vertex lies in the open interior of an edge.
    """

    STRICT = "strict"
    RELAXED = "relaxed"


class Point(NamedTuple):
    x: int
    y: int


def cross(o: Point, a: Point, b: Point) -> int:
    """Signed double area of triangle (o, a, b)."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def edge(a: int, b: int) -> Edge:
    """Canonical unordered vertex pair (a < b)."""
    if a == b:
        raise ValueError(f"degenerate edge ({a}, {a})")
    return (a, b) if a < b else (b, a)


def segments_cross(a: Point, b: Point, c: Point, d: Point) -> bool:
    """Do the OPEN segments ab and cd share a point?

    Segments meeting only at shared endpoints do not cross.  Collinear
    segments whose open intervals overlap do cross.
    """
    d1 = cross(c, d, a)
    d2 = cross(c, d, b)
    d3 = cross(a, b, c)
    d4 = cross(a, b, d)
    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and (
        (d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)
    ):
        return True
    if d1 == 0 and d2 == 0:
        # All four points on one line: compare open 1D intervals.
        if a[0] != b[0] or c[0] != d[0]:
            a1, b1 = sorted((a[0], b[0]))
            c1, d1_ = sorted((c[0], d[0]))
        else:
            a1, b1 = sorted((a[1], b[1]))
            c1, d1_ = sorted((c[1], d[1]))
        return max(a1, c1) < min(b1, d1_)
    return False


def proper_cross(a: Point, b: Point, c: Point, d: Point) -> bool:
    """Open segments ab and cd cross in exactly one interior point."""
    # cross(a, b, c), cross(a, b, d), cross(c, d, a), cross(c, d, b), written
    # out because the flip loop calls this once per test.
    ax, ay = a
    bx, by = b
    cx, cy = c
    dx, dy = d
    ex, ey = bx - ax, by - ay
    s1 = ex * (cy - ay) - ey * (cx - ax)
    s2 = ex * (dy - ay) - ey * (dx - ax)
    if s1 == 0 or s2 == 0 or (s1 > 0) == (s2 > 0):
        return False
    fx, fy = dx - cx, dy - cy
    s3 = fx * (ay - cy) - fy * (ax - cx)
    s4 = fx * (by - cy) - fy * (bx - cx)
    return s3 != 0 and s4 != 0 and (s3 > 0) != (s4 > 0)


def point_in_triangle_strict(p: Point, a: Point, b: Point, c: Point) -> bool:
    """Is p strictly inside triangle abc (either orientation)?"""
    s1 = cross(a, b, p)
    s2 = cross(b, c, p)
    s3 = cross(c, a, p)
    return (s1 > 0 and s2 > 0 and s3 > 0) or (s1 < 0 and s2 < 0 and s3 < 0)


@dataclass(frozen=True)
class PointSet:
    """Ordered, validated set of integer points.

    Immutable; safe to share between threads.  Distinctness and the
    coordinate cap are enforced at construction.  Collinearity checks are
    deferred to validate() because they are quadratic.
    """

    points: tuple[Point, ...]
    strictness: Strictness = Strictness.STRICT

    def __post_init__(self) -> None:
        pts = tuple(Point(int(p[0]), int(p[1])) for p in self.points)
        object.__setattr__(self, "points", pts)
        for i, p in enumerate(pts):
            if abs(p.x) > COORD_LIMIT or abs(p.y) > COORD_LIMIT:
                raise ValueError(
                    f"point {i} = ({p.x}, {p.y}) exceeds |coord| <= 2**30"
                )
        if len(set(pts)) != len(pts):
            seen: dict[Point, int] = {}
            for i, p in enumerate(pts):
                if p in seen:
                    raise ValueError(f"duplicate point at indices {seen[p]} and {i}")
                seen[p] = i

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, i: int) -> Point:
        return self.points[i]

    @property
    def n(self) -> int:
        return len(self.points)

    @classmethod
    def from_coords(
        cls,
        coords: Iterable[Sequence[int]],
        strictness: Strictness = Strictness.STRICT,
    ) -> "PointSet":
        return cls(tuple(Point(int(c[0]), int(c[1])) for c in coords), strictness)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    collinear_triple: tuple[int, int, int] | None = None
    message: str = "ok"


def validate(ps: PointSet) -> ValidationReport:
    """Check the general-position contract of a point set.

    Under STRICT this reports the lexicographically first collinear triple
    (i, j, k), i < j < k, in O(n^2) time: for each i in turn it groups the
    later points by their reduced direction from i, and the first i with a
    group of two or more names the first such group's two smallest
    members.  Under RELAXED only distinctness applies, which the
    constructor already guarantees.
    """
    if ps.strictness is Strictness.RELAXED:
        return ValidationReport(True)
    pts = ps.points
    n = len(pts)
    for i in range(n):
        xi, yi = pts[i]
        groups: dict[tuple[int, int], list[int]] = {}
        for j in range(i + 1, n):
            dx, dy = pts[j][0] - xi, pts[j][1] - yi
            g = gcd(dx, dy)
            if dx < 0 or (dx == 0 and dy < 0):
                g = -g
            groups.setdefault((dx // g, dy // g), []).append(j)
        # Groups come in the order of their smallest members.
        for grp in groups.values():
            if len(grp) > 1:
                j, k = grp[0], grp[1]
                return ValidationReport(False, (i, j, k), f"collinear points {i}, {j}, {k}")
    return ValidationReport(True)


def convex_hull(ps: PointSet) -> list[int]:
    """Weak convex hull vertex indices in counterclockwise order.

    Points lying on the boundary between corners are kept, in boundary
    order, so that 3n - h - 3 matches triangulations of relaxed sets; a
    STRICT set has no such points, so its hull is the usual strict hull.
    """
    pts = ps.points
    n = len(pts)
    if n < 3:
        raise ValueError("convex hull needs at least 3 points")
    order = sorted(range(n), key=lambda i: pts[i])

    def build(seq: Sequence[int]) -> list[int]:
        chain: list[int] = []
        for i in seq:
            while len(chain) >= 2:
                c = cross(pts[chain[-2]], pts[chain[-1]], pts[i])
                if c < 0:
                    chain.pop()
                else:
                    break
            chain.append(i)
        return chain

    lower = build(order)
    upper = build(order[::-1])
    hull = lower[:-1] + upper[:-1]
    if len(set(hull)) < 3 or all(
        cross(pts[hull[0]], pts[hull[1]], pts[h]) == 0 for h in hull[2:]
    ):
        raise ValueError("all points are collinear; hull is degenerate")
    return hull
