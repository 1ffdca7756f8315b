"""Exact integer geometry: predicates, hulls, and validated point sets.

Every predicate here works on plain Python integers, so all signs are exact.
Point coordinates are capped at |x|, |y| <= 2**30 when a PointSet is built;
with that bound a 3x3 orientation determinant always fits in double-width
integer arithmetic, which matters for any port of these routines to a
fixed-width backend (Python itself never overflows).  The same cap makes
validate()'s slope key ((yj - yi) << 64) // (xj - xi) exact: lines through
point i with distinct slopes get keys at least 4 apart.
"""

from __future__ import annotations

from enum import Enum
from operator import index
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


def point_in_triangle_strict(p: Point, a: Point, b: Point, c: Point) -> bool:
    """Is p strictly inside triangle abc (either orientation)?"""
    s1 = cross(a, b, p)
    s2 = cross(b, c, p)
    s3 = cross(c, a, p)
    return (s1 > 0 and s2 > 0 and s3 > 0) or (s1 < 0 and s2 < 0 and s3 < 0)


def _typed_eq(cls: type) -> type:
    """Make a NamedTuple class equal only to instances of itself.

    A tuple equals every tuple with equal items, so a verdict would equal
    the bare tuple of its fields or a result of another type with the same
    fields.  The library's result types compare as frozen dataclasses do;
    their hash stays the tuple hash of their fields.
    """
    cls.__eq__ = _same_type_eq  # type: ignore[method-assign]
    cls.__ne__ = _same_type_ne  # type: ignore[method-assign]
    return cls


def _same_type_eq(self: tuple, other: object) -> bool:
    if other.__class__ is self.__class__:
        return tuple.__eq__(self, other)
    # Returning NotImplemented would let a bare tuple compare item by item.
    return False if isinstance(other, tuple) else NotImplemented


def _same_type_ne(self: tuple, other: object) -> bool:
    eq = _same_type_eq(self, other)
    return eq if eq is NotImplemented else not eq


class _Frozen:
    """Base of the immutable __slots__ classes.

    Compares, hashes and prints by the slots, in order, as a frozen
    dataclass does by its fields, and rejects assignment; constructors
    fill the slots through object.__setattr__.  Pickling and copying go
    through the constructor, with the slots as its arguments.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()  # type: ignore[attr-defined]
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._values()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def _not_integer_pair(kind: str, items: Sequence) -> TypeError:
    """The error naming the first of `items` whose entries 0 and 1 are not
    both integers (int, bool, or anything with __index__)."""
    for i, item in enumerate(items):
        try:
            index(item[0]), index(item[1])
        except TypeError:
            return TypeError(f"{kind} {i} = {item!r} is not a pair of integers")
    return TypeError(f"every {kind} must be a pair of integers")


class PointSet(_Frozen):
    """Ordered, validated set of integer points.

    Immutable; safe to share between threads.  Integer coordinates (a
    float, even an integral one, is rejected, not truncated), distinctness
    and the coordinate cap are enforced at construction.  Collinearity
    checks are deferred to validate(), which is quadratic on any set that
    is not in strictly convex position.
    """

    points: tuple[Point, ...]
    strictness: Strictness
    __slots__ = ("points", "strictness")

    def __init__(
        self,
        points: Iterable[Sequence[int]],
        strictness: Strictness = Strictness.STRICT,
    ) -> None:
        points = tuple(points)
        try:
            pts = tuple([Point(index(c[0]), index(c[1])) for c in points])
        except TypeError as exc:
            raise _not_integer_pair("point", points) from exc
        if pts and (min(map(min, pts)) < -COORD_LIMIT or max(map(max, pts)) > COORD_LIMIT):
            i, p = next((i, p) for i, p in enumerate(pts) if max(map(abs, p)) > COORD_LIMIT)
            raise ValueError(f"point {i} = ({p.x}, {p.y}) exceeds |coord| <= 2**30")
        if len(set(pts)) != len(pts):
            seen: dict[Point, int] = {}
            for i, p in enumerate(pts):
                if p in seen:
                    raise ValueError(f"duplicate point at indices {seen[p]} and {i}")
                seen[p] = i
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "strictness", strictness)

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
        """The point set of `coords`; each point is built once, by the constructor."""
        return cls(tuple(coords), strictness)


@_typed_eq
class ValidationReport(NamedTuple):
    ok: bool
    collinear_triple: tuple[int, int, int] | None = None
    message: str = "ok"


def validate(ps: PointSet) -> ValidationReport:
    """Check the general-position contract of a point set.

    Under STRICT this reports the lexicographically first collinear triple
    (i, j, k), i < j < k.  Points in strictly convex position have none: a
    line meets the boundary of a strictly convex polygon in at most two
    points.  So when the weak hull holds every point and turns at each of
    its vertices, the answer is ok after O(n log n) work.  Every other set,
    weakly convex ones included, gets the O(n^2) slope scan; deciding
    whether any three points of a general set are collinear is 3SUM-hard,
    so that bound stays.  For each i every later point j gets the slope
    key ((yj - yi) << 64) // (xj - xi), or None when xj = xi.  Equal
    slopes, opposite directions included, give equal keys, and as
    |dx| <= 2**31 distinct slopes differ by at least 2**-62, so their
    keys differ by at least 4.  A repeated key from i thus means a line
    through i and two later points.  Only then are i's keys grouped in j
    order, so groups come in the order of their smallest members, and the
    first group of two or more names its two smallest members.  Under
    RELAXED only distinctness applies, which the constructor guarantees.
    """
    if ps.strictness is Strictness.RELAXED:
        return ValidationReport(True)
    pts = ps.points
    try:
        hull = convex_hull(ps)
    except ValueError:  # fewer than three points, or all on one line
        hull = []
    ring = [pts[h] for h in hull]
    if len(ring) == len(pts) and all(
        map(cross, ring[-2:] + ring[:-2], ring[-1:] + ring[:-1], ring)
    ):
        return ValidationReport(True)
    xs = [p.x for p in pts]
    ys64 = [p.y << 64 for p in pts]
    for i, (xi, yi) in enumerate(zip(xs, ys64)):
        later = zip(xs[i + 1 :], ys64[i + 1 :])
        keys = [(y - yi) // (x - xi) if x != xi else None for x, y in later]
        if len(set(keys)) < len(keys):
            groups: dict[int | None, list[int]] = {}
            for j, key in enumerate(keys, i + 1):
                groups.setdefault(key, []).append(j)
            j, k = next(grp for grp in groups.values() if len(grp) > 1)[:2]
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
            x, y = pts[i]
            while len(chain) >= 2:
                (ox, oy), (ax, ay) = pts[chain[-2]], pts[chain[-1]]
                # cross(o, a, (x, y)) < 0: a clockwise turn pops a.
                if (ax - ox) * (y - oy) < (ay - oy) * (x - ox):
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
