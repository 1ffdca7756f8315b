"""Text formats for point sets and graphs.

Point-set file:  line 1 holds n, followed by n lines "x y" with decimal
integers.  A graph file appends a line holding m and then m lines "i j"
with 0-based vertex indices.  '#' starts a comment that runs to the end of
its line, and blank lines are ignored.  An edge that repeats an earlier one
(in either direction), joins a vertex to itself, or names a missing vertex
is an error, as is any token after the last block.  Writers emit
canonical, diffable output.
"""

from __future__ import annotations

from .geometry import Edge, PointSet, Strictness
from .graphs import GeometricGraph


class FileFormatError(ValueError):
    """Malformed input file; carries 1-based line and column."""

    def __init__(self, line: int, column: int, message: str) -> None:
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.reason = message


class _Reader:
    """Integer tokens of a file, read in order, with 1-based positions."""

    def __init__(self, text: str) -> None:
        self.toks: list[tuple[str, int, int]] = []
        for line_no, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0]
            col = 0
            for tok in line.split():
                col = line.index(tok, col) + 1
                self.toks.append((tok, line_no, col))
                col += len(tok) - 1
        self.pos = 0

    def more(self) -> bool:
        return self.pos < len(self.toks)

    def next_int(self, what: str) -> int:
        if not self.more():
            # Report the position just past the last token.
            tok, line, col = self.toks[-1] if self.toks else ("", 1, 1)
            raise FileFormatError(
                line, col + len(tok), f"unexpected end of file, expected {what}"
            )
        tok, line, col = self.toks[self.pos]
        self.pos += 1
        try:
            return int(tok)
        except ValueError:
            raise FileFormatError(line, col, f"expected {what}, got {tok!r}")

    def error(self, message: str, back: int = 1) -> FileFormatError:
        """An error located at the token `back` tokens before the next one."""
        _, line, col = self.toks[self.pos - back]
        return FileFormatError(line, col, message)

    def end(self) -> None:
        if self.more():
            tok, line, col = self.toks[self.pos]
            raise FileFormatError(line, col, f"unexpected trailing input {tok!r}")

    def count(self, what: str) -> int:
        k = self.next_int(what)
        if k < 0:
            raise self.error(f"negative {what}")
        return k

    def points(self, strictness: Strictness) -> PointSet:
        coords = [
            (
                self.next_int(f"x coordinate of point {i}"),
                self.next_int(f"y coordinate of point {i}"),
            )
            for i in range(self.count("point count"))
        ]
        return PointSet.from_coords(coords, strictness)

    def edges(self, n: int) -> tuple[Edge, ...]:
        """The edge block: distinct edges between distinct ones of n points."""
        first: dict[Edge, int] = {}
        for i in range(self.count("edge count")):
            a = self.next_int(f"first endpoint of edge {i}")
            b = self.next_int(f"second endpoint of edge {i}")
            e = (a, b) if a < b else (b, a)
            if e[0] < 0 or e[1] >= n:
                v, back = (a, 2) if not 0 <= a < n else (b, 1)
                raise self.error(f"edge {i} references missing vertex {v}", back)
            if a == b:
                raise self.error(f"edge {i} is a loop at vertex {a}")
            if e in first:
                raise self.error(f"edge {i} repeats edge {first[e]}")
            first[e] = i
        return tuple(first)


def parse_points(text: str, strictness: Strictness = Strictness.STRICT) -> PointSet:
    """A point file; anything after the point block is an error."""
    r = _Reader(text)
    ps = r.points(strictness)
    r.end()
    return ps


def parse_graph(text: str, strictness: Strictness = Strictness.STRICT) -> GeometricGraph:
    """A graph file; anything after the edge block is an error."""
    r = _Reader(text)
    ps = r.points(strictness)
    g = GeometricGraph(ps, r.edges(len(ps)))
    r.end()
    return g


def parse_points_or_graph(
    text: str, strictness: Strictness = Strictness.STRICT
) -> GeometricGraph:
    """A graph file, or a point file read as a graph without edges."""
    r = _Reader(text)
    ps = r.points(strictness)
    g = GeometricGraph(ps, r.edges(len(ps)) if r.more() else ())
    r.end()
    return g


def format_points(ps: PointSet) -> str:
    lines = [str(len(ps))]
    lines.extend(f"{p.x} {p.y}" for p in ps.points)
    return "\n".join(lines) + "\n"


def format_graph(g: GeometricGraph) -> str:
    lines = [format_points(g.points).rstrip("\n"), str(g.m)]
    lines.extend(f"{a} {b}" for a, b in g.edges)
    return "\n".join(lines) + "\n"
