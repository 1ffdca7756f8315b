"""Text formats for point sets and graphs.

Point-set file:  line 1 holds n, followed by n lines "x y" with decimal
integers.  A graph file appends a line holding m and then m lines "i j"
with 0-based vertex indices.  '#' starts a comment that runs to the end of
its line, and blank lines are ignored.  Any token after the last block is
an error.  Writers emit canonical, diffable output.
"""

from __future__ import annotations

from .geometry import PointSet, Strictness
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

    def end(self) -> None:
        if self.more():
            tok, line, col = self.toks[self.pos]
            raise FileFormatError(line, col, f"unexpected trailing input {tok!r}")

    def block(self, count: str, first: str, second: str) -> list[tuple[int, int]]:
        """A count, then that many integer pairs."""
        k = self.next_int(count)
        if k < 0:
            _, line, col = self.toks[self.pos - 1]
            raise FileFormatError(line, col, f"negative {count}")
        return [
            (self.next_int(f"{first} {i}"), self.next_int(f"{second} {i}"))
            for i in range(k)
        ]

    def points(self, strictness: Strictness) -> PointSet:
        coords = self.block(
            "point count", "x coordinate of point", "y coordinate of point"
        )
        return PointSet.from_coords(coords, strictness)

    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            self.block("edge count", "first endpoint of edge", "second endpoint of edge")
        )


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
    g = GeometricGraph(ps, r.edges())
    r.end()
    return g


def parse_points_or_graph(
    text: str, strictness: Strictness = Strictness.STRICT
) -> GeometricGraph:
    """A graph file, or a point file read as a graph without edges."""
    r = _Reader(text)
    ps = r.points(strictness)
    g = GeometricGraph(ps, r.edges() if r.more() else ())
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
