"""Union-find with a per-component parity flip.

Used to track faces of the shared-edge plane graph while a biplane graph is
augmented: faces merge (union) when a shared edge is flipped away, and an
entire face can have its two chord layers exchanged (flip_component) in
constant time instead of relabeling every chord.
"""

from __future__ import annotations


class ParityDSU:
    """Disjoint sets of integers 0..n-1, each element carrying a parity bit.

    parity(x) starts at 0, is preserved by union(), and is toggled for every
    element of a component by flip_component().
    """

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))
        self.rel = [0] * n          # parity of element relative to its parent
        self.flip = [0] * n         # extra flip bit, meaningful at roots
        self.rank = [0] * n

    def find(self, x: int) -> tuple[int, int]:
        """Return (root, parity of x relative to root)."""
        # Roots and their children, most lookups after path compression,
        # need no path.
        parent = self.parent
        p = parent[x]
        if p == x:
            return x, 0
        if parent[p] == p:
            return p, self.rel[x]
        path = []
        while self.parent[x] != x:
            path.append(x)
            x = self.parent[x]
        root = x
        par = 0
        # Walk back from the node nearest the root, compressing as we go;
        # after the loop par holds the parity of the original x.
        for y in reversed(path):
            par ^= self.rel[y]
            self.rel[y] = par
            self.parent[y] = root
        return root, par

    def parity(self, x: int) -> int:
        root, par = self.find(x)
        return par ^ self.flip[root]

    def union(self, a: int, b: int) -> int:
        """Merge the components of a and b, preserving every parity."""
        ra, _ = self.find(a)
        rb, _ = self.find(b)
        if ra == rb:
            return ra
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        # Attach rb under ra so that parity(x) is unchanged for x in rb's set:
        # parity was pathxor ^ flip[rb]; becomes pathxor ^ rel[rb] ^ flip[ra].
        self.rel[rb] = self.flip[rb] ^ self.flip[ra]
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1
        return ra

    def flip_component(self, x: int) -> None:
        root, _ = self.find(x)
        self.flip[root] ^= 1
