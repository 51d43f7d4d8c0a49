"""Directed graphs attached to substitutions.

The graph of a substitution has one vertex per letter and an arc a -> b
whenever b occurs in the image of a.  Primitivity of the substitution is a
property of this graph alone: the graph must be strongly connected and its
period, the gcd of all cycle lengths, must be 1.

Two independent primitivity tests are provided.  ``is_primitive`` combines
strong connectivity with the BFS period computation; ``is_primitive_by_powers``
looks for a single length K joining every ordered pair of vertices, with K
bounded by (n - 1)**2 + 1.  They must agree on every digraph, and the test
suite enforces that exhaustively on small vertex counts.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass
from math import gcd
from typing import TYPE_CHECKING, Iterable

from .errors import DomainError, PreconditionError

if TYPE_CHECKING:  # pragma: no cover
    from .substitution import Substitution


@dataclass(frozen=True)
class SubstitutionGraph:
    """A dense boolean adjacency matrix; row a lists the arcs a -> b.

    Graphs built from substitutions always have a nonempty row for every
    vertex (images are nonempty); hand-built graphs may not.
    """

    arcs: tuple[tuple[bool, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.arcs)
        if n == 0:
            raise DomainError("a graph needs at least one vertex")
        if any(len(row) != n for row in self.arcs):
            raise DomainError("adjacency matrix must be square")

    @classmethod
    def from_arcs(cls, n: int, pairs: Iterable[tuple[int, int]]) -> SubstitutionGraph:
        rows = [[False] * n for _ in range(n)]
        for a, b in pairs:
            rows[a][b] = True
        return cls(tuple(tuple(row) for row in rows))

    @property
    def n(self) -> int:
        return len(self.arcs)

    def successors(self, a: int) -> list[int]:
        return [b for b, on in enumerate(self.arcs[a]) if on]

    def _bfs_levels(self, transpose: bool) -> list[int]:
        """BFS levels from vertex 0, along reversed arcs when ``transpose``;
        -1 marks a vertex not reached."""
        n = self.n
        level = [-1] * n
        level[0] = 0
        queue = deque([0])
        while queue:
            u = queue.popleft()
            for v in range(n):
                on = self.arcs[v][u] if transpose else self.arcs[u][v]
                if on and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        return level

    @functools.cached_property
    def _period_levels(self) -> tuple[int, list[int]] | None:
        """Period and forward BFS levels, or None unless strongly connected.

        Every arc u -> v contributes level(u) + 1 - level(v) to the gcd of
        all cycle lengths.  Computed once per graph.
        """
        level = self._bfs_levels(False)
        if -1 in level or -1 in self._bfs_levels(True):
            return None
        g = 0
        for u in range(self.n):
            for v in self.successors(u):
                g = gcd(g, abs(level[u] + 1 - level[v]))
        return g, level

    def is_strongly_connected(self) -> bool:
        """Every vertex reaches and is reached by vertex 0."""
        return self._period_levels is not None

    def period(self) -> int:
        """gcd of all cycle lengths of a strongly connected graph.

        Returns 0 for the degenerate strongly connected graph with no cycles
        (a single loopless vertex).
        """
        found = self._period_levels
        if found is None:
            raise PreconditionError("period needs a strongly connected graph")
        return found[0]

    def period_classes(self) -> tuple[tuple[int, ...], ...]:
        """Partition A_0 .. A_{l-1} with every arc going from A_i to A_{i+1 mod l}."""
        ell = self.period()
        if ell == 0:
            return (tuple(range(self.n)),)
        classes: list[list[int]] = [[] for _ in range(ell)]
        for v, lv in enumerate(self._period_levels[1]):
            classes[lv % ell].append(v)
        return tuple(tuple(c) for c in classes)

    def is_primitive(self) -> bool:
        """Strongly connected with period 1."""
        found = self._period_levels
        return found is not None and found[0] == 1

    def is_primitive_by_powers(self) -> bool:
        """Independent route: some K <= (n-1)**2 + 1 joins all ordered pairs.

        Boolean matrix powers with rows packed into ints.
        """
        n = self.n
        rows = [
            sum(1 << b for b in range(n) if self.arcs[a][b]) for a in range(n)
        ]
        full = (1 << n) - 1
        cur = list(rows)
        for _ in range((n - 1) ** 2 + 1):
            if all(r == full for r in cur):
                return True
            nxt = []
            for mask in cur:
                acc = 0
                m = mask
                while m:
                    j = (m & -m).bit_length() - 1
                    acc |= rows[j]
                    m &= m - 1
                nxt.append(acc)
            cur = nxt
        return False


def build_graph(sub: Substitution) -> SubstitutionGraph:
    """Graph with an arc a -> b whenever b occurs in the image of a."""
    n = sub.alphabet.size
    rows = []
    for a in range(n):
        present = set(sub.images[a].letters)
        rows.append(tuple(b in present for b in range(n)))
    return SubstitutionGraph(tuple(rows))
