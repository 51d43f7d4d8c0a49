"""Substitution graphs: connectivity, period, and the two primitivity routes.

The BFS-gcd route and the matrix-power route are compared exhaustively on
every digraph with up to 4 vertices, and on every 5-vertex digraph with a
bit-packed numpy sweep cross-checked against the library on a sample.
"""

import random

import numpy as np
import pytest

from morsetoeplitz import (
    DomainError,
    PreconditionError,
    SubstitutionGraph,
    build_graph,
    parse_substitution,
)


def graph_from_mask(n, mask):
    rows = tuple(
        tuple(bool((mask >> (i * n + j)) & 1) for j in range(n)) for i in range(n)
    )
    return SubstitutionGraph(rows)


class TestConstruction:
    def test_from_arcs(self):
        g = SubstitutionGraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
        assert g.n == 3
        assert g.arcs[0][1] and not g.arcs[1][0]
        assert g.successors(2) == [0]

    def test_needs_a_vertex(self):
        with pytest.raises(DomainError):
            SubstitutionGraph(())

    def test_needs_a_square_matrix(self):
        with pytest.raises(DomainError):
            SubstitutionGraph(((True,), (True, False)))

    def test_build_from_substitution(self, toeplitz):
        g = build_graph(toeplitz)
        assert g.arcs == ((True, True), (True, False))


class TestExamples:
    def test_morse_is_primitive(self, morse):
        g = build_graph(morse)
        assert g.is_strongly_connected()
        assert g.period() == 1
        assert g.is_primitive()
        assert g.is_primitive_by_powers()

    def test_toeplitz_is_primitive(self, toeplitz):
        g = build_graph(toeplitz)
        assert g.is_primitive() and g.is_primitive_by_powers()

    def test_three_letter_is_primitive(self, three_letter):
        g = build_graph(three_letter)
        assert g.is_strongly_connected()
        assert g.period() == 1
        assert g.is_primitive_by_powers()

    def test_swap_substitution_has_period_two(self):
        g = build_graph(parse_substitution("0->11;1->00"))
        assert g.is_strongly_connected()
        assert g.period() == 2
        assert g.period_classes() == ((0,), (1,))
        assert not g.is_primitive()
        assert not g.is_primitive_by_powers()

    def test_pure_cycle_period_equals_length(self):
        cyc = SubstitutionGraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
        assert cyc.period() == 3
        assert cyc.period_classes() == ((0,), (1,), (2,))
        chord = SubstitutionGraph.from_arcs(3, [(0, 1), (1, 2), (2, 0), (0, 0)])
        assert chord.period() == 1
        assert chord.is_primitive()

    def test_single_vertex(self):
        loopless = SubstitutionGraph.from_arcs(1, [])
        assert loopless.is_strongly_connected()
        assert loopless.period() == 0
        assert loopless.period_classes() == ((0,),)
        assert not loopless.is_primitive()
        assert not loopless.is_primitive_by_powers()
        loop = SubstitutionGraph.from_arcs(1, [(0, 0)])
        assert loop.period() == 1
        assert loop.is_primitive() and loop.is_primitive_by_powers()

    def test_six_letter_graph_agrees_on_both_routes(self):
        sub = parse_substitution("0->42;1->53;2->54;3->01;4->02;5->13")
        graph = build_graph(sub)
        assert graph.is_primitive()
        assert graph.is_primitive_by_powers()

    def test_period_requires_strong_connectivity(self):
        g = SubstitutionGraph.from_arcs(2, [(0, 1)])
        assert not g.is_strongly_connected()
        with pytest.raises(PreconditionError):
            g.period()

    def test_connectivity_runs_once_per_graph(self, monkeypatch):
        """The four structure queries share one pair of BFS passes."""
        calls = []
        bfs = SubstitutionGraph._bfs_levels
        monkeypatch.setattr(
            SubstitutionGraph,
            "_bfs_levels",
            lambda graph, transpose: calls.append(transpose) or bfs(graph, transpose),
        )
        graph = build_graph(parse_substitution("0->11;1->00"))
        assert graph.is_strongly_connected()
        assert graph.period() == 2
        assert graph.period_classes() == ((0,), (1,))
        assert not graph.is_primitive()
        assert calls == [False, True]


class TestPowerSupport:
    """Arcs of the graph mirror letter occurrences in substitution powers."""

    def test_reachability_matches_power_images(self, morse, toeplitz, three_letter):
        for sub in (morse, toeplitz, three_letter):
            n = sub.alphabet.size
            adj = [[b in set(sub.images[a].letters) for b in range(n)] for a in range(n)]
            cur = [[a == b for b in range(n)] for a in range(n)]
            for k in range(1, 5):
                cur = [
                    [any(cur[a][c] and adj[c][b] for c in range(n)) for b in range(n)]
                    for a in range(n)
                ]
                pk = sub.power(k)
                for a in range(n):
                    support = set(pk.images[a].letters)
                    assert support == {b for b in range(n) if cur[a][b]}, (sub.spec(), k)


class TestBothRoutesAgree:
    def test_exhaustive_up_to_four_vertices(self):
        for n in range(1, 5):
            for mask in range(1 << (n * n)):
                g = graph_from_mask(n, mask)
                assert g.is_primitive() == g.is_primitive_by_powers(), (n, mask)

    def test_period_classes_partition_small_graphs(self):
        for n in range(1, 5):
            for mask in range(1 << (n * n)):
                g = graph_from_mask(n, mask)
                if not g.is_strongly_connected():
                    continue
                classes = g.period_classes()
                flat = sorted(v for cls in classes for v in cls)
                assert flat == list(range(n))
                ell = len(classes)
                where = {v: i for i, cls in enumerate(classes) for v in cls}
                for u in range(n):
                    for v in g.successors(u):
                        assert where[v] == (where[u] + 1) % ell, (n, mask)


class TestFiveVertexSweep:
    """All 2**25 digraphs on 5 vertices, vectorized with one bit per graph."""

    N = 5
    TOTAL = 1 << (N * N)
    PACKED = TOTAL // 8

    def _entries(self):
        g = np.arange(self.TOTAL, dtype=np.uint32)
        out = {}
        for i in range(self.N):
            for j in range(self.N):
                bit = ((g >> np.uint32(i * self.N + j)) & 1).astype(np.uint8)
                out[i, j] = np.packbits(bit, bitorder="little")
        return out

    def _matmul(self, a, b):
        n = self.N
        out = {}
        for i in range(n):
            for j in range(n):
                acc = a[i, 0] & b[0, j]
                for k in range(1, n):
                    acc |= a[i, k] & b[k, j]
                out[i, j] = acc
        return out

    def _all_ones(self, m):
        acc = np.full(self.PACKED, 0xFF, dtype=np.uint8)
        for entry in m.values():
            acc &= entry
        return acc

    def test_all_five_vertex_digraphs(self):
        n, total = self.N, self.TOTAL
        adj = self._entries()

        # strong connectivity: (I + A)**4 is all ones
        ones = np.full(self.PACKED, 0xFF, dtype=np.uint8)
        closure = {
            (i, j): (adj[i, j] | ones) if i == j else adj[i, j].copy()
            for i in range(n)
            for j in range(n)
        }
        closure = self._matmul(closure, closure)
        closure = self._matmul(closure, closure)
        connected = self._all_ones(closure)
        del closure

        # power route: A**17 is all ones, with 17 = (n-1)**2 + 1
        power = self._matmul(adj, adj)
        power = self._matmul(power, power)
        power = self._matmul(power, power)
        power = self._matmul(power, power)
        power = self._matmul(power, adj)
        primitive_by_powers = self._all_ones(power)
        del power

        # BFS levels from vertex 0 in at most n - 1 steps
        unreached = np.uint8(7)
        level = [np.full(total, unreached, dtype=np.uint8) for _ in range(n)]
        level[0] = np.zeros(total, dtype=np.uint8)
        frontier = [np.zeros(self.PACKED, dtype=np.uint8) for _ in range(n)]
        frontier[0] = ones.copy()
        reached = [f.copy() for f in frontier]
        for step in range(1, n):
            new = []
            for v in range(n):
                acc = frontier[0] & adj[0, v]
                for u in range(1, n):
                    acc |= frontier[u] & adj[u, v]
                acc &= ~reached[v]
                new.append(acc)
            for v in range(n):
                hit = np.unpackbits(new[v], bitorder="little").view(np.bool_)
                level[v][hit] = step
                reached[v] |= new[v]
            frontier = new

        # gcd of |level(u) + 1 - level(v)| over present arcs, via a bitmask
        # of attained values; levels below 5 keep every term below 8
        mask = np.zeros(total, dtype=np.uint8)
        for u in range(n):
            lu = level[u].astype(np.int16) + 1
            for v in range(n):
                # terms are at most 5 on connected graphs; clip the garbage
                # produced by unreachable vertices into bit 7
                term = np.minimum(np.abs(lu - level[v]), 7).astype(np.uint8)
                arc = np.unpackbits(adj[u, v], bitorder="little")
                mask |= np.left_shift(np.uint8(1), term) * arc
        lut = np.zeros(1 << 8, dtype=np.uint8)
        for m in range(1 << 8):
            g = 0
            for pos in range(1, 8):
                if m & (1 << pos):
                    g = np.gcd(g, pos)
            lut[m] = g
        period = lut[mask]
        primitive_by_period = connected & np.packbits(period == 1, bitorder="little")

        mismatches = np.flatnonzero(primitive_by_period != primitive_by_powers)
        assert mismatches.size == 0, f"first mismatch near graphs {mismatches[:3]}"

        # spot-check the packed sweep against the plain library code
        def bit(packed, g):
            return bool((packed[g >> 3] >> (g & 7)) & 1)

        rng = random.Random(20240818)
        primitive_count = int(
            np.unpackbits(primitive_by_powers, bitorder="little").sum()
        )
        assert 0 < primitive_count < total
        for g in rng.sample(range(total), 400):
            graph = graph_from_mask(n, g)
            assert bit(connected, g) == graph.is_strongly_connected(), g
            assert bit(primitive_by_powers, g) == graph.is_primitive_by_powers(), g
            assert bit(primitive_by_period, g) == graph.is_primitive(), g
            if graph.is_strongly_connected():
                assert int(period[g]) == graph.period(), g
