"""Structural tests for the k-ary n-cube torus topology."""

from __future__ import annotations

import numpy as np
import pytest

from repro.topology import (
    TOPOLOGY_KINDS,
    Hypercube,
    Torus,
    resolve_topology,
    topology_token,
)

GRID = [(1, 3), (1, 5), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (2, 5)]


@pytest.mark.parametrize("n,k", GRID)
class TestTorusStructure:
    def test_sizes(self, n, k):
        t = Torus(n, k)
        assert t.dimension == n
        assert t.arity == k
        assert t.num_nodes == k**n
        ports_per_dim = 1 if k == 2 else 2
        assert t.num_ports == n * ports_per_dim
        assert t.diameter == n * (k // 2)

    def test_coords_roundtrip(self, n, k):
        t = Torus(n, k)
        for v in t.nodes():
            c = t.coords(v)
            assert len(c) == n
            assert all(0 <= d < k for d in c)
            assert t.from_coords(c) == v

    def test_neighbor_ports_consistent(self, n, k):
        """neighbor() and port_towards() are inverse views of adjacency."""
        t = Torus(n, k)
        for v in t.nodes():
            seen = set()
            for p in range(t.num_ports):
                u = t.neighbor(v, p)
                assert u != v
                assert t.are_adjacent(v, u)
                assert t.port_towards(v, u) == p
                seen.add(u)
            assert seen == set(t.neighbors(v))

    def test_ring_adjacency(self, n, k):
        """Neighbours differ in exactly one coordinate by ±1 mod k."""
        t = Torus(n, k)
        for v in t.nodes():
            for u in t.neighbors(v):
                diffs = [
                    (a - b) % k
                    for a, b in zip(t.coords(u), t.coords(v))
                    if a != b
                ]
                assert len(diffs) == 1
                assert diffs[0] in (1, k - 1)

    def test_edge_ports_matches_scalar(self, n, k):
        t = Torus(n, k)
        pairs = [(a, b) for a in t.nodes() for b in t.nodes() if a != b]
        src = np.array([a for a, _ in pairs])
        dst = np.array([b for _, b in pairs])
        ports = t.edge_ports(src, dst)
        for (a, b), p in zip(pairs, ports):
            if t.are_adjacent(a, b):
                assert p == t.port_towards(a, b)
            else:
                assert p == -1

    def test_translate_is_automorphism(self, n, k):
        t = Torus(n, k)
        for s in [1, t.num_nodes - 1, t.num_nodes // 2]:
            mapped = {v: t.translate(v, s) for v in t.nodes()}
            assert sorted(mapped.values()) == list(t.nodes())
            for a, b in t.links():
                assert t.are_adjacent(mapped[a], mapped[b])
            # ports are preserved: translation is coordinate-wise
            for v in t.nodes():
                for p in range(t.num_ports):
                    assert t.neighbor(mapped[v], p) == mapped[t.neighbor(v, p)]

    def test_distance_and_diameter(self, n, k):
        t = Torus(n, k)
        assert t.distance(0, 0) == 0
        worst = max(t.distance(0, v) for v in t.nodes())
        assert worst == t.diameter
        for v in t.nodes():
            assert t.distance(0, v) == t.distance(v, 0)


class TestTorusEqualsHypercubeAtK2:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_same_graph_and_ports(self, n):
        t, h = Torus(n, 2), Hypercube(n)
        assert t.num_nodes == h.num_nodes
        assert t.num_ports == h.num_ports
        for v in t.nodes():
            for p in range(n):
                assert t.neighbor(v, p) == h.neighbor(v, p)
        assert set(t.links()) == set(h.links())

    def test_tokens_still_distinct(self):
        # same graph, but never the same cache identity (regression:
        # torus/hypercube schedules at equal n must not collide)
        assert Torus(3, 2).cache_token() != Hypercube(3).cache_token()
        assert topology_token(Torus(3, 2)) != topology_token(Hypercube(3))


class TestTorusValidation:
    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            Torus(0, 3)
        for n, k in ((2, 1), (2, 2.5), (2.5, 3), (True, 3), (2, True)):
            with pytest.raises(ValueError):
                Torus(n, k)

    def test_check_node_and_port(self):
        t = Torus(2, 3)
        for node in (9, True, 2.0, 2.5):
            with pytest.raises(ValueError):
                t.check_node(node)
        with pytest.raises(ValueError):
            t.check_port(4)

    def test_equality_and_hash(self):
        assert Torus(2, 3) == Torus(2, 3)
        assert Torus(2, 3) != Torus(3, 2)
        assert hash(Torus(2, 4)) == hash(Torus(2, 4))


class TestResolveTopology:
    def test_kinds(self):
        assert set(TOPOLOGY_KINDS) == {"hypercube", "torus"}

    def test_hypercube(self):
        topo = resolve_topology("hypercube", 4)
        assert isinstance(topo, Hypercube)
        assert topo.dimension == 4

    def test_torus(self):
        topo = resolve_topology("torus", 2, k=5)
        assert isinstance(topo, Torus)
        assert (topo.dimension, topo.arity) == (2, 5)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            resolve_topology("mesh", 3)

    def test_kind_attribute(self):
        assert resolve_topology("torus", 2).kind == "torus"
        assert resolve_topology("hypercube", 2).kind == "hypercube"
