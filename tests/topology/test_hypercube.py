"""Unit tests for the hypercube graph model."""

from math import comb

import numpy as np
import pytest

from repro.topology import DirectedEdge, Hypercube


class TestShape:
    def test_basic_counts(self, cube):
        n = cube.dimension
        assert cube.num_nodes == 2**n
        assert cube.num_links == 2 ** (n - 1) * n
        assert cube.num_directed_edges == 2**n * n
        assert cube.diameter == n

    def test_bad_dimension_rejected(self):
        for n in (0, 25, 2.5, 3.0, True, "3"):
            with pytest.raises(ValueError):
                Hypercube(n)

    def test_nodes_enumeration(self, cube4):
        assert list(cube4.nodes()) == list(range(16))

    def test_contains_and_check(self, cube4):
        assert cube4.contains(0) and cube4.contains(15)
        assert not cube4.contains(16) and not cube4.contains(-1)
        for node in (16, True, False, 2.0, 2.5, "3", None):
            with pytest.raises(ValueError):
                cube4.check_node(node)
        assert cube4.check_node(np.int64(15)) == 15
        assert type(cube4.check_node(np.int64(15))) is int

    def test_equality_and_hash(self):
        assert Hypercube(3) == Hypercube(3)
        assert Hypercube(3) != Hypercube(4)
        assert len({Hypercube(3), Hypercube(3), Hypercube(4)}) == 2


class TestAdjacency:
    def test_neighbors_are_unit_distance(self, cube):
        for v in cube.nodes():
            ns = cube.neighbors(v)
            assert len(ns) == cube.dimension
            assert len(set(ns)) == cube.dimension
            for u in ns:
                assert cube.distance(u, v) == 1

    def test_neighbor_port_roundtrip(self, cube4):
        for v in (0, 7, 15):
            for j in range(4):
                u = cube4.neighbor(v, j)
                assert cube4.port_towards(v, u) == j
                assert cube4.neighbor(u, j) == v

    def test_port_validation(self, cube4):
        with pytest.raises(ValueError):
            cube4.neighbor(0, 4)
        with pytest.raises(ValueError):
            cube4.port_towards(0, 3)  # not adjacent

    def test_are_adjacent(self, cube4):
        assert cube4.are_adjacent(0b0000, 0b0100)
        assert not cube4.are_adjacent(0b0000, 0b0110)
        assert not cube4.are_adjacent(5, 5)

    def test_edge_and_link_counts(self, cube):
        assert len(list(cube.edges())) == cube.num_directed_edges
        links = list(cube.links())
        assert len(links) == cube.num_links
        assert len(set(links)) == cube.num_links


class TestDirectedEdge:
    def test_dimension(self):
        assert DirectedEdge(0b000, 0b100).dimension == 2
        assert DirectedEdge(5, 4).dimension == 0

    def test_non_edge_dimension_rejected(self):
        with pytest.raises(ValueError):
            _ = DirectedEdge(0, 3).dimension

    def test_reverse_and_link(self):
        e = DirectedEdge(2, 3)
        assert e.reversed() == DirectedEdge(3, 2)
        assert e.link == (2, 3) == e.reversed().link


class TestMetric:
    def test_sphere_sizes(self, cube):
        n = cube.dimension
        for v in (0, cube.num_nodes - 1):
            for d in range(n + 1):
                nodes = cube.nodes_at_distance(v, d)
                assert len(nodes) == comb(n, d) == cube.sphere_size(d)
                assert all(cube.distance(v, u) == d for u in nodes)

    def test_sphere_sum_covers_cube(self, cube4):
        total = sum(len(cube4.nodes_at_distance(3, d)) for d in range(5))
        assert total == 16

    def test_shortest_path(self, cube4):
        p = cube4.shortest_path(0b0000, 0b1010)
        assert p[0] == 0 and p[-1] == 0b1010
        assert len(p) == 3
        for a, b in zip(p, p[1:]):
            assert cube4.are_adjacent(a, b)

    def test_shortest_path_orders(self, cube4):
        asc = cube4.shortest_path(0, 0b1010, "ascending")
        desc = cube4.shortest_path(0, 0b1010, "descending")
        assert asc == [0, 0b0010, 0b1010]
        assert desc == [0, 0b1000, 0b1010]
        with pytest.raises(ValueError):
            cube4.shortest_path(0, 1, "sideways")


class TestDisjointPaths:
    @pytest.mark.parametrize("src,dst", [(0, 1), (0, 15), (3, 12), (5, 6)])
    def test_n_disjoint_paths(self, cube4, src, dst):
        paths = cube4.disjoint_paths(src, dst)
        assert len(paths) == 4  # n paths (§1)
        d = cube4.distance(src, dst)
        interiors = []
        for p in paths:
            assert p[0] == src and p[-1] == dst
            for a, b in zip(p, p[1:]):
                assert cube4.are_adjacent(a, b)
            # length d or d + 2 (Saad & Schultz, quoted in §1)
            assert len(p) - 1 in (d, d + 2)
            interiors.append(set(p[1:-1]))
        for i in range(len(interiors)):
            for j in range(i + 1, len(interiors)):
                assert not (interiors[i] & interiors[j]), (i, j)

    def test_same_endpoints_rejected(self, cube4):
        with pytest.raises(ValueError):
            cube4.disjoint_paths(3, 3)


class TestSubcubesAndTranslation:
    def test_subcube_pinning(self):
        q = Hypercube(3)
        assert q.subcube({2: 1}) == [4, 5, 6, 7]
        assert q.subcube({0: 0, 1: 0}) == [0, 4]
        assert q.subcube({}) == list(range(8))

    def test_subcube_bad_args(self):
        q = Hypercube(3)
        with pytest.raises(ValueError):
            q.subcube({3: 1})
        with pytest.raises(ValueError):
            q.subcube({0: 2})

    def test_translate_is_involutive_automorphism(self, cube4):
        for v in (0, 5, 15):
            for t in (0, 9):
                assert cube4.translate(cube4.translate(v, t), t) == v
        # adjacency preserved
        for a, b in [(0, 1), (6, 7)]:
            assert cube4.are_adjacent(cube4.translate(a, 9), cube4.translate(b, 9))
