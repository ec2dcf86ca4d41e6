"""Tests for the torus ring-decomposition spanning tree."""

from __future__ import annotations

import pytest

from repro.topology import Hypercube, Torus
from repro.trees import RingDecompositionTree

GRID = [(1, 3), (1, 4), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (2, 5)]


@pytest.mark.parametrize("n,k", GRID)
class TestRingDecompositionTree:
    def test_is_spanning_tree(self, n, k):
        tree = RingDecompositionTree(Torus(n, k))
        tree.validate()
        assert set(tree.parents_map) == set(tree.cube.nodes())

    def test_edges_are_torus_edges(self, n, k):
        t = Torus(n, k)
        tree = RingDecompositionTree(t, root=1 % t.num_nodes)
        for v, p in tree.parents_map.items():
            if p is not None:
                assert t.are_adjacent(v, p)

    def test_shortest_path_depth(self, n, k):
        """Every node sits at its ring distance: the tree is a
        shortest-path tree, so its height is the torus diameter."""
        t = Torus(n, k)
        tree = RingDecompositionTree(t)
        for v, lvl in tree.levels.items():
            assert lvl == t.distance(tree.root, v)
        assert tree.height == t.diameter

    def test_translation_equivariance(self, n, k):
        """parent_s(v) == translate(parent_0(v - s), s)."""
        t = Torus(n, k)
        base = RingDecompositionTree(t, 0)
        for s in {1, t.num_nodes - 1, t.num_nodes // 2} - {0}:
            shifted = RingDecompositionTree(t, s)
            # map the root-0 tree through translate-by-s
            expected = {
                t.translate(v, s): (
                    None if p is None else t.translate(p, s)
                )
                for v, p in base.parents_map.items()
            }
            assert shifted.parents_map == expected


def test_requires_torus_host():
    with pytest.raises(TypeError):
        RingDecompositionTree(Hypercube(3))


def test_matches_generic_tree_api():
    tree = RingDecompositionTree(Torus(2, 4), root=5)
    assert tree.root == 5
    assert sum(tree.level_counts()) == 16
    assert tree.subtree_sizes[5] == 16
    # children lists are consistent with parents
    for v, kids in tree.children_map.items():
        for c in kids:
            assert tree.parent(c) == v
