"""SurvivorTree: parent-map-backed trees over a (possibly partial) cube."""

from __future__ import annotations

import pytest

from repro.topology import Hypercube
from repro.topology.fault import fault_avoiding_spanning_tree
from repro.trees import SurvivorTree

CUBE = Hypercube(3)


def _full_tree(root: int = 0, **kw) -> SurvivorTree:
    return SurvivorTree(CUBE, root, fault_avoiding_spanning_tree(CUBE, root, **kw))


class TestConstruction:
    def test_full_bfs_tree_spans_and_validates(self):
        tree = _full_tree()
        assert tree.covered == frozenset(CUBE.nodes())
        tree.validate()  # full coverage: the generic check applies
        assert tree.parent(0) is None
        assert tree.height <= CUBE.dimension

    def test_derived_maps_restricted_to_covered(self):
        parents = fault_avoiding_spanning_tree(
            CUBE, 0, dead_nodes=[7], partial=True
        )
        tree = SurvivorTree(CUBE, 0, parents)
        assert tree.covered == frozenset(range(7))
        assert set(tree.levels) == tree.covered
        assert set(tree.subtree_sizes) == tree.covered
        assert tree.subtree_sizes[0] == 7
        assert sum(len(tree.children_map[v]) for v in tree.covered) == 6

    def test_uncovered_node_queries_raise(self):
        parents = fault_avoiding_spanning_tree(
            CUBE, 0, dead_nodes=[7], partial=True
        )
        tree = SurvivorTree(CUBE, 0, parents)
        with pytest.raises(ValueError, match="not covered"):
            tree.parent(7)

    def test_rejects_root_mismatch(self):
        with pytest.raises(ValueError, match="root"):
            SurvivorTree(CUBE, 1, {0: None, 1: 0})

    def test_rejects_non_cube_edges(self):
        with pytest.raises(ValueError, match="not a cube edge"):
            SurvivorTree(CUBE, 0, {0: None, 3: 0})

    def test_rejects_parent_outside_map(self):
        with pytest.raises(ValueError, match="not itself in the tree"):
            SurvivorTree(CUBE, 0, {0: None, 3: 1})

    def test_rejects_cycles(self):
        # 2 -> 6 -> 2 is a cycle disconnected from the root
        with pytest.raises(ValueError, match="not a tree"):
            SurvivorTree(CUBE, 0, {0: None, 2: 6, 6: 2})

    def test_repr_shows_coverage(self):
        parents = fault_avoiding_spanning_tree(
            CUBE, 0, dead_nodes=[7], partial=True
        )
        assert "covered=7/8" in repr(SurvivorTree(CUBE, 0, parents))

