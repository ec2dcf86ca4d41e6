"""Every tree family is translation-equivariant under its topology.

The paper builds the tree at source ``s`` as the XOR translate of the
tree at 0 (§2): ``parent_s(i) = parent_0(i ^ s) ^ s``.  The torus
families translate by coordinate-wise addition mod ``k``.  So a tree
built directly at ``s`` must equal the tree built at 0 relabelled by
the node permutation ``cube.translation(s)``: the same parents,
children (ordered as ``children_map`` orders them, ascending), levels
and subtree sizes.  The source-0 keys of the ``lowerings`` memo and of
the runtime's broadcast programs rest on this property.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.topology.hypercube import Hypercube
from repro.topology.torus import Torus
from repro.trees.bst import BalancedSpanningTree
from repro.trees.hamiltonian import HamiltonianPathTree
from repro.trees.hp_variants import CenteredHamiltonianPathTree
from repro.trees.msbt import EdgeReversedSBT, MSBTGraph
from repro.trees.ring import RingDecompositionTree
from repro.trees.sbt import SpanningBinomialTree
from repro.trees.tcbt import TwoRootedCompleteBinaryTree

FAMILIES = [
    SpanningBinomialTree,
    BalancedSpanningTree,
    TwoRootedCompleteBinaryTree,
    HamiltonianPathTree,
    CenteredHamiltonianPathTree,
]


def _structure(tree):
    return (
        tree.root, tree.parents_map, tree.children_map, tree.levels,
        tree.subtree_sizes,
    )


def _translated(tree, perm):
    """``tree``'s structure relabelled by the node permutation ``perm``."""
    return (
        perm[tree.root],
        {perm[i]: None if p is None else perm[p] for i, p in tree.parents_map.items()},
        {
            perm[i]: tuple(sorted(perm[c] for c in kids))
            for i, kids in tree.children_map.items()
        },
        {perm[i]: level for i, level in tree.levels.items()},
        {perm[i]: size for i, size in tree.subtree_sizes.items()},
    )


def _roots(topo, rng, k=4):
    """Every root of a small topology, else 0, the last node and ``k``
    random ones."""
    if topo.num_nodes <= 16:
        return list(topo.nodes())
    roots = {0, topo.num_nodes - 1}
    roots.update(rng.randrange(topo.num_nodes) for _ in range(k))
    return sorted(roots)


@pytest.mark.parametrize("cls", FAMILIES, ids=lambda c: c.__name__)
def test_tree_at_any_root_is_the_root_0_tree_translated(cls):
    rng = random.Random(20260805)
    for n in (2, 3, 4, 5, 6):
        cube = Hypercube(n)
        base = cls(cube, 0)
        for root in _roots(cube, rng):
            tree = cls(cube, root)
            assert type(tree) is cls
            assert _structure(tree) == _translated(base, cube.translation(root)), (n, root)
            tree.validate()


def test_every_ersbt_is_its_root_0_tree_translated():
    rng = random.Random(7)
    for n in (1, 2, 3, 4, 5):
        cube = Hypercube(n)
        for j in range(n):
            base = EdgeReversedSBT(cube, j, 0)
            for root in _roots(cube, rng):
                tree = EdgeReversedSBT(cube, j, root)
                assert tree.tree_index == j
                assert _structure(tree) == _translated(base, cube.translation(root)), (
                    n, j, root,
                )
                # the ERSBT's closed-form children() agrees with the maps
                for node in cube.nodes():
                    assert tuple(sorted(tree.children(node))) == tree.children_map[node]


def test_msbt_graph_at_any_source_is_the_source_0_graph_translated():
    rng = random.Random(7)
    for n in (1, 2, 3, 4, 5):
        cube = Hypercube(n)
        base = MSBTGraph(cube, 0)
        for source in _roots(cube, rng):
            graph = MSBTGraph(cube, source)
            perm = cube.translation(source)
            assert graph.source == source
            assert [t.tree_index for t in graph.trees] == list(range(n))
            for tree, tree0 in zip(graph.trees, base.trees):
                assert _structure(tree) == _translated(tree0, perm), (n, source)
            graph.validate()
            graph.validate_labelling()


@pytest.mark.parametrize(
    "torus", [Torus(3, 3), Torus(2, 4), Torus(2, 5), Torus(4, 2)], ids=repr,
)
def test_ring_tree_at_any_root_is_the_root_0_tree_translated(torus):
    """On a torus the translation is coordinate-wise addition mod ``k``,
    not XOR; ``Torus(n, 2)`` hosts the hypercube's ring collectives."""
    base = RingDecompositionTree(torus, 0)
    for root in torus.nodes():
        tree = RingDecompositionTree(torus, root)
        assert _structure(tree) == _translated(base, torus.translation(root)), root
        tree.validate()


@pytest.mark.parametrize("topo", [Hypercube(4), Torus(2, 3), Torus(3, 2)], ids=repr)
def test_translation_tabulates_translate(topo):
    for by in topo.nodes():
        assert topo.translation(by) == [topo.translate(i, by) for i in topo.nodes()]
    with pytest.raises(ValueError):
        topo.translation(topo.num_nodes)


def test_pickle_roundtrip_preserves_token():
    # a tree must survive pickling to cross a process-pool boundary
    tree = TwoRootedCompleteBinaryTree(Hypercube(3), 0)
    clone = pickle.loads(pickle.dumps(tree))
    assert type(clone) is type(tree) and clone.root == tree.root
    assert clone.parents_map == tree.parents_map
