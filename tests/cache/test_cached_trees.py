"""Cached (translated) trees are structurally identical to direct builds.

The cache builds each family once at root 0 and translates the
structural maps for any other root (XOR on the hypercube, coordinate
addition on the torus); these tests assert that for randomized
``(n, root)`` samples the translated instance is indistinguishable from
one constructed directly, and that the translation costs one
``translate`` call per node.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.cache import cached_msbt_graph, cached_tree, clear_caches, disabled
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


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_caches()
    yield
    clear_caches()


def assert_same_structure(a, b):
    assert a.parents_map == b.parents_map
    assert a.children_map == b.children_map
    assert a.levels == b.levels
    assert a.subtree_sizes == b.subtree_sizes
    assert a.root == b.root


@pytest.mark.parametrize("cls", FAMILIES, ids=lambda c: c.__name__)
def test_cached_tree_matches_direct_build_randomized(cls):
    rng = random.Random(20260805)
    for n in (2, 3, 4, 5):
        cube = Hypercube(n)
        roots = {0, cube.num_nodes - 1}
        roots.update(rng.randrange(cube.num_nodes) for _ in range(4))
        for root in sorted(roots):
            cached = cached_tree(cls, cube, root)
            direct = cls(cube, root)
            assert_same_structure(cached, direct)
            cached.validate()


@pytest.mark.parametrize("cls", FAMILIES, ids=lambda c: c.__name__)
def test_cached_tree_is_type_faithful_and_memoized(cls):
    cube = Hypercube(4)
    t1 = cached_tree(cls, cube, 9)
    t2 = cached_tree(cls, cube, 9)
    assert type(t1) is cls
    assert t1 is t2  # repeat lookups share the instance


def test_cached_tree_bypasses_when_disabled():
    cube = Hypercube(3)
    with disabled():
        t1 = cached_tree(SpanningBinomialTree, cube, 5)
        t2 = cached_tree(SpanningBinomialTree, cube, 5)
    assert t1 is not t2
    assert_same_structure(t1, t2)


def test_cached_ersbt_keeps_tree_index_identity():
    cube = Hypercube(4)
    for j in range(cube.dimension):
        for root in (0, 6, 15):
            cached = cached_tree(EdgeReversedSBT, cube, root, j)
            direct = EdgeReversedSBT(cube, j, root)
            assert cached.tree_index == j
            assert_same_structure(cached, direct)
            # the ERSBT overrides children() with a closed form; it must
            # agree with the injected translated maps
            for node in cube.nodes():
                assert tuple(sorted(cached.children(node))) == tuple(
                    sorted(cached.children_map[node])
                )


def _count_translates(monkeypatch, topology_cls) -> list[int]:
    """Count ``topology_cls.translate`` calls; returns the live counter."""
    calls = [0]
    original = topology_cls.translate

    def counting(self, node, by):
        calls[0] += 1
        return original(self, node, by)

    monkeypatch.setattr(topology_cls, "translate", counting)
    return calls


@pytest.mark.parametrize("cls", FAMILIES, ids=lambda c: c.__name__)
def test_new_root_costs_at_most_n_translates(cls, monkeypatch):
    """Translating a cached tree to a new root tabulates the node
    permutation once: one ``translate`` call per node, not several per
    map entry."""
    cube = Hypercube(6)
    cached_tree(cls, cube, 0)  # canonical instance, built directly
    calls = _count_translates(monkeypatch, Hypercube)
    tree = cached_tree(cls, cube, 45)
    assert calls[0] <= cube.num_nodes
    assert_same_structure(tree, cls(cube, 45))


def test_new_msbt_source_costs_n_translates_per_tree(monkeypatch):
    cube = Hypercube(6)
    cached_msbt_graph(cube, 0)  # canonical ERSBTs
    calls = _count_translates(monkeypatch, Hypercube)
    cached_msbt_graph(cube, 37)
    assert calls[0] <= cube.dimension * cube.num_nodes


def test_torus_every_root_translation_matches_direct_build(monkeypatch):
    torus = Torus(3, 3)
    cached_tree(RingDecompositionTree, torus, 0)
    calls = _count_translates(monkeypatch, Torus)
    for root in torus.nodes():
        before = calls[0]
        cached = cached_tree(RingDecompositionTree, torus, root)
        assert calls[0] - before <= torus.num_nodes
        assert_same_structure(cached, RingDecompositionTree(torus, root))


@pytest.mark.parametrize("topo", [Hypercube(4), Torus(2, 3), Torus(3, 2)], ids=repr)
def test_translation_tabulates_translate(topo):
    for by in topo.nodes():
        assert topo.translation(by) == [topo.translate(i, by) for i in topo.nodes()]
    with pytest.raises(ValueError):
        topo.translation(topo.num_nodes)


def test_cached_msbt_graph_matches_direct_build():
    rng = random.Random(7)
    for n in (2, 3, 4):
        cube = Hypercube(n)
        for source in {0, rng.randrange(cube.num_nodes)}:
            cached = cached_msbt_graph(cube, source)
            direct = MSBTGraph(cube, source)
            assert cached.source == direct.source
            for j in range(n):
                assert_same_structure(cached.trees[j], direct.trees[j])
            cached.validate()
            cached.validate_labelling()
            assert cached is cached_msbt_graph(cube, source)


def test_pickle_roundtrip_preserves_token():
    # a tree must survive pickling to cross a process-pool boundary
    tree = TwoRootedCompleteBinaryTree(Hypercube(3), 0)
    clone = pickle.loads(pickle.dumps(tree))
    assert type(clone) is type(tree) and clone.root == tree.root
    assert clone.parents_map == tree.parents_map
