"""Spanning-tree instance cache exploiting translation symmetry.

All tree families in :mod:`repro.trees` are *translation equivariant*
under their topology's automorphism: the tree rooted at ``s`` is the
source-0 tree with every address translated by ``s`` (XOR on the
hypercube — ``parent_s(i) = parent_0(i ^ s) ^ s``, §2 of the paper —
coordinate-wise addition mod ``k`` on the torus).  The cache therefore
builds one canonical instance per ``(class, topology[, j])`` at root 0
and derives any other root by translating the canonical
parents/children/levels/subtree-size maps — O(N) dict work instead of
re-running the family's construction logic per node.

Translated maps are injected into the instance ``__dict__``, which is
exactly where :class:`functools.cached_property` stores its result, so
every derived accessor on :class:`repro.trees.base.SpanningTree` picks
them up transparently.
"""

from __future__ import annotations

from typing import TypeVar

from repro.cache.lru import MISSING, LRUCache, caching_enabled
from repro.topology.base import Topology, topology_token
from repro.topology.hypercube import Hypercube
from repro.trees.base import SpanningTree
from repro.trees.msbt import EdgeReversedSBT, MSBTGraph

__all__ = ["cached_tree", "cached_msbt_graph"]

T = TypeVar("T", bound=SpanningTree)

#: canonical root-0 instances, keyed (qualname, topology token, extra)
_canonical = LRUCache("trees.canonical", maxsize=64)
#: translated instances, keyed (qualname, topology token, root, extra)
_instances = LRUCache("trees.instances", maxsize=256)
#: MSBT graphs, keyed (n, source)
_msbt_graphs = LRUCache("trees.msbt_graphs", maxsize=64)


def _build(cls: type[T], cube: Topology, root: int, extra: tuple) -> T:
    if cls is EdgeReversedSBT:
        return cls(cube, *extra, root)  # type: ignore[return-value]
    return cls(cube, root, *extra)


def _translate(canonical: SpanningTree, instance: SpanningTree, s: int) -> None:
    """Inject the canonical maps translated by ``s`` into ``instance``.

    The translation is tabulated once as a node permutation (at most
    one ``translate`` call per node) and every map is relabelled
    through it, keeping the canonical maps' key order.
    """
    perm = canonical.cube.translation(s)
    d = instance.__dict__
    d["parents_map"] = {
        perm[i]: (None if p is None else perm[p])
        for i, p in canonical.parents_map.items()
    }
    d["children_map"] = {
        perm[i]: tuple(sorted([perm[c] for c in kids])) if kids else ()
        for i, kids in canonical.children_map.items()
    }
    d["levels"] = {perm[i]: lvl for i, lvl in canonical.levels.items()}
    d["subtree_sizes"] = {
        perm[i]: sz for i, sz in canonical.subtree_sizes.items()
    }


def cached_tree(cls: type[T], cube: Topology, root: int = 0, *extra) -> T:
    """A possibly-cached instance of tree family ``cls`` rooted at ``root``.

    Args:
        cls: a :class:`~repro.trees.base.SpanningTree` subclass whose
            construction is deterministic in ``(cube, root, *extra)``
            and translation-equivariant under ``cube.translate``.
        cube: host topology.
        root: tree root (the collective's source node).
        extra: extra constructor arguments identifying the member of
            the family — e.g. the ERSBT tree index ``j``.

    With caching disabled this simply constructs the tree directly.
    """
    if not caching_enabled():
        return _build(cls, cube, root, extra)
    # checked before the lookup, and ``extra`` keyed with its types:
    # False == 0 == 0.0 would hit the entry of a valid twin
    root = cube.check_node(root)
    topo = topology_token(cube)
    extra_key = (extra, tuple(map(type, extra)))
    key = (cls.__qualname__, topo, root, extra_key)
    inst = _instances.get(key)
    if inst is not MISSING:
        return inst
    ckey = (cls.__qualname__, topo, extra_key)
    canonical = _canonical.get(ckey)
    if canonical is MISSING:
        canonical = _build(cls, cube, 0, extra)
        _canonical.put(ckey, canonical)
    if root == 0:
        inst = canonical
    else:
        inst = _build(cls, cube, root, extra)
        _translate(canonical, inst, root)
    _instances.put(key, inst)
    return inst


def cached_msbt_graph(cube: Hypercube, source: int = 0) -> MSBTGraph:
    """A possibly-cached :class:`MSBTGraph`, its ERSBTs shared via the cache.

    The graph object itself is cheap; the win is that its ``n`` member
    trees come from :func:`cached_tree`, so their structural maps are
    translations of the canonical source-0 ERSBTs.
    """
    if not caching_enabled():
        return MSBTGraph(cube, source)
    key = (cube.dimension, cube.check_node(source))
    graph = _msbt_graphs.get(key)
    if graph is not MISSING:
        return graph
    graph = MSBTGraph(cube, source)
    graph._trees = tuple(
        cached_tree(EdgeReversedSBT, cube, source, j)
        for j in range(cube.dimension)
    )
    _msbt_graphs.put(key, graph)
    return graph
