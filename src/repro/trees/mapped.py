"""Spanning trees given by an explicit parent map.

The structured families (SBT, MSBT, BST, ...) derive their shape from
closed-form address arithmetic; degraded-mode routing instead works
with whatever tree survives a fault set —
:func:`repro.topology.fault.fault_avoiding_spanning_tree` returns a
plain parent map over the live (and reachable) nodes.
:class:`SurvivorTree` adapts such a map to the
:class:`~repro.trees.base.SpanningTree` interface so the generic
pipelined broadcast and wave scatter generators run on it unchanged.

Unlike the structured families a :class:`SurvivorTree` may cover only
a subset of the cube (dead nodes, or an unreachable component in
``partial`` mode); the derived maps are restricted to the covered set
and :attr:`SurvivorTree.covered` names it.
"""

from __future__ import annotations

from collections import deque

from repro.topology.hypercube import Hypercube
from repro.trees.base import SpanningTree

__all__ = ["SurvivorTree"]


class SurvivorTree(SpanningTree):
    """A tree over the surviving cube, defined by a parent map.

    Args:
        cube: the host cube.
        root: the tree root (the collective's source).
        parents: map ``node -> parent`` (``None`` at the root) whose
            edges must all be cube edges.  Nodes absent from the map
            are simply not covered by the tree.

    Raises:
        ValueError: when the map is not a tree rooted at ``root`` over
            its own key set, or uses a non-cube edge.
    """

    def __init__(
        self, cube: Hypercube, root: int, parents: dict[int, int | None]
    ):
        super().__init__(cube, root)
        if root not in parents or parents[root] is not None:
            raise ValueError(f"parent map must have root {root} with parent None")
        self._parents: dict[int, int | None] = dict(parents)

        kids: dict[int, list[int]] = {v: [] for v in self._parents}
        for v, p in self._parents.items():
            if p is None:
                continue
            cube.check_node(v)
            if p not in self._parents:
                raise ValueError(f"parent {p} of {v} is not itself in the tree")
            if not cube.are_adjacent(p, v):
                raise ValueError(f"tree edge {p} -> {v} is not a cube edge")
            kids[p].append(v)
        children = {v: tuple(sorted(c)) for v, c in kids.items()}

        levels: dict[int, int] = {root: 0}
        queue = deque([root])
        while queue:
            node = queue.popleft()
            for c in children[node]:
                levels[c] = levels[node] + 1
                queue.append(c)
        if len(levels) != len(self._parents):
            orphan = sorted(set(self._parents) - set(levels))
            raise ValueError(
                f"parent map is not a tree: {len(orphan)} nodes unreachable "
                f"from the root (e.g. {orphan[:4]})"
            )

        sizes = {v: 1 for v in self._parents}
        for node in sorted(levels, key=levels.__getitem__, reverse=True):
            p = self._parents[node]
            if p is not None:
                sizes[p] += sizes[node]

        # Inject the restricted maps where the base class's
        # cached_property accessors look them up; the full-cube spanning
        # checks in the base derivations are thereby bypassed on purpose.
        self.__dict__["parents_map"] = dict(self._parents)
        self.__dict__["children_map"] = children
        self.__dict__["levels"] = levels
        self.__dict__["subtree_sizes"] = sizes

    @property
    def covered(self) -> frozenset[int]:
        """The nodes this tree reaches (root included)."""
        return frozenset(self._parents)

    def parent(self, node: int) -> int | None:
        self._cube.check_node(node)
        try:
            return self._parents[node]
        except KeyError:
            raise ValueError(f"node {node} is not covered by this tree") from None

    def __repr__(self) -> str:
        return (
            f"SurvivorTree(n={self.n}, root={self._root}, "
            f"covered={len(self._parents)}/{self._cube.num_nodes})"
        )
