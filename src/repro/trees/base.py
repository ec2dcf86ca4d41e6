"""Abstract spanning-tree interface shared by SBT, BST, TCBT and HP.

A concrete tree only has to implement :meth:`SpanningTree.parent`;
everything else (children maps, levels, subtree sizes, traversal
orders, structural validation) is derived here.  The derived data is
cached because the routing layer queries it repeatedly while generating
schedules.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from functools import cached_property

from repro.topology.base import Topology
from repro.topology.graph import check_spanning_tree
from repro.topology.hypercube import DirectedEdge

__all__ = ["SpanningTree"]


class SpanningTree(ABC):
    """A directed spanning tree of a topology, rooted at ``root``.

    Subclasses implement :meth:`parent`; consistency of any separately
    defined children function with the parent function is asserted by
    :meth:`validate`.  The host graph is any :class:`Topology` (the
    paper's tree families require a hypercube; the ring-decomposition
    tree requires a torus).
    """

    def __init__(self, cube: Topology, root: int = 0):
        self._cube = cube
        self._root = cube.check_node(root)

    # -- to be provided by subclasses ---------------------------------------

    @abstractmethod
    def parent(self, node: int) -> int | None:
        """Parent of ``node`` in the tree; ``None`` for the root."""

    # -- basic accessors -----------------------------------------------------

    @property
    def cube(self) -> Topology:
        """The host topology."""
        return self._cube

    @property
    def root(self) -> int:
        """The root (source) node."""
        return self._root

    @property
    def n(self) -> int:
        """Cube dimension."""
        return self._cube.dimension

    def relative(self, node: int) -> int:
        """Relative address ``node XOR root`` (the paper's ``c``).

        Hypercube-specific; the torus tree families use coordinate
        arithmetic instead.
        """
        return node ^ self._root

    # -- derived structure ----------------------------------------------------

    def children(self, node: int) -> tuple[int, ...]:
        """Children of ``node``, ascending.  Derived from :meth:`parent`."""
        return self.children_map[self._cube.check_node(node)]

    @cached_property
    def parents_map(self) -> dict[int, int | None]:
        """Parent of every node (``None`` for the root)."""
        return {i: self.parent(i) for i in self._cube.nodes()}

    @cached_property
    def children_map(self) -> dict[int, tuple[int, ...]]:
        """Children of every node, ascending."""
        kids: dict[int, list[int]] = {i: [] for i in self._cube.nodes()}
        for node, p in self.parents_map.items():
            if p is not None:
                kids[p].append(node)
        return {i: tuple(sorted(c)) for i, c in kids.items()}

    @cached_property
    def levels(self) -> dict[int, int]:
        """Depth of every node (root at level 0)."""
        out = {self._root: 0}
        queue = deque([self._root])
        while queue:
            node = queue.popleft()
            for c in self.children_map[node]:
                out[c] = out[node] + 1
                queue.append(c)
        if len(out) != self._cube.num_nodes:
            raise ValueError(
                f"{type(self).__name__} does not span the cube: "
                f"reached {len(out)} of {self._cube.num_nodes} nodes"
            )
        return out

    @property
    def height(self) -> int:
        """Largest level label in the tree."""
        return max(self.levels.values())

    def level_counts(self) -> list[int]:
        """Number of nodes at each level ``0 .. height``."""
        counts = [0] * (self.height + 1)
        for lvl in self.levels.values():
            counts[lvl] += 1
        return counts

    def level(self, node: int) -> int:
        """Depth of ``node``."""
        return self.levels[self._cube.check_node(node)]

    def is_leaf(self, node: int) -> bool:
        """True when ``node`` has no children."""
        return not self.children_map[self._cube.check_node(node)]

    def edges(self) -> list[DirectedEdge]:
        """All ``N - 1`` directed tree edges ``parent -> child``."""
        return [
            DirectedEdge(p, c)
            for c, p in self.parents_map.items()
            if p is not None
        ]

    # -- subtrees of the root ---------------------------------------------------

    @cached_property
    def root_subtrees(self) -> dict[int, tuple[int, ...]]:
        """Map root-child -> all nodes of the subtree hanging off it.

        The paper's "subtree j" terminology always refers to subtrees of
        the root; here they are keyed by the root child they hang from
        and listed in ascending node order.
        """
        owner: dict[int, int] = {}
        for child in self.children_map[self._root]:
            stack = [child]
            while stack:
                node = stack.pop()
                owner[node] = child
                stack.extend(self.children_map[node])
        groups: dict[int, list[int]] = {c: [] for c in self.children_map[self._root]}
        for node, c in owner.items():
            groups[c].append(node)
        return {c: tuple(sorted(nodes)) for c, nodes in groups.items()}

    def subtree_of(self, node: int) -> tuple[int, ...]:
        """All nodes of the subtree rooted at ``node`` (including it)."""
        self._cube.check_node(node)
        out = []
        stack = [node]
        while stack:
            cur = stack.pop()
            out.append(cur)
            stack.extend(self.children_map[cur])
        return tuple(sorted(out))

    @cached_property
    def subtree_sizes(self) -> dict[int, int]:
        """Size of the subtree rooted at each node (leaves map to 1)."""
        sizes = {i: 1 for i in self._cube.nodes()}
        for node in sorted(self.levels, key=self.levels.__getitem__, reverse=True):
            p = self.parents_map[node]
            if p is not None:
                sizes[p] += sizes[node]
        return sizes

    def descendant_counts_by_distance(self, node: int) -> list[int]:
        """``phi(node, d)``: nodes at distance ``d`` below ``node`` in its subtree.

        Index ``d`` of the returned list counts subtree nodes exactly
        ``d`` tree-hops below ``node`` (index 0 is ``node`` itself).
        This is the paper's ``phi(i, j)`` used by BST property 3.
        """
        base_level = self.level(node)
        counts: list[int] = []
        for member in self.subtree_of(node):
            d = self.levels[member] - base_level
            while len(counts) <= d:
                counts.append(0)
            counts[d] += 1
        return counts

    # -- traversals ---------------------------------------------------------------

    def preorder(self, start: int | None = None) -> list[int]:
        """Depth-first preorder of the subtree at ``start`` (default root).

        Children are visited in ascending node order, matching the
        deterministic transmission tables of §5.2.
        """
        start = self._root if start is None else self._cube.check_node(start)
        out: list[int] = []
        stack = [start]
        while stack:
            node = stack.pop()
            out.append(node)
            stack.extend(reversed(self.children_map[node]))
        return out

    def breadth_first(self, start: int | None = None) -> list[int]:
        """Breadth-first order of the subtree at ``start`` (default root)."""
        start = self._root if start is None else self._cube.check_node(start)
        out = []
        queue = deque([start])
        while queue:
            node = queue.popleft()
            out.append(node)
            queue.extend(self.children_map[node])
        return out

    def reversed_breadth_first(self, start: int | None = None) -> list[int]:
        """The paper's "reversed breadth-first" order: deepest level first."""
        forward = self.breadth_first(start)
        return sorted(forward, key=lambda i: -self.levels[i])

    # -- validation ------------------------------------------------------------------

    def validate(self) -> None:
        """Structural sanity check; raises ``ValueError`` on any violation."""
        check_spanning_tree(self._cube, self._root, self.parents_map)
        for node, kids in self.children_map.items():
            for c in kids:
                if self.parents_map[c] != node:
                    raise ValueError(
                        f"children/parent inconsistency at edge {node} -> {c}"
                    )

    def to_dot(self, label_bits: bool = True) -> str:
        """Render the tree as Graphviz DOT for inspection/figures.

        Args:
            label_bits: label nodes with their binary addresses
                (``a_{n-1}…a_0``) instead of decimal.
        """
        from repro.bits.ops import bit_string

        def name(v: int) -> str:
            return bit_string(v, self.n) if label_bits else str(v)

        lines = [
            "digraph tree {",
            "  rankdir=TB;",
            f'  label="{type(self).__name__} root={name(self._root)}";',
            f'  "{name(self._root)}" [shape=doublecircle];',
        ]
        for child, parent in sorted(self.parents_map.items()):
            if parent is not None:
                lines.append(f'  "{name(parent)}" -> "{name(child)}";')
        lines.append("}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(n={self.n}, root={self._root})"
        )
