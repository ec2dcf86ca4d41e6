"""Ring-decomposition spanning tree for k-ary n-cube tori.

The torus factors into ``n`` directed rings per node; the
dimension-ordered spanning tree corrects the *highest* non-zero
relative coordinate one step toward zero along the shorter ring
direction (ties go forward).  Depth is the torus diameter
``n * floor(k/2)`` — a shortest-path tree — and each ring splits into
a forward branch of ``ceil((k-1)/2)`` nodes and a backward branch of
``floor((k-1)/2)`` nodes, the bidirectional circulation of Jung &
Sakho's broadcast construction.

The parent rule is a pure function of the relative coordinates
``(c_i - root_i) mod k``, so the tree is translation-equivariant: the
tree at any root is the coordinate-wise translation of the tree at
root 0.
"""

from __future__ import annotations

from repro.topology.torus import Torus
from repro.trees.base import SpanningTree

__all__ = ["RingDecompositionTree"]


class RingDecompositionTree(SpanningTree):
    """Dimension-ordered shortest-path spanning tree of a torus.

    >>> t = RingDecompositionTree(Torus(1, 5), root=0)
    >>> [t.parent(v) for v in range(5)]
    [None, 0, 1, 4, 0]
    """

    def __init__(self, cube: Torus, root: int = 0):
        if not isinstance(cube, Torus):
            raise TypeError(
                f"RingDecompositionTree requires a Torus host, got {type(cube).__name__}"
            )
        super().__init__(cube, root)

    def parent(self, node: int) -> int | None:
        """Correct the highest non-zero relative digit one ring step."""
        cube: Torus = self._cube  # type: ignore[assignment]
        self._cube.check_node(node)
        if node == self._root:
            return None
        k = cube.arity
        rel = [
            (c - r) % k
            for c, r in zip(cube.coords(node), cube.coords(self._root))
        ]
        dim = max(i for i, d in enumerate(rel) if d != 0)
        # Forward branch covers relative positions 1 .. ceil((k-1)/2);
        # the rest arrive backward around the ring.
        if rel[dim] <= (k - 1) - (k - 1) // 2:
            rel[dim] -= 1
        else:
            rel[dim] = (rel[dim] + 1) % k
        root_coords = cube.coords(self._root)
        return cube.from_coords(
            tuple((d + r) % k for d, r in zip(rel, root_coords))
        )
