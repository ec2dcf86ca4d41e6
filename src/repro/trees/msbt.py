"""Multiple Spanning Binomial Trees (MSBT), §3.2–3.3 of the paper.

The MSBT graph consists of ``n`` *edge-disjoint* directed spanning
trees, one per port ``j`` of the source ``s``.  The ``j``-th tree is an
Edge-Reversed Spanning Binomial Tree (ERSBT): an SBT rooted at the
source's neighbour across dimension ``j`` (rotated so the source falls
in its smallest subtree) with the edge to the source reversed.

Together the ``n`` ERSBTs use every directed edge of the cube except
the ``n`` edges pointing *into* the source — which is what lets the
source push ``n`` distinct packets per cycle and achieve the
``ceil(M / (B log N)) + log N`` all-port broadcast lower bound.

The module also implements the paper's edge-labelling ``f(i, j)``
(§3.3.2) which assigns each tree edge the cycle, modulo the pipelining
period, in which it carries a packet; the three validity conditions it
satisfies are checked by :meth:`MSBTGraph.validate_labelling`.
"""

from __future__ import annotations

from functools import cached_property

from repro.bits.ops import bit, flip_bit
from repro.topology.hypercube import DirectedEdge, Hypercube
from repro.trees.base import SpanningTree

__all__ = [
    "msbt_k",
    "msbt_zero_span",
    "ersbt_parent",
    "ersbt_children",
    "msbt_label",
    "EdgeReversedSBT",
    "MSBTGraph",
]


def msbt_k(c: int, j: int, n: int) -> int:
    """The paper's ``k``: first set bit cyclically to the right of bit ``j``.

    Scans positions ``j-1, j-2, ..., 0, n-1, ..., j`` of the relative
    address ``c`` and returns the first position holding a one.  Returns
    ``j`` itself when ``c == 2**j`` and ``-1`` when ``c == 0``.
    """
    if c == 0:
        return -1
    for step in range(1, n + 1):
        pos = (j - step) % n
        if bit(c, pos):
            return pos
    raise AssertionError("unreachable: c != 0 has a set bit")


def msbt_zero_span(c: int, j: int, n: int) -> tuple[int, ...]:
    """The paper's set ``M_MSBT(c, j) = {(k+1) mod n, ..., (j-1) mod n}``.

    These are the zero positions of ``c`` strictly between ``k`` and
    ``j`` (cyclically); flipping each yields one child of the node.
    Returned in the scan order nearest-to-``j`` first.
    """
    k = msbt_k(c, j, n)
    if k == -1:
        return ()
    out = []
    for step in range(1, n + 1):
        pos = (j - step) % n
        if pos == k:
            break
        out.append(pos)
    return tuple(out)


def ersbt_parent(i: int, j: int, s: int, n: int) -> int | None:
    """Parent of node ``i`` in the ``j``-th ERSBT of the MSBT at source ``s``."""
    c = i ^ s
    k = msbt_k(c, j, n)
    if k == -1:
        return None
    if not bit(c, j):
        return flip_bit(i, j)
    return flip_bit(i, k)


def ersbt_children(i: int, j: int, s: int, n: int) -> tuple[int, ...]:
    """Children of node ``i`` in the ``j``-th ERSBT of the MSBT at source ``s``."""
    c = i ^ s
    k = msbt_k(c, j, n)
    if k == -1:
        return (flip_bit(i, j),)
    if not bit(c, j):
        return ()
    span = msbt_zero_span(c, j, n)
    if k != j:
        return tuple(flip_bit(i, m) for m in (*span, j))
    return tuple(flip_bit(i, m) for m in span)


def msbt_label(i: int, j: int, s: int, n: int) -> int | None:
    """The labelling ``f(i, j)``: time slot of node ``i``'s input edge in tree ``j``.

    ``None`` at the source (which has no input edge).  The labels range
    over ``0 .. 2n - 1``; along every tree path they strictly increase,
    and at every node the input labels — and separately the output
    labels — are distinct modulo ``n``.  Broadcasting one packet per
    subtree therefore completes in ``2 log N`` cycles under the
    one-send-and-one-receive port model, with a fresh packet admitted
    every ``n`` cycles when pipelining.
    """
    c = i ^ s
    k = msbt_k(c, j, n)
    if k == -1:
        return None
    if not bit(c, j):
        return j + n
    if k >= j:
        return k
    return k + n


class EdgeReversedSBT(SpanningTree):
    """The ``j``-th ERSBT of an MSBT graph: a spanning tree rooted at the source.

    All nodes with relative bit ``j`` equal to one are internal; all
    others (except the source) are leaves hanging one hop across
    dimension ``j`` off an internal node.
    """

    def __init__(self, cube: Hypercube, j: int, root: int = 0):
        super().__init__(cube, root)
        self._j = cube.check_port(j)

    @property
    def tree_index(self) -> int:
        """Which of the ``n`` ERSBTs this is (the port ``j`` it starts on)."""
        return self._j

    def parent(self, node: int) -> int | None:
        self._cube.check_node(node)
        return ersbt_parent(node, self._j, self._root, self.n)

    def children(self, node: int) -> tuple[int, ...]:
        self._cube.check_node(node)
        return ersbt_children(node, self._j, self._root, self.n)

    def label(self, node: int) -> int | None:
        """Input-edge label ``f(node, j)`` of this node (``None`` at the source)."""
        self._cube.check_node(node)
        return msbt_label(node, self._j, self._root, self.n)


class MSBTGraph:
    """The union of the ``n`` edge-disjoint ERSBTs rooted at ``source``.

    >>> g = MSBTGraph(Hypercube(3))
    >>> len(g.trees)
    3
    >>> g.validate()          # edge-disjoint, spanning, correct edge budget
    >>> g.validate_labelling()
    """

    def __init__(self, cube: Hypercube, source: int = 0):
        self._cube = cube
        self._source = cube.check_node(source)
        self._trees = tuple(
            EdgeReversedSBT(cube, j, source) for j in range(cube.dimension)
        )

    @property
    def cube(self) -> Hypercube:
        """The host hypercube."""
        return self._cube

    @property
    def source(self) -> int:
        """The broadcast source node."""
        return self._source

    @property
    def trees(self) -> tuple[EdgeReversedSBT, ...]:
        """The ``n`` ERSBTs, indexed by starting port ``j``."""
        return self._trees

    @property
    def n(self) -> int:
        """Cube dimension."""
        return self._cube.dimension

    def label(self, node: int, j: int) -> int | None:
        """``f(node, j)`` for tree ``j``."""
        return self._trees[j].label(node)

    @cached_property
    def height(self) -> int:
        """Height of the MSBT graph: max tree height (``log N + 1``)."""
        return max(t.height for t in self._trees)

    def all_edges(self) -> set[DirectedEdge]:
        """Union of the directed edges of all ``n`` trees."""
        out: set[DirectedEdge] = set()
        for t in self._trees:
            out.update(t.edges())
        return out

    def unused_edges(self) -> set[DirectedEdge]:
        """Cube edges used by no tree — exactly the edges into the source."""
        return {
            DirectedEdge(e.src, e.dst)
            for e in self._cube.edges()
        } - self.all_edges()

    def validate(self) -> None:
        """Check spanning + edge-disjointness + the edge budget of §3.2."""
        for t in self._trees:
            t.validate()
        edge_lists = [t.edges() for t in self._trees]
        total = sum(len(es) for es in edge_lists)
        union = set().union(*map(set, edge_lists))
        if total != len(union):
            raise ValueError("ERSBTs are not edge-disjoint")
        expected = (self._cube.num_nodes - 1) * self.n
        if total != expected:
            raise ValueError(
                f"expected {(self._cube.num_nodes - 1)} * {self.n} = {expected} "
                f"directed edges, found {total}"
            )
        unused = self.unused_edges()
        wanted_unused = {
            DirectedEdge(flip_bit(self._source, j), self._source)
            for j in range(self.n)
        }
        if unused != wanted_unused:
            raise ValueError(
                "the unused directed edges are not exactly the edges into the source"
            )

    def validate_labelling(self) -> None:
        """Check the three conditions of §3.3.2 on the labelling ``f``.

        1. On every tree path the labels strictly increase (the least
           output label at a node exceeds its input label).
        2. At every cube node the input-edge labels are distinct mod n.
        3. At every cube node the output-edge labels are distinct mod n.
        """
        n = self.n
        for node in self._cube.nodes():
            in_labels: list[int] = []
            out_labels: list[int] = []
            for j, t in enumerate(self._trees):
                lab = t.label(node)
                if lab is not None:
                    in_labels.append(lab)
                for child in t.children(node):
                    child_lab = t.label(child)
                    assert child_lab is not None
                    out_labels.append(child_lab)
                    if lab is not None and child_lab <= lab:
                        raise ValueError(
                            f"condition 1 violated at node {node}, tree {j}: "
                            f"input label {lab} >= output label {child_lab}"
                        )
            if len({v % n for v in in_labels}) != len(in_labels):
                raise ValueError(
                    f"condition 2 violated at node {node}: input labels {in_labels}"
                )
            if len({v % n for v in out_labels}) != len(out_labels):
                raise ValueError(
                    f"condition 3 violated at node {node}: output labels {out_labels}"
                )

    def max_label(self) -> int:
        """Largest input-edge label over the whole graph (``2n - 1``)."""
        best = 0
        for t in self._trees:
            for node in self._cube.nodes():
                lab = t.label(node)
                if lab is not None and lab > best:
                    best = lab
        return best

    def __repr__(self) -> str:
        return f"MSBTGraph(n={self.n}, source={self._source})"
