"""The Boolean ``n``-cube graph model.

A Boolean cube (hypercube) of dimension ``n`` has ``N = 2**n`` nodes,
diameter ``n``, ``C(n, i)`` nodes at distance ``i`` from any node, and
``n`` disjoint paths between any pair of nodes.  Each undirected
communication *link* between neighbours is modelled as a pair of
directed *edges* (the paper's graph model, §2).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from math import comb

from typing import Any

from repro.bits.ops import (
    bit,
    flip_bit,
    hamming_distance,
    lowest_set_bit,
    mask,
    popcount,
)
from repro.topology.base import Topology, require_integer

__all__ = ["Hypercube", "DirectedEdge"]


@dataclass(frozen=True, order=True)
class DirectedEdge:
    """A directed cube edge ``src -> dst`` crossing one dimension.

    Attributes:
        src: source node address.
        dst: destination node address (differs from ``src`` in one bit).
    """

    src: int
    dst: int

    @property
    def dimension(self) -> int:
        """The dimension (port number) this edge crosses."""
        diff = self.src ^ self.dst
        if popcount(diff) != 1:
            raise ValueError(f"{self} is not a cube edge")
        return lowest_set_bit(diff)

    def reversed(self) -> "DirectedEdge":
        """The opposite directed edge of the same link."""
        return DirectedEdge(self.dst, self.src)

    @property
    def link(self) -> tuple[int, int]:
        """Canonical undirected link identifier ``(min, max)``."""
        return (min(self.src, self.dst), max(self.src, self.dst))


class Hypercube(Topology):
    """A Boolean cube of dimension ``n`` with ``N = 2**n`` nodes.

    >>> q = Hypercube(3)
    >>> q.num_nodes
    8
    >>> sorted(q.neighbors(0))
    [1, 2, 4]
    >>> q.distance(0b000, 0b101)
    2
    """

    kind = "hypercube"

    def __init__(self, n: int):
        n = require_integer(n, "cube dimension")
        if n < 1:
            raise ValueError(f"cube dimension must be >= 1, got {n}")
        if n > 24:
            raise ValueError(
                f"cube dimension {n} would allocate {1 << n} nodes; "
                "this library targets n <= 24"
            )
        self._n = n

    # -- basic shape -------------------------------------------------------

    @property
    def dimension(self) -> int:
        """Cube dimension ``n = log2 N``."""
        return self._n

    @property
    def num_nodes(self) -> int:
        """``N = 2**n``."""
        return 1 << self._n

    @property
    def num_ports(self) -> int:
        """Ports per node — one per dimension, ``n``."""
        return self._n

    @property
    def num_links(self) -> int:
        """Number of undirected links, ``N * n / 2``."""
        return (self.num_nodes * self._n) // 2

    @property
    def num_directed_edges(self) -> int:
        """Number of directed edges, ``N * n``."""
        return self.num_nodes * self._n

    @property
    def diameter(self) -> int:
        """Graph diameter, ``n``."""
        return self._n

    def nodes(self) -> range:
        """All node addresses ``0 .. N-1``."""
        return range(self.num_nodes)

    def contains(self, node: int) -> bool:
        """True when ``node`` is a valid address in this cube."""
        return 0 <= node < self.num_nodes

    def check_node(self, node: int) -> int:
        """Validate ``node`` and return it as a plain ``int``; raise
        ``ValueError`` otherwise."""
        if type(node) is not int:
            node = require_integer(node, "node address")
        if not self.contains(node):
            raise ValueError(f"node {node} outside a {self._n}-cube (N={self.num_nodes})")
        return node

    # -- adjacency ---------------------------------------------------------

    def neighbor(self, node: int, port: int) -> int:
        """The node reached from ``node`` through ``port`` (flip bit ``port``)."""
        self.check_node(node)
        self.check_port(port)
        return flip_bit(node, port)

    def neighbors(self, node: int) -> list[int]:
        """All ``n`` neighbours of ``node``, in port order."""
        self.check_node(node)
        return [flip_bit(node, j) for j in range(self._n)]

    def check_port(self, port: int) -> int:
        """Validate and return a port number ``0 .. n-1``."""
        if not 0 <= port < self._n:
            raise ValueError(f"port {port} outside 0..{self._n - 1}")
        return port

    def are_adjacent(self, a: int, b: int) -> bool:
        """True when ``a`` and ``b`` differ in exactly one bit."""
        self.check_node(a)
        self.check_node(b)
        return popcount(a ^ b) == 1

    def port_towards(self, src: int, dst: int) -> int:
        """The port connecting adjacent nodes ``src`` and ``dst``."""
        if not self.are_adjacent(src, dst):
            raise ValueError(f"nodes {src} and {dst} are not adjacent")
        return lowest_set_bit(src ^ dst)

    def edges(self) -> Iterator[DirectedEdge]:
        """All ``N * n`` directed edges."""
        for node in self.nodes():
            for port in range(self._n):
                yield DirectedEdge(node, flip_bit(node, port))

    def links(self) -> Iterator[tuple[int, int]]:
        """All undirected links as canonical ``(low, high)`` pairs."""
        for node in self.nodes():
            for port in range(self._n):
                other = flip_bit(node, port)
                if node < other:
                    yield (node, other)

    # -- metric structure ----------------------------------------------------

    def distance(self, a: int, b: int) -> int:
        """Hamming distance between nodes ``a`` and ``b``."""
        self.check_node(a)
        self.check_node(b)
        return hamming_distance(a, b)

    def nodes_at_distance(self, node: int, d: int) -> list[int]:
        """All nodes at Hamming distance exactly ``d`` from ``node``.

        There are ``C(n, d)`` of them.
        """
        self.check_node(node)
        if not 0 <= d <= self._n:
            raise ValueError(f"distance {d} outside 0..{self._n}")
        return [node ^ m for m in _masks_of_weight(self._n, d)]

    def sphere_size(self, d: int) -> int:
        """``C(n, d)`` — number of nodes at distance ``d`` from any node."""
        if not 0 <= d <= self._n:
            raise ValueError(f"distance {d} outside 0..{self._n}")
        return comb(self._n, d)

    def shortest_path(self, src: int, dst: int, dimension_order: str = "ascending") -> list[int]:
        """One shortest path correcting differing bits in a fixed order.

        Args:
            src: start node.
            dst: end node.
            dimension_order: ``"ascending"`` or ``"descending"`` bit
                correction order (e-cube routing variants).
        """
        self.check_node(src)
        self.check_node(dst)
        diff = src ^ dst
        dims = [j for j in range(self._n) if bit(diff, j)]
        if dimension_order == "descending":
            dims.reverse()
        elif dimension_order != "ascending":
            raise ValueError(f"unknown dimension_order {dimension_order!r}")
        path = [src]
        cur = src
        for j in dims:
            cur = flip_bit(cur, j)
            path.append(cur)
        return path

    def disjoint_paths(self, src: int, dst: int) -> list[list[int]]:
        """``n`` pairwise internally node-disjoint paths ``src -> dst``.

        Classic construction [Saad & Schultz]: with ``d`` the Hamming
        distance and ``dims`` the differing dimensions in ascending
        order, path ``r`` (for ``r < d``) corrects the differing
        dimensions in the rotation ``dims[r:] + dims[:r]``; each of the
        remaining ``n - d`` paths first steps across a non-differing
        dimension ``e``, corrects all differing dimensions, and steps
        back across ``e``.  Paths have length ``d`` or ``d + 2``.
        """
        self.check_node(src)
        self.check_node(dst)
        if src == dst:
            raise ValueError("disjoint paths require distinct endpoints")
        diff = src ^ dst
        dims = [j for j in range(self._n) if bit(diff, j)]
        d = len(dims)
        paths: list[list[int]] = []
        for r in range(d):
            order = dims[r:] + dims[:r]
            cur = src
            path = [cur]
            for j in order:
                cur = flip_bit(cur, j)
                path.append(cur)
            paths.append(path)
        for e in range(self._n):
            if bit(diff, e):
                continue
            cur = flip_bit(src, e)
            path = [src, cur]
            for j in dims:
                cur = flip_bit(cur, j)
                path.append(cur)
            path.append(flip_bit(cur, e))
            paths.append(path)
        return paths

    # -- subcubes ------------------------------------------------------------

    def subcube(self, fixed_bits: dict[int, int]) -> list[int]:
        """Nodes of the subcube where bit ``j`` is pinned to ``fixed_bits[j]``.

        >>> Hypercube(3).subcube({2: 1})
        [4, 5, 6, 7]
        """
        for j, v in fixed_bits.items():
            self.check_port(j)
            if v not in (0, 1):
                raise ValueError(f"bit value must be 0 or 1, got {v!r}")
        free = [j for j in range(self._n) if j not in fixed_bits]
        fixed_value = sum(v << j for j, v in fixed_bits.items())
        out = []
        for combo in range(1 << len(free)):
            v = fixed_value
            for idx, j in enumerate(free):
                if (combo >> idx) & 1:
                    v |= 1 << j
            out.append(v)
        return sorted(out)

    def translate(self, node: int, by: int) -> int:
        """Translate ``node`` by XOR with ``by`` (graph automorphism)."""
        self.check_node(node)
        self.check_node(by)
        return node ^ by

    def translation(self, by: int) -> list[int]:
        """``translate(i, by)`` for every node ``i``: one XOR per node."""
        by = self.check_node(by)
        return [i ^ by for i in range(self.num_nodes)]

    def edge_ports(self, src, dst):  # type: ignore[no-untyped-def]
        """Vectorized ``port_towards``: the flipped bit, ``-1`` for non-edges."""
        import numpy as np

        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        diff = src ^ dst
        ok = (
            (src >= 0)
            & (src < self.num_nodes)
            & (dst >= 0)
            & (dst < self.num_nodes)
            & (diff > 0)
            & ((diff & (diff - 1)) == 0)
        )
        safe = np.where(ok, diff, 1)
        port = np.round(np.log2(safe.astype(np.float64))).astype(np.int32)
        return np.where(ok, port, np.int32(-1))

    def cache_token(self) -> tuple[Any, ...]:
        """``("hypercube", n)`` — distinct from any torus of the same n."""
        return ("hypercube", self._n)

    def __repr__(self) -> str:
        return f"Hypercube(n={self._n}, N={self.num_nodes})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Hypercube) and other._n == self._n

    def __hash__(self) -> int:
        return hash(("Hypercube", self._n))


def _masks_of_weight(n: int, w: int) -> Iterator[int]:
    """All ``n``-bit masks of popcount ``w`` (Gosper's hack order)."""
    if w == 0:
        yield 0
        return
    x = mask(w)
    limit = 1 << n
    while x < limit:
        yield x
        c = x & -x
        r = x + c
        x = (((r ^ x) >> 2) // c) | r
