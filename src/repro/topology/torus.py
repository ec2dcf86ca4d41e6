"""The k-ary ``n``-cube torus of Jung & Sakho.

A ``Torus(n, k)`` has ``N = k**n`` nodes addressed in mixed radix:
coordinate ``i`` of address ``a`` is ``(a // k**i) % k``.  Each node is
adjacent to its ``+1`` and ``-1`` (mod ``k``) neighbours along every
dimension, giving ``2n`` ports per node for ``k >= 3``.  The binary
torus ``Torus(n, 2)`` collapses both ring directions onto the same
neighbour and is exactly the Boolean ``n``-cube with one port per
dimension.

Port numbering for ``k >= 3``: port ``2*i`` steps ``+1`` along
dimension ``i``, port ``2*i + 1`` steps ``-1``.  For ``k == 2`` port
``i`` flips coordinate ``i`` (matching hypercube port numbering).

Like the hypercube's XOR translation, coordinate-wise addition mod ``k``
is a vertex-transitive automorphism, so spanning trees built at root 0
translate to any root.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.topology.base import Topology, require_integer

__all__ = ["Torus"]


class Torus(Topology):
    """A k-ary ``n``-cube torus: ``n`` dimensions of ``k``-node rings.

    >>> t = Torus(2, 3)
    >>> t.num_nodes
    9
    >>> sorted(t.neighbors(0))
    [1, 2, 3, 6]
    >>> t.coords(5)
    (2, 1)
    """

    kind = "torus"

    def __init__(self, n: int, k: int):
        n = require_integer(n, "torus dimension")
        k = require_integer(k, "torus arity")
        if n < 1:
            raise ValueError(f"torus dimension must be >= 1, got {n}")
        if k < 2:
            raise ValueError(f"torus arity must be >= 2, got {k}")
        num_nodes = k**n
        if num_nodes > 1 << 24:
            raise ValueError(
                f"Torus({n}, {k}) would allocate {num_nodes} nodes; "
                "this library targets N <= 2**24"
            )
        self._n = n
        self._k = k
        self._num_nodes = num_nodes
        # One port per dimension when +1 == -1 (binary rings), else two.
        self._ports_per_dim = 1 if k == 2 else 2

    # -- basic shape -------------------------------------------------------

    @property
    def dimension(self) -> int:
        """Number of torus dimensions ``n``."""
        return self._n

    @property
    def arity(self) -> int:
        """Ring length ``k`` of every dimension."""
        return self._k

    @property
    def num_nodes(self) -> int:
        """``N = k**n``."""
        return self._num_nodes

    @property
    def num_ports(self) -> int:
        """``2n`` ports per node for ``k >= 3``; ``n`` for ``k == 2``."""
        return self._n * self._ports_per_dim

    @property
    def diameter(self) -> int:
        """Graph diameter, ``n * floor(k / 2)``."""
        return self._n * (self._k // 2)

    # -- coordinates -------------------------------------------------------

    def coords(self, node: int) -> tuple[int, ...]:
        """Mixed-radix coordinates ``(c_0, ..., c_{n-1})`` of ``node``."""
        self.check_node(node)
        out = []
        for _ in range(self._n):
            out.append(node % self._k)
            node //= self._k
        return tuple(out)

    def from_coords(self, coords: tuple[int, ...]) -> int:
        """Address of the node at ``coords`` (each reduced mod ``k``)."""
        if len(coords) != self._n:
            raise ValueError(f"expected {self._n} coordinates, got {len(coords)}")
        addr = 0
        for c in reversed(coords):
            addr = addr * self._k + (c % self._k)
        return addr

    # -- adjacency ---------------------------------------------------------

    def ring_step(self, node: int, dim: int, delta: int) -> int:
        """Node at ``+delta`` (mod ``k``) around the dimension-``dim`` ring."""
        stride = self._k**dim
        digit = (node // stride) % self._k
        return node + ((digit + delta) % self._k - digit) * stride

    def neighbor(self, node: int, port: int) -> int:
        """Node reached through ``port`` (dimension ``port // ports_per_dim``)."""
        self.check_node(node)
        self.check_port(port)
        dim, direction = divmod(port, self._ports_per_dim)
        return self.ring_step(node, dim, -1 if direction else +1)

    def are_adjacent(self, a: int, b: int) -> bool:
        """True when ``a`` and ``b`` differ by ``+-1 (mod k)`` in one dimension."""
        self.check_node(a)
        self.check_node(b)
        diff_dim = -1
        x, y = a, b
        for dim in range(self._n):
            cx, cy = x % self._k, y % self._k
            x //= self._k
            y //= self._k
            if cx == cy:
                continue
            if diff_dim >= 0:
                return False
            delta = (cy - cx) % self._k
            if delta not in (1, self._k - 1):
                return False
            diff_dim = dim
        return diff_dim >= 0

    def port_towards(self, src: int, dst: int) -> int:
        """The port crossing the single differing dimension ``src -> dst``."""
        self.check_node(src)
        self.check_node(dst)
        diff_port = -1
        x, y = src, dst
        for dim in range(self._n):
            cx, cy = x % self._k, y % self._k
            x //= self._k
            y //= self._k
            if cx == cy:
                continue
            delta = (cy - cx) % self._k
            if diff_port >= 0 or delta not in (1, self._k - 1):
                diff_port = -2
                break
            # delta == 1 is the + direction (port 2*dim); for k == 2 both
            # deltas coincide and the single port per dimension is used.
            direction = 0 if delta == 1 else 1
            diff_port = dim * self._ports_per_dim + direction
        if diff_port < 0:
            raise ValueError(f"nodes {src} and {dst} are not adjacent in {self!r}")
        return diff_port

    def edge_ports(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Vectorized ``port_towards`` over pair arrays; ``-1`` for non-edges."""
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        in_range = (src >= 0) & (src < self._num_nodes) & (dst >= 0) & (dst < self._num_nodes)
        x = np.where(in_range, src, 0)
        y = np.where(in_range, dst, 0)
        ndiff = np.zeros(src.shape, dtype=np.int64)
        port = np.full(src.shape, -1, dtype=np.int32)
        k = self._k
        for dim in range(self._n):
            cx = x % k
            cy = y % k
            x //= k
            y //= k
            delta = (cy - cx) % k
            differs = delta != 0
            ndiff += differs
            dim_port = np.where(
                delta == 1,
                dim * self._ports_per_dim,
                np.where(delta == k - 1, dim * self._ports_per_dim + 1, -1),
            ).astype(np.int32)
            port = np.where(differs & (ndiff == 1), dim_port, port)
        valid = in_range & (ndiff == 1) & (port >= 0)
        return np.where(valid, port, np.int32(-1))

    # -- metric structure ----------------------------------------------------

    def distance(self, a: int, b: int) -> int:
        """Shortest-path length: sum of per-dimension ring distances."""
        self.check_node(a)
        self.check_node(b)
        total = 0
        x, y = a, b
        for _ in range(self._n):
            delta = (y % self._k - x % self._k) % self._k
            x //= self._k
            y //= self._k
            total += min(delta, self._k - delta)
        return total

    def translate(self, node: int, by: int) -> int:
        """Coordinate-wise addition mod ``k`` (graph automorphism)."""
        self.check_node(node)
        self.check_node(by)
        out = 0
        stride = 1
        for _ in range(self._n):
            digit = (node % self._k + by % self._k) % self._k
            node //= self._k
            by //= self._k
            out += digit * stride
            stride *= self._k
        return out

    def cache_token(self) -> tuple[Any, ...]:
        """``("torus", n, k)`` — distinct from any hypercube of the same n."""
        return ("torus", self._n, self._k)

    def __repr__(self) -> str:
        return f"Torus(n={self._n}, k={self._k}, N={self._num_nodes})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Torus) and (other._n, other._k) == (self._n, self._k)

    def __hash__(self) -> int:
        return hash(("Torus", self._n, self._k))
