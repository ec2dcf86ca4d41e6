"""The ``Topology`` protocol: what schedule generation needs from a graph.

Every interconnect the scheduling layers can target — the paper's Boolean
``n``-cube and the k-ary ``n``-cube tori of Jung & Sakho — exposes the same
small surface: an address space ``0 .. N-1``, per-node ports, neighbor
lookup by port, the inverse ``port_towards`` map, canonical undirected
links, a vertex-transitive ``translate`` automorphism, and a hashable
``cache_token`` identifying the instance across processes.  Spanning-tree
construction (``repro.trees``), schedule generation (``repro.routing``),
the three engines (``repro.sim``), and the caches key off this protocol
only, so new topologies plug in without touching those layers.

``edge_ports`` is the vectorized entry point the array-core lowering and
the synchronous round validator use: given parallel arrays of sources and
destinations it returns the port each pair crosses, or ``-1`` where the
pair is not a directed edge of the topology.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterator
from numbers import Integral
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    import numpy as np

__all__ = ["Topology", "topology_token", "resolve_topology", "TOPOLOGY_KINDS"]


def require_integer(value: object, what: str) -> int:
    """Return ``value`` as an ``int`` if it is an integer; raise
    ``ValueError`` otherwise.

    ``bool`` is rejected although it subclasses ``int``: ``True`` as a
    node address or dimension is a caller bug, not node 1.
    """
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


class Topology(ABC):
    """Abstract interconnect graph over addresses ``0 .. N-1``.

    Subclasses implement the abstract surface; everything else
    (iteration, containment checks, link enumeration) derives from it.
    """

    #: short machine-readable family name ("hypercube", "torus", ...)
    kind: str = "topology"

    # -- abstract surface --------------------------------------------------

    @property
    @abstractmethod
    def dimension(self) -> int:
        """Number of dimensions ``n``."""

    @property
    @abstractmethod
    def num_nodes(self) -> int:
        """Number of nodes ``N``."""

    @property
    @abstractmethod
    def num_ports(self) -> int:
        """Ports per node (out-degree of every node)."""

    @abstractmethod
    def neighbor(self, node: int, port: int) -> int:
        """The node reached from ``node`` through ``port``."""

    @abstractmethod
    def port_towards(self, src: int, dst: int) -> int:
        """The port connecting adjacent ``src`` to ``dst``; raise otherwise."""

    @abstractmethod
    def translate(self, node: int, by: int) -> int:
        """Vertex-transitive automorphism moving node 0 to ``by``."""

    @abstractmethod
    def cache_token(self) -> tuple[Any, ...]:
        """Hashable, process-stable identity for cache keys."""

    # -- derived shape -----------------------------------------------------

    @property
    def num_directed_edges(self) -> int:
        """Number of directed edges, ``N * num_ports``."""
        return self.num_nodes * self.num_ports

    @property
    def num_links(self) -> int:
        """Number of undirected links, ``N * num_ports / 2``."""
        return self.num_directed_edges // 2

    def nodes(self) -> range:
        """All node addresses ``0 .. N-1``."""
        return range(self.num_nodes)

    def contains(self, node: int) -> bool:
        """True when ``node`` is a valid address in this topology."""
        return 0 <= node < self.num_nodes

    def check_node(self, node: int) -> int:
        """Validate ``node`` and return it as a plain ``int``; raise
        ``ValueError`` otherwise."""
        if type(node) is not int:
            node = require_integer(node, "node address")
        if not self.contains(node):
            raise ValueError(f"node {node} outside {self!r}")
        return node

    def check_port(self, port: int) -> int:
        """Validate and return a port number ``0 .. num_ports-1``."""
        if not 0 <= port < self.num_ports:
            raise ValueError(f"port {port} outside 0..{self.num_ports - 1}")
        return port

    def translation(self, by: int) -> list[int]:
        """``translate(i, by)`` for every node ``i``, as a permutation list."""
        return [self.translate(i, by) for i in self.nodes()]

    def neighbors(self, node: int) -> list[int]:
        """All neighbours of ``node``, in port order."""
        self.check_node(node)
        return [self.neighbor(node, p) for p in range(self.num_ports)]

    def are_adjacent(self, a: int, b: int) -> bool:
        """True when a directed edge ``a -> b`` exists."""
        self.check_node(a)
        self.check_node(b)
        if a == b:
            return False
        return b in self.neighbors(a)

    def links(self) -> Iterator[tuple[int, int]]:
        """All undirected links as canonical ``(low, high)`` pairs."""
        for node in self.nodes():
            for port in range(self.num_ports):
                other = self.neighbor(node, port)
                if node < other:
                    yield (node, other)

    # -- vectorized adjacency ---------------------------------------------

    def edge_ports(self, src: "np.ndarray", dst: "np.ndarray") -> "np.ndarray":
        """Port crossed by each ``src[i] -> dst[i]`` pair, ``-1`` if not an edge.

        The default implementation is a per-pair python loop; subclasses
        override with a closed-form array computation for the hot paths
        (array-core lowering, vectorized round validation).
        """
        import numpy as np

        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        out = np.full(src.shape, -1, dtype=np.int32)
        flat_src = src.ravel()
        flat_dst = dst.ravel()
        flat_out = out.ravel()
        for i in range(flat_src.shape[0]):
            s = int(flat_src[i])
            d = int(flat_dst[i])
            if 0 <= s < self.num_nodes and 0 <= d < self.num_nodes and s != d:
                try:
                    flat_out[i] = self.port_towards(s, d)
                except ValueError:
                    pass
        return flat_out.reshape(src.shape)


def topology_token(topo: object) -> tuple[Any, ...]:
    """Cache identity for ``topo``, tolerating pre-protocol cube objects."""
    token = getattr(topo, "cache_token", None)
    if callable(token):
        return tuple(token())
    # Duck-typed fallback: anything cube-like with a dimension.
    return (type(topo).__name__.lower(), getattr(topo, "dimension", None))


def resolve_topology(kind: str, dimension: int, k: int = 3) -> Topology:
    """Construct a topology by family name (CLI / config entry point).

    Args:
        kind: ``"hypercube"`` or ``"torus"``.
        dimension: number of dimensions ``n``.
        k: ring arity for the torus (ignored for hypercubes).
    """
    from repro.topology.hypercube import Hypercube
    from repro.topology.torus import Torus

    if kind == "hypercube":
        return Hypercube(dimension)
    if kind == "torus":
        return Torus(dimension, k)
    raise ValueError(f"unknown topology kind {kind!r}; expected one of {TOPOLOGY_KINDS}")


#: topology family names accepted by :func:`resolve_topology` and the CLI
TOPOLOGY_KINDS: tuple[str, ...] = ("hypercube", "torus")
