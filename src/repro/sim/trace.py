"""Per-link traffic statistics collected by both engines.

Broadcasting loads links evenly only under the MSBT; the SBT pushes
half of all scatter traffic over one root port.  These counters make
that bandwidth story (the core of §4) measurable.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.sim.onread import OnRead
from repro.topology.hypercube import DirectedEdge

__all__ = ["LinkStats"]


def _counter(name: str):
    """Builder of counter ``name``; both counters share one edge list."""

    def build(stats: "LinkStats") -> Counter:
        links = stats._on_read
        if "edges" not in links:
            links["edges"] = list(
                map(DirectedEdge, links["src"].tolist(), links["dst"].tolist())
            )
        return Counter(dict(zip(links["edges"], links[name].tolist())))

    return build


@dataclass
class LinkStats(OnRead):
    """Traffic accounting per directed edge.

    Attributes:
        elems: elements moved per directed edge.
        packets: packets moved per directed edge.
    """

    elems: Counter = field(default_factory=Counter)
    packets: Counter = field(default_factory=Counter)

    _builders = {"elems": _counter("elems"), "packets": _counter("packets")}

    @classmethod
    def from_links(
        cls,
        src: np.ndarray,
        dst: np.ndarray,
        packets: np.ndarray,
        elems: np.ndarray,
    ) -> "LinkStats":
        """Stats of the used links ``src[i] -> dst[i]``, given in the
        counters' key order, with ``packets[i]`` packets carrying
        ``elems[i]`` elements.

        Each counter is built on its first read, from one shared edge
        list; the totals and maxima answer from the arrays until then.
        """
        return cls.on_read(
            {"src": src, "dst": dst, "packets": packets, "elems": elems}
        )

    def _counts(self, name: str) -> np.ndarray | None:
        """The per-link array behind counter ``name`` while it is unbuilt."""
        return self._on_read[name] if self._unbuilt(name) else None

    def record(self, src: int, dst: int, n_elems: int) -> None:
        """Account one packet of ``n_elems`` elements on edge ``src -> dst``."""
        edge = DirectedEdge(src, dst)
        self.elems[edge] += n_elems
        self.packets[edge] += 1

    def max_edge_elems(self) -> int:
        """Heaviest directed-edge traffic, in elements (bandwidth bottleneck)."""
        counts = self._counts("elems")
        if counts is not None:
            return int(counts.max()) if counts.size else 0
        return max(self.elems.values(), default=0)

    def max_edge_packets(self) -> int:
        """Heaviest directed-edge traffic, in packets (start-up bottleneck)."""
        counts = self._counts("packets")
        if counts is not None:
            return int(counts.max()) if counts.size else 0
        return max(self.packets.values(), default=0)

    def total_elems(self) -> int:
        """Total element-hops moved."""
        counts = self._counts("elems")
        if counts is not None:
            return int(counts.sum())
        return sum(self.elems.values())

    def total_packets(self) -> int:
        """Total packet-hops moved."""
        counts = self._counts("packets")
        if counts is not None:
            return int(counts.sum())
        return sum(self.packets.values())

    def links_used(self) -> int:
        """Number of directed edges that carried a packet."""
        counts = self._counts("packets")
        if counts is not None:
            return int(counts.size)
        return len(self.packets)

    def port_elems(self, node: int) -> dict[int, int]:
        """Outbound traffic of ``node`` per port (elements)."""
        out: dict[int, int] = {}
        for edge, n in self.elems.items():
            if edge.src == node:
                out[edge.dimension] = out.get(edge.dimension, 0) + n
        return out

    def busiest_edges(self, k: int = 5) -> list[tuple[DirectedEdge, int]]:
        """The ``k`` most loaded directed edges by elements."""
        return self.elems.most_common(k)

    def merge(self, *others: "LinkStats") -> "LinkStats":
        """Fold other stats into this one (in place); returns ``self``.

        Counters add edge-wise, so merging per-worker (or per-actor)
        stats yields exactly the counters a single global observer
        would have recorded.  Used by the runtime cluster (one
        :class:`LinkStats` per actor) and by sweep telemetry.
        """
        for other in others:
            self.elems.update(other.elems)
            self.packets.update(other.packets)
        return self

    @classmethod
    def merged(cls, stats: "list[LinkStats] | tuple[LinkStats, ...]") -> "LinkStats":
        """A fresh :class:`LinkStats` combining ``stats`` (inputs untouched)."""
        return cls().merge(*stats)
