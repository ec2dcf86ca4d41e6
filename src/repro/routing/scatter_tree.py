"""Generic tree scatter — drives the TCBT comparison rows of Table 6.

All-port: the level-by-level wave order (lemma 4.2) applied verbatim.
One-port: the same wave bundles serialized greedily, with the root
alternating between its subtrees; this realizes the paper's TCBT
personalized-communication bounds up to the scheduling slack its
"<=" rows allow.
"""

from __future__ import annotations

from repro.routing.scatter_common import wave_scatter_schedule
from repro.routing.scheduler import reschedule
from repro.sim.ports import PortModel
from repro.sim.schedule import Schedule
from repro.trees.base import SpanningTree

__all__ = ["tree_scatter_schedule"]


def tree_scatter_schedule(
    tree: SpanningTree,
    message_elems: int,
    packet_elems: int,
    port_model: PortModel,
) -> Schedule:
    """Scatter from ``tree.root`` along an arbitrary spanning tree.

    Args:
        tree: any spanning tree of the cube (root = source).
        message_elems: per-destination message size ``M``.
        packet_elems: maximum packet size ``B``.
        port_model: port model the schedule must respect.
    """
    name = f"{type(tree).__name__.lower()}-scatter"
    wave = wave_scatter_schedule(tree, message_elems, packet_elems, algorithm=name)
    if port_model is PortModel.ALL_PORT:
        return wave
    serialized = reschedule(
        tree.cube,
        wave,
        port_model,
        {tree.root: set(wave.chunk_sizes)},
    )
    serialized.algorithm = name
    serialized.meta.update(port_model=port_model.value, source=tree.root)
    return serialized
