"""The result type shared by the asynchronous engines.

Both the production engine (:func:`repro.sim.vectorized.
run_async_vectorized`) and the naive oracle
(``run_async_reference`` in ``tests/engine_reference.py``) return an
:class:`AsyncResult` and coalesce event times within ``_EPS`` of each
other into one instant.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.sim.faults import TransferLog
from repro.sim.onread import OnRead
from repro.sim.schedule import Chunk
from repro.sim.trace import LinkStats

__all__ = ["AsyncResult"]

#: event times closer than this count as one instant
_EPS = 1e-12


def holdings_from_slots(
    nodes: Iterable[int],
    parts: Iterable[tuple[np.ndarray, np.ndarray, Sequence[Chunk], Hashable]],
) -> dict[int, set[Chunk]]:
    """Fresh holdings of every node in ``nodes`` from lowered slots.

    Each part is ``(slot_node, slot_chunk, chunk_objects, tag)`` over
    the held slots of one lowering, in slot order; with a ``tag``,
    chunk ``c`` is held as ``(tag, c)`` (one tagged object per chunk,
    shared by its holders).
    """
    holdings: dict[int, set[Chunk]] = {node: set() for node in nodes}
    for slot_node, slot_chunk, chunks, tag in parts:
        if tag is not None:
            chunks = [(tag, c) for c in chunks]
        for node, c in zip(slot_node.tolist(), slot_chunk.tolist()):
            holdings[node].add(chunks[c])
    return holdings


#: the builder of a ``holdings`` kept as ``(nodes, parts)``
SLOT_HOLDINGS = {"holdings": lambda res: holdings_from_slots(*res._on_read)}


def held_count(result: OnRead) -> int | None:
    """How many slots ``result`` holds, counted on the parts its
    ``holdings`` wait to be built from (:data:`SLOT_HOLDINGS`), or
    ``None`` once they are built (a caller may have changed them)."""
    if not result._unbuilt("holdings"):
        return None
    return sum(part[0].size for part in result._on_read[1])


@dataclass
class AsyncResult(OnRead):
    """Outcome of an asynchronous run.

    Attributes:
        time: completion time of the last transfer.
        holdings: chunk ids held by every node at the end (built on
            first read for a fault-free vectorized run).
        link_stats: per-edge traffic counters.
        start_times: start time of each executed transfer, sorted
            ascending by start time (ties keep execution order), so
            ``start_times[k]`` is the k-th transfer initiation on the
            machine (useful for utilization analysis).
        transfers_executed: number of transfers run.
        transfer_log: execution provenance when requested
            (``transfer_log=True`` on the vectorized engine).
    """

    time: float
    holdings: dict[int, set[Chunk]]
    link_stats: LinkStats
    start_times: list[float] = field(default_factory=list)
    transfers_executed: int = 0
    transfer_log: TransferLog | None = None

    _builders = SLOT_HOLDINGS
