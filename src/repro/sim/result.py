"""The result type shared by the asynchronous engines.

Both the production engine (:func:`repro.sim.vectorized.
run_async_vectorized`) and the naive oracle
(:func:`repro.sim._engine_reference.run_async_reference`) return an
:class:`AsyncResult` and coalesce event times within ``_EPS`` of each
other into one instant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.faults import TransferLog
from repro.sim.schedule import Chunk
from repro.sim.trace import LinkStats

__all__ = ["AsyncResult"]

#: event times closer than this count as one instant
_EPS = 1e-12


@dataclass
class AsyncResult:
    """Outcome of an asynchronous run.

    Attributes:
        time: completion time of the last transfer.
        holdings: chunk ids held by every node at the end.
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
