"""Reference (seed) implementation of the asynchronous engine.

This is the original O(T^2) scan-loop engine kept verbatim as a
*timing oracle*: the production engine in :mod:`repro.sim.vectorized`
is an array-core rewrite that must produce bit-identical results
(``time``, ``holdings``, ``link_stats`` and the multiset of transfer
start times).  The equivalence suite in
``tests/sim/test_engine_equivalence.py`` runs both on every algorithm
and port model; keep this module untouched unless the *semantics* of
the engine deliberately change.
"""


from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.sim.faults import (
    DegradedResult,
    FaultError,
    FaultEvent,
    FaultPlan,
    _check_mode,
    undelivered_map,
)
from repro.sim.machine import MachineParams
from repro.sim.ports import PortModel
from repro.sim.result import _EPS, AsyncResult
from repro.sim.schedule import Chunk, Schedule, Transfer
from repro.sim.trace import LinkStats
from repro.topology.base import Topology

__all__ = ["run_async_reference"]


@dataclass
class _Action:
    """One in-flight occupation of a node channel."""

    __slots__ = ("port", "start", "end")

    port: int
    start: float
    end: float


class _Channel:
    """A serialized node channel with cross-port overlap.

    A new action on port ``p`` may start once every in-flight action
    ``a`` satisfies ``t >= a.end`` (same port) or
    ``t >= a.start + (1 - overlap) * (a.end - a.start)`` (other port).
    """

    def __init__(self, overlap: float):
        self._overlap = overlap
        self._actions: list[_Action] = []

    def earliest_start(self, port: int, now: float) -> float:
        t = now
        for a in self._actions:
            if a.port == port:
                t = max(t, a.end)
            else:
                t = max(t, a.start + (1.0 - self._overlap) * (a.end - a.start))
        return t

    def occupy(self, port: int, start: float, end: float) -> None:
        self._actions = [a for a in self._actions if a.end > start + _EPS]
        self._actions.append(_Action(port, start, end))


def run_async_reference(
    cube: Topology,
    schedule: Schedule,
    port_model: PortModel,
    initial_holdings: dict[int, set[Chunk]],
    machine: MachineParams | None = None,
    faults: FaultPlan | None = None,
    on_fault: str = "raise",
) -> AsyncResult | DegradedResult:
    """Event-driven execution of ``schedule`` under ``port_model``.

    Raises ``RuntimeError`` on deadlock — i.e. when a pending transfer's
    payload can never arrive because the schedule is causally broken.

    Fault semantics are identical to :func:`repro.sim.run_async`
    (the equivalence suite's fault matrix pins both engines to the same
    outcomes): a transfer starting on an active fault raises
    :class:`FaultError` or — in ``report`` mode — is cancelled, with
    the starvation cascade terminating in a :class:`DegradedResult`.
    """
    machine = machine or MachineParams()
    _check_mode(on_fault)
    report = faults is not None and on_fault == "report"
    fault_events: list[FaultEvent] = []
    lost: list[Transfer] = []
    half = port_model.half_duplex
    allport = port_model is PortModel.ALL_PORT

    # Chunk availability per node: time at which (node, chunk) is present.
    avail: dict[tuple[int, Chunk], float] = {}
    for node, chunks in initial_holdings.items():
        for c in chunks:
            avail[(node, c)] = 0.0

    # Channels: one per node under ONE_PORT_HALF; separate send/recv
    # channels under ONE_PORT_FULL; per-directed-link only under ALL_PORT.
    send_ch: dict[int, _Channel] = {}
    recv_ch: dict[int, _Channel] = {}

    def _send_channel(node: int) -> _Channel:
        ch = send_ch.get(node)
        if ch is None:
            ch = _Channel(machine.overlap)
            send_ch[node] = ch
            if half:
                recv_ch[node] = ch  # shared channel
        return ch

    def _recv_channel(node: int) -> _Channel:
        ch = recv_ch.get(node)
        if ch is None:
            if half:
                ch = _send_channel(node)
            else:
                ch = _Channel(machine.overlap)
                recv_ch[node] = ch
        return ch

    link_free: dict[tuple[int, int], float] = {}

    pending: list[Transfer] = schedule.all_transfers()
    sizes = [schedule.transfer_elems(t) for t in pending]
    done = [False] * len(pending)
    remaining = len(pending)

    stats = LinkStats()
    start_times: list[float] = []
    finish = 0.0
    now = 0.0
    wake: list[float] = []

    def _ready_time(idx: int) -> float | None:
        """Payload-availability time at the sender, or None if absent."""
        t = pending[idx]
        worst = 0.0
        for c in t.chunks:
            a = avail.get((t.src, c))
            if a is None:
                return None
            worst = max(worst, a)
        return worst

    while remaining:
        progress = True
        while progress:
            progress = False
            for idx, t in enumerate(pending):
                if done[idx]:
                    continue
                ready = _ready_time(idx)
                if ready is None or ready > now + _EPS:
                    if ready is not None:
                        heapq.heappush(wake, ready)
                    continue
                port = cube.port_towards(t.src, t.dst)
                start = now
                if not allport:
                    start = max(start, _send_channel(t.src).earliest_start(port, now))
                    start = max(start, _recv_channel(t.dst).earliest_start(port, now))
                start = max(start, link_free.get((t.src, t.dst), 0.0))
                if start > now + _EPS:
                    heapq.heappush(wake, start)
                    continue
                if faults is not None:
                    hit = faults.blocks(t.src, t.dst, start)
                    if hit is not None:
                        kind, subject = hit
                        if on_fault == "raise":
                            raise FaultError(
                                f"transfer {t.src}->{t.dst} blocked by dead "
                                f"{kind} {subject} at t={start:.6g}; pending "
                                f"chunks {sorted(map(repr, t.chunks))[:4]}",
                                edge=(t.src, t.dst),
                                node=subject if kind == "node" else None,
                                time=start,
                                chunks=t.chunks,
                            )
                        fault_events.append(FaultEvent(t, start, kind, subject))
                        lost.append(t)
                        done[idx] = True
                        remaining -= 1
                        progress = True
                        continue
                dur = machine.send_cost(sizes[idx])
                end = start + dur
                if not allport:
                    _send_channel(t.src).occupy(port, start, end)
                    _recv_channel(t.dst).occupy(port, start, end)
                link_free[(t.src, t.dst)] = end
                for c in t.chunks:
                    key = (t.dst, c)
                    if key not in avail or avail[key] > end:
                        avail[key] = end
                stats.record(t.src, t.dst, sizes[idx])
                start_times.append(start)
                heapq.heappush(wake, end)
                if not allport:
                    heapq.heappush(wake, start + (1.0 - machine.overlap) * dur)
                finish = max(finish, end)
                done[idx] = True
                remaining -= 1
                progress = True
        if not remaining:
            break
        # advance to the next wake-up strictly after `now`
        nxt = None
        while wake:
            cand = heapq.heappop(wake)
            if cand > now + _EPS:
                nxt = cand
                break
        if nxt is None:
            if report and fault_events:
                break  # starvation cascade from cancelled transfers
            stuck = [pending[i] for i in range(len(pending)) if not done[i]][:4]
            raise RuntimeError(
                f"schedule deadlocked with {remaining} transfers pending, "
                f"e.g. {stuck}"
            )
        now = nxt

    holdings: dict[int, set[Chunk]] = {node: set() for node in cube.nodes()}
    for (node, chunk) in avail:
        holdings[node].add(chunk)

    if fault_events or remaining:
        lost.extend(pending[i] for i in range(len(pending)) if not done[i])
        return DegradedResult(
            time=finish,
            holdings=holdings,
            link_stats=stats,
            fault_events=fault_events,
            undelivered=undelivered_map(lost, holdings),
            transfers_executed=len(start_times),
            transfers_lost=len(lost),
            start_times=start_times,
        )

    return AsyncResult(
        time=finish,
        holdings=holdings,
        link_stats=stats,
        start_times=start_times,
        transfers_executed=len(pending),
    )
