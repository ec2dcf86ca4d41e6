"""Synchronous lock-step execution of a routing schedule.

The paper counts *routing steps* (cycles): in each step every node may
communicate within the limits of the active port model, and all packets
of the step complete together.  This engine

* verifies the schedule against the port model (the paper's claims are
  precisely that its schedules fit within these constraints),
* verifies causality — a node only sends chunks it already holds,
* tracks who holds what, so tests can assert complete delivery,
* accumulates per-link traffic,
* and prices the run: a step carrying packets of at most ``b`` elements
  costs ``tau + b * t_c`` (plus hardware splitting if the machine has
  an internal packet limit).

The cycle counts it reports are the quantities of Tables 1 and 2 and
the step terms of Table 3.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.obs.instruments import engine_run_finished
from repro.sim.faults import (
    DegradedResult,
    FaultError,
    FaultEvent,
    FaultPlan,
    _check_mode,
    undelivered_map,
)
from repro.sim.lowering import LoweredSchedule
from repro.sim.machine import MachineParams
from repro.sim.ports import PortModel
from repro.sim.onread import OnRead
from repro.sim.result import SLOT_HOLDINGS
from repro.sim.schedule import Chunk, Schedule, Transfer
from repro.sim.trace import LinkStats
from repro.topology.base import Topology

__all__ = [
    "SyncResult",
    "run_synchronous",
    "check_round_constraints",
    "lowered_constraints_hold",
]


class ScheduleViolation(ValueError):
    """A schedule broke a port-model or causality constraint."""


@dataclass
class SyncResult(OnRead):
    """Outcome of a synchronous run.

    Attributes:
        cycles: number of (non-empty) routing steps executed.
        time: lock-step time — each step costs the machine's
            ``send_cost`` of its largest packet.
        holdings: chunk ids held by each node at the end (built on
            first read for a run priced from its lowering).
        link_stats: per-edge traffic counters.
        step_costs: the individual step costs summing to ``time``.
    """

    cycles: int
    time: float
    holdings: dict[int, set[Chunk]]
    link_stats: LinkStats
    step_costs: list[float] = field(default_factory=list)

    _builders = SLOT_HOLDINGS

    def holds(self, node: int, chunk: Chunk) -> bool:
        """True when ``node`` ended the run holding ``chunk``."""
        return chunk in self.holdings.get(node, set())


#: below this many transfers per round the scalar checker is faster
#: than building the arrays
_VECTOR_THRESHOLD = 8


def _round_ok_vectorized(
    cube: Topology,
    round_transfers: tuple[Transfer, ...],
    port_model: PortModel,
) -> bool:
    """Whole-round constraint check over NumPy arrays.

    Returns True when the round provably satisfies every port-model
    constraint; False means *some* check failed (the caller re-runs the
    scalar path to raise the precise diagnostic).
    """
    k = len(round_transfers)
    src = np.fromiter((t.src for t in round_transfers), dtype=np.int64, count=k)
    dst = np.fromiter((t.dst for t in round_transfers), dtype=np.int64, count=k)
    num = cube.num_nodes
    if (cube.edge_ports(src, dst) < 0).any():  # not an edge of the topology
        return False
    keys = src * num + dst
    if np.unique(keys).size != k:  # directed edge used twice
        return False
    if port_model is PortModel.ALL_PORT:
        return True
    send_counts = np.bincount(src, minlength=num)
    recv_counts = np.bincount(dst, minlength=num)
    if (send_counts > 1).any() or (recv_counts > 1).any():
        return False
    if port_model.half_duplex and ((send_counts > 0) & (recv_counts > 0)).any():
        return False
    return True


def check_round_constraints(
    cube: Topology,
    round_transfers: tuple[Transfer, ...],
    port_model: PortModel,
    round_index: int,
) -> None:
    """Validate one round against the port model; raise on violation."""
    if (
        len(round_transfers) >= _VECTOR_THRESHOLD
        and _round_ok_vectorized(cube, round_transfers, port_model)
    ):
        return
    sends: Counter[int] = Counter()
    recvs: Counter[int] = Counter()
    edges_used: set[tuple[int, int]] = set()
    for t in round_transfers:
        cube.check_node(t.src)
        cube.check_node(t.dst)
        if not cube.are_adjacent(t.src, t.dst):
            raise ScheduleViolation(
                f"round {round_index}: transfer {t.src}->{t.dst} is not a cube edge"
            )
        if (t.src, t.dst) in edges_used:
            raise ScheduleViolation(
                f"round {round_index}: directed edge {t.src}->{t.dst} used twice"
            )
        edges_used.add((t.src, t.dst))
        sends[t.src] += 1
        recvs[t.dst] += 1

    if port_model is PortModel.ALL_PORT:
        return  # per-edge exclusivity (checked above) is the only limit
    for node, k in sends.items():
        if k > 1:
            raise ScheduleViolation(
                f"round {round_index}: node {node} sends {k} packets "
                f"under {port_model.value}"
            )
    for node, k in recvs.items():
        if k > 1:
            raise ScheduleViolation(
                f"round {round_index}: node {node} receives {k} packets "
                f"under {port_model.value}"
            )
    if port_model.half_duplex:
        for node in sends:
            if node in recvs:
                raise ScheduleViolation(
                    f"round {round_index}: node {node} both sends and receives "
                    f"under {port_model.value}"
                )


def lowered_constraints_hold(
    cube: Topology, low: LoweredSchedule, port_model: PortModel
) -> bool:
    """Whether a lowered run keeps every lock-step constraint.

    Every check of the per-round loop becomes one array test over the
    whole run, with a round id per transfer: each directed link used
    once per round, at most one send and one receive per (round, node)
    off the all-port model, no node doing both under half duplex, and
    causality — every payload slot a transfer reads arrived in an
    earlier round (first arrival per slot by ``np.minimum.at``; initial
    holdings count as round ``-1``).  Adjacency needs no test: the
    lowering already refused non-edges.
    """
    n_transfers = low.n_transfers
    if not n_transfers:
        return True
    lens = low.round_lens
    rnd = np.repeat(np.arange(lens.size, dtype=np.int64), lens)
    num = cube.num_nodes
    if port_model is PortModel.ALL_PORT:
        if np.unique(rnd * low.n_links + low.link).size != n_transfers:
            return False
    else:  # one send per (round, node) also rules out a reused link
        send_key = np.unique(rnd * num + low.src)
        recv_key = np.unique(rnd * num + low.dst)
        if send_key.size != n_transfers or recv_key.size != n_transfers:
            return False
        if port_model.half_duplex and np.intersect1d(
            send_key, recv_key, assume_unique=True
        ).size:
            return False
    slot_round = np.repeat(rnd, np.diff(low.in_ptr))
    arrival = np.where(
        np.isfinite(low.init_avail), -1, np.iinfo(np.int64).max
    )
    np.minimum.at(arrival, low.out_idx, slot_round)
    return not (arrival[low.in_idx] >= slot_round).any()


def _run_lowered(
    cube: Topology,
    port_model: PortModel,
    low: LoweredSchedule,
    machine: MachineParams,
    validate: bool,
) -> SyncResult | None:
    """A fault-free lock-step run as one pass over the lowered columns.

    Validation is :func:`lowered_constraints_hold`, skipped when the
    lowering carries the verdict for ``port_model`` already
    (``low.checked_under``).  Returns ``None`` when a check fails, so
    the caller can rerun the scalar loop for the exact
    :class:`ScheduleViolation`.  The run is priced per round under
    ``machine``; holdings and link stats come from the columns, each
    built on first read.
    """
    if (
        validate
        and low.checked_under is not port_model
        and not lowered_constraints_hold(cube, low, port_model)
    ):
        return None
    lens = low.round_lens
    step_costs: list[float] = []
    stats = LinkStats()
    if low.n_transfers:
        starts = np.cumsum(lens) - lens
        biggest = np.maximum.reduceat(low.elems, starts[lens > 0])
        send_cost = machine.send_cost
        step_costs = [send_cost(b) for b in biggest.tolist()]
        # links in first-use order, as the per-transfer loop records them
        _, first = np.unique(low.link, return_index=True)
        order = np.argsort(first)
        packets = np.bincount(low.link, minlength=low.n_links)[order]
        elems = np.bincount(
            low.link, weights=low.elems.astype(np.float64),
            minlength=low.n_links,
        )[order].astype(np.int64)
        stats = LinkStats.from_links(
            low.link_src[order], low.link_dst[order], packets, elems
        )

    held = low.fillable()
    parts = [(low.slot_node[held], low.slot_chunk[held], low.chunk_objects, None)]
    return SyncResult.on_read(
        (cube.nodes(), parts),
        cycles=len(step_costs),
        time=sum(step_costs),
        link_stats=stats,
        step_costs=step_costs,
    )


def run_synchronous(
    cube: Topology,
    schedule: Schedule,
    port_model: PortModel,
    initial_holdings: dict[int, set[Chunk]],
    machine: MachineParams | None = None,
    validate: bool = True,
    faults: FaultPlan | None = None,
    on_fault: str = "raise",
    lowered: LoweredSchedule | None = None,
) -> SyncResult | DegradedResult:
    """Execute ``schedule`` in lock-step under ``port_model``.

    Args:
        cube: the host cube.
        schedule: the routing schedule to run.
        port_model: per-node concurrency limits to enforce.
        initial_holdings: chunks held by each node before round 0
            (typically: the source holds everything).
        machine: cost parameters (default: unit costs).
        validate: when True (default), raise :class:`ScheduleViolation`
            on any port-model or causality breach.
        faults: failed links/nodes to enforce.  A transfer touching a
            fault active at its round's start time raises
            :class:`~repro.sim.faults.FaultError` (``on_fault="raise"``)
            or is cancelled and reported (``on_fault="report"``).
        on_fault: ``"raise"`` (default) or ``"report"``.  In report
            mode, transfers starved by a cancellation cascade are
            dropped instead of raising :class:`ScheduleViolation`, and
            a degraded run returns a
            :class:`~repro.sim.faults.DegradedResult` naming every
            undelivered ``(node, chunk)``.
        lowered: a :class:`~repro.sim.lowering.LoweredSchedule` of this
            exact ``schedule`` and ``initial_holdings`` (the one the
            event engine replays).  A run without ``faults`` is then
            checked and priced by one array pass over its columns,
            which never reads ``schedule.rounds``; if that pass finds a
            violation, the per-round loop reruns to raise the same
            :class:`ScheduleViolation` it always did.  A lowering whose
            ``checked_under`` is ``port_model`` (every cached
            lowering) skips the checks, not the pricing.  Faulted runs
            ignore it.

    Returns:
        A :class:`SyncResult` (``cycles`` counts non-empty rounds), or
        a :class:`~repro.sim.faults.DegradedResult` when faults
        actually cancelled transfers in report mode.
    """
    machine = machine or MachineParams()
    _check_mode(on_fault)
    if lowered is not None and faults is None:
        t0 = perf_counter()
        result = _run_lowered(cube, port_model, lowered, machine, validate)
        if result is not None:
            engine_run_finished(
                "sync", port_model,
                transfers=lowered.n_transfers,
                elems=result.link_stats.total_elems(),
                seconds=perf_counter() - t0,
                faulted=0,
            )
            return result
    report = faults is not None and on_fault == "report"
    fault_events: list[FaultEvent] = []
    lost: list[Transfer] = []
    executed = 0
    holdings: dict[int, set[Chunk]] = {
        node: set(initial_holdings.get(node, set())) for node in cube.nodes()
    }
    stats = LinkStats()
    step_costs: list[float] = []
    cycles = 0
    elapsed = 0.0

    # One flush per run on every exit path; the round loop only touches
    # plain locals.
    t0 = perf_counter()

    def _flush() -> None:
        engine_run_finished(
            "sync", port_model,
            transfers=executed,
            elems=stats.total_elems(),
            seconds=perf_counter() - t0,
            faulted=len(lost),
        )

    # Bound-method lookups hoisted out of the round loop: an n=14 MSBT
    # schedule has ~1M transfers, and re-binding these per transfer is
    # measurable in the lock-step path.
    transfer_elems = schedule.transfer_elems
    record = stats.record
    send_cost = machine.send_cost
    faults_blocks = faults.blocks if faults is not None else None

    for r_idx, round_transfers in enumerate(schedule.rounds):
        if not round_transfers:
            continue
        if faults_blocks is not None:
            keep: list[Transfer] = []
            for t in round_transfers:
                hit = faults_blocks(t.src, t.dst, elapsed)
                if hit is None:
                    keep.append(t)
                    continue
                kind, subject = hit
                if on_fault == "raise":
                    _flush()
                    raise FaultError(
                        f"round {r_idx}: transfer {t.src}->{t.dst} blocked by "
                        f"dead {kind} {subject} at t={elapsed:.6g}; pending "
                        f"chunks {sorted(map(repr, t.chunks))[:4]}",
                        edge=(t.src, t.dst),
                        node=subject if kind == "node" else None,
                        time=elapsed,
                        chunks=t.chunks,
                    )
                fault_events.append(FaultEvent(t, elapsed, kind, subject))
                lost.append(t)
            round_transfers = tuple(keep)
        if report:
            # Transfers starved by the cancellation cascade are dropped,
            # not violations — their payload can no longer arrive.
            keep = []
            for t in round_transfers:
                if t.chunks - holdings[t.src]:
                    lost.append(t)
                else:
                    keep.append(t)
            round_transfers = tuple(keep)
        if not round_transfers:
            continue
        cycles += 1
        if validate:
            check_round_constraints(cube, round_transfers, port_model, r_idx)
            for t in round_transfers:
                missing = t.chunks - holdings[t.src]
                if missing:
                    raise ScheduleViolation(
                        f"round {r_idx}: node {t.src} sends chunks it does not "
                        f"hold: {sorted(map(str, missing))[:4]}"
                    )
        biggest = 0
        for t in round_transfers:
            elems = transfer_elems(t)
            if elems > biggest:
                biggest = elems
            record(t.src, t.dst, elems)
        # Deliveries land after the whole round (lock-step semantics):
        for t in round_transfers:
            holdings[t.dst] |= t.chunks
        executed += len(round_transfers)
        step_costs.append(send_cost(biggest))
        elapsed += step_costs[-1]

    _flush()
    if lost or fault_events:
        return DegradedResult(
            time=sum(step_costs),
            holdings=holdings,
            link_stats=stats,
            fault_events=fault_events,
            undelivered=undelivered_map(lost, holdings),
            transfers_executed=executed,
            transfers_lost=len(lost),
            cycles=cycles,
            step_costs=step_costs,
        )

    return SyncResult(
        cycles=cycles,
        time=sum(step_costs),
        holdings=holdings,
        link_stats=stats,
        step_costs=step_costs,
    )
