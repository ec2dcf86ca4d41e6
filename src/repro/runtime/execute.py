"""Running a cluster program: the nodes' local sends on the event engine.

Execution model
---------------
Every node's :class:`~repro.runtime.rules.NodeProgram` is derived from
its own address (:mod:`repro.runtime.rules`).  Running them needs no
second copy of the engine's physics: the priority keys order every
node's sends exactly as the engine orders a program, so
:func:`run_program` runs all planned sends sorted by key as one round
(:meth:`~repro.runtime.rules.ClusterProgram.first_round`) on
:func:`repro.sim.vectorized.run_async_vectorized`, which gates each
send on its payload, serializes links and enforces the port model's
node capacity.  A served broadcast takes that round, lowered, from its
memo entry.  When one fault-free round of a lowering with a positive
delivery verdict ends holding all its fillable slots, the run is
complete: nothing scans the holdings, and the result builds them and
its per-node counters on first read.  The differential harness
(:mod:`repro.runtime.validate`) asserts completion times, link
counters and start-time profiles identical to the engine's replay of
the central schedule.

Fault handling
--------------
``on_fault="raise"`` and ``"report"`` are the engine's modes.  The
runtime-only ``"repair"`` mode adds the paper's §6-style degraded
operation: once the run is over with nodes still missing chunks, every
incomplete node's receive timeout fires ``detect_timeout`` after the
last transfer, the node drops the sends it never released, and the
source answers the reported gaps with a repair program routed down the
survivor spanning tree of the faulted cube.  That program runs as a
fresh engine run from the current holdings, released at the timeout
instant.  Repair rounds repeat until delivery completes or stops
making progress.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import merge
from math import isfinite
from time import perf_counter

from repro.obs.instruments import runtime_run_finished
from repro.routing.fault_aware import survivor_broadcast_tree
from repro.routing.scheduler import greedy_partition
from repro.runtime.rules import (
    ClusterProgram,
    PlannedSend,
    Send,
    SendRound,
    build_cluster_program,
)
from repro.runtime.trace import RuntimeTrace
from repro.sim.faults import (
    DegradedResult,
    FaultError,
    FaultEvent,
    FaultPlan,
    undelivered_map,
)
from repro.sim.lowering import LoweredSchedule
from repro.sim.machine import MachineParams
from repro.sim.onread import OnRead
from repro.sim.ports import PortModel
from repro.sim.result import AsyncResult, held_count, holdings_from_slots
from repro.sim.schedule import Chunk, Transfer
from repro.sim.trace import LinkStats
from repro.sim.vectorized import run_async_vectorized
from repro.topology.hypercube import Hypercube

__all__ = [
    "RuntimeResult",
    "run_collective",
    "run_program",
    "RUNTIME_FAULT_MODES",
]

RUNTIME_FAULT_MODES = ("raise", "report", "repair")


def _per_node_stats(result: "RuntimeResult") -> dict[int, LinkStats]:
    senders = result._on_read[2]
    stats = result.link_stats
    per_node = {node: LinkStats() for node in senders}
    for edge, n in stats.packets.items():
        per_node[edge.src].packets[edge] = n
        per_node[edge.src].elems[edge] = stats.elems[edge]
    return per_node


@dataclass
class RuntimeResult(OnRead):
    """Outcome of a runtime execution; field-compatible with
    :class:`repro.sim.result.AsyncResult` plus runtime extras.

    Attributes:
        time: completion time of the last transfer.
        holdings: chunk ids held by every node at the end (built on
            first read after one fault-free round).
        link_stats: per-edge traffic counters, merged over the rounds
            (the engine's own after one round).
        start_times: start instants of executed transfers, ascending.
        transfers_executed: number of transfers run.
        per_node_stats: each sender's own :class:`LinkStats` (built on
            first read).
        fault_events: faults hit during execution (repair mode may
            still complete delivery after these).
        repair_rounds: timeout/repair cycles that ran (repair mode).
        trace: structured event trace, when tracing was enabled.
        lowering: the lowering of the one fault-free round that ran,
            while ``holdings`` wait to be built, else ``None``: its
            delivery verdict answers for them
            (``lowering.delivered_with(held_count(result))``).
    """

    time: float
    holdings: dict[int, set[Chunk]]
    link_stats: LinkStats
    start_times: list[float] = field(default_factory=list)
    transfers_executed: int = 0
    per_node_stats: dict[int, LinkStats] = field(default_factory=dict)
    fault_events: list[FaultEvent] = field(default_factory=list)
    repair_rounds: int = 0
    trace: RuntimeTrace | None = None
    lowering: LoweredSchedule | None = field(
        default=None, repr=False, compare=False
    )

    # built from (nodes, held slot parts, senders): the first two as
    # an engine result keeps them (so ``held_count`` reads them)
    _builders = {
        "holdings": lambda r: holdings_from_slots(*r._on_read[:2]),
        "per_node_stats": _per_node_stats,
    }


def run_collective(
    cube: Hypercube,
    op: str,
    algorithm: str,
    source: int,
    message_elems: int,
    packet_elems: int,
    port_model: PortModel,
    machine: MachineParams | None = None,
    subtree_order: str = "depth_first",
    faults: FaultPlan | None = None,
    on_fault: str = "raise",
    detect_timeout: float | None = None,
    trace: bool = False,
) -> RuntimeResult | DegradedResult:
    """Build every node's local program and run them.

    The distributed counterpart of generating a schedule and replaying
    it through :func:`repro.sim.run_async` — same parameters, same
    result shape, but every routing decision is taken by the nodes
    from their own addresses.
    """
    program = build_cluster_program(
        cube,
        op,
        algorithm,
        source,
        message_elems,
        packet_elems,
        port_model,
        subtree_order=subtree_order,
    )
    return run_program(
        cube, program, machine, faults, on_fault, detect_timeout, trace
    )


def run_program(
    cube: Hypercube,
    program: ClusterProgram,
    machine: MachineParams | None = None,
    faults: FaultPlan | None = None,
    on_fault: str = "raise",
    detect_timeout: float | None = None,
    trace: bool = False,
) -> RuntimeResult | DegradedResult:
    """Run ``program`` on the event engine and return its result.

    Raises ``RuntimeError`` when nodes starve without a fault to blame
    (a causally broken program), and the engine's
    :class:`~repro.sim.faults.FaultError` under ``on_fault="raise"``.
    """
    if on_fault not in RUNTIME_FAULT_MODES:
        raise ValueError(
            f"on_fault must be one of {RUNTIME_FAULT_MODES}, got {on_fault!r}"
        )
    if faults is not None:
        faults.check_topology(cube)
    machine = machine or MachineParams()
    packet_elems = max(program.chunk_sizes.values(), default=1)
    if detect_timeout is None:
        detect_timeout = 2.0 * machine.send_cost(packet_elems)
    elif isinstance(detect_timeout, bool) or not (
        isfinite(detect_timeout) and detect_timeout >= 0
    ):
        raise ValueError(
            "detect_timeout must be a finite non-negative time, "
            f"got {detect_timeout!r}"
        )
    run = _Run(cube, program, machine, faults, on_fault, trace)
    t0 = perf_counter()
    try:
        return run.execute(packet_elems, detect_timeout)
    finally:
        # Flushed on every exit (FaultError and deadlock included).
        runtime_run_finished(
            packets=len(run.start_times),
            elems=sum(s.total_elems() for s in run.stats),
            seconds=perf_counter() - t0,
            timeouts=run.timeouts,
            repair_rounds=run.repair_rounds,
            faulted=len(run.fault_events),
        )


class _Run:
    """The state one :func:`run_program` call carries across rounds."""

    def __init__(
        self,
        cube: Hypercube,
        program: ClusterProgram,
        machine: MachineParams,
        faults: FaultPlan | None,
        on_fault: str,
        trace: bool,
    ):
        self.cube = cube
        self.program = program
        self.machine = machine
        self.faults = faults
        self.on_fault = on_fault
        self.trace = RuntimeTrace() if trace else None
        #: the round run from the initial holdings
        self.first: SendRound | None = None
        #: the engine result of the latest round run
        self.last: AsyncResult | DegradedResult | None = None
        self.finish = 0.0
        self.start_times: list[float] = []
        self.stats: list[LinkStats] = []
        self.fault_events: list[FaultEvent] = []
        #: planned sends not yet released (their payload never arrived)
        self.pending: list[Send] = []
        #: sends dropped by a receive timeout (superseded by repair)
        self.cancelled: list[Send] = []
        self.repair_rounds = 0
        self.timeouts = 0

    @property
    def holdings(self) -> dict[int, set[Chunk]]:
        """Every node's holdings after the latest round (the engine
        builds them on first read)."""
        assert self.first is not None
        return self.first.initial if self.last is None else self.last.holdings

    def missing(self, node: int) -> frozenset[Chunk]:
        return self.program.programs[node].expected - self.holdings[node]

    def incomplete(self) -> list[int]:
        return [v for v in self.program.programs if self.missing(v)]

    def delivered(self) -> bool:
        """True when the run is known to be complete without reading
        any holdings: one fault-free round of a lowering with a
        positive delivery verdict, ending with all its fillable slots."""
        return (
            not self.fault_events
            and len(self.stats) == 1
            and self.first.lowering.delivered_with(held_count(self.last))
        )

    def execute(
        self, packet_elems: int, detect_timeout: float
    ) -> RuntimeResult | DegradedResult:
        self.first = self.program.first_round(self.cube)
        if self.first.lowering.n_transfers:
            self._run(self.first)
        if self.delivered():
            return self._result()
        while incomplete := self.incomplete():
            if self.faults is None or not (
                self.fault_events or self.on_fault == "repair"
            ):
                stuck = [
                    (v, sorted(map(repr, self.missing(v)))[:4])
                    for v in incomplete[:4]
                ]
                raise RuntimeError(
                    f"runtime deadlocked with {len(incomplete)} nodes "
                    f"starved, e.g. {stuck}"
                )
            if self.on_fault == "report":
                break  # engine parity: stop at the starved frontier
            if not self._repair_round(incomplete, packet_elems, detect_timeout):
                break  # no progress possible; give up degraded
        return self._result()

    def _run(self, rnd: SendRound) -> None:
        """Run ``rnd`` on the engine and fold the outcome into the state."""
        mode = "raise" if self.on_fault == "raise" else "report"
        res = run_async_vectorized(
            # the lowering carries the round's initial holdings
            self.cube, rnd.schedule, self.program.port_model, {},
            self.machine, self.faults, mode, lowered=rnd.lowering,
            transfer_log=self.faults is not None or self.trace is not None,
        )
        events = list(getattr(res, "fault_events", ()))
        self.last = res
        self.finish = max(self.finish, res.time)
        self.start_times.extend(res.start_times)
        self.stats.append(res.link_stats)
        self.fault_events.extend(events)
        if not events and self.trace is None:
            return  # every send ran: the engine raises on a starved one
        log = res.transfer_log
        assert log is not None
        sends = rnd.sends
        faulted: list[int] = []
        if events:
            # The engine reports a faulted transfer by value.  Equal
            # transfers share a link, where they fault in program order.
            rows: dict[Transfer, list[int]] = {}
            for i, t in enumerate(rnd.schedule.all_transfers()):
                rows.setdefault(t, []).append(i)
            faulted = [rows[e.transfer].pop(0) for e in events]
            resolved = {*log.ids, *faulted}
            self.pending.extend(
                s for i, s in enumerate(sends) if i not in resolved
            )
        if self.trace is not None:
            self._trace(self.trace, sends, log.ids, log.starts, events, faulted)

    def _round(self, sends: list[Send], release: float) -> None:
        """Run ``sends`` in key order from the current holdings (all
        released at ``release``) and fold the outcome into the state."""
        if sends:
            self._run(SendRound.of(
                self.cube, sends, self.holdings, self.program.chunk_sizes,
                release,
            ))

    def _trace(
        self,
        trace: RuntimeTrace,
        sends: list[Send],
        ids: list[int],
        starts: list[float],
        events: list[FaultEvent],
        faulted: list[int],
    ) -> None:
        """Trace one round: its transfers in execution order, each fault
        placed by (instant, priority) among them."""
        sizes = self.program.chunk_sizes
        send_cost = self.machine.send_cost
        order = merge(
            (((start, i), i, start) for i, start in zip(ids, starts)),
            (((e.time, i), i, e) for e, i in zip(events, faulted)),
            key=lambda x: x[0],
        )
        for _, i, what in order:
            src, s = sends[i]
            if isinstance(what, FaultEvent):
                trace.add_fault(src, s.dst, what.time, what.kind, what.subject)
                continue
            elems = sum(sizes[c] for c in s.chunks)
            trace.add_transfer(
                src, s.dst,
                # adjacent addresses differ in exactly one bit
                (src ^ s.dst).bit_length() - 1,
                what, what + send_cost(elems), elems, s.chunks,
            )

    def _repair_round(
        self, incomplete: list[int], packet_elems: int, detect_timeout: float
    ) -> bool:
        """One receive-timeout + survivor-tree repair cycle.

        Returns ``False`` when the cycle cannot make progress (every
        missing chunk sits on an unreachable node, or the repair
        traffic delivered nothing new).
        """
        if self.repair_rounds >= self.cube.num_nodes:
            return False
        reports = {v: self.missing(v) for v in incomplete}
        before = sum(len(m) for m in reports.values())
        self.repair_rounds += 1
        # Idle-gated receive timeouts: nothing is in flight, so every
        # incomplete node's timer fires at quiet-time + timeout.
        t0 = self.finish + detect_timeout
        if self.trace is not None:
            self.trace.add_timeout(t0, incomplete)
        self.timeouts += len(incomplete)
        # Timed-out nodes drop their unreleased sends; repair supersedes
        # them.  The other nodes' sends still wait for their payload.
        sends = []
        for send in self.pending:
            (self.cancelled if send[0] in reports else sends).append(send)
        self.pending = []
        plan = self._build_repair(reports, packet_elems)
        sends += [(node, s) for node, planned in plan.items() for s in planned]
        self._round(self._payload_ready(sends), t0)
        after = sum(len(self.missing(v)) for v in self.program.programs)
        return after < before

    def _payload_ready(self, sends: list[Send]) -> list[Send]:
        """The ``sends`` whose payload reaches their sender, from the
        current holdings or through another of ``sends``.  The rest stay
        pending: a complete node can still hold forwarding sends whose
        payload the faults cut off, and the engine would report them as
        a deadlock."""
        holdings = self.holdings
        gained: dict[int, set[Chunk]] = {}
        ready: list[Send] = []
        waiting = sends
        while waiting:
            still = []
            for send in waiting:
                node, s = send
                extra = gained.get(node, ())
                if all(c in holdings[node] or c in extra for c in s.chunks):
                    ready.append(send)
                    gained.setdefault(s.dst, set()).update(s.chunks)
                else:
                    still.append(send)
            if len(still) == len(waiting):
                break
            waiting = still
        self.pending.extend(waiting)
        return ready

    def _build_repair(
        self, reports: dict[int, frozenset], packet_elems: int
    ) -> dict[int, list[PlannedSend]]:
        """Survivor-tree repair program for the reported missing chunks.

        Routes each missing chunk from the source down the survivor
        spanning tree of the faulted cube (the §6 fallback), bundling
        per (edge, chunk set) under the packet bound.  Unreachable
        nodes stay unrepaired — the caller's progress check terminates.
        """
        root = self.program.source
        try:
            tree = survivor_broadcast_tree(
                self.cube, root, self.faults, partial=True
            )
        except FaultError:
            return {}
        covered = tree.covered
        sizes = self.program.chunk_sizes
        # (depth of sender, sender, receiver) -> chunks crossing that edge
        bundles: dict[tuple[int, int, int], set] = {}
        for node, chunks in sorted(reports.items()):
            if node not in covered:
                continue
            path = [node]
            v = node
            while v != root:
                parent = tree.parent(v)
                if parent is None:
                    break
                v = parent
                path.append(v)
            else:
                path.reverse()
                for depth in range(len(path) - 1):
                    bundles.setdefault(
                        (depth, path[depth], path[depth + 1]), set()
                    ).update(chunks)
        plan: dict[int, list[PlannedSend]] = {}
        for (depth, u, v), chunks in sorted(
            bundles.items(), key=lambda kv: kv[0]
        ):
            ordered = sorted(chunks, key=repr)
            groups = greedy_partition(ordered, sizes, packet_elems)
            for m, group in enumerate(groups):
                plan.setdefault(u, []).append(
                    PlannedSend((depth, u, v, m), v, frozenset(group))
                )
        return plan

    def _result(self) -> RuntimeResult | DegradedResult:
        start_times = sorted(self.start_times)
        stats = (
            self.stats[0] if len(self.stats) == 1
            else LinkStats.merged(self.stats)
        )
        if self.fault_events and (
            self.incomplete() or self.on_fault == "report"
        ):
            holdings = self.holdings
            lost = [e.transfer for e in self.fault_events]
            lost.extend(
                Transfer(node, s.dst, s.chunks)
                for node, s in (*self.pending, *self.cancelled)
            )
            return DegradedResult(
                time=self.finish,
                holdings=holdings,
                link_stats=stats,
                fault_events=self.fault_events,
                undelivered=undelivered_map(lost, holdings),
                transfers_executed=len(start_times),
                transfers_lost=len(lost),
                start_times=start_times,
            )
        program = self.program
        senders = (
            self.cube.nodes() if program._unbuilt("programs")
            else list(program.programs)
        )
        fields = dict(
            time=self.finish,
            link_stats=stats,
            start_times=start_times,
            transfers_executed=len(start_times),
            fault_events=self.fault_events,
            repair_rounds=self.repair_rounds,
            trace=self.trace,
        )
        if self.delivered():
            # holdings wait on the engine's held slots, as its own did
            nodes, parts = self.last._on_read
            return RuntimeResult.on_read(
                (nodes, parts, senders), lowering=self.first.lowering,
                **fields,
            )
        return RuntimeResult.on_read(
            (None, None, senders), holdings=self.holdings, **fields
        )
