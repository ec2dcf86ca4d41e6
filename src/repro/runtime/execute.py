"""Running a cluster program: the nodes' local sends on the event engine.

Execution model
---------------
Every node's :class:`~repro.runtime.rules.NodeProgram` is derived from
its own address (:mod:`repro.runtime.rules`).  Running them needs no
second copy of the engine's physics: the priority keys order every
node's sends exactly as the engine orders a program, so
:func:`run_program` sorts all planned sends by key into one program and
runs it on :func:`repro.sim.vectorized.run_async_vectorized`, which
gates each send on its payload, serializes links and enforces the
port model's node capacity.  The differential harness
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
from repro.sim.lowering import lower_schedule
from repro.sim.machine import MachineParams
from repro.sim.ports import PortModel
from repro.sim.schedule import Chunk, Schedule, Transfer
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

#: one planned send with its sending node
_Send = tuple[int, PlannedSend]


@dataclass
class RuntimeResult:
    """Outcome of a runtime execution; field-compatible with
    :class:`repro.sim.result.AsyncResult` plus runtime extras.

    Attributes:
        time: completion time of the last transfer.
        holdings: chunk ids held by every node at the end.
        link_stats: merged per-edge traffic counters.
        start_times: start instants of executed transfers, ascending.
        transfers_executed: number of transfers run.
        per_node_stats: each sender's own :class:`LinkStats`.
        fault_events: faults hit during execution (repair mode may
            still complete delivery after these).
        repair_rounds: timeout/repair cycles that ran (repair mode).
        trace: structured event trace, when tracing was enabled.
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
        self.holdings: dict[int, set[Chunk]] = {
            node: set(p.initial) for node, p in program.programs.items()
        }
        self.finish = 0.0
        self.start_times: list[float] = []
        self.stats: list[LinkStats] = []
        self.fault_events: list[FaultEvent] = []
        #: planned sends not yet released (their payload never arrived)
        self.pending: list[_Send] = []
        #: sends dropped by a receive timeout (superseded by repair)
        self.cancelled: list[_Send] = []
        self.repair_rounds = 0
        self.timeouts = 0

    def missing(self, node: int) -> frozenset[Chunk]:
        return self.program.programs[node].expected - self.holdings[node]

    def incomplete(self) -> list[int]:
        return [v for v in self.program.programs if self.missing(v)]

    def execute(
        self, packet_elems: int, detect_timeout: float
    ) -> RuntimeResult | DegradedResult:
        sends = [
            (node, s)
            for node, p in self.program.programs.items()
            for s in p.sends
        ]
        self._round(sends, 0.0)
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

    def _round(self, sends: list[_Send], release: float) -> None:
        """Run ``sends`` in key order from the current holdings (all
        released at ``release``) and fold the outcome into the state."""
        sends.sort(key=lambda send: send[1].key)
        transfers = [Transfer(node, s.dst, s.chunks) for node, s in sends]
        if not transfers:
            return
        sched = Schedule(
            rounds=[tuple(transfers)], chunk_sizes=self.program.chunk_sizes
        )
        lowered = lower_schedule(
            self.cube, sched, self.holdings,
            release_times=dict.fromkeys(self.program.chunk_sizes, release),
        )
        mode = "raise" if self.on_fault == "raise" else "report"
        res = run_async_vectorized(
            self.cube, sched, self.program.port_model, self.holdings,
            self.machine, self.faults, mode, lowered=lowered,
            transfer_log=True,
        )
        log = res.transfer_log
        assert log is not None
        events = list(getattr(res, "fault_events", ()))
        self.holdings = res.holdings
        self.finish = max(self.finish, res.time)
        self.start_times.extend(res.start_times)
        self.stats.append(res.link_stats)
        self.fault_events.extend(events)
        # The engine reports a faulted transfer by value.  Equal
        # transfers share a link, where they fault in program order.
        rows: dict[Transfer, list[int]] = {}
        for i, t in enumerate(transfers):
            rows.setdefault(t, []).append(i)
        faulted = [rows[e.transfer].pop(0) for e in events]
        resolved = {*log.ids, *faulted}
        self.pending.extend(
            s for i, s in enumerate(sends) if i not in resolved
        )
        if self.trace is not None:
            self._trace(self.trace, sends, log.ids, log.starts, events, faulted)

    def _trace(
        self,
        trace: RuntimeTrace,
        sends: list[_Send],
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

    def _payload_ready(self, sends: list[_Send]) -> list[_Send]:
        """The ``sends`` whose payload reaches their sender, from the
        current holdings or through another of ``sends``.  The rest stay
        pending: a complete node can still hold forwarding sends whose
        payload the faults cut off, and the engine would report them as
        a deadlock."""
        holdings = self.holdings
        gained: dict[int, set[Chunk]] = {}
        ready: list[_Send] = []
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
        holdings = self.holdings
        start_times = sorted(self.start_times)
        stats = LinkStats.merged(self.stats)
        if self.fault_events and (
            self.incomplete() or self.on_fault == "report"
        ):
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
        per_node = {node: LinkStats() for node in self.program.programs}
        for edge, n in stats.packets.items():
            per_node[edge.src].packets[edge] = n
            per_node[edge.src].elems[edge] = stats.elems[edge]
        return RuntimeResult(
            time=self.finish,
            holdings=holdings,
            link_stats=stats,
            start_times=start_times,
            transfers_executed=len(start_times),
            per_node_stats=per_node,
            fault_events=self.fault_events,
            repair_rounds=self.repair_rounds,
            trace=self.trace,
        )
