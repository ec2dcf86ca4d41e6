"""The virtual cluster: node actors, the kernel, and the drain loop.

Execution model
---------------
Every hypercube node is a :class:`NodeActor` holding its
:class:`~repro.runtime.rules.NodeProgram` and a message handler.
Actors know nothing global: they submit a planned send to the kernel
the moment its payload is locally held, and otherwise wait for
deliveries.  Messages between actors go through one FIFO owned by the
:class:`VirtualCluster` and run in the order they were posted.  The
:class:`Kernel` owns the shared physics — the
:class:`~repro.runtime.clock.VirtualClock`, the
:class:`~repro.runtime.channels.PortAdmission` capacity, per-link
serialization, and the fault plan — and advances virtual time only
when the FIFO is empty.

Determinism
-----------
Message order never influences results: all contention is resolved
by the priority keys of :mod:`repro.runtime.rules`, and the kernel
admits competing sends in key order within each coalesced instant,
mirroring :func:`repro.sim.run_async` exactly.  The
differential harness (:mod:`repro.runtime.validate`) asserts
completion times, link counters, and start-time profiles identical to
the engine's.

Fault handling
--------------
``on_fault="raise"`` and ``"report"`` mirror the engine.  The
runtime-only ``"repair"`` mode adds the paper's §6-style degraded
operation: when the drain starves with nodes still missing chunks, the
clock advances past a receive-timeout, incomplete actors report their
missing chunks to the source over the (zero-virtual-cost) control
plane, and the source answers with a repair program routed down the
survivor spanning tree of the faulted cube.  Repair rounds repeat
until delivery completes or stops making progress.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from math import isfinite
from time import perf_counter

from repro.obs.instruments import runtime_run_finished
from repro.routing.fault_aware import survivor_broadcast_tree
from repro.routing.scheduler import greedy_partition
from repro.runtime.channels import PortAdmission
from repro.runtime.clock import VirtualClock
from repro.runtime.rules import (
    ClusterProgram,
    NodeProgram,
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
from repro.sim.machine import MachineParams
from repro.sim.ports import PortModel
from repro.sim.schedule import Chunk, Transfer
from repro.sim.trace import LinkStats
from repro.topology.hypercube import Hypercube

__all__ = [
    "NodeActor",
    "Kernel",
    "VirtualCluster",
    "RuntimeResult",
    "run_collective",
    "RUNTIME_FAULT_MODES",
]

_EPS = 1e-12

RUNTIME_FAULT_MODES = ("raise", "report", "repair")


@dataclass
class RuntimeResult:
    """Outcome of a runtime execution; field-compatible with
    :class:`repro.sim.result.AsyncResult` plus runtime extras.

    Attributes:
        time: completion time of the last transfer (virtual clock).
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


@dataclass(slots=True)
class _SubmittedSend:
    key: tuple
    src: int
    dst: int
    chunks: frozenset
    elems: int
    cost: float
    port: int


class NodeActor:
    """One hypercube node: local program, local holdings, local rules."""

    __slots__ = (
        "cluster",
        "node",
        "held",
        "expected",
        "pending",
        "cancelled",
        "stats",
        "_expect_reports",
        "_reports",
    )

    def __init__(self, cluster: "VirtualCluster", program: NodeProgram):
        self.cluster = cluster
        self.node = program.node
        self.held: dict[Chunk, float] = {c: 0.0 for c in program.initial}
        self.expected = program.expected
        #: planned sends not yet released to the kernel (payload-gated)
        self.pending: list[PlannedSend] = list(program.sends)
        #: phase-1 sends dropped by a receive-timeout (superseded by repair)
        self.cancelled: list[PlannedSend] = []
        self.stats = LinkStats()
        # coordinator-only state (populated on the source's actor)
        self._expect_reports: int | None = None
        self._reports: dict[int, frozenset] = {}

    def missing(self) -> set[Chunk]:
        return {c for c in self.expected if c not in self.held}

    # -- local decision logic -----------------------------------------

    def _handle(self, msg: tuple) -> None:
        kind = msg[0]
        if kind == "start":
            self._submit_enabled()
        elif kind == "deliver":
            _, chunks, time = msg
            held = self.held
            for c in chunks:
                if c not in held:
                    held[c] = time
            self._submit_enabled()
        elif kind == "timeout":
            # Receive timeout fired: phase-1 forwarding below this node
            # is starved.  Drop unreleased sends (repair supersedes
            # them) and report what is missing to the coordinator.
            self.cancelled.extend(self.pending)
            self.pending = []
            gone = self.missing()
            if gone:
                self.cluster.post(
                    self.cluster.program.source,
                    ("missing", self.node, frozenset(gone)),
                )
        elif kind == "expect-reports":
            self._expect_reports = msg[1]
            self._maybe_repair()
        elif kind == "missing":
            _, node, chunks = msg
            self._reports[node] = chunks
            self._maybe_repair()
        elif kind == "repair-plan":
            # Payload-gate repair relays exactly like phase-1 sends.
            self.pending.extend(msg[1])
            self._submit_enabled()
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown actor message {kind!r}")

    def _submit_enabled(self) -> None:
        if not self.pending:
            return
        submit = self.cluster.kernel.submit
        node = self.node
        held = self.held
        still: list[PlannedSend] = []
        for send in self.pending:
            if all(c in held for c in send.chunks):
                submit(node, send)
            else:
                still.append(send)
        self.pending = still

    # -- coordinator logic (runs on the source's actor) --------------

    def _maybe_repair(self) -> None:
        if self._expect_reports is None:
            return
        if len(self._reports) < self._expect_reports:
            return
        reports, self._reports = self._reports, {}
        self._expect_reports = None
        plan = self._build_repair(reports)
        for node, sends in plan.items():
            if node == self.node:
                self.pending.extend(sends)
            else:
                self.cluster.post(node, ("repair-plan", sends))
        self._submit_enabled()

    def _build_repair(
        self, reports: dict[int, frozenset]
    ) -> dict[int, list[PlannedSend]]:
        """Survivor-tree repair program for the reported missing chunks.

        Routes each missing chunk from the source down the survivor
        spanning tree of the faulted cube (the §6 fallback), bundling
        per (edge, chunk set) under the packet bound.  Unreachable
        nodes stay unrepaired — the caller's progress check terminates.
        """
        cluster = self.cluster
        try:
            tree = survivor_broadcast_tree(
                cluster.cube, self.node, cluster.faults, partial=True
            )
        except FaultError:
            return {}
        covered = tree.covered
        sizes = cluster.program.chunk_sizes
        # (depth of sender, sender, receiver) -> chunks crossing that edge
        bundles: dict[tuple[int, int, int], set] = {}
        for node, chunks in sorted(reports.items()):
            if node not in covered:
                continue
            path = [node]
            v = node
            while v != self.node:
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
            groups = greedy_partition(
                ordered, sizes, cluster.packet_elems
            )
            for m, group in enumerate(groups):
                plan.setdefault(u, []).append(
                    PlannedSend((depth, u, v, m), v, frozenset(group))
                )
        return plan


class Kernel:
    """Shared physics: clock, channels, links, faults, telemetry."""

    def __init__(
        self,
        cluster: "VirtualCluster",
        machine: MachineParams,
        port_model: PortModel,
    ):
        self.cluster = cluster
        self.machine = machine
        self.port_model = port_model
        self.clock = VirtualClock()
        self.admission = PortAdmission(port_model, machine.overlap)
        self._sends: dict[tuple, _SubmittedSend] = {}
        self._cost_of: dict[int, float] = {}
        # (end, seq, dst, chunks) pending arrival at the destination actor
        self._deliveries: list[tuple[float, int, int, frozenset]] = []
        self._dseq = 0
        self._dirty: set = set()
        self.epoch = 0
        self.finish = 0.0
        self.start_times: list[float] = []
        self.fault_events: list[FaultEvent] = []
        self.lost: list[Transfer] = []

    # -- actor-facing API --------------------------------------------

    def submit(self, node: int, send: PlannedSend) -> None:
        """Release a payload-ready planned send into admission.

        The key is namespaced by the current epoch so that repair
        traffic (epoch >= 1) always ranks below phase-1 traffic.
        """
        key = (self.epoch, *send.key)
        sizes = self.cluster.program.chunk_sizes
        elems = sum(sizes[c] for c in send.chunks)
        cost = self._cost_of.get(elems)
        if cost is None:
            cost = self._cost_of[elems] = self.machine.send_cost(elems)
        dst = send.dst
        self._sends[key] = _SubmittedSend(
            key=key,
            src=node,
            dst=dst,
            chunks=send.chunks,
            elems=elems,
            cost=cost,
            # adjacent addresses differ in exactly one bit; its index is
            # the connecting port (== cube.port_towards without checks)
            port=(node ^ dst).bit_length() - 1,
        )
        self.clock.push_submission(key)

    # -- drain loop ---------------------------------------------------

    def drain(self) -> None:
        """Run virtual time forward until no live event remains."""
        clock = self.clock
        pop_batch = clock.pop_batch
        examine = self._examine
        while True:
            if clock.batch_empty:
                self._sweep_dirty()
                if not clock.advance():
                    return
                if clock.due_deliveries:
                    self._flush_deliveries()
            item = pop_batch()
            if item is None:
                continue  # instant held only deliveries; advance again
            examine(item[0])

    def _sweep_dirty(self) -> None:
        # Blocked sends' channel constraints can be overlap-release
        # points that exist nowhere else in the event stream, yet later
        # serve as the instant another send's start snaps to — push
        # them as pure wakes, exactly like the engine's rescan.
        if not self._dirty:
            return
        clock = self.clock
        now = clock.now
        is_done = clock.is_done
        push_wake = clock.push_wake
        sends = self._sends
        earliest_start = self.admission.earliest_start
        seen: set = set()
        for ch in self._dirty:
            for key in list(ch.blocked):
                if is_done(key):
                    ch.blocked.discard(key)
                    continue
                if key in seen:
                    continue
                seen.add(key)
                t = sends[key]
                push_wake(earliest_start(t.src, t.dst, t.port, now))
        self._dirty.clear()

    def _examine(self, key: tuple) -> None:
        clock = self.clock
        now = clock.now
        t = self._sends[key]
        actor = self.cluster.actors[t.src]
        # Actors only submit held payloads, so readiness can lag `now`
        # only through sub-instant float drift; keep the engine's guard.
        ready = 0.0
        for c in t.chunks:
            a = actor.held[c]
            if a > ready:
                ready = a
        if ready > now + _EPS:
            clock.push_exam(key, ready)
            return

        port = t.port
        start = self.admission.earliest_start(t.src, t.dst, port, now)
        if start > now + _EPS:
            self.admission.block(key, t.src, t.dst)
            clock.push_exam(key, start)
            return

        faults = self.cluster.faults
        if faults is not None:
            hit = faults.blocks(t.src, t.dst, start)
            if hit is not None:
                kind, subject = hit
                transfer = Transfer(t.src, t.dst, t.chunks)
                if self.cluster.on_fault == "raise":
                    raise FaultError(
                        f"transfer {t.src}->{t.dst} blocked by dead {kind} "
                        f"{subject} at t={start:.6g}; pending chunks "
                        f"{sorted(map(repr, t.chunks))[:4]}",
                        edge=(t.src, t.dst),
                        node=subject if kind == "node" else None,
                        time=start,
                        chunks=t.chunks,
                    )
                self.fault_events.append(
                    FaultEvent(transfer, start, kind, subject)
                )
                self.lost.append(transfer)
                clock.mark_done(key)
                if self.cluster.trace is not None:
                    self.cluster.trace.add_fault(
                        t.src, t.dst, start, kind, subject
                    )
                return

        end = start + t.cost
        for ch in self.admission.occupy(key, t.src, t.dst, port, start, end):
            self._dirty.add(ch)
        if not self.admission.all_port:
            clock.push_wake(start + (1.0 - self.machine.overlap) * t.cost)
        clock.push_wake(end)
        clock.push_delivery(end)
        heapq.heappush(
            self._deliveries, (end, self._dseq, t.dst, t.chunks)
        )
        self._dseq += 1
        actor.stats.record(t.src, t.dst, t.elems)
        self.start_times.append(start)
        if end > self.finish:
            self.finish = end
        clock.mark_done(key)
        if self.cluster.trace is not None:
            self.cluster.trace.add_transfer(
                t.src, t.dst, port, start, end, t.elems, t.chunks
            )

    def _flush_deliveries(self) -> None:
        now = self.clock.now
        while self._deliveries and self._deliveries[0][0] <= now + _EPS:
            end, _, dst, chunks = heapq.heappop(self._deliveries)
            self.cluster.post(dst, ("deliver", chunks, end))
        self.cluster.pump()


class VirtualCluster:
    """A hypercube of actors executing one collective end-to-end."""

    def __init__(
        self,
        cube: Hypercube,
        program: ClusterProgram,
        machine: MachineParams | None = None,
        faults: FaultPlan | None = None,
        on_fault: str = "raise",
        detect_timeout: float | None = None,
        trace: bool = False,
    ):
        if on_fault not in RUNTIME_FAULT_MODES:
            raise ValueError(
                f"on_fault must be one of {RUNTIME_FAULT_MODES}, "
                f"got {on_fault!r}"
            )
        self.cube = cube
        self.program = program
        self.machine = machine or MachineParams()
        self.faults = faults
        self.on_fault = on_fault
        self.packet_elems = max(program.chunk_sizes.values(), default=1)
        if detect_timeout is None:
            detect_timeout = 2.0 * self.machine.send_cost(self.packet_elems)
        elif not (isfinite(detect_timeout) and detect_timeout >= 0):
            raise ValueError(
                "detect_timeout must be a finite non-negative time, "
                f"got {detect_timeout!r}"
            )
        self.detect_timeout = detect_timeout
        self.trace = RuntimeTrace() if trace else None
        self.kernel = Kernel(self, self.machine, program.port_model)
        self.actors = {
            node: NodeActor(self, prog)
            for node, prog in program.programs.items()
        }
        self.repair_rounds = 0
        self.receive_timeouts = 0
        self._queue: deque[tuple[NodeActor, tuple]] = deque()

    # -- message plane (zero virtual cost, in-instant) ----------------

    def post(self, node: int, msg: tuple) -> None:
        self._queue.append((self.actors[node], msg))

    def pump(self) -> None:
        """Run posted messages in FIFO order until none is left."""
        queue = self._queue
        popleft = queue.popleft
        while queue:
            actor, msg = popleft()
            actor._handle(msg)

    # -- execution ----------------------------------------------------

    def run(self) -> RuntimeResult | DegradedResult:
        """Execute the collective and return its result.

        Messages run in FIFO order, and the virtual clock advances only
        when the FIFO is empty.  An exception raised by an actor's
        handler propagates from here.
        """
        t0 = perf_counter()
        try:
            return self._execute()
        finally:
            # Flushed on every exit (FaultError and deadlock included);
            # the kernel state carries whatever actually ran.
            kernel = self.kernel
            runtime_run_finished(
                packets=len(kernel.start_times),
                elems=sum(
                    a.stats.total_elems() for a in self.actors.values()
                ),
                seconds=perf_counter() - t0,
                timeouts=self.receive_timeouts,
                repair_rounds=self.repair_rounds,
                faulted=len(kernel.lost),
            )

    def _execute(self) -> RuntimeResult | DegradedResult:
        for node in self.actors:
            self.post(node, ("start",))
        self.pump()
        while True:
            self.kernel.drain()
            incomplete = [a for a in self.actors.values() if a.missing()]
            if not incomplete:
                break
            if self.faults is None or not (
                self.kernel.fault_events or self.on_fault == "repair"
            ):
                stuck = [
                    (a.node, sorted(map(repr, a.missing()))[:4])
                    for a in incomplete[:4]
                ]
                raise RuntimeError(
                    f"runtime deadlocked with {len(incomplete)} nodes "
                    f"starved, e.g. {stuck}"
                )
            if self.on_fault == "report":
                break  # engine parity: stop at the starved frontier
            if not self._repair_round(incomplete):
                break  # no progress possible; give up degraded
        return self._result()

    def _repair_round(self, incomplete: list[NodeActor]) -> bool:
        """One receive-timeout + survivor-tree repair cycle.

        Returns ``False`` when the cycle cannot make progress (every
        missing chunk sits on an unreachable node, or the round failed
        to submit any repair traffic).
        """
        if self.repair_rounds >= self.cube.num_nodes:
            return False
        before = sum(len(a.missing()) for a in incomplete)
        kernel = self.kernel
        self.repair_rounds += 1
        kernel.epoch += 1
        # Idle-gated receive timeouts: nothing is in flight, so every
        # incomplete node's timer fires at quiet-time + timeout.
        kernel.clock.now = kernel.finish + self.detect_timeout
        if self.trace is not None:
            self.trace.add_timeout(
                kernel.clock.now, [a.node for a in incomplete]
            )
        self.post(self.program.source, ("expect-reports", len(incomplete)))
        self.receive_timeouts += len(incomplete)
        for actor in incomplete:
            self.post(actor.node, ("timeout",))
        self.pump()
        kernel.drain()
        after = sum(len(a.missing()) for a in self.actors.values())
        return after < before

    # -- result assembly ----------------------------------------------

    def _result(self) -> RuntimeResult | DegradedResult:
        kernel = self.kernel
        holdings = {
            node: set(actor.held) for node, actor in self.actors.items()
        }
        start_times = sorted(kernel.start_times)  # stable: ties keep order
        per_node = {
            node: actor.stats for node, actor in self.actors.items()
        }
        stats = LinkStats.merged(per_node.values())
        still_missing = any(a.missing() for a in self.actors.values())
        if kernel.fault_events and (
            still_missing or self.on_fault == "report"
        ):
            lost = list(kernel.lost)
            for actor in self.actors.values():
                for send in (*actor.pending, *actor.cancelled):
                    lost.append(
                        Transfer(actor.node, send.dst, send.chunks)
                    )
            return DegradedResult(
                time=kernel.finish,
                holdings=holdings,
                link_stats=stats,
                fault_events=kernel.fault_events,
                undelivered=undelivered_map(lost, holdings),
                transfers_executed=len(start_times),
                transfers_lost=len(lost),
                start_times=start_times,
            )
        return RuntimeResult(
            time=kernel.finish,
            holdings=holdings,
            link_stats=stats,
            start_times=start_times,
            transfers_executed=len(start_times),
            per_node_stats=per_node,
            fault_events=kernel.fault_events,
            repair_rounds=self.repair_rounds,
            trace=self.trace,
        )


def run_collective(
    cube: Hypercube,
    op: str,
    algorithm: str,
    source: int,
    message_elems: int,
    packet_elems: int,
    port_model: PortModel,
    machine: MachineParams | None = None,
    order: str = "port",
    subtree_order: str = "depth_first",
    faults: FaultPlan | None = None,
    on_fault: str = "raise",
    detect_timeout: float | None = None,
    trace: bool = False,
) -> RuntimeResult | DegradedResult:
    """Build local programs and execute them on a virtual cluster.

    The distributed counterpart of generating a schedule and replaying
    it through :func:`repro.sim.run_async` — same parameters,
    same result shape, but every routing decision is taken by the node
    actors from their own addresses.
    """
    program = build_cluster_program(
        cube,
        op,
        algorithm,
        source,
        message_elems,
        packet_elems,
        port_model,
        order=order,
        subtree_order=subtree_order,
    )
    cluster = VirtualCluster(
        cube,
        program,
        machine=machine,
        faults=faults,
        on_fault=on_fault,
        detect_timeout=detect_timeout,
        trace=trace,
    )
    return cluster.run()
