"""High-level collective operations on a simulated topology.

Every function runs one pipeline: :func:`collective_program` serves
the routing schedule and its lowering, the lock-step engine validates
it against the port model, the event-driven engine optionally times
it, and :func:`check_delivery` must pass before a
:class:`~repro.collectives.result.CollectiveResult` is returned (an
``AssertionError`` names the first short node otherwise).

Every rooted collective accepts any :class:`~repro.topology.Topology`;
``algorithm=None`` resolves per topology (hypercube defaults below,
``"ring"`` — the ring-decomposition spanning tree — on the torus).

Algorithms (hypercube):

============= ========================================================
broadcast     ``"sbt"``, ``"msbt"``, ``"tcbt"``, ``"hp"``,
              ``"hp-centered"``, ``"hp-dual"`` (the §3.4 variations)
scatter       ``"sbt"``, ``"bst"``, ``"tcbt"``
gather        same as scatter (reversed schedules)
reduce        ``"sbt"``; ``allreduce`` composes reduce + broadcast
all_broadcast ``"dimension-exchange"`` (= allgather)
============= ========================================================

Algorithms (torus, k-ary n-cube): ``"ring"`` for the rooted ops,
the Jung–Sakho ring-circulation ``"ring"`` schedule for
``all_broadcast``.
"""

from __future__ import annotations

import copy
from typing import Any, Hashable

from repro.cache import MISSING, LRUCache
from repro.collectives.result import AllreduceResult, CollectiveResult
from repro.obs.runs import RunCollector
from repro.routing import (
    all_broadcast_initial_holdings,
    all_broadcast_schedule,
    allgather_initial_holdings,
    allgather_schedule,
    alltoall_initial_holdings,
    alltoall_personalized_schedule,
    bst_scatter_schedule,
    dual_hp_broadcast_schedule,
    fault_tolerant_broadcast_schedule,
    fault_tolerant_scatter_schedule,
    gather_from_scatter,
    msbt_broadcast_schedule,
    reduce_initial_holdings,
    sbt_broadcast_schedule,
    sbt_reduce_schedule,
    sbt_scatter_schedule,
    tree_broadcast_schedule,
    tree_reduce_initial_holdings,
    tree_reduce_schedule,
    tree_scatter_schedule,
)
from repro.routing.common import MSG
from repro.routing.scatter_bst import check_subtree_order
from repro.runtime.execute import RUNTIME_FAULT_MODES, run_collective
from repro.runtime.rules import (
    RUNTIME_BROADCAST_ALGORITHMS,
    RUNTIME_SCATTER_ALGORITHMS,
)
from repro.sim.dispatch import get_engine
from repro.sim.faults import (
    ON_FAULT_MODES,
    DegradedResult,
    FaultError,
    FaultPlan,
)
from repro.sim.lowering import LoweredSchedule, lower_schedule
from repro.sim.machine import MachineParams
from repro.sim.ports import PortModel
from repro.sim.result import held_count
from repro.sim.schedule import Chunk, Schedule
from repro.sim.synchronous import lowered_constraints_hold, run_synchronous
from repro.topology.base import Topology
from repro.topology.hypercube import Hypercube
from repro.topology.torus import Torus
from repro.trees.hamiltonian import HamiltonianPathTree
from repro.trees.hp_variants import CenteredHamiltonianPathTree
from repro.trees.ring import RingDecompositionTree
from repro.trees.tcbt import TwoRootedCompleteBinaryTree

__all__ = [
    "broadcast",
    "scatter",
    "gather",
    "reduce",
    "allreduce",
    "allgather",
    "all_broadcast",
    "alltoall_personalized",
    "collective_schedule",
    "collective_program",
    "check_delivery",
    "default_algorithm",
]

BROADCAST_ALGORITHMS = (
    "sbt", "msbt", "tcbt", "hp", "hp-centered", "hp-dual", "ring",
)
SCATTER_ALGORITHMS = ("sbt", "bst", "tcbt", "ring")
REDUCE_ALGORITHMS = ("sbt", "ring")

#: rooted/rootless collective kinds `collective_schedule` can build
SCHEDULE_OPS = (
    "broadcast", "scatter", "gather", "reduce", "allgather", "alltoall",
    "all_broadcast",
)

#: the ops within SCHEDULE_OPS whose ``source`` names a root node
ROOTED_OPS = ("broadcast", "scatter", "gather", "reduce")

#: default algorithm per collective kind on the hypercube
DEFAULT_ALGORITHMS = {
    "broadcast": "msbt",
    "scatter": "bst",
    "gather": "bst",
    "reduce": "sbt",
    "allgather": "dimension-exchange",
    "alltoall": "dimension-exchange",
    "all_broadcast": "dimension-exchange",
}

#: default algorithm per collective kind on the torus
_TORUS_DEFAULTS = {
    "broadcast": "ring",
    "scatter": "ring",
    "gather": "ring",
    "reduce": "ring",
    "all_broadcast": "ring",
}


def default_algorithm(cube: Topology, op: str) -> str:
    """The algorithm ``op`` resolves to on ``cube`` when none is given."""
    if op not in SCHEDULE_OPS:
        raise ValueError(f"op must be one of {SCHEDULE_OPS}, got {op!r}")
    if isinstance(cube, Hypercube):
        return DEFAULT_ALGORITHMS[op]
    if isinstance(cube, Torus):
        try:
            return _TORUS_DEFAULTS[op]
        except KeyError:
            raise ValueError(
                f"{op!r} is not implemented on the torus"
            ) from None
    raise TypeError(
        f"no default algorithm for topology {type(cube).__name__}"
    )


def _resolve_algorithm(cube: Topology, op: str, algorithm: str | None) -> str:
    return default_algorithm(cube, op) if algorithm is None else algorithm


def _ring_tree(cube: Topology, root: int) -> RingDecompositionTree:
    """The ring-decomposition tree rooted at ``root`` on any topology.

    ``RingDecompositionTree`` requires a torus host; a hypercube is
    served by hosting the tree on the port-identical ``Torus(n, 2)``
    (same edges, same port numbering), so the resulting schedules are
    valid hypercube schedules.
    """
    if isinstance(cube, Torus):
        host = cube
    elif isinstance(cube, Hypercube):
        host = Torus(cube.dimension, 2)
    else:
        raise TypeError(
            f"no ring decomposition for topology {type(cube).__name__}"
        )
    return RingDecompositionTree(host, root)


def _check_torus_supported(
    cube: Topology,
    op: str,
    backend: str,
    faults: FaultPlan | None,
) -> None:
    """Reject backend/fault combinations the torus paths don't implement."""
    if isinstance(cube, Hypercube):
        return
    if backend != "sim":
        raise ValueError(
            f"backend {backend!r} supports the hypercube only; "
            f"use backend='sim' for {type(cube).__name__}"
        )
    if faults:
        raise ValueError(
            f"fault-tolerant {op} is implemented on the hypercube only"
        )

#: execution backends: ``"sim"`` replays a centrally generated schedule
#: through the engines; ``"runtime"`` executes the operation on the
#: distributed runtime (:mod:`repro.runtime`), where every node derives
#: its sends locally from its own address and the engine runs them.
BACKENDS = ("sim", "runtime")


def _runtime_collective(
    cube: Hypercube,
    op: str,
    algorithm: str,
    source: int,
    message_elems: int,
    packet_elems: int | None,
    port_model: PortModel,
    machine: MachineParams | None,
    faults: FaultPlan | None,
    on_fault: str,
    subtree_order: str,
    trace: bool,
) -> CollectiveResult:
    """Execute on the distributed runtime, packaged as a CollectiveResult.

    The central schedule is still generated — it documents the
    operation and drives the lock-step validation — but the *timed*
    execution (``result.async_``, hence ``result.time``) comes from
    :func:`repro.runtime.run_collective`, and under faults the runtime
    handles degradation itself (including the ``"repair"`` mode the
    schedule replay does not offer).  Delivery is checked on the
    runtime's own holdings, at every node it does not report
    undelivered, unless one fault-free round of a lowering with a
    positive delivery verdict ran and its holdings are unbuilt
    (:attr:`~repro.runtime.execute.RuntimeResult.lowering`).
    """
    allowed = (
        RUNTIME_BROADCAST_ALGORITHMS
        if op == "broadcast"
        else RUNTIME_SCATTER_ALGORITHMS
    )
    if algorithm not in allowed:
        raise ValueError(
            f"the runtime backend implements {op} for {allowed}, "
            f"got {algorithm!r}"
        )
    packet_elems = message_elems if packet_elems is None else packet_elems
    collector = RunCollector(op, algorithm, backend="runtime", topology=cube.kind)
    with collector.phase("runtime"):
        rt = run_collective(
            cube, op, algorithm, source, message_elems, packet_elems,
            port_model, machine=machine, subtree_order=subtree_order,
            faults=faults, on_fault=on_fault, trace=trace,
        )
    with collector.phase("schedule"):
        sched, initial, lowered = collective_program(
            cube, op, algorithm, source, message_elems, packet_elems,
            port_model, subtree_order,
        )
    with collector.phase("sync"):
        sync = run_synchronous(
            cube, sched, port_model, initial, machine,
            faults=faults, on_fault="report" if faults else "raise",
            lowered=None if faults else lowered,
        )
    undelivered = (
        frozenset(rt.undelivered_nodes)
        if isinstance(rt, DegradedResult)
        else frozenset()
    )
    lowering = getattr(rt, "lowering", None)  # a DegradedResult has none
    if lowering is None or not lowering.delivered_with(held_count(rt)):
        _require_delivery(cube, op, source, sched, rt.holdings, undelivered)
    result = CollectiveResult(
        schedule=sched,
        sync=sync,
        async_=rt,
        faults=faults,
        undelivered_nodes=undelivered,
    )
    collector.finalize(result)
    return result


def _collective(
    cube: Topology,
    op: str,
    algorithm: str,
    source: int,
    message_elems: int,
    packet_elems: int | None,
    port_model: PortModel,
    machine: MachineParams | None,
    run_event_sim: bool,
    subtree_order: str = "depth_first",
    faults: FaultPlan | None = None,
    on_fault: str = "raise",
    backend: str = "sim",
    trace: bool = False,
) -> CollectiveResult:
    """The one pipeline behind every public collective.

    Takes the schedule and its lowering from :func:`collective_program`
    (under a non-empty ``faults`` plan, builds the schedule afresh with
    :func:`_fault_schedule`), runs it on the lock-step engine and, with
    ``run_event_sim``, on the event engine, then raises
    ``AssertionError`` unless :func:`check_delivery` passes at every
    node the schedule serves, on the event run's holdings when a
    fault-free one ran and on the lock-step run's otherwise.
    ``backend="runtime"`` hands the call to :func:`_runtime_collective`.
    """
    if backend not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
    if not isinstance(port_model, PortModel):
        raise ValueError(f"port_model must be a PortModel, got {port_model!r}")
    check_subtree_order(subtree_order)
    modes = RUNTIME_FAULT_MODES if backend == "runtime" else ON_FAULT_MODES
    if on_fault not in modes:
        raise ValueError(
            f"on_fault must be one of {modes} on the {backend!r} backend, "
            f"got {on_fault!r}"
        )
    if faults is not None:
        faults.check_topology(cube)
    _check_torus_supported(cube, op, backend, faults)
    if backend == "runtime":
        return _runtime_collective(
            cube, op, algorithm, source, message_elems, packet_elems,
            port_model, machine, faults, on_fault, subtree_order, trace,
        )
    packet_elems = message_elems if packet_elems is None else packet_elems
    collector = RunCollector(op, algorithm, topology=cube.kind)
    undelivered: frozenset[int] = frozenset()
    lowered = None
    with collector.phase("schedule"):
        if faults:
            sched, undelivered = _fault_schedule(
                cube, op, algorithm, source, message_elems, packet_elems,
                port_model, faults, on_fault,
            )
            initial = {source: set(sched.chunk_sizes)}
        else:
            faults, on_fault = None, "raise"
            # one lowering serves the lock-step check and the event engine
            sched, initial, lowered = collective_program(
                cube, op, algorithm, source, message_elems, packet_elems,
                port_model, subtree_order,
            )
    with collector.phase("sync"):
        sync = run_synchronous(
            cube, sched, port_model, initial, machine,
            faults=faults, on_fault=on_fault, lowered=lowered,
        )
    async_ = None
    if run_event_sim:
        # looked up per call so a tracer that wraps it sees every run
        run_async = get_engine()
        with collector.phase("async"):
            async_ = run_async(
                cube, sched, port_model, initial, machine,
                faults=faults, on_fault=on_fault, lowered=lowered,
            )
    # A fault-free event run holds what the lock-step run holds (the
    # initial holdings plus every output slot: both engines run every
    # transfer), so the check reads the map a caller of the timed run
    # reads too, and the lock-step holdings stay unbuilt.  A run that
    # holds every fillable slot of a lowering with a positive delivery
    # verdict builds neither.
    delivered = sync if async_ is None or faults else async_
    if lowered is None or not lowered.delivered_with(held_count(delivered)):
        _require_delivery(
            cube, op, source, sched, delivered.holdings, undelivered
        )
    result = CollectiveResult(
        schedule=sched,
        sync=sync,
        async_=async_,
        faults=faults,
        undelivered_nodes=undelivered,
    )
    collector.finalize(result)
    return result


def _fault_schedule(
    cube: Hypercube,
    op: str,
    algorithm: str,
    source: int,
    message_elems: int,
    packet_elems: int,
    port_model: PortModel,
    faults: FaultPlan,
    on_fault: str,
) -> tuple[Schedule, frozenset[int]]:
    """Fault-routed broadcast or scatter schedule, and the nodes it
    cannot serve.

    The requested ``algorithm`` is honoured only as far as faults
    allow: a ``"msbt"`` broadcast under link-only faults keeps the
    edge-disjoint pipelining (the degraded MSBT schedule); every other
    combination falls back to a fault-avoiding BFS survivor tree, whose
    schedule the requested algorithm cannot improve on once its
    structure is broken.
    """
    allowed = BROADCAST_ALGORITHMS if op == "broadcast" else SCATTER_ALGORITHMS
    if algorithm not in allowed:
        raise ValueError(
            f"unknown {op} algorithm {algorithm!r}; pick one of {allowed}"
        )
    partial = on_fault == "report"
    if op == "broadcast" and algorithm == "msbt" and not faults.dead_nodes:
        try:
            return msbt_broadcast_schedule(
                cube, source, message_elems, packet_elems, port_model,
                dead_links=tuple(sorted(faults.dead_links)),
            ), frozenset()
        except FaultError:
            if not partial:
                raise
    build = (
        fault_tolerant_broadcast_schedule
        if op == "broadcast"
        else fault_tolerant_scatter_schedule
    )
    sched, tree = build(
        cube, source, message_elems, packet_elems, port_model,
        faults, partial=partial,
    )
    return sched, frozenset(cube.nodes()) - tree.covered


def _require_delivery(
    cube: Topology,
    op: str,
    source: int,
    schedule: Schedule,
    holdings: dict[int, set[Chunk]],
    undelivered: frozenset[int],
) -> None:
    """Raise ``AssertionError`` naming the first node outside
    ``undelivered`` that :func:`check_delivery` finds short."""
    for v, short in check_delivery(cube, op, source, schedule, holdings).items():
        if v not in undelivered:
            raise AssertionError(
                f"{op} left node {v} short of {len(short)} chunk(s)"
            )


def broadcast(
    cube: Topology,
    source: int,
    algorithm: str | None = None,
    message_elems: int = 1,
    packet_elems: int | None = None,
    port_model: PortModel = PortModel.ONE_PORT_FULL,
    machine: MachineParams | None = None,
    run_event_sim: bool = False,
    faults: FaultPlan | None = None,
    on_fault: str = "raise",
    backend: str = "sim",
    trace: bool = False,
) -> CollectiveResult:
    """Broadcast ``message_elems`` from ``source`` to every other node.

    Args:
        cube: the host topology (hypercube or torus).
        source: broadcasting node.
        algorithm: ``"sbt"``, ``"msbt"``, ``"tcbt"``, ``"hp"``,
            ``"hp-centered"`` or ``"hp-dual"`` on the hypercube;
            ``"ring"`` (ring-decomposition spanning tree) on either
            topology.  ``None`` (default) resolves per topology:
            ``"msbt"`` on the hypercube, ``"ring"`` on the torus.
        message_elems: total message size ``M``.
        packet_elems: maximum packet size ``B`` (default: ``M``, one
            packet).
        port_model: port model to generate for and validate against.
        machine: cost parameters (default unit costs).
        run_event_sim: also run the event-driven engine (slower but
            models start-ups/overlap; its time becomes ``result.time``).
        faults: dead links/nodes to route around.  Link-only fault sets
            keep the MSBT pipelining (the degraded MSBT schedule);
            anything else falls back to a fault-avoiding BFS survivor
            tree.  The engines run under the plan too, so the returned
            result is proof the schedule avoids every fault.
        on_fault: ``"raise"`` (default) propagates a
            :class:`~repro.sim.faults.FaultError` when the faults
            disconnect some node from the source; ``"report"`` serves
            the source's surviving component and lists the rest in
            ``result.undelivered_nodes``.  The runtime backend also
            accepts ``"repair"`` (timeout-driven survivor-tree
            recovery).
        backend: ``"sim"`` (default) replays the central schedule on
            the engines; ``"runtime"`` executes on the distributed runtime
            (``"sbt"``/``"msbt"`` only) — the runtime result becomes
            ``result.async_``, so ``run_event_sim`` is implied.
        trace: record a per-packet :class:`repro.runtime.RuntimeTrace`
            on ``result.async_.trace`` (runtime backend only).
    """
    return _collective(
        cube, "broadcast", _resolve_algorithm(cube, "broadcast", algorithm),
        source, message_elems, packet_elems, port_model, machine,
        run_event_sim, faults=faults, on_fault=on_fault,
        backend=backend, trace=trace,
    )


def _broadcast_schedule(
    cube: Topology,
    source: int,
    algorithm: str,
    message_elems: int,
    packet_elems: int,
    port_model: PortModel,
) -> Schedule:
    if algorithm == "ring":
        tree = _ring_tree(cube, source)
        return tree_broadcast_schedule(tree, message_elems, packet_elems, port_model)
    if not isinstance(cube, Hypercube):
        raise ValueError(
            f"broadcast algorithm {algorithm!r} requires a hypercube; "
            f"use 'ring' on {type(cube).__name__}"
        )
    if algorithm == "sbt":
        return sbt_broadcast_schedule(
            cube, source, message_elems, packet_elems, port_model
        )
    if algorithm == "msbt":
        return msbt_broadcast_schedule(
            cube, source, message_elems, packet_elems, port_model
        )
    if algorithm == "tcbt":
        tree = TwoRootedCompleteBinaryTree(cube, source)
        return tree_broadcast_schedule(tree, message_elems, packet_elems, port_model)
    if algorithm == "hp":
        tree = HamiltonianPathTree(cube, source)
        return tree_broadcast_schedule(tree, message_elems, packet_elems, port_model)
    if algorithm == "hp-centered":
        tree = CenteredHamiltonianPathTree(cube, source)
        return tree_broadcast_schedule(tree, message_elems, packet_elems, port_model)
    if algorithm == "hp-dual":
        return dual_hp_broadcast_schedule(
            cube, source, message_elems, packet_elems, port_model
        )
    raise ValueError(
        f"unknown broadcast algorithm {algorithm!r}; pick one of {BROADCAST_ALGORITHMS}"
    )


def scatter(
    cube: Topology,
    source: int,
    algorithm: str | None = None,
    message_elems: int = 1,
    packet_elems: int | None = None,
    port_model: PortModel = PortModel.ONE_PORT_FULL,
    machine: MachineParams | None = None,
    run_event_sim: bool = False,
    subtree_order: str = "depth_first",
    faults: FaultPlan | None = None,
    on_fault: str = "raise",
    backend: str = "sim",
    trace: bool = False,
) -> CollectiveResult:
    """Send a distinct ``message_elems`` message from ``source`` to each node.

    Args:
        cube: the host topology (hypercube or torus).
        source: distributing node.
        algorithm: ``"sbt"``, ``"bst"`` or ``"tcbt"`` on the
            hypercube; ``"ring"`` on either topology.  ``None``
            (default) resolves per topology: ``"bst"`` on the
            hypercube, ``"ring"`` on the torus.
        message_elems: per-destination message size ``M``.
        packet_elems: maximum packet size ``B`` (default: ``M``).
        port_model: port model to generate for and validate against.
        machine: cost parameters (default unit costs).
        run_event_sim: also run the event-driven engine.
        subtree_order: BST in-subtree transmission order (§5.2).
        faults: dead links/nodes to route around; any non-empty plan
            replaces ``algorithm`` with the fault-avoiding survivor
            tree scatter (destinations restricted to reachable nodes).
        on_fault: ``"raise"`` (default) propagates a
            :class:`~repro.sim.faults.FaultError` on a disconnected
            survivor cube; ``"report"`` scatters to the source's
            component and lists the rest in
            ``result.undelivered_nodes``.  The runtime backend also
            accepts ``"repair"``.
        backend: ``"sim"`` (default) replays the central schedule on
            the engines; ``"runtime"`` executes on the distributed runtime
            (``"sbt"``/``"bst"`` only).
        trace: record a per-packet :class:`repro.runtime.RuntimeTrace`
            on ``result.async_.trace`` (runtime backend only).
    """
    return _collective(
        cube, "scatter", _resolve_algorithm(cube, "scatter", algorithm),
        source, message_elems, packet_elems, port_model, machine,
        run_event_sim, subtree_order=subtree_order,
        faults=faults, on_fault=on_fault, backend=backend, trace=trace,
    )


def _scatter_schedule(
    cube: Topology,
    source: int,
    algorithm: str,
    message_elems: int,
    packet_elems: int,
    port_model: PortModel,
    subtree_order: str = "depth_first",
) -> Schedule:
    if algorithm == "ring":
        tree = _ring_tree(cube, source)
        return tree_scatter_schedule(tree, message_elems, packet_elems, port_model)
    if not isinstance(cube, Hypercube):
        raise ValueError(
            f"scatter algorithm {algorithm!r} requires a hypercube; "
            f"use 'ring' on {type(cube).__name__}"
        )
    if algorithm == "sbt":
        return sbt_scatter_schedule(
            cube, source, message_elems, packet_elems, port_model
        )
    if algorithm == "bst":
        return bst_scatter_schedule(
            cube, source, message_elems, packet_elems, port_model, subtree_order
        )
    if algorithm == "tcbt":
        tree = TwoRootedCompleteBinaryTree(cube, source)
        return tree_scatter_schedule(tree, message_elems, packet_elems, port_model)
    raise ValueError(
        f"unknown scatter algorithm {algorithm!r}; pick one of {SCATTER_ALGORITHMS}"
    )


def gather(
    cube: Topology,
    root: int,
    algorithm: str | None = None,
    message_elems: int = 1,
    packet_elems: int | None = None,
    port_model: PortModel = PortModel.ONE_PORT_FULL,
    machine: MachineParams | None = None,
    run_event_sim: bool = False,
) -> CollectiveResult:
    """Collect a distinct ``message_elems`` message from every node at ``root``.

    The schedule is the reversed scatter schedule of the same
    algorithm, hence identical step counts with transposed link loads.
    ``algorithm=None`` resolves per topology (``"bst"`` on the
    hypercube, ``"ring"`` on the torus).
    """
    algorithm = _resolve_algorithm(cube, "gather", algorithm)
    return _collective(
        cube, "gather", algorithm, root, message_elems, packet_elems,
        port_model, machine, run_event_sim,
    )


def reduce(
    cube: Topology,
    root: int,
    message_elems: int = 1,
    packet_elems: int | None = None,
    port_model: PortModel = PortModel.ONE_PORT_FULL,
    machine: MachineParams | None = None,
    run_event_sim: bool = False,
    algorithm: str | None = None,
) -> CollectiveResult:
    """Combine an ``message_elems`` operand from every node at ``root``.

    ``algorithm=None`` resolves per topology: ``"sbt"`` (the reversed
    spanning binomial tree, §3 of the paper) on the hypercube,
    ``"ring"`` (the reversed ring-decomposition tree) on the torus.
    """
    algorithm = _resolve_algorithm(cube, "reduce", algorithm)
    return _collective(
        cube, "reduce", algorithm, root, message_elems, packet_elems,
        port_model, machine, run_event_sim,
    )


def _reduce_schedule(
    cube: Topology,
    root: int,
    algorithm: str,
    message_elems: int,
    packet_elems: int,
    port_model: PortModel,
) -> tuple[Schedule, dict[int, set[Chunk]]]:
    if algorithm == "ring":
        tree = _ring_tree(cube, root)
        sched = tree_reduce_schedule(
            tree, message_elems, packet_elems, port_model
        )
        return sched, tree_reduce_initial_holdings(
            tree, message_elems, packet_elems
        )
    if algorithm != "sbt" or not isinstance(cube, Hypercube):
        raise ValueError(
            f"reduce implements {REDUCE_ALGORITHMS}, got {algorithm!r} "
            f"on {type(cube).__name__}"
        )
    sched = sbt_reduce_schedule(
        cube, root, message_elems, packet_elems, port_model
    )
    return sched, reduce_initial_holdings(cube, message_elems, packet_elems)


def allreduce(
    cube: Topology,
    message_elems: int = 1,
    packet_elems: int | None = None,
    port_model: PortModel = PortModel.ONE_PORT_FULL,
    machine: MachineParams | None = None,
    run_event_sim: bool = False,
    broadcast_algorithm: str | None = None,
    root: int = 0,
    reduce_algorithm: str | None = None,
) -> AllreduceResult:
    """Reduce to ``root`` then broadcast the result back (allreduce).

    The classic two-phase composition over the paper's trees: the
    reduce is the reverse broadcast (SBT on the hypercube, the
    ring-decomposition tree on the torus), then the combined operand
    is broadcast from the same root.  ``reduce_algorithm`` /
    ``broadcast_algorithm`` default per topology (``"sbt"`` /
    ``"sbt"`` on the hypercube, ``"ring"`` / ``"ring"`` on the
    torus).  Returns an
    :class:`~repro.collectives.result.AllreduceResult` carrying both
    phase results, the summed cost view, and one uniform ``metrics``
    dict (``op="allreduce"``); it unpacks as ``(phase1, phase2)`` for
    callers that report the phases separately.
    """
    reduce_algorithm = _resolve_algorithm(cube, "reduce", reduce_algorithm)
    if broadcast_algorithm is None:
        broadcast_algorithm = (
            "sbt" if isinstance(cube, Hypercube)
            else default_algorithm(cube, "broadcast")
        )
    collector = RunCollector(
        "allreduce", f"{reduce_algorithm}+{broadcast_algorithm}",
        topology=cube.kind,
    )
    with collector.phase("reduce"):
        phase1 = reduce(
            cube, root, message_elems, packet_elems, port_model, machine,
            run_event_sim, algorithm=reduce_algorithm,
        )
    with collector.phase("broadcast"):
        phase2 = broadcast(
            cube, root, broadcast_algorithm, message_elems, packet_elems,
            port_model, machine, run_event_sim,
        )
    result = AllreduceResult(reduce=phase1, broadcast=phase2)
    collector.finalize(result)
    return result


def allgather(
    cube: Hypercube,
    message_elems: int = 1,
    port_model: PortModel = PortModel.ONE_PORT_FULL,
    machine: MachineParams | None = None,
    run_event_sim: bool = False,
) -> CollectiveResult:
    """All-to-all broadcast: every node ends holding every contribution."""
    return _collective(
        cube, "allgather", "dimension-exchange", 0, message_elems, None,
        port_model, machine, run_event_sim,
    )


def all_broadcast(
    cube: Topology,
    message_elems: int = 1,
    port_model: PortModel = PortModel.ONE_PORT_FULL,
    machine: MachineParams | None = None,
    run_event_sim: bool = False,
) -> CollectiveResult:
    """All-to-all broadcast on any topology: every node learns every
    contribution.

    On the hypercube this is the §4 dimension-exchange allgather; on
    the torus it is the Jung–Sakho schedule — ``n`` sequential
    dimension phases, each circulating the accumulated super-chunks
    around the dimension's rings (bidirectionally under the all-port
    model, as arc matchings under half-duplex).
    """
    return _collective(
        cube, "all_broadcast", default_algorithm(cube, "all_broadcast"), 0,
        message_elems, None, port_model, machine, run_event_sim,
    )


def alltoall_personalized(
    cube: Hypercube,
    message_elems: int = 1,
    port_model: PortModel = PortModel.ONE_PORT_FULL,
    machine: MachineParams | None = None,
    run_event_sim: bool = False,
    algorithm: str = "dimension-exchange",
) -> CollectiveResult:
    """Total exchange: node ``i`` sends a distinct message to every ``j``.

    Algorithms: ``"dimension-exchange"`` (log N folding steps) or
    ``"bst"`` — ``N`` translated BSTs running concurrently, the [8]
    extension, which is about ``log N`` times faster in transfer time
    under the all-port model (and requires it).
    """
    return _collective(
        cube, "alltoall", algorithm, 0, message_elems, None,
        port_model, machine, run_event_sim,
    )


def collective_schedule(
    cube: Topology,
    op: str,
    algorithm: str | None = None,
    source: int = 0,
    message_elems: int = 1,
    packet_elems: int | None = None,
    port_model: PortModel = PortModel.ONE_PORT_FULL,
    subtree_order: str = "depth_first",
) -> tuple[Schedule, dict[int, set[Chunk]]]:
    """Build the schedule + initial holdings for one collective job.

    The schedule-generation halves of :func:`broadcast`,
    :func:`scatter`, :func:`gather`, :func:`reduce`, :func:`allgather`
    and :func:`alltoall_personalized`, exposed as one entry point that
    does *not* run any engine — the service layer
    (:mod:`repro.service`) and the workload layer
    (:mod:`repro.workloads`) use it to compose many jobs/phases into a
    single merged program before execution.

    Args:
        cube: the host topology (``allgather``/``alltoall`` are
            hypercube-only; use ``all_broadcast`` for the
            topology-generic all-to-all broadcast).
        op: one of ``SCHEDULE_OPS`` (``"broadcast"``, ``"scatter"``,
            ``"gather"``, ``"reduce"``, ``"allgather"``,
            ``"alltoall"``, ``"all_broadcast"``).
        algorithm: algorithm within the op (default per op and
            topology: :func:`default_algorithm`).
        source: root node (rooted ops only; ignored for
            ``allgather``/``alltoall``).
        message_elems: message size ``M`` (per destination for the
            personalized ops).
        packet_elems: maximum packet size ``B`` (default ``M``; the
            rootless ops pack one message per packet regardless).
        port_model: port model the schedule must respect.
        subtree_order: BST in-subtree transmission order (§5.2).

    Returns:
        ``(schedule, initial_holdings)`` ready for any engine.
    """
    if op not in SCHEDULE_OPS:
        raise ValueError(f"op must be one of {SCHEDULE_OPS}, got {op!r}")
    check_subtree_order(subtree_order)
    algorithm = _resolve_algorithm(cube, op, algorithm)
    packet_elems = message_elems if packet_elems is None else packet_elems
    if op == "broadcast":
        sched = _broadcast_schedule(
            cube, source, algorithm, message_elems, packet_elems, port_model
        )
        return sched, {source: set(sched.chunk_sizes)}
    if op == "scatter":
        sched = _scatter_schedule(
            cube, source, algorithm, message_elems, packet_elems,
            port_model, subtree_order,
        )
        return sched, {source: set(sched.chunk_sizes)}
    if op == "gather":
        sched = gather_from_scatter(
            _scatter_schedule(
                cube, source, algorithm, message_elems, packet_elems,
                port_model, subtree_order,
            )
        )
        return sched, {
            v: {c for c in sched.chunk_sizes if c[0] == MSG and c[1] == v}
            for v in cube.nodes()
        }
    if op == "reduce":
        return _reduce_schedule(
            cube, source, algorithm, message_elems, packet_elems, port_model
        )
    if op == "all_broadcast":
        return (
            all_broadcast_schedule(cube, message_elems, port_model),
            all_broadcast_initial_holdings(cube),
        )
    if op == "allgather":
        if algorithm != "dimension-exchange":
            raise ValueError(
                f"allgather implements 'dimension-exchange', got {algorithm!r}"
            )
        return (
            allgather_schedule(cube, message_elems, port_model),
            allgather_initial_holdings(cube),
        )
    # op == "alltoall"
    if algorithm == "dimension-exchange":
        sched = alltoall_personalized_schedule(cube, message_elems, port_model)
    elif algorithm == "bst":
        if port_model is not PortModel.ALL_PORT:
            raise ValueError("the N-BST total exchange requires the all-port model")
        from repro.routing.alltoall import alltoall_bst_schedule

        sched = alltoall_bst_schedule(cube, message_elems)
    else:
        raise ValueError(
            f"unknown total-exchange algorithm {algorithm!r}; "
            "pick 'dimension-exchange' or 'bst'"
        )
    return sched, alltoall_initial_holdings(cube)


#: hypercube broadcasts whose fault-free schedule from any source is the
#: source-0 schedule translated (see collective_program)
_TRANSLATED_BROADCASTS = ("sbt", "msbt")

#: one read-only ``(schedule, initial, lowering)`` entry, the lowering
#: with its lock-step and delivery verdicts, per normalized collective
#: call (see collective_program)
_PROGRAMS = LRUCache("lowerings", maxsize=256)


def _normalize(value: Any) -> Hashable:
    """A cache-key component for one argument of a collective call."""
    if isinstance(value, Topology):
        # the full token — ("hypercube", n) vs ("torus", n, k) — so
        # different topologies at the same n can never share an entry
        return value.cache_token()
    if isinstance(value, PortModel):
        return ("port", value.value)
    if type(value) is int:
        return value
    # any other leaf is keyed with its type: True == 1 == 1.0 == np.True_
    # hash alike, but a generator may accept one and reject another, and
    # a hit must not skip its validation
    return (type(value), value)


def collective_program(
    cube: Topology,
    op: str,
    algorithm: str | None = None,
    source: int = 0,
    message_elems: int = 1,
    packet_elems: int | None = None,
    port_model: PortModel = PortModel.ONE_PORT_FULL,
    subtree_order: str = "depth_first",
    built: tuple[Schedule, dict[int, set[Chunk]]] | None = None,
) -> tuple[Schedule, dict[int, set[Chunk]], LoweredSchedule]:
    """:func:`collective_schedule` with the same arguments, plus the
    schedule lowered with its initial holdings: ``(schedule, initial,
    lowering)``.

    A schedule depends only on its call, so its lowering does too.
    Every fault-free collective call takes its program from here: the
    public collectives (both backends), service jobs and workload
    phases (:attr:`repro.sim.multi.JobEntry.lowering`).  Programs are
    served from the one ``lowerings`` LRU, one read-only entry per
    normalized call (resolved algorithm and packet size, source 0 for
    the rootless ops).  An SBT or MSBT broadcast on the hypercube is
    keyed at source 0 and served as that entry translated to
    ``source`` (:meth:`~repro.sim.schedule.Schedule.translated`, whose
    rounds are built on first read, and
    :meth:`~repro.sim.lowering.LoweredSchedule.translated`).  An entry
    takes its lock-step verdict (``checked_under``) from one
    :func:`lowered_constraints_hold` when it is filled, so the lock-step
    run of a hit only prices it, and its delivery verdict
    (``n_fillable``, ``delivers``) from one :func:`check_delivery` over
    the holdings of its fillable slots, so a run that ends holding them
    all needs no check of its own
    (:meth:`~repro.sim.lowering.LoweredSchedule.delivered_with`).
    Every call gets a fresh ``Schedule`` (``rounds`` list,
    ``chunk_sizes`` and ``meta`` copied; the ``Transfer`` tuples are
    immutable and shared) and fresh initial sets, so callers may mutate
    them; the lowering's columns are read-only.  ``built`` is
    the call's ``(schedule, initial)`` when the caller already has it (a
    worker process built it): a miss keeps and lowers it instead of
    building it again.
    """
    if op not in SCHEDULE_OPS:
        raise ValueError(f"op must be one of {SCHEDULE_OPS}, got {op!r}")
    check_subtree_order(subtree_order)
    algorithm = _resolve_algorithm(cube, op, algorithm)
    packet_elems = message_elems if packet_elems is None else packet_elems
    if op not in ROOTED_OPS:
        source = 0
    call = dict(
        cube=cube, op=op, algorithm=algorithm, source=source,
        message_elems=message_elems, packet_elems=packet_elems,
        port_model=port_model, subtree_order=subtree_order,
    )
    by = 0
    if (
        op == "broadcast"
        and algorithm in _TRANSLATED_BROADCASTS
        and isinstance(cube, Hypercube)
    ):
        by, call["source"] = cube.check_node(source), 0
        if by:
            built = None  # the entry holds the source-0 program
    key = tuple((name, _normalize(value)) for name, value in call.items())
    entry = _PROGRAMS.get(key)
    if entry is MISSING:
        sched, initial = built or collective_schedule(**call)
        low = lower_schedule(cube, sched, initial)
        if lowered_constraints_hold(cube, low, port_model):
            low.checked_under = port_model
        low.judge_delivery(
            cube.nodes(),
            lambda held: check_delivery(cube, op, call["source"], sched, held),
        )
        entry = (sched, initial, low.read_only())
        _PROGRAMS.put(key, entry)
    sched, initial, low = entry
    if by:
        moved = sched.translated(cube, by)
        return (
            moved,
            {by: set(moved.chunk_sizes)},
            low.translated(cube, by).read_only(),
        )
    fresh = Schedule(
        rounds=list(sched.rounds),
        chunk_sizes=dict(sched.chunk_sizes),
        algorithm=sched.algorithm,
        meta=copy.deepcopy(sched.meta),
    )
    return fresh, {v: set(chunks) for v, chunks in initial.items()}, low


def check_delivery(
    cube: Topology,
    op: str,
    source: int,
    schedule: Schedule,
    holdings: dict[int, set[Chunk]],
) -> dict[int, set[Chunk]]:
    """Chunks each node should hold after ``op`` but does not.

    The one definition of a delivered collective.  Every public
    collective raises ``AssertionError`` when it reports a short node
    the run was meant to serve; the service and the workload layer
    report it per job over a bare holdings map (e.g. one job's
    :meth:`repro.service.exec.ExecutionView.job_holdings` of a merged
    run).
    Empty result = complete; short nodes come in ascending order.

    Obligations per op:

    * ``broadcast``, ``allgather``, ``all_broadcast``: every chunk at
      every node;
    * ``scatter``: every node but ``source`` holds the chunks addressed
      to it (``c[1]``);
    * ``alltoall``: every node holds the chunks addressed to it
      (``c[2]``);
    * ``gather``: the root holds every chunk;
    * ``reduce``: the root holds its own operand plus the combined
      partial each tree child sends in — exactly the chunks of the
      transfers terminating at the root (on the hypercube SBT these
      are the ``source ^ 2**j`` partials).
    """
    if op not in SCHEDULE_OPS:
        raise ValueError(f"op must be one of {SCHEDULE_OPS}, got {op!r}")
    chunks = schedule.chunk_sizes
    missing: dict[int, set[Chunk]] = {}
    if op in ("scatter", "alltoall"):
        # each chunk is owed to the one node it is addressed to, so a
        # single pass over the chunks checks everything: O(C), not O(N * C)
        dst = 1 if op == "scatter" else 2
        exempt = source if op == "scatter" else None
        for c in chunks:
            v = c[dst]
            if v != exempt and c not in holdings.get(v, ()):
                missing.setdefault(v, set()).add(c)
        return dict(sorted(missing.items()))
    if op == "gather":
        want, nodes = set(chunks), (source,)
    elif op == "reduce":
        want, nodes = {c for c in chunks if c[1] == source}, (source,)
        for r in schedule.rounds:
            for t in r:
                if t.dst == source:
                    want.update(t.chunks)
    else:
        want, nodes = set(chunks), cube.nodes()
    for v in nodes:
        have = holdings.get(v, frozenset())
        if not want <= have:
            missing[v] = want - have
    return missing
