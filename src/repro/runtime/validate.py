"""Differential validation: runtime execution vs. engine replay.

The runtime claims that executing the paper's routing rules *locally*
(each actor deciding from its own address) reproduces the event
engine's replay of the centrally generated schedule **exactly** — same
virtual completion time, same per-link element and packet counts, same
final holdings, same multiset of transfer start instants.  This module
asserts that claim point by point over the full parameter grid.

MSBT under ``ONE_PORT_HALF`` and the one-port BST scatter are the
interesting cases: the central generator post-processes those
schedules (two-cycle rescheduling resp. ``list_schedule`` repacking),
so the transfer *order* differs from the runtime's local priority
order — yet under the default unit-cost machine both orders execute to
identical results, which this harness verifies empirically rather than
assuming.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.runtime.actors import run_collective
from repro.sim import run_async
from repro.sim.machine import MachineParams
from repro.sim.ports import PortModel
from repro.topology.hypercube import Hypercube

__all__ = [
    "differential_check",
    "differential_grid",
    "GridReport",
]

#: (op, algorithm) pairs the runtime implements
RUNTIME_OPS = (
    ("broadcast", "sbt"),
    ("broadcast", "msbt"),
    ("scatter", "sbt"),
    ("scatter", "bst"),
)


def differential_check(
    cube: Hypercube,
    op: str,
    algorithm: str,
    source: int,
    message_elems: int,
    packet_elems: int,
    port_model: PortModel,
    machine: MachineParams | None = None,
) -> None:
    """Assert runtime == engine for one grid point.

    Raises ``AssertionError`` naming the first differing observable.
    """
    # imported here: repro.collectives.api imports repro.runtime
    from repro.collectives.api import collective_schedule

    machine = machine or MachineParams()
    sched, initial = collective_schedule(
        cube, op, algorithm, source, message_elems, packet_elems, port_model
    )
    engine = run_async(cube, sched, port_model, initial, machine=machine)
    runtime = run_collective(
        cube,
        op,
        algorithm,
        source,
        message_elems,
        packet_elems,
        port_model,
        machine=machine,
    )
    where = (
        f"{op}/{algorithm} n={cube.dimension} source={source} "
        f"M={message_elems} B={packet_elems} {port_model.name}"
    )
    assert abs(runtime.time - engine.time) < 1e-9, (
        f"{where}: completion time {runtime.time!r} != {engine.time!r}"
    )
    assert runtime.link_stats.elems == engine.link_stats.elems, (
        f"{where}: per-link element counts differ"
    )
    assert runtime.link_stats.packets == engine.link_stats.packets, (
        f"{where}: per-link packet counts differ"
    )
    assert runtime.transfers_executed == engine.transfers_executed, (
        f"{where}: executed {runtime.transfers_executed} "
        f"!= {engine.transfers_executed} transfers"
    )
    assert runtime.holdings == engine.holdings, (
        f"{where}: final holdings differ"
    )
    rt, et = runtime.start_times, engine.start_times
    assert len(rt) == len(et) and all(
        abs(a - b) < 1e-9 for a, b in zip(rt, et)
    ), f"{where}: start-time profiles differ"


@dataclass
class GridReport:
    """Summary of a differential sweep."""

    points: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def differential_grid(
    dims=(3, 4, 5, 6, 7, 8),
    messages=(1, 64, 1000),
    packets=(1, 32),
    port_models=(
        PortModel.ONE_PORT_HALF,
        PortModel.ONE_PORT_FULL,
        PortModel.ALL_PORT,
    ),
    ops=RUNTIME_OPS,
    sources=(0,),
    machine: MachineParams | None = None,
    fail_fast: bool = True,
) -> GridReport:
    """Run :func:`differential_check` over the full grid.

    With ``fail_fast`` (default) the first failing point raises; with
    it off, all failures are collected in the returned report.
    """
    report = GridReport()
    for n in dims:
        cube = Hypercube(n)
        for op, algorithm in ops:
            for source in sources:
                for M in messages:
                    for B in packets:
                        for pm in port_models:
                            report.points += 1
                            try:
                                differential_check(
                                    cube, op, algorithm, source,
                                    M, B, pm, machine=machine,
                                )
                            except AssertionError as exc:
                                if fail_fast:
                                    raise
                                report.failures.append(str(exc))
    return report

