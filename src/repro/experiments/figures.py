"""Reproduction experiments for Figures 5-8 (the iPSC/d7 measurements).

These run the event-driven engine under the iPSC machine model
(1 KB internal packets, millisecond start-ups, 20 % cross-port
overlap) to regenerate the *measured* curves of §5.  Absolute times
are simulator times under the calibrated parameters; the claims being
reproduced are the shapes: linear growth in message size, the 1 KB
packet-size knee, the ~log N MSBT speed-up, and the BST-vs-SBT
personalized-communication gap.

Every figure is a sweep over independent simulation points, so each
``run_figN`` fans its grid out through
:func:`repro.experiments.parallel.run_sweep` — ``jobs=4`` runs four
worker processes, ``jobs=None`` (the default) honours ``REPRO_JOBS``
and otherwise stays serial.  Results are reassembled in grid order, so
the report is identical whatever the worker count.
"""

from __future__ import annotations

from repro.collectives.api import broadcast, scatter
from repro.experiments.harness import TableReport
from repro.experiments.parallel import run_sweep, sweep_grid
from repro.sim.machine import IPSC_D7, MachineParams
from repro.sim.ports import PortModel
from repro.topology.hypercube import Hypercube

__all__ = ["run_fig5", "run_fig6", "run_fig7", "run_fig8"]


def _fig5_point(n: int, B: int, M: int, machine: MachineParams) -> list[list[object]]:
    """One Figure 5 grid point: SBT broadcast time at ``(n, B, M)``."""
    cube = Hypercube(n)
    res = broadcast(
        cube,
        0,
        "sbt",
        message_elems=M,
        packet_elems=B,
        port_model=PortModel.ONE_PORT_FULL,
        machine=machine,
        run_event_sim=True,
    )
    return [[n, B, M, round(res.time, 4)]]


def run_fig5(
    dims: tuple[int, ...] = (2, 4, 6),
    packet_sizes: tuple[int, ...] = (256, 1024, 4096),
    message_bytes: tuple[int, ...] = (4096, 16384, 61440),
    machine: MachineParams = IPSC_D7,
    jobs: int | None = None,
) -> TableReport:
    """Figure 5: SBT broadcast time on the iPSC vs message/packet size.

    One element = one byte.  Time should grow almost linearly with the
    message size, with external packets below the 1 KB internal size
    paying proportionally more start-ups.
    """
    report = TableReport(
        "Figure 5 — SBT broadcasting on the iPSC model",
        ["dim", "B (bytes)", "M (bytes)", "time (s)"],
    )
    grid = sweep_grid(n=dims, B=packet_sizes, M=message_bytes)
    for point in grid:
        point["machine"] = machine
    result = run_sweep(_fig5_point, grid, jobs=jobs)
    for rows in result.values:
        for row in rows:
            report.add(*row)
    report.sweep = result.stats
    return report


def _fig6_point(n: int, M: int, B: int, machine: MachineParams) -> list[list[object]]:
    """One Figure 6 grid point: SBT and MSBT broadcast times at ``n``."""
    cube = Hypercube(n)
    t_sbt = broadcast(
        cube, 0, "sbt", M, B,
        PortModel.ONE_PORT_FULL, machine, run_event_sim=True,
    ).time
    t_msbt = broadcast(
        cube, 0, "msbt", M, B,
        PortModel.ONE_PORT_FULL, machine, run_event_sim=True,
    ).time
    return [[n, round(t_sbt, 4), round(t_msbt, 4)]]


def run_fig6(
    dims: tuple[int, ...] = (2, 3, 4, 5, 6),
    message_bytes: int = 61440,
    packet_bytes: int = 1024,
    machine: MachineParams = IPSC_D7,
    jobs: int | None = None,
) -> TableReport:
    """Figure 6: SBT vs MSBT broadcast of 60 KB in 1 KB packets.

    The MSBT keeps its time nearly flat across cube dimensions while
    the SBT's grows linearly in ``log N``.
    """
    report = TableReport(
        f"Figure 6 — broadcasting {message_bytes} bytes, B={packet_bytes}",
        ["dim", "SBT time (s)", "MSBT time (s)"],
    )
    grid = [
        dict(n=n, M=message_bytes, B=packet_bytes, machine=machine)
        for n in dims
    ]
    result = run_sweep(_fig6_point, grid, jobs=jobs)
    for rows in result.values:
        for row in rows:
            report.add(*row)
    report.sweep = result.stats
    return report


def run_fig7(
    dims: tuple[int, ...] = (2, 3, 4, 5, 6),
    message_bytes: int = 61440,
    packet_bytes: int = 1024,
    machine: MachineParams = IPSC_D7,
    jobs: int | None = None,
) -> TableReport:
    """Figure 7: MSBT speed-up over SBT — approximately ``log N``."""
    fig6 = run_fig6(dims, message_bytes, packet_bytes, machine, jobs=jobs)
    report = TableReport(
        "Figure 7 — MSBT vs SBT broadcast speed-up",
        ["dim", "speedup", "log N"],
    )
    for (n, t_sbt, t_msbt) in fig6.rows:
        report.add(n, round(float(t_sbt) / float(t_msbt), 3), n)
    report.sweep = fig6.sweep
    return report


def _fig8_point(n: int, M: int, machine: MachineParams) -> list[list[object]]:
    """One Figure 8 grid point: SBT vs BST personalized times at ``n``."""
    cube = Hypercube(n)
    t_sbt = scatter(
        cube, 0, "sbt", M, M,
        PortModel.ONE_PORT_HALF, machine, run_event_sim=True,
    ).time
    t_bst = scatter(
        cube, 0, "bst", M, M,
        PortModel.ONE_PORT_HALF, machine, run_event_sim=True,
    ).time
    return [[n, round(t_sbt, 4), round(t_bst, 4), round(t_bst / t_sbt, 3)]]


def run_fig8(
    dims: tuple[int, ...] = (2, 3, 4, 5, 6, 7),
    message_bytes: int = 1024,
    machine: MachineParams = IPSC_D7,
    jobs: int | None = None,
) -> TableReport:
    """Figure 8: personalized communication, BST vs SBT on the iPSC.

    The iPSC is effectively one-port-at-a-time (§3), with ~20 % overlap
    between actions on different ports.  In the SBT, the head of the
    big subtree "is not yet finished retransmitting the last packet
    received when a new packet arrives" and stalls; in the BST a
    subtree receives a packet only every log N cycles, so "full
    advantage of the 20 % overlap in communication actions is taken"
    (§5.2) — the BST finishes measurably earlier on the larger cubes.
    """
    report = TableReport(
        f"Figure 8 — personalized communication, M={message_bytes} bytes/node",
        ["dim", "SBT time (s)", "BST time (s)", "BST/SBT"],
    )
    grid = [dict(n=n, M=message_bytes, machine=machine) for n in dims]
    result = run_sweep(_fig8_point, grid, jobs=jobs)
    for rows in result.values:
        for row in rows:
            report.add(*row)
    report.sweep = result.stats
    return report
