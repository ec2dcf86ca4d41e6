"""Packet-size sweep for personalized communication (§4.2's T(B) forms).

Not a numbered table in the paper, but the backbone of its §4.3
comparison: the SBT scatter improves monotonically with bigger packets
(fewer start-ups at the bottleneck root), while the BST scatter
plateaus once a packet holds a whole subtree's worth — and at ``B = M``
the two coincide.  This experiment sweeps ``B`` and pairs the simulated
lock-step times with the §4.2 estimates.

Each packet size is an independent point, executed through
:func:`repro.experiments.parallel.run_sweep` (``jobs``/``REPRO_JOBS``
control the worker count; output is identical at any setting).
"""

from __future__ import annotations

from repro.analysis.models import personalized_time_one_port
from repro.collectives.api import scatter
from repro.experiments.harness import TableReport
from repro.experiments.parallel import run_sweep
from repro.sim.machine import MachineParams
from repro.sim.ports import PortModel
from repro.topology.hypercube import Hypercube

__all__ = ["run_scatter_packet_sweep"]


def _scatter_point(n: int, M: int, B: int, tau: float, t_c: float) -> list[list[object]]:
    """One sweep point: SBT and BST one-port scatter at packet size ``B``."""
    cube = Hypercube(n)
    machine = MachineParams(tau=tau, t_c=t_c)
    row: list[object] = [B]
    for algo in ("sbt", "bst"):
        res = scatter(
            cube, 0, algo, M, B, PortModel.ONE_PORT_FULL, machine=machine
        )
        model = personalized_time_one_port(algo, n, M, B, tau, t_c)
        row.extend([round(res.sync.time, 1), round(model, 1)])
    return [row]


def run_scatter_packet_sweep(
    n: int = 5,
    M: int = 8,
    tau: float = 1.0,
    t_c: float = 1.0,
    packet_sizes: tuple[int, ...] = (2, 4, 8, 32, 128, 100_000),
    jobs: int | None = None,
) -> TableReport:
    """Sweep ``B`` for one-port SBT and BST scatter; report sim vs model."""
    report = TableReport(
        f"Scatter T(B) sweep — n={n}, M={M}, tau={tau}, tc={t_c} (one port)",
        ["B", "SBT sim", "SBT model", "BST sim", "BST model"],
    )
    grid = [dict(n=n, M=M, B=B, tau=tau, t_c=t_c) for B in packet_sizes]
    result = run_sweep(_scatter_point, grid, jobs=jobs)
    for rows in result.values:
        for row in rows:
            report.add(*row)
    report.sweep = result.stats
    return report
