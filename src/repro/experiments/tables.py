"""Reproduction experiments for Tables 1-6.

Each ``run_tableN`` function measures the quantity the paper tabulates
(by generating and executing real schedules where the table is about
behaviour, or by evaluating the models where it is analytic), pairs it
with the paper's printed value, and returns a
:class:`~repro.experiments.harness.TableReport`.

Like the figures, every table is a sweep over independent points, run
through :func:`repro.experiments.parallel.run_sweep` — pass ``jobs``
(or set ``REPRO_JOBS``) to fan the grid out over worker processes; row
order and content are identical at any worker count.
"""

from __future__ import annotations

from repro.analysis.compare import TABLE4_REGIMES, TABLE4_ROWS, table4_paper_entry, table4_ratio
from repro.analysis.models import (
    broadcast_model,
    cycles_per_packet,
    personalized_tmin,
    propagation_delay,
)
from repro.analysis.optimal import numeric_b_opt
from repro.collectives.api import broadcast, scatter
from repro.experiments.harness import TableReport
from repro.experiments.parallel import run_sweep, sweep_grid
from repro.sim.machine import MachineParams
from repro.sim.ports import PortModel
from repro.topology.hypercube import Hypercube
from repro.trees.bst import BalancedSpanningTree, max_subtree_size

__all__ = [
    "run_table1",
    "run_table2",
    "run_table3",
    "run_table4",
    "run_table5",
    "run_table6",
    "PAPER_TABLE5",
]

_ALGOS = ("hp", "sbt", "tcbt", "msbt")
_PM_LABEL = {
    PortModel.ONE_PORT_HALF: "1 s or r",
    PortModel.ONE_PORT_FULL: "1 s and r",
    PortModel.ALL_PORT: "all ports",
}


def _collect(report: TableReport, result) -> TableReport:
    """Append every point's rows to ``report`` and attach the stats."""
    for rows in result.values:
        for row in rows:
            report.add(*row)
    report.sweep = result.stats
    return report


def _table1_point(n: int, algo: str, pm: PortModel) -> list[list[object]]:
    cube = Hypercube(n)
    # The MSBT's unit of work is log N packets — one per subtree
    # (§3.3.2: "the minimum number of routing steps to broadcast
    # log N packets is 2 log N"); the single-tree algorithms
    # propagate one packet.
    m = n if algo == "msbt" else 1
    res = broadcast(cube, 0, algo, message_elems=m, packet_elems=1, port_model=pm)
    return [[algo.upper(), _PM_LABEL[pm], res.cycles, propagation_delay(algo, pm, n)]]


def run_table1(
    n: int = 4,
    jobs: int | None = None,
) -> TableReport:
    """Table 1: propagation delay (cycles to broadcast one packet).

    Measured: generate each algorithm's schedule for a single packet
    (``M = B = 1``) and count the lock-step cycles it actually takes.
    """
    cube = Hypercube(n)
    report = TableReport(
        f"Table 1 — propagation delays, n={n} (N={cube.num_nodes})",
        ["algorithm", "port model", "measured", "paper"],
    )
    grid = sweep_grid(algo=_ALGOS, pm=tuple(PortModel))
    for point in grid:
        point["n"] = n
    return _collect(report, run_sweep(_table1_point, grid, jobs=jobs))


def _table2_point(n: int, packets: int, algo: str, pm: PortModel) -> list[list[object]]:
    cube = Hypercube(n)
    c1 = broadcast(cube, 0, algo, packets, 1, pm).cycles
    c2 = broadcast(cube, 0, algo, 2 * packets, 1, pm).cycles
    measured = (c2 - c1) / packets
    return [[
        algo.upper(),
        _PM_LABEL[pm],
        round(measured, 3),
        cycles_per_packet(algo, pm, n),
    ]]


def run_table2(
    n: int = 4,
    packets: int = 48,
    jobs: int | None = None,
) -> TableReport:
    """Table 2: steady-state cycles per distinct packet.

    Measured as the marginal cost of additional packets: cycles at
    ``2 * packets`` minus cycles at ``packets``, divided by ``packets``
    (which cancels the pipeline-fill constants).
    """
    report = TableReport(
        f"Table 2 — cycles per distinct packet, n={n}",
        ["algorithm", "port model", "measured", "paper"],
    )
    grid = sweep_grid(algo=_ALGOS, pm=tuple(PortModel))
    for point in grid:
        point.update(n=n, packets=packets)
    return _collect(report, run_sweep(_table2_point, grid, jobs=jobs))


def _table3_point(
    n: int,
    M: int,
    packet_sizes: tuple[int, ...],
    tau: float,
    t_c: float,
    algo: str,
    pm: PortModel,
) -> list[list[object]]:
    cube = Hypercube(n)
    model = broadcast_model(algo, pm)
    b_opt_model = model.b_opt(M, n, tau, t_c)
    b_num, t_num = numeric_b_opt(model, M, n, tau, t_c)
    t_min_model = model.t_min(M, n, tau, t_c)
    rows = []
    for B in packet_sizes:
        res = broadcast(cube, 0, algo, M, B, pm)
        rows.append([
            algo.upper(),
            _PM_LABEL[pm],
            B,
            res.cycles,
            model.steps(M, B, n),
            round(b_opt_model, 1),
            b_num,
            round(t_min_model, 1),
            round(t_num, 1),
        ])
    return rows


def run_table3(
    n: int = 5,
    M: int = 960,
    packet_sizes: tuple[int, ...] = (16, 60, 240),
    tau: float = 8.0,
    t_c: float = 1.0,
    jobs: int | None = None,
) -> TableReport:
    """Table 3: broadcast complexity ``T``, ``B_opt``, ``T_min``.

    For each (algorithm, port model) row: measured lock-step cycles vs
    the model's step count at several packet sizes, and the closed-form
    ``B_opt``/``T_min`` vs brute-force numeric optimization.
    """
    report = TableReport(
        f"Table 3 — broadcast complexity, n={n}, M={M}, tau={tau}, tc={t_c}",
        [
            "algorithm",
            "port model",
            "B",
            "measured steps",
            "model steps",
            "B_opt (model)",
            "B_opt (numeric)",
            "T_min (model)",
            "T_min (numeric)",
        ],
    )
    grid = sweep_grid(algo=_ALGOS, pm=tuple(PortModel))
    for point in grid:
        point.update(n=n, M=M, packet_sizes=tuple(packet_sizes), tau=tau, t_c=t_c)
    return _collect(report, run_sweep(_table3_point, grid, jobs=jobs))


def _table4_point(n: int, algo: str, pm: PortModel) -> list[list[object]]:
    return [
        [
            f"{algo.upper()}/MSBT",
            _PM_LABEL[pm],
            regime,
            round(table4_ratio(algo, pm, regime, n), 3),
            round(table4_paper_entry(algo, pm, regime, n), 3),
        ]
        for regime in TABLE4_REGIMES
    ]


def run_table4(
    n: int = 6,
    jobs: int | None = None,
) -> TableReport:
    """Table 4: broadcast complexity relative to the MSBT routing."""
    report = TableReport(
        f"Table 4 — complexity vs MSBT, n={n}",
        ["algorithms", "port model", "regime", "computed", "paper"],
    )
    grid = [dict(n=n, algo=algo, pm=pm) for algo, pm in TABLE4_ROWS]
    return _collect(report, run_sweep(_table4_point, grid, jobs=jobs))


#: the paper's Table 5 column "BST(max)" for n = 2..20
PAPER_TABLE5 = {
    2: 2, 3: 3, 4: 5, 5: 7, 6: 13, 7: 19, 8: 35, 9: 59, 10: 107,
    11: 187, 12: 351, 13: 631, 14: 1181, 15: 2191, 16: 4115,
    17: 7711, 18: 14601, 19: 27595, 20: 52487,
}


def _table5_point(n: int, construct: bool) -> list[list[object]]:
    computed = max_subtree_size(n)
    if construct:
        tree = BalancedSpanningTree(Hypercube(n))
        constructed = max(map(len, tree.subtree_node_lists))
        if constructed != computed:
            raise AssertionError(
                f"n={n}: constructed max subtree {constructed} != closed form {computed}"
            )
    ideal = ((1 << n) - 1) / n
    return [[n, computed, PAPER_TABLE5[n], round(ideal, 2), round(computed / ideal, 2)]]


def run_table5(
    max_n: int = 20,
    construct_up_to: int = 12,
    jobs: int | None = None,
) -> TableReport:
    """Table 5: maximum BST subtree size vs ``(N-1)/log N``.

    Closed form (necklace count - 1) for every ``n``; additionally
    cross-checked against an explicitly constructed tree for
    ``n <= construct_up_to``.
    """
    report = TableReport(
        "Table 5 — BST maximum subtree sizes",
        ["n", "BST(max) computed", "BST(max) paper", "(N-1)/log N", "ratio"],
    )
    grid = [
        dict(n=n, construct=n <= construct_up_to)
        for n in range(2, max_n + 1)
    ]
    return _collect(report, run_sweep(_table5_point, grid, jobs=jobs))


def _table6_point(
    n: int, M: int, tau: float, t_c: float, algo: str, pm: PortModel
) -> list[list[object]]:
    cube = Hypercube(n)
    machine = MachineParams(tau=tau, t_c=t_c)
    big_b = cube.num_nodes * M  # unbounded packets
    res = scatter(cube, 0, algo, M, big_b, pm, machine=machine)
    paper = personalized_tmin(algo, pm, n, M, tau, t_c)
    is_bound = (algo, pm) in {
        ("tcbt", PortModel.ONE_PORT_FULL),
        ("bst", PortModel.ONE_PORT_FULL),
    } or (algo, pm) == ("bst", PortModel.ALL_PORT)
    return [[
        algo.upper(),
        _PM_LABEL[pm],
        round(res.sync.time, 2),
        round(paper, 2),
        "<=" if is_bound else "=",
    ]]


def run_table6(
    n: int = 5,
    M: int = 8,
    tau: float = 1.0,
    t_c: float = 1.0,
    jobs: int | None = None,
) -> TableReport:
    """Table 6: personalized-communication time at optimal packet size.

    Measured: lock-step time of the real scatter schedules with an
    effectively unbounded packet size, unit-cost machine.  The SBT rows
    are exact equalities; the TCBT/BST one-port rows are paper upper
    bounds, and the BST all-port row uses the idealized ``(N-1)/log N``
    subtree size (the measured value is the true max-subtree load).
    """
    report = TableReport(
        f"Table 6 — personalized communication, n={n}, M={M}",
        ["algorithm", "port model", "measured T", "paper T_min", "bound?"],
    )
    grid = sweep_grid(
        algo=("sbt", "tcbt", "bst"),
        pm=(PortModel.ONE_PORT_FULL, PortModel.ALL_PORT),
    )
    for point in grid:
        point.update(n=n, M=M, tau=tau, t_c=t_c)
    return _collect(report, run_sweep(_table6_point, grid, jobs=jobs))
