"""The vectorized array-core engine's own entry points and plumbing.

``repro.sim.vectorized.run_async_vectorized`` lowers the schedule to
flat NumPy tables (:mod:`repro.sim.lowering`) and admits transfers from
one ready queue per directed link, but its results must
match the reference oracle to the last ulp: completion time, holdings,
link statistics, start times, fault errors and degraded results alike.
``tests/sim/test_engine_equivalence.py`` checks the plain call; the
checks here replay a pre-built lowering with the transfer log on (the
service layer's call) and run the fault matrix on the iPSC machine.

Also covers the absence of an engine choice (:mod:`repro.sim.dispatch`
resolves only ``vectorized``; no collective takes ``engine``, no CLI
subcommand ``--engine``), collective results against the oracle, the
``repro_engine_table_bytes_peak`` gauge, and the admission-block count,
which grows linearly in the packets per link.
"""

from __future__ import annotations

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collectives.api import broadcast, scatter
from repro.obs import REGISTRY
from repro.obs.instruments import (
    ENGINE_ADMISSION_BLOCKS,
    ENGINE_TABLE_BYTES_PEAK,
)
from repro.routing import (
    allgather_schedule,
    bst_scatter_schedule,
    dual_hp_broadcast_schedule,
    msbt_broadcast_schedule,
    sbt_broadcast_schedule,
    sbt_scatter_schedule,
    tree_broadcast_schedule,
)
from repro.cli import build_parser
from repro.sim import run_async
from repro.sim.dispatch import get_engine, resolve_engine
from repro.sim._engine_reference import run_async_reference
from repro.sim.faults import DegradedResult, FaultError, FaultPlan
from repro.sim.lowering import lower_schedule
from repro.sim.machine import IPSC_D7, UNIT_COST, MachineParams
from repro.sim.ports import PortModel
from repro.sim.schedule import Schedule, Transfer
from repro.sim.vectorized import run_async_vectorized
from repro.topology.hypercube import Hypercube
from repro.trees.hamiltonian import HamiltonianPathTree
from repro.trees.tcbt import TwoRootedCompleteBinaryTree

MACHINES = [
    IPSC_D7,
    UNIT_COST,
    MachineParams(tau=0.5, t_c=2.0, overlap=0.3, name="overlap-heavy"),
]

CUBE = Hypercube(4)


def _schedules(source: int, port_model: PortModel):
    """(name, schedule, initial holdings) for every algorithm family."""
    out = []
    for name, sched in [
        ("sbt-broadcast", sbt_broadcast_schedule(CUBE, source, 37, 8, port_model)),
        ("msbt-broadcast", msbt_broadcast_schedule(CUBE, source, 37, 8, port_model)),
        (
            "tcbt-broadcast",
            tree_broadcast_schedule(
                TwoRootedCompleteBinaryTree(CUBE, source), 37, 8, port_model
            ),
        ),
        (
            "hp-broadcast",
            tree_broadcast_schedule(
                HamiltonianPathTree(CUBE, source), 37, 8, port_model
            ),
        ),
        (
            "dual-hp-broadcast",
            dual_hp_broadcast_schedule(CUBE, source, 37, 8, port_model),
        ),
        ("bst-scatter", bst_scatter_schedule(CUBE, source, 37, 8, port_model)),
        ("sbt-scatter", sbt_scatter_schedule(CUBE, source, 37, 8, port_model)),
    ]:
        out.append((name, sched, {source: set(sched.chunk_sizes)}))
    ag = allgather_schedule(CUBE, 11, port_model)
    out.append(
        (
            "allgather",
            ag,
            {v: {c for c in ag.chunk_sizes if c[1] == v} for v in CUBE.nodes()},
        )
    )
    return out


@pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)
@pytest.mark.parametrize("port_model", list(PortModel), ids=lambda p: p.value)
@pytest.mark.parametrize("source", [0, 5])
def test_vectorized_matches_indexed_and_reference(source, port_model, machine):
    """A pre-built lowering replayed with the transfer log on matches both
    the plain call and the reference oracle (the id names the engine
    this check compared against before the indexed engine was removed)."""
    for name, sched, init in _schedules(source, port_model):
        low = lower_schedule(CUBE, sched, init)
        vec = run_async_vectorized(
            CUBE, sched, port_model, {k: set(v) for k, v in init.items()},
            machine, lowered=low, transfer_log=True,
        )
        plain = run_async_vectorized(
            CUBE, sched, port_model, {k: set(v) for k, v in init.items()}, machine
        )
        ref = run_async_reference(
            CUBE, sched, port_model, {k: set(v) for k, v in init.items()}, machine
        )
        assert vec.time == plain.time == ref.time, name
        assert vec.holdings == plain.holdings == ref.holdings, name
        assert vec.link_stats == plain.link_stats == ref.link_stats, name
        assert vec.transfers_executed == ref.transfers_executed, name
        # the reference appends in execution order; the engine sorts
        assert vec.start_times == plain.start_times == sorted(ref.start_times), name
        # the log keeps execution order: its starts are the unsorted times
        assert sorted(vec.transfer_log.starts) == vec.start_times, name
        assert sorted(vec.transfer_log.ids) == list(range(low.n_transfers)), name


#: fault plans for the differential matrix — immediate links/nodes,
#: combinations, and time-activated variants (cube-4 addresses)
FAULT_PLANS = [
    FaultPlan(dead_links=[(0, 1)]),
    FaultPlan(dead_links=[(2, 6), (4, 5)]),
    FaultPlan(dead_nodes=[6]),
    FaultPlan(dead_links=[(0, 8)], dead_nodes=[9]),
    FaultPlan(dead_links=[(0, 1, 40.0)]),
    FaultPlan(dead_nodes=[(3, 25.0)]),
]


def _run_or_fault(engine, sched, port_model, init, machine, plan, mode):
    try:
        return engine(
            CUBE, sched, port_model, {k: set(v) for k, v in init.items()},
            machine, faults=plan, on_fault=mode,
        )
    except FaultError as err:
        return err


@pytest.mark.parametrize("mode", ["raise", "report"])
@pytest.mark.parametrize("port_model", list(PortModel), ids=lambda p: p.value)
def test_fault_matrix_vectorized_agrees(port_model, mode):
    """Under every fault plan on the iPSC machine (start-up costs move
    every transfer relative to the time-activated faults), the
    vectorized engine and the reference oracle produce the same
    outcome: same FaultError (edge, node, time) in raise mode;
    bit-identical results — degraded or not — in report mode, including
    the undelivered map and the cancelled-event set."""
    for name, sched, init in _schedules(0, port_model):
        for plan in FAULT_PLANS:
            vec = _run_or_fault(
                run_async_vectorized, sched, port_model, init, IPSC_D7,
                plan, mode,
            )
            ref = _run_or_fault(
                run_async_reference, sched, port_model, init, IPSC_D7, plan, mode
            )
            label = f"{name}/{plan!r}/{mode}"
            assert type(vec) is type(ref), label
            if isinstance(vec, FaultError):
                assert vec.edge == ref.edge, label
                assert vec.node == ref.node, label
                assert vec.time == ref.time, label
                assert vec.chunks == ref.chunks, label
                continue
            assert vec.time == ref.time, label
            assert vec.holdings == ref.holdings, label
            assert vec.link_stats == ref.link_stats, label
            assert vec.start_times == sorted(ref.start_times), label
            if isinstance(vec, DegradedResult):
                assert vec.undelivered == ref.undelivered, label
                assert vec.transfers_lost == ref.transfers_lost, label
                assert set(vec.fault_events) == set(ref.fault_events), label


def test_vectorized_deadlock_diagnosis():
    """Unsatisfiable payload dependencies raise, not spin."""
    sched = Schedule(
        rounds=[(Transfer(2, 3, frozenset({("b", 0)})),)],
        chunk_sizes={("b", 0): 4},
        algorithm="broken",
        meta={},
    )
    with pytest.raises(RuntimeError, match="deadlock"):
        run_async_vectorized(
            CUBE, sched, PortModel.ONE_PORT_FULL, {1: {("b", 0)}}, UNIT_COST
        )


def test_vectorized_circular_dependency_deadlocks():
    sched = Schedule(
        rounds=[
            (
                Transfer(0, 1, frozenset({("b", 0)})),
                Transfer(1, 0, frozenset({("b", 1)})),
            ),
        ],
        chunk_sizes={("b", 0): 4, ("b", 1): 4},
        algorithm="broken",
        meta={},
    )
    with pytest.raises(RuntimeError, match="deadlock"):
        run_async_vectorized(
            CUBE,
            sched,
            PortModel.ONE_PORT_FULL,
            {0: {("b", 1)}, 1: {("b", 0)}},
            UNIT_COST,
        )


def test_vectorized_accepts_prelowered_schedule():
    """Passing ``lowered=`` skips re-lowering but changes nothing."""
    sched = msbt_broadcast_schedule(CUBE, 0, 37, 8, PortModel.ONE_PORT_FULL)
    init = {0: set(sched.chunk_sizes)}
    low = lower_schedule(CUBE, sched, {0: set(sched.chunk_sizes)})
    a = run_async_vectorized(
        CUBE, sched, PortModel.ONE_PORT_FULL, {0: set(sched.chunk_sizes)},
        IPSC_D7, lowered=low,
    )
    b = run_async_vectorized(
        CUBE, sched, PortModel.ONE_PORT_FULL, init, IPSC_D7
    )
    assert a.time == b.time and a.start_times == b.start_times
    assert low.table_bytes > 0


# -- property-based equivalence ---------------------------------------


@st.composite
def bcast_params(draw):
    n = draw(st.integers(min_value=2, max_value=4))
    B = draw(st.integers(min_value=1, max_value=16))
    packets = draw(st.integers(min_value=1, max_value=12))
    M = B * packets - draw(st.integers(min_value=0, max_value=B - 1))
    pm = draw(st.sampled_from(list(PortModel)))
    source = draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    return n, M, B, pm, source


@settings(max_examples=40, deadline=None)
@given(bcast_params(), st.sampled_from(["sbt", "msbt"]))
def test_property_vectorized_bit_identical(params, algo):
    n, M, B, pm, source = params
    cube = Hypercube(n)
    gen = sbt_broadcast_schedule if algo == "sbt" else msbt_broadcast_schedule
    sched = gen(cube, source, M, B, pm)
    init = {source: set(sched.chunk_sizes)}
    vec = run_async_vectorized(cube, sched, pm, {source: set(init[source])}, IPSC_D7)
    ref = run_async_reference(cube, sched, pm, {source: set(init[source])}, IPSC_D7)
    assert vec.time == ref.time
    assert vec.holdings == ref.holdings
    assert vec.start_times == sorted(ref.start_times)
    assert vec.link_stats == ref.link_stats


# -- no engine choice -------------------------------------------------


def test_resolve_engine_default_and_env(monkeypatch):
    """The one engine is ``vectorized``; ``REPRO_ENGINE`` is not read."""
    monkeypatch.setenv("REPRO_ENGINE", "reference")
    assert resolve_engine() == "vectorized"
    assert resolve_engine(None) == resolve_engine("vectorized") == "vectorized"
    assert get_engine() is run_async_vectorized
    with pytest.raises(ValueError, match="unknown engine"):
        resolve_engine("bogus")


def test_indexed_engine_name_rejected():
    """No engine name other than ``vectorized`` resolves, and no
    collective takes an ``engine`` argument."""
    for name in ("indexed", "reference"):
        with pytest.raises(ValueError, match=f"{name!r}"):
            resolve_engine(name)
        with pytest.raises(ValueError, match=f"{name!r}"):
            get_engine(name)
        with pytest.raises(TypeError, match="engine"):
            broadcast(Hypercube(3), 0, "sbt", 4, 2, run_event_sim=True, engine=name)


@pytest.mark.parametrize(
    "argv",
    [
        ["broadcast", "--dim", "3"],
        ["table", "3"],
        ["figure", "5"],
        ["sweep", "all"],
        ["scatter", "--dim", "3"],
        ["reduce", "--dim", "3"],
        ["allreduce", "--dim", "3"],
        ["all-broadcast", "--dim", "3"],
    ],
    ids=["collective", "table", "figure", "sweep", "scatter", "reduce",
         "allreduce", "all-broadcast"],
)
def test_cli_rejects_indexed_engine(argv, capsys):
    """No subcommand takes ``--engine``."""
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([*argv, "--engine", "indexed"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --engine indexed" in capsys.readouterr().err


def test_get_engine_returns_runners():
    assert get_engine() is get_engine("vectorized") is run_async is run_async_vectorized


def test_collectives_engine_parameter():
    """A collective's event run equals the reference oracle run on the
    returned schedule, at source 0 and at a nonzero source (whose
    broadcast lowering is the translated source-0 cache entry)."""
    cube = Hypercube(4)
    ops = [(broadcast, "sbt"), (broadcast, "msbt"), (scatter, "sbt"), (scatter, "bst")]
    for (op, algorithm), source, pm in product(ops, (0, 11), PortModel):
        res = op(cube, source, algorithm, 37, 8, pm, IPSC_D7, run_event_sim=True)
        ref = run_async_reference(
            cube, res.schedule, pm, {source: set(res.schedule.chunk_sizes)}, IPSC_D7
        )
        assert res.time == ref.time
        assert res.async_.start_times == sorted(ref.start_times)
        assert res.async_.holdings == ref.holdings
        assert res.link_stats == ref.link_stats


def test_table_bytes_gauge_tracks_peak():
    sched = msbt_broadcast_schedule(CUBE, 0, 128, 16, PortModel.ONE_PORT_FULL)
    prev = REGISTRY.enabled
    REGISTRY.configure(enabled=True)
    try:
        ENGINE_TABLE_BYTES_PEAK.set(0)
        run_async_vectorized(
            CUBE, sched, PortModel.ONE_PORT_FULL,
            {0: set(sched.chunk_sizes)}, IPSC_D7,
        )
        low = lower_schedule(CUBE, sched, {0: set(sched.chunk_sizes)})
        assert ENGINE_TABLE_BYTES_PEAK.value == low.table_bytes
    finally:
        REGISTRY.configure(enabled=prev)


def _admission_blocks(sched, pm) -> int:
    series = ENGINE_ADMISSION_BLOCKS.labels(
        engine="vectorized", port_model=pm.value
    )
    before = series.value
    run_async_vectorized(
        Hypercube(3), sched, pm, {0: set(sched.chunk_sizes)}, IPSC_D7
    )
    return series.value - before


def test_admission_blocks_grow_linearly_in_queue_depth():
    """Only the head of a link's ready queue is re-examined, so doubling
    the packets per link at most about doubles the exams that find a
    transfer blocked (a quadratic engine quadruples them)."""
    pm = PortModel.ONE_PORT_HALF
    prev = REGISTRY.enabled
    REGISTRY.configure(enabled=True)
    try:
        small, large = (
            _admission_blocks(
                sbt_broadcast_schedule(Hypercube(3), 0, m, 1, pm), pm
            )
            for m in (250, 500)
        )
    finally:
        REGISTRY.configure(enabled=prev)
    assert small > 0
    assert large <= 2.5 * small
