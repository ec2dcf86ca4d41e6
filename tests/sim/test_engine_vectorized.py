"""The vectorized array-core engine's own entry points and plumbing.

``repro.sim.vectorized.run_async_vectorized`` lowers the schedule to
flat NumPy tables (:mod:`repro.sim.lowering`) and batches admission
through the :mod:`repro.sim._kernels` prefilter, but its results must
match the reference oracle to the last ulp: completion time, holdings,
link statistics, start times, fault errors and degraded results alike.
``tests/sim/test_engine_equivalence.py`` checks the plain call; the
checks here replay a pre-built lowering with the transfer log on (the
service layer's call) and run the fault matrix on the iPSC machine.

Also covers the engine dispatch layer (:mod:`repro.sim.dispatch`), the
``engine=`` plumbing through the collectives API, the sweep executor
and the CLI, the NumPy prefilter kernel, and the
``repro_engine_table_bytes_peak`` gauge.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collectives.api import broadcast
from repro.experiments.parallel import run_sweep
from repro.obs import REGISTRY
from repro.obs.instruments import ENGINE_TABLE_BYTES_PEAK
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
from repro.sim import ENGINES, get_engine, resolve_engine, run_async
from repro.sim._engine_reference import run_async_reference
from repro.sim._kernels import prefilter
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


# -- admission-prefilter kernel ---------------------------------------


def test_prefilter_numpy_semantics():
    ready = np.array([0.0, 5.0, 1.0, np.inf, 2.0])
    vc = np.array([0.0, 0.0, 9.0, 0.0, 2.0])
    idx = np.arange(5, dtype=np.int64)
    out = prefilter(idx, ready, vc, 2.0)
    # kept iff ready <= limit AND vc <= limit
    assert out.tolist() == [0, 4]
    empty = prefilter(np.array([1, 3], dtype=np.int64), ready, vc, 2.0)
    assert empty.tolist() == []


def test_prefilter_active_matches_fallback():
    """The masks keep exactly the candidates a scalar scan would."""
    rng = np.random.default_rng(7)
    ready = rng.uniform(0, 10, size=64)
    vc = rng.uniform(0, 10, size=64)
    vc[::7] = np.inf
    idx = np.asarray(rng.permutation(64)[:40], dtype=np.int64)
    got = prefilter(idx, ready, vc, 5.0)
    want = [i for i in idx.tolist() if ready[i] <= 5.0 and vc[i] <= 5.0]
    assert got.tolist() == want


# -- dispatch and plumbing --------------------------------------------


def test_resolve_engine_default_and_env(monkeypatch):
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    assert resolve_engine() == "vectorized"
    assert resolve_engine(None) == "vectorized"
    monkeypatch.setenv("REPRO_ENGINE", "reference")
    assert resolve_engine() == "reference"
    assert resolve_engine("vectorized") == "vectorized"
    with pytest.raises(ValueError, match="unknown engine"):
        resolve_engine("bogus")
    monkeypatch.setenv("REPRO_ENGINE", "bogus")
    with pytest.raises(ValueError, match="unknown engine"):
        resolve_engine()


def test_indexed_engine_name_rejected(monkeypatch):
    """The removed engine's name fails loudly and lists what is left."""
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    with pytest.raises(ValueError, match="'indexed'.*vectorized, reference"):
        resolve_engine("indexed")
    with pytest.raises(ValueError, match="'indexed'.*vectorized, reference"):
        broadcast(Hypercube(3), 0, "sbt", 4, 2, run_event_sim=True, engine="indexed")
    monkeypatch.setenv("REPRO_ENGINE", "indexed")
    with pytest.raises(ValueError, match="'indexed'.*vectorized, reference"):
        resolve_engine()


@pytest.mark.parametrize(
    "argv",
    [
        ["broadcast", "--dim", "3", "--engine", "indexed"],
        ["table", "3", "--engine", "indexed"],
    ],
    ids=["collective", "table"],
)
def test_cli_rejects_indexed_engine(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'indexed'" in err
    assert "'vectorized', 'reference'" in err


def test_get_engine_returns_runners(monkeypatch):
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    assert get_engine() is run_async is run_async_vectorized
    assert get_engine("vectorized") is run_async_vectorized
    assert get_engine("reference") is run_async_reference
    assert ENGINES == ("vectorized", "reference")


def test_collectives_engine_parameter():
    cube = Hypercube(4)
    a = broadcast(cube, 0, "msbt", 64, 8, machine=IPSC_D7, run_event_sim=True)
    b = broadcast(
        cube, 0, "msbt", 64, 8, machine=IPSC_D7, run_event_sim=True,
        engine="reference",
    )
    assert a.time == b.time
    assert a.async_.start_times == sorted(b.async_.start_times)
    with pytest.raises(ValueError, match="unknown engine"):
        broadcast(
            cube, 0, "msbt", 64, 8, run_event_sim=True, engine="bogus"
        )
    # the name is checked on every call, whether or not an engine runs
    for kwargs in (dict(), dict(backend="runtime")):
        with pytest.raises(ValueError, match="unknown engine"):
            broadcast(cube, 0, "msbt", 64, 8, engine="bogus", **kwargs)


def _sweep_point(n: int) -> tuple[float, str]:
    res = broadcast(
        Hypercube(n), 0, "sbt", 32, 8, machine=IPSC_D7, run_event_sim=True
    )
    return res.time, resolve_engine()


def test_run_sweep_exports_engine(monkeypatch):
    """Pool workers inherit ``REPRO_ENGINE``, which is how the CLI's
    ``--engine`` reaches the points of a table/figure/sweep."""
    points = [{"n": 3}, {"n": 4}]
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    default = run_sweep(_sweep_point, points, jobs=2)
    monkeypatch.setenv("REPRO_ENGINE", "reference")
    ref = run_sweep(_sweep_point, points, jobs=2)
    assert ref.stats.executor == "process-pool"
    assert [engine for _, engine in default.values] == ["vectorized"] * 2
    assert [engine for _, engine in ref.values] == ["reference"] * 2
    assert [t for t, _ in default.values] == [t for t, _ in ref.values]
    monkeypatch.setenv("REPRO_ENGINE", "bogus")
    with pytest.raises(ValueError, match="unknown engine"):
        run_sweep(_sweep_point, points, jobs=2)


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
