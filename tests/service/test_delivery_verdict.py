"""Delivery read off the memo entry's verdict equals the delivery check.

Every ``lowerings`` entry records, when it is filled, how many slots a
run of it can end up holding (``n_fillable``) and whether the holdings
of those slots deliver (``delivers``).  A run's held slots are always
among the fillable ones, so a run holding ``n_fillable`` of them holds
exactly them, and the verdict is its outcome: the public collectives,
service jobs and workload phases then build no holdings and run no
:func:`~repro.collectives.api.check_delivery`.  Wherever that fast
path is taken its outcome must equal the check over the built
holdings, and a run short of one slot must fall back to the check.
"""

from __future__ import annotations

import importlib.util
import random
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import repro.service.scheduler as scheduler
import repro.workloads.exec as wexec
from repro.collectives.api import check_delivery, collective_program
from repro.experiments.scenarios import SCENARIOS
from repro.service import JobSpec, run_service
from repro.service.exec import AdmissionRun
from repro.sim.faults import FaultPlan
from repro.sim.lowering import lower_schedule
from repro.sim.ports import PortModel
from repro.sim.result import held_count
from repro.sim.vectorized import VectorizedRun
from repro.topology import Hypercube
from repro.workloads import (
    WORKLOAD_SCENARIOS,
    PhaseSpec,
    Workload,
    WorkloadDAG,
    run_workload,
)

ROOT = Path(__file__).resolve().parents[2]


def _e2e_workloads() -> dict:
    """The end-to-end benchmark's workload table (``benchmarks/e2e``)."""
    spec = importlib.util.spec_from_file_location(
        "e2e_workloads", ROOT / "benchmarks" / "e2e" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module.WORKLOADS


E2E = _e2e_workloads()


class _ViewSpy(AdmissionRun):
    """An :class:`AdmissionRun` that keeps the views it hands out."""

    views: list = []

    def view(self, entries):
        got = super().view(entries)
        type(self).views.append(got)
        return got


def _spied(module):
    _ViewSpy.views = []
    return mock.patch.object(module, "AdmissionRun", _ViewSpy)


def _check_view(cube, view, calls) -> list[bool]:
    """Per job of ``view``: the fast path's answer, checked against
    :func:`check_delivery` over the job's built holdings; ``calls``
    maps an entry tag to its ``(op, source)``."""
    taken = []
    for pos, entry in enumerate(view.program.entries):
        fast = view.job_delivered(pos)
        op, source = calls[entry.tag]
        built = check_delivery(
            cube, op, source, entry.schedule, view.job_holdings(pos)
        )
        if fast:
            assert built == {}, (entry.tag, built)
        taken.append(fast)
    return taken


def _service_calls(result) -> dict:
    return {j.job_id: (j.spec.op, j.spec.source) for j in result.jobs}


def _workload_calls(workload, step) -> dict:
    return {
        p.name: (p.op, p.source) for p in workload.dag(step).collective_phases
    }


# -- the end-to-end workloads' op kinds, quick scale ---------------------


@pytest.mark.parametrize("name", ["paper-grid", "cube-n10"])
def test_collective_kinds(name):
    w = E2E[name]
    rng = random.Random(0)
    for kind in w.kinds(True):
        c = w.make(kind, rng)
        res = w.run(c)
        cube = Hypercube(c.dimension)
        _, _, low = collective_program(
            cube, c.op, c.algorithm, c.source, c.message_elems,
            c.packet_elems, c.port_model,
        )
        for run in (res.sync, res.async_):
            # the call read the verdict, not the holdings
            assert low.delivered_with(held_count(run)), kind
            assert check_delivery(
                cube, c.op, c.source, res.schedule, run.holdings
            ) == {}
        assert not w.check(c, res)


@pytest.mark.parametrize("name", ["service-fifo", "service-fair-share"])
def test_service_kinds(name):
    w = E2E[name]
    rng = random.Random(0)
    for kind in w.kinds(True):
        s = w.make(kind, rng)
        with _spied(scheduler):
            result = w.run(s)
        (view,) = _ViewSpy.views
        assert all(_check_view(
            Hypercube(s.dimension), view, _service_calls(result)
        ))
        assert not w.check(s, result)


def test_workload_kinds():
    w = E2E["workload-moe"]
    rng = random.Random(0)
    for kind in w.kinds(True):
        workload = w.make(kind, rng)
        with _spied(wexec):
            report = w.run(workload)
        (view,) = _ViewSpy.views
        assert all(_check_view(
            Hypercube(workload.dimension), view, _workload_calls(workload, 0)
        ))
        assert not w.check(workload, report)


# -- the named scenarios ----------------------------------------------------


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_service_scenarios(name):
    scenario = SCENARIOS[name]
    cube = Hypercube(scenario.dimension)
    with _spied(scheduler):
        result = run_service(cube, scenario.build(0))
    (view,) = _ViewSpy.views
    assert all(_check_view(cube, view, _service_calls(result)))
    assert not result.degraded


@pytest.mark.parametrize("name", list(WORKLOAD_SCENARIOS))
def test_workload_scenarios(name):
    workload = WORKLOAD_SCENARIOS[name].build(seed=0)
    cube = Hypercube(workload.dimension)
    with _spied(wexec):
        report = run_workload(workload)
    (view,) = _ViewSpy.views
    taken = _check_view(cube, view, _workload_calls(workload, 0))
    degraded = [p for p in report.steps[0].phases if p.degraded]
    if workload.faults is None:
        assert all(taken) and not degraded
    else:
        # cancelled transfers leave slots unfilled: those phases fall
        # back to the check, which names their short nodes
        assert not all(taken)
        assert degraded and all(p.undelivered_nodes for p in degraded)


def test_dead_link_service_falls_back():
    cube = Hypercube(3)
    specs = [
        JobSpec(tenant="a", source=1, message_elems=8, packet_elems=2),
        JobSpec(tenant="b", op="scatter", source=0, message_elems=2),
        JobSpec(tenant="c", op="allgather", message_elems=2, arrival=2.0),
    ]
    with _spied(scheduler):
        result = run_service(
            cube, specs, faults=FaultPlan(dead_links=[(1, 0)]),
            on_fault="report",
        )
    (view,) = _ViewSpy.views
    taken = _check_view(cube, view, _service_calls(result))
    assert not all(taken)
    schedules = {e.tag: e.schedule for e in view.program.entries}
    for job in result.jobs:
        assert job.undelivered == check_delivery(
            cube, job.spec.op, job.spec.source, schedules[job.job_id],
            job.holdings,
        )
    assert any(job.undelivered for job in result.jobs)


# -- a run short of one write -----------------------------------------------


def _drop_one_write(monkeypatch, dropped: list):
    """Make every closing run lose the last output write of its first
    job, as if that transfer never delivered; ``dropped`` collects the
    node whose slot it was."""
    real = VectorizedRun.result

    def short_result(self):
        self.advance()
        low, _, off = self._entries[0]
        slot = int(low.out_idx[-1])
        self._avail[off + slot] = np.inf
        dropped.append(int(low.slot_node[slot]))
        return real(self)

    monkeypatch.setattr(VectorizedRun, "result", short_result)


@pytest.mark.parametrize("pm", list(PortModel))
def test_a_dropped_write_fails_the_count_in_a_workload(monkeypatch, pm):
    dag = WorkloadDAG((
        PhaseSpec("bcast", op="broadcast", algorithm="msbt", source=2,
                  message_elems=8, packet_elems=2),
    ))
    workload = Workload(
        name="w", dimension=3, dag_builder=lambda step: dag, port_model=pm,
    )
    dropped: list = []
    _drop_one_write(monkeypatch, dropped)
    with _spied(wexec):
        report = run_workload(workload)
    (view,) = _ViewSpy.views
    low = view.program.entries[0].lowering
    assert low.delivers and view._held[1][0][0].size == low.n_fillable - 1
    assert not view.job_delivered(0)
    (phase,) = report.steps[0].phases
    assert phase.degraded
    assert phase.undelivered_nodes == tuple(dropped)


def test_a_dropped_write_fails_the_count_in_a_service(monkeypatch):
    cube = Hypercube(3)
    dropped: list = []
    _drop_one_write(monkeypatch, dropped)
    result = run_service(
        cube, [JobSpec(tenant="a", source=5, message_elems=8, packet_elems=2)]
    )
    (job,) = result.jobs
    assert job.degraded and list(job.undelivered) == dropped
    assert not result.view.job_delivered(0)


# -- the verdict itself ----------------------------------------------------


def test_no_verdict_means_check():
    cube = Hypercube(3)
    sched, initial, cached = collective_program(
        cube, "broadcast", "sbt", 0, 4, 2
    )
    fresh = lower_schedule(cube, sched, initial)
    assert fresh.delivers is None and fresh.n_fillable is None
    assert not fresh.delivered_with(int(fresh.fillable().sum()))
    assert cached.delivers is True
    assert cached.n_fillable == int(cached.fillable().sum())
    assert cached.delivered_with(cached.n_fillable)
    assert not cached.delivered_with(cached.n_fillable - 1)
    assert not cached.delivered_with(None)


def test_translation_keeps_the_verdict():
    cube = Hypercube(4)
    for source in range(16):
        sched, _, low = collective_program(
            cube, "broadcast", "msbt", source, 12, 4
        )
        fill = low.fillable()
        assert low.delivers is True and low.n_fillable == int(fill.sum())
        holdings = {v: set() for v in cube.nodes()}
        for v, c in zip(low.slot_node[fill].tolist(), low.slot_chunk[fill].tolist()):
            holdings[v].add(low.chunk_objects[c])
        assert check_delivery(cube, "broadcast", source, sched, holdings) == {}
