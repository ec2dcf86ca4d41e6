"""Merged runs split per job from the engine's own arrays.

A service run or a workload step closes one resumable engine run and
splits it per job without merging: the view's program builds its
chunk-tagged fields on first read, each job's holdings come from its
own held slots, and each job's link counters are built on first read.
The one-shot :func:`~repro.service.exec.execute_program` runs the same
way.  Whatever is built must equal what the eager, tagged path builds
(:mod:`tests.merged_oracle`).
"""

from __future__ import annotations

import copy
import pickle
from unittest import mock

import pytest

import repro.service.scheduler as scheduler
import repro.sim.multi as multi
import repro.workloads.exec as wexec
from repro.collectives.api import check_delivery
from repro.service import AdmissionControl, JobSpec, run_service
from repro.service.exec import AdmissionRun, execute_program
from repro.sim.faults import DegradedResult, FaultPlan
from repro.sim.machine import MachineParams
from repro.sim.multi import merge_programs
from repro.sim.ports import PortModel
from repro.topology import Hypercube
from repro.topology.hypercube import DirectedEdge
from repro.workloads import PhaseSpec, Workload, WorkloadDAG, run_workload
from tests.merged_oracle import run_merged, untag_holdings, view_key

# costs that round, so a changed summation order shows in the last bit
MACHINE = MachineParams(tau=0.1, t_c=0.07, overlap=0.25)

SPECS = [
    JobSpec(tenant="hog", source=1, message_elems=24, packet_elems=4),
    JobSpec(tenant="mouse", op="scatter", source=6, message_elems=2,
            arrival=1.5),
    JobSpec(tenant="mouse", source=5, message_elems=6, packet_elems=2,
            arrival=1.5, priority=1),
    JobSpec(tenant="bee", op="allgather", message_elems=2, arrival=9.0),
    JobSpec(tenant="hog", op="alltoall", message_elems=1, arrival=30.0),
]

#: (policy, admission): the up-front static-key run and the event loop
RUNS = [
    ("fifo", None),
    ("priority", None),
    ("fair-share", None),
    ("fifo", AdmissionControl(max_in_flight_total=2)),
]


def _run(policy, admission, **kw):
    return run_service(
        Hypercube(3), SPECS, PortModel.ONE_PORT_FULL, MACHINE,
        policy=policy, admission=admission, **kw,
    )


def _one_shot(program, **kw):
    return execute_program(
        Hypercube(3), program, PortModel.ONE_PORT_FULL, MACHINE, **kw
    )


def _moe() -> Workload:
    dag = WorkloadDAG((
        PhaseSpec("gate", compute=1.5),
        PhaseSpec("dispatch", op="alltoall", message_elems=2,
                  deps=("gate",)),
        PhaseSpec("experts", compute=4.0, deps=("dispatch",)),
        PhaseSpec("combine", op="alltoall", message_elems=2,
                  deps=("experts",)),
        PhaseSpec("reduce", op="reduce", algorithm="sbt", message_elems=4,
                  packet_elems=2, deps=("combine",)),
        PhaseSpec("bcast", op="broadcast", algorithm="msbt",
                  message_elems=4, packet_elems=2, deps=("reduce",)),
        PhaseSpec("side", op="broadcast", source=3, message_elems=4,
                  packet_elems=2, deps=("gate",)),
    ))
    return Workload(
        name="moe", dimension=3, dag_builder=lambda step: dag,
        port_model=PortModel.ONE_PORT_FULL, machine=MACHINE,
    )


class _ViewSpy(AdmissionRun):
    """An :class:`AdmissionRun` that keeps the views it hands out."""

    views: list = []

    def view(self, entries):
        got = super().view(entries)
        type(self).views.append(got)
        return got


def _no_merge():
    """Every route to ``merge_programs`` raises."""
    boom = mock.Mock(side_effect=AssertionError("merge_programs called"))
    return (
        mock.patch.object(multi, "merge_programs", boom),
        mock.patch.object(scheduler, "merge_programs", boom),
        mock.patch.object(wexec, "merge_programs", boom),
    )


class TestProgramOnRead:
    @pytest.mark.parametrize("policy,admission", RUNS)
    def test_equals_merge_of_ranked_entries(self, policy, admission):
        program = _run(policy, admission).program
        assert "schedule" not in vars(program)
        want = merge_programs(program.entries)
        assert program.schedule == want.schedule
        assert program.initial == want.initial
        assert program.release_times == want.release_times
        assert program.owners == want.owners
        assert program.entries == want.entries
        assert program == want
        assert repr(program) == repr(want)

    def test_owners_alone_build_nothing_tagged(self):
        program = _run("fair-share", None).program
        assert program.owners == merge_programs(program.entries).owners
        assert "schedule" not in vars(program)

    @pytest.mark.parametrize("policy,admission", RUNS[:2])
    def test_pickles_and_copies(self, policy, admission):
        program = _run(policy, admission).program
        want = merge_programs(program.entries)
        assert pickle.loads(pickle.dumps(program)) == want
        assert copy.copy(program) == want
        assert copy.deepcopy(program) == want


class TestJobHoldings:
    @pytest.mark.parametrize("policy,admission", RUNS)
    def test_fault_free_equals_untag(self, policy, admission):
        view = _run(policy, admission).view
        for pos, entry in enumerate(view.program.entries):
            got = view.job_holdings(pos)
            assert got == untag_holdings(view.raw.holdings, entry.tag)

    @pytest.mark.parametrize("policy,admission", RUNS)
    def test_dead_link_report_equals_untag(self, policy, admission):
        result = _run(
            policy, admission,
            faults=FaultPlan(dead_links=[(1, 0)]), on_fault="report",
        )
        view = result.view
        assert isinstance(view.raw, DegradedResult)
        assert result.degraded
        for pos, entry in enumerate(view.program.entries):
            got = view.job_holdings(pos)
            assert got == untag_holdings(view.raw.holdings, entry.tag)

    @pytest.mark.parametrize("faults", [None, FaultPlan(dead_links=[(1, 0)])])
    @pytest.mark.parametrize("policy,admission", RUNS)
    def test_one_shot_run_reads_held_slots(self, policy, admission, faults):
        """A one-shot view reads each job's held slots, so its verdict
        answers and a fault-free run builds no merged holdings."""
        kw = dict(faults=faults, on_fault="report")
        result = _run(policy, admission, **kw)
        view = _one_shot(merge_programs(result.program.entries), **kw)
        specs = {j.job_id: j.spec for j in result.jobs}
        delivered = [view.job_delivered(pos) for pos in range(len(view.slices))]
        got = [view.job_holdings(pos) for pos in range(len(view.slices))]
        assert ("holdings" not in vars(view.raw)) == (faults is None)
        for pos, entry in enumerate(view.program.entries):
            assert got[pos] == untag_holdings(view.raw.holdings, entry.tag)
            spec = specs[entry.tag]
            short = check_delivery(
                Hypercube(3), spec.op, spec.source, entry.schedule, got[pos]
            )
            if delivered[pos]:
                assert not short
        if faults is None:
            assert all(delivered)
        else:
            assert not all(delivered)

    def test_workload_step_equals_untag(self):
        _ViewSpy.views = []
        with mock.patch.object(wexec, "AdmissionRun", _ViewSpy):
            run_workload(_moe())
        (view,) = _ViewSpy.views
        for pos, entry in enumerate(view.program.entries):
            got = view.job_holdings(pos)
            assert got == untag_holdings(view.raw.holdings, entry.tag)


class TestNothingTaggedBuilt:
    @pytest.mark.parametrize("policy,admission", RUNS)
    def test_service_run(self, policy, admission):
        a, b, c = _no_merge()
        with a, b, c:
            result = _run(policy, admission)
        assert not result.degraded
        assert "holdings" not in vars(result.raw)
        assert "schedule" not in vars(result.program)
        for j in result.jobs:
            assert not j.undelivered

    @pytest.mark.parametrize("policy,admission", RUNS)
    def test_one_shot_run_of_an_unmerged_program(self, policy, admission):
        program = _run(policy, admission).program
        a, b, c = _no_merge()
        with a, b, c:
            view = _one_shot(program)
        assert view.program is program
        assert "schedule" not in vars(program)
        oracle = run_merged(
            Hypercube(3), program.entries, PortModel.ONE_PORT_FULL, MACHINE
        )
        assert view_key(view) == view_key(oracle)

    def test_workload_step(self):
        _ViewSpy.views = []
        a, b, c = _no_merge()
        with a, b, c, mock.patch.object(wexec, "AdmissionRun", _ViewSpy):
            report = run_workload(_moe())
        assert not report.degraded
        (view,) = _ViewSpy.views
        assert "holdings" not in vars(view.raw)
        assert "schedule" not in vars(view.program)


def _eager(view, machine):
    """Per-job counters and busy times the way the tagged split built
    them: per edge, in execution order."""
    program = view.program
    transfers = program.schedule.all_transfers()
    sizes = program.schedule.chunk_sizes
    log = view.raw.transfer_log
    out = [({}, {}, {}) for _ in program.entries]
    for i in log.ids:
        t = transfers[i]
        packets, elems, busy = out[program.owners[i]]
        edge = DirectedEdge(t.src, t.dst)
        size = sum(sizes[c] for c in t.chunks)
        packets[edge] = packets.get(edge, 0) + 1
        elems[edge] = elems.get(edge, 0) + size
        busy[edge] = busy.get(edge, 0.0) + machine.send_cost(size)
    return out


class TestLinkCountersOnRead:
    @pytest.mark.parametrize("policy,admission", RUNS)
    def test_built_on_read_and_equal_to_eager(self, policy, admission):
        result = _run(policy, admission)
        view = result.view
        for j in result.jobs:
            assert "packets" not in j.link_stats.__dict__
            assert "elems" not in j.link_stats.__dict__
        for s in view.slices:
            assert "link_busy" not in vars(s)
        eager = _eager(view, MACHINE)
        for s, (packets, elems, busy) in zip(view.slices, eager):
            assert dict(s.link_stats.packets) == packets
            assert dict(s.link_stats.elems) == elems
            # same keys, same order, same bits
            assert list(s.link_busy) == sorted(busy, key=lambda e: (e.src, e.dst))
            assert [repr(s.link_busy[e]) for e in s.link_busy] == [
                repr(busy[e]) for e in s.link_busy
            ]

    @pytest.mark.parametrize("policy,admission", RUNS)
    def test_busy_total_sums_jobs_in_position_order(self, policy, admission):
        view = _run(policy, admission).view
        want: dict = {}
        for s in view.slices:
            for edge, b in s.link_busy.items():
                want[edge] = want.get(edge, 0.0) + b
        got = view.link_busy_total()
        assert list(got) == list(want)
        assert [repr(v) for v in got.values()] == [repr(v) for v in want.values()]

    def test_slices_pickle_with_built_link_busy(self):
        view = _run("fifo", None).view
        s = view.slices[0]
        back = pickle.loads(pickle.dumps(s))
        assert "link_busy" in vars(back)
        assert back == s
        assert copy.copy(s).link_busy == s.link_busy


def test_view_rejects_entries_out_of_rank_order():
    cube = Hypercube(2)
    run = AdmissionRun(cube, PortModel.ONE_PORT_FULL)
    result = run_service(cube, SPECS[:1] * 2)
    entries = result.program.entries
    for h, e in enumerate(entries):
        run.admit(e, -h)  # the later admission ranks first
    with pytest.raises(ValueError, match="rank order"):
        run.view(entries)
