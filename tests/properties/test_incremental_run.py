"""Differential property suite for the resumable engine run.

The service and the workload layer grow one merged program while it
executes (:class:`repro.service.exec.AdmissionRun`): jobs join at their
admission instants and each instant is simulated once.  Whatever the
admission order, the final view must be bit-for-bit the view of one
from-scratch run of the final merged program
(:func:`repro.service.exec.execute_program`): the same makespan,
transfer log (ids *and* starts), sorted start times, holdings, per-job
slices, holdings and link busy totals, degraded-result fields, and the
merged program itself.

The checks wrap :class:`AdmissionRun` so that every incremental view
the service or a workload builds is compared against the oracle.
"""

from __future__ import annotations

import math
from contextlib import contextmanager, nullcontext
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.collectives.api as api
import repro.service.scheduler as scheduler
import repro.workloads.exec as wexec
from repro.collectives.api import collective_schedule
from repro.service import AdmissionControl, JobSpec, run_service
from repro.service.exec import AdmissionRun, execute_program
from repro.sim.faults import FaultPlan
from repro.sim.machine import MachineParams
from repro.sim.multi import JobEntry, merge_programs
from repro.sim.ports import PortModel
from repro.sim.result import _EPS
from repro.sim.schedule import Schedule
from repro.topology import Hypercube
from repro.workloads import PhaseSpec, Workload, WorkloadDAG, run_workload
from tests.fresh import uncached

MACHINES = (None, MachineParams(tau=1.0, t_c=0.5, overlap=0.25))
OPS = (
    ("broadcast", None, 8, 4),
    ("broadcast", "sbt", 6, 2),
    # 24 packets on one link: per-link ready queues carried through the
    # renumbering at every admission
    ("broadcast", "sbt", 24, 1),
    ("scatter", None, 2, 2),
    ("allgather", None, 2, None),
    ("reduce", None, 4, 2),
)


def _floats(values) -> list[str]:
    return [repr(float(v)) for v in values]


def _view_key(view) -> tuple:
    """Everything the differential compares, with floats as reprs (so
    that NaN compares equal to NaN and -0.0 differs from 0.0)."""
    raw = view.raw
    log = raw.transfer_log
    slices = tuple(
        (
            s.position, s.scheduled, s.executed, s.elems,
            _floats((s.link_time, s.first_start, s.finish)),
            _floats(s.start_times),
            sorted((repr(e), n) for e, n in s.link_stats.packets.items()),
            sorted((repr(e), n) for e, n in s.link_stats.elems.items()),
            sorted((repr(e), repr(b)) for e, b in s.link_busy.items()),
        )
        for s in view.slices
    )
    degraded = (
        type(raw).__name__,
        repr(getattr(raw, "fault_events", None)),
        sorted(
            (node, sorted(map(repr, chunks)))
            for node, chunks in getattr(raw, "undelivered", {}).items()
        ),
        getattr(raw, "transfers_lost", 0),
    )
    return (
        repr(raw.time), raw.transfers_executed,
        list(log.ids), _floats(log.starts), _floats(raw.start_times),
        sorted((node, sorted(map(repr, c))) for node, c in raw.holdings.items()),
        list(view.receivers), _floats(view.ends),
        slices, degraded,
        [
            sorted((node, sorted(map(repr, c)))
                   for node, c in view.job_holdings(pos).items())
            for pos in range(len(view.slices))
        ],
        [(repr(e), repr(b)) for e, b in view.link_busy_total().items()],
    )


class _CheckedRun(AdmissionRun):
    """An :class:`AdmissionRun` whose final view is checked against the
    from-scratch oracle."""

    views = 0

    def __init__(self, cube, port_model, machine=None, faults=None,
                 on_fault="raise"):
        super().__init__(cube, port_model, machine, faults, on_fault)
        self._oracle_args = (port_model, machine, faults, on_fault)

    def view(self, entries):
        got = super().view(entries)
        port_model, machine, faults, on_fault = self._oracle_args
        program = merge_programs(entries)
        want = execute_program(
            self.cube, program, port_model, machine,
            faults=faults, on_fault=on_fault,
        )
        assert _view_key(got) == _view_key(want)
        assert got.program == program
        type(self).views += 1
        return got


@contextmanager
def _checked():
    with mock.patch.object(scheduler, "AdmissionRun", _CheckedRun), \
            mock.patch.object(wexec, "AdmissionRun", _CheckedRun):
        yield


def _dead_link(draw, n):
    if not draw(st.booleans()):
        return None, "raise"
    a = draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    b = a ^ (1 << draw(st.integers(min_value=0, max_value=n - 1)))
    return FaultPlan(dead_links=[(a, b)]), "report"


@st.composite
def service_case(draw):
    n = draw(st.sampled_from((2, 3)))
    specs = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        op, algorithm, m, b = draw(st.sampled_from(OPS))
        specs.append(JobSpec(
            tenant=draw(st.sampled_from(("ant", "bee", "cat"))),
            op=op, algorithm=algorithm,
            source=draw(st.integers(min_value=0, max_value=(1 << n) - 1)),
            message_elems=m, packet_elems=b,
            priority=draw(st.integers(min_value=0, max_value=2)),
            arrival=draw(st.sampled_from((0.0, 0.5, 3.0, 7.25, 20.0, 60.0))),
        ))
    admission = draw(st.sampled_from((
        None,
        AdmissionControl(max_in_flight_total=1),
        AdmissionControl(max_in_flight_per_tenant=1),
        AdmissionControl(max_in_flight_total=2, queue_cap=1),
    )))
    faults, on_fault = _dead_link(draw, n)
    return dict(
        cube=Hypercube(n), specs=specs,
        port_model=draw(st.sampled_from(list(PortModel))),
        machine=draw(st.sampled_from(MACHINES)),
        policy=draw(st.sampled_from(("fifo", "priority", "fair-share"))),
        admission=admission, faults=faults, on_fault=on_fault,
    )


class TestService:
    @settings(max_examples=40, deadline=None)
    @given(service_case())
    def test_incremental_view_matches_from_scratch_run(self, case):
        with _checked():
            result = run_service(**case)
        if result.view is not None:
            # the one-shot path is the oracle itself; either way the
            # reported view is the final program's from-scratch run
            oracle = execute_program(
                case["cube"], result.program, case["port_model"],
                case["machine"], faults=case["faults"],
                on_fault=case["on_fault"],
            )
            assert _view_key(result.view) == _view_key(oracle)

    def test_static_key_runs_use_the_checked_view(self):
        """Uncapped fifo/priority runs admit every job up front into the
        same resumable run, so the oracle checks their view too."""
        specs = [
            JobSpec(tenant="a", message_elems=8, packet_elems=2),
            JobSpec(tenant="b", op="scatter", message_elems=2, arrival=1.0,
                    priority=3),
            JobSpec(tenant="c", source=5, message_elems=4, arrival=1.0),
        ]
        before = _CheckedRun.views
        with _checked():
            for policy in ("fifo", "priority"):
                run_service(Hypercube(3), specs, policy=policy)
        assert _CheckedRun.views == before + 2

    def test_capped_fifo_and_priority_use_the_incremental_run(self):
        specs = [
            JobSpec(tenant="a", message_elems=8, packet_elems=2),
            JobSpec(tenant="b", op="scatter", message_elems=2, arrival=1.0,
                    priority=3),
        ]
        before = _CheckedRun.views
        with _checked():
            for policy in ("fifo", "priority"):
                run_service(
                    Hypercube(3), specs, policy=policy,
                    admission=AdmissionControl(max_in_flight_total=1),
                )
        assert _CheckedRun.views == before + 2

    def test_arrivals_within_eps_of_a_finish(self):
        """Release wakes at a job's finish, or within ``_EPS`` of it,
        coalesce into the finish instant of the full run."""
        cube = Hypercube(3)
        pm = PortModel.ONE_PORT_FULL
        first = JobSpec(tenant="a", message_elems=8, packet_elems=2)
        # a long job on another root keeps the cube busy past that finish
        busy = JobSpec(tenant="d", source=6, message_elems=64, packet_elems=2)
        f = run_service(cube, [first, busy], pm).jobs[0].finish_time
        for arrival in (f - _EPS / 2, f, f + _EPS / 2):
            specs = [
                first,
                busy,
                JobSpec(tenant="b", source=5, message_elems=8,
                        packet_elems=2, arrival=arrival),
                JobSpec(tenant="c", op="scatter", source=3,
                        message_elems=2, arrival=arrival),
            ]
            for admission in (None, AdmissionControl(max_in_flight_total=2)):
                with _checked():
                    result = run_service(
                        cube, specs, pm, policy="fair-share",
                        admission=admission,
                    )
                assert result.jobs[0].finish_time == f
                assert result.jobs[1].finish_time > f
                if admission is not None:
                    # a job queued behind the first enters exactly at
                    # its finish
                    assert result.jobs[2].admit_time == max(arrival, f)


@st.composite
def admission_case(draw):
    """Entries admitted at increasing instants with arbitrary ranks."""
    n = draw(st.sampled_from((2, 3)))
    cube = Hypercube(n)
    pm = draw(st.sampled_from(list(PortModel)))
    jobs = []
    t = 0.0
    for k in range(draw(st.integers(min_value=1, max_value=5))):
        op, algorithm, m, b = draw(st.sampled_from(OPS))
        sched, initial = collective_schedule(
            cube, op, algorithm,
            draw(st.integers(min_value=0, max_value=(1 << n) - 1)),
            m, b, pm,
        )
        t += draw(st.sampled_from((0.0, 0.75, 4.0, 15.0)))
        rank = draw(st.integers(min_value=0, max_value=9))
        jobs.append((JobEntry(k, sched, initial, release=t), (rank, k)))
    faults, on_fault = _dead_link(draw, n)
    return cube, pm, draw(st.sampled_from(MACHINES)), jobs, faults, on_fault


class TestAdmissionRun:
    @settings(max_examples=40, deadline=None)
    @given(admission_case())
    def test_any_rank_order_matches_from_scratch_run(self, case):
        cube, pm, machine, jobs, faults, on_fault = case
        run = AdmissionRun(cube, pm, machine, faults=faults, on_fault=on_fault)
        for entry, rank in jobs:
            # process every completion up to the admission instant
            while run.next_completion(entry.release) is not None:
                run.pop_completion()
            run.admit(entry, rank)
        ranked = [entry for entry, _ in sorted(jobs, key=lambda j: j[1])]
        oracle = execute_program(
            cube, merge_programs(ranked), pm, machine,
            faults=faults, on_fault=on_fault,
        )
        got = run.view(ranked)
        assert _view_key(got) == _view_key(oracle)
        assert got.program == oracle.program


@st.composite
def workload_case(draw):
    n = draw(st.sampled_from((2, 3)))
    phases = []
    for k in range(draw(st.integers(min_value=1, max_value=6))):
        names = [p.name for p in phases]
        deps = tuple(sorted(draw(st.sets(
            st.sampled_from(names), max_size=2
        )))) if names else ()
        compute = draw(st.sampled_from((0.0, 0.0, 1.5, 6.0)))
        if draw(st.integers(min_value=0, max_value=4)) == 0:
            phases.append(PhaseSpec(f"c{k}", compute=compute, deps=deps))
            continue
        op, algorithm, m, b = draw(st.sampled_from(OPS))
        phases.append(PhaseSpec(
            f"p{k}", op=op, algorithm=algorithm,
            source=draw(st.integers(min_value=0, max_value=(1 << n) - 1)),
            message_elems=m, packet_elems=b, compute=compute, deps=deps,
        ))
    dag = WorkloadDAG(tuple(phases))
    faults, on_fault = _dead_link(draw, n)
    return Workload(
        name="prop", dimension=n, dag_builder=lambda step: dag,
        port_model=draw(st.sampled_from(list(PortModel))),
        machine=draw(st.sampled_from(MACHINES)),
        faults=faults, on_fault=on_fault,
    )


class TestWorkloads:
    @settings(max_examples=30, deadline=None)
    @given(workload_case())
    def test_concurrent_phases_match_from_scratch_run(self, workload):
        with _checked():
            report = run_workload(workload, steps=2)
        for step in report.steps:
            for p in step.phases:
                assert p.finish >= p.release


# -- staging: rows join a run that has already executed some ------------

#: a job's lowering is the memo entry's (with its verdicts), or a fresh
#: one without them
CACHING = [
    pytest.param(nullcontext, id="cached"),
    pytest.param(uncached, id="uncached"),
]


def _job(cube, pm, tag, release, op="broadcast", algorithm=None, source=0,
         m=8, b=2):
    """An entry carrying its lowering, as the service admits it."""
    sched, initial, low = api.collective_program(cube, op, algorithm, source, m, b, pm)
    return JobEntry(tag, sched, initial, release=release, lowering=low)


def _makespan(cube, pm, machine, entry):
    return execute_program(cube, merge_programs([entry]), pm, machine).makespan


def _admit_at_releases(run, jobs):
    """Admit each ``(entry, rank)`` after advancing the run to its
    release; returns the rows frozen once the last one is staged in."""
    for entry, rank in jobs:
        while run.next_completion(entry.release) is not None:
            run.pop_completion()
        run.admit(entry, rank)
    run.next_completion(jobs[-1][0].release)  # flushes the last admission
    return run._run._frozen


def _check(run, jobs, cube, pm, machine, faults=None, on_fault="raise"):
    """The closed run's view against the from-scratch oracle."""
    ranked = [entry for entry, _ in sorted(jobs, key=lambda j: j[1])]
    oracle = execute_program(
        cube, merge_programs(ranked), pm, machine,
        faults=faults, on_fault=on_fault,
    )
    got = run.view(ranked)
    assert _view_key(got) == _view_key(oracle)
    assert got.program == oracle.program
    return got


@pytest.mark.parametrize("caching", CACHING)
@pytest.mark.parametrize("machine", MACHINES)
@pytest.mark.parametrize("pm", list(PortModel))
class TestStaging:
    """Admissions into a run with executed rows (the frozen prefix) and
    live rows, each checked against :func:`execute_program`."""

    cube = Hypercube(3)

    def test_later_admission_ranked_ahead_of_live_rows(self, pm, machine, caching):
        cube = self.cube
        with caching():
            first = _job(cube, pm, "hog", 0.0, algorithm="sbt", m=24, b=1)
            t = _makespan(cube, pm, machine, first) / 3
            jobs = [
                (first, 5),
                (_job(cube, pm, "mouse", t, op="scatter", source=3, m=2), 0),
                (_job(cube, pm, "late", 2 * t, source=6, m=4), 1),
            ]
            run = AdmissionRun(cube, pm, machine)
            assert _admit_at_releases(run, jobs) > 0
            view = _check(run, jobs, cube, pm, machine)
        # the hog was still running when the others were ranked ahead
        assert view.slices[2].finish > 2 * t

    def test_admissions_after_every_earlier_row_executed(self, pm, machine, caching):
        """The workload chain: each phase joins at its predecessor's
        completion, when every earlier row has executed."""
        cube = self.cube
        with caching():
            run = AdmissionRun(cube, pm, machine)
            jobs = []
            t = 0.0
            for k, (op, source) in enumerate(
                (("alltoall", 0), ("reduce", 0), ("broadcast", 5))
            ):
                entry = _job(cube, pm, k, t, op=op, source=source, m=4)
                run.admit(entry, k)
                jobs.append((entry, k))
                rows = run._run.n_transfers
                t, _ = run.next_completion(math.inf)
                run.pop_completion()
                # every row but the just-flushed ones is frozen
                assert run._run._frozen == rows
            _check(run, jobs, cube, pm, machine)

    def test_two_jobs_admitted_at_the_same_instant(self, pm, machine, caching):
        cube = self.cube
        with caching():
            first = _job(cube, pm, "a", 0.0, m=16, b=2)
            t = _makespan(cube, pm, machine, first) / 2
            jobs = [
                (first, 1),
                (_job(cube, pm, "b", t, op="scatter", source=5, m=2), 2),
                (_job(cube, pm, "c", t, source=2, m=4), 0),
            ]
            run = AdmissionRun(cube, pm, machine)
            assert _admit_at_releases(run, jobs) > 0
            _check(run, jobs, cube, pm, machine)

    def test_zero_transfer_jobs(self, pm, machine, caching):
        cube = self.cube
        empty = Schedule(rounds=[], chunk_sizes={("z", 0): 1}, algorithm="none")
        with caching():
            first = _job(cube, pm, "a", 0.0, m=16, b=2)
            t = _makespan(cube, pm, machine, first) / 2
            jobs = [
                (first, 3),
                (JobEntry("z1", empty, {1: {("z", 0)}}, release=t), 0),
                (_job(cube, pm, "b", t, op="gather", source=4, m=2), 1),
                (JobEntry("z2", empty, {2: {("z", 0)}}, release=2 * t), 2),
            ]
            run = AdmissionRun(cube, pm, machine)
            assert _admit_at_releases(run, jobs) > 0
            view = _check(run, jobs, cube, pm, machine)
        assert [s.scheduled for s in view.slices if s.scheduled == 0] == [0, 0]

    def test_report_cancellations(self, pm, machine, caching):
        cube = self.cube
        faults = FaultPlan(dead_links=[(0, 1)])
        with caching():
            first = _job(cube, pm, "a", 0.0, m=16, b=2)
            t = _makespan(cube, pm, machine, first) / 3
            jobs = [
                (first, 2),
                (_job(cube, pm, "b", t, op="scatter", source=0, m=2), 0),
                (_job(cube, pm, "c", 2 * t, source=1, m=4), 1),
            ]
            run = AdmissionRun(cube, pm, machine, faults=faults, on_fault="report")
            assert _admit_at_releases(run, jobs) > 0
            view = _check(run, jobs, cube, pm, machine, faults, "report")
        assert view.raw.fault_events

    def test_one_lowering_admitted_twice(self, pm, machine, caching):
        cube = self.cube
        with caching():
            first = _job(cube, pm, "a", 0.0, source=3, m=16, b=2)
            t = _makespan(cube, pm, machine, first) / 2
            again = JobEntry(
                "b", first.schedule, first.initial, release=t,
                lowering=first.lowering,
            )
            jobs = [(first, 1), (again, 0)]
            run = AdmissionRun(cube, pm, machine)
            assert _admit_at_releases(run, jobs) > 0
            _check(run, jobs, cube, pm, machine)
