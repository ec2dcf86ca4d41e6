"""Workload execution: dependency timing, contention, faults, validation."""

from __future__ import annotations

import math

import pytest

from repro.sim.faults import FaultError, FaultPlan
from repro.workloads import (
    PhaseSpec,
    Workload,
    WorkloadDAG,
    run_workload,
)


def _workload(phases, dimension=3, **kw) -> Workload:
    dag = WorkloadDAG(tuple(phases))
    return Workload(
        name="test", dimension=dimension, dag_builder=lambda s: dag, **kw
    )


class TestComputeOnly:
    def test_chain_times_add_up(self):
        w = _workload([
            PhaseSpec("a", compute=10.0),
            PhaseSpec("b", compute=5.0, deps=("a",)),
        ])
        rep = run_workload(w)
        step = rep.steps[0]
        assert step.phase("a").finish == 10.0
        assert step.phase("b").ready == 10.0
        assert step.phase("b").finish == 15.0
        assert step.duration == 15.0
        assert step.critical_path.phases == ("a", "b")
        assert step.critical_path.compute_time == 15.0
        assert step.critical_path.comm_time == 0.0

    def test_parallel_branches_take_the_max(self):
        w = _workload([
            PhaseSpec("fast", compute=1.0),
            PhaseSpec("slow", compute=9.0),
            PhaseSpec("join", deps=("fast", "slow")),
        ])
        step = run_workload(w).steps[0]
        assert step.phase("join").ready == 9.0
        assert step.duration == 9.0
        assert step.critical_path.phases == ("slow", "join")


class TestCollectiveTiming:
    def test_dependent_phase_starts_at_dep_finish(self):
        w = _workload([
            PhaseSpec("b1", op="broadcast", algorithm="sbt",
                      message_elems=8, packet_elems=4),
            PhaseSpec("b2", op="broadcast", algorithm="sbt", source=7,
                      message_elems=8, packet_elems=4, deps=("b1",)),
        ])
        step = run_workload(w).steps[0]
        b1, b2 = step.phase("b1"), step.phase("b2")
        assert b1.finish > 0
        assert b2.ready == b1.finish
        assert b2.release == b2.ready
        assert b2.finish > b2.release
        assert step.critical_path.phases == ("b1", "b2")

    def test_compute_gap_delays_communication(self):
        w = _workload([
            PhaseSpec("c", compute=100.0),
            PhaseSpec("b", op="broadcast", compute=7.0, deps=("c",),
                      message_elems=4),
        ])
        step = run_workload(w).steps[0]
        b = step.phase("b")
        assert b.ready == 100.0
        assert b.release == 107.0
        assert b.finish > 107.0

    def test_causality_under_mixed_durations(self):
        """A successor of a *small* phase must not wait for a large
        concurrent phase — the event-ordered loop admits it at its own
        dep's finish, and the big phase's finish stays untouched."""
        w = _workload([
            PhaseSpec("big", op="broadcast", algorithm="sbt",
                      message_elems=64, packet_elems=4),
            PhaseSpec("small", compute=1.0),
            PhaseSpec("after-small", op="broadcast", algorithm="sbt",
                      source=1, message_elems=2, deps=("small",)),
        ])
        step = run_workload(w).steps[0]
        assert step.phase("after-small").release == 1.0
        assert step.phase("after-small").release < step.phase("big").finish
        # the dependent phase's transfers really did run before the big
        # phase finished (they contend on the same cube)
        assert step.phase("after-small").transfers_executed > 0

    def test_all_ops_lower(self):
        w = _workload([
            PhaseSpec("r", op="reduce", message_elems=4, packet_elems=2),
            PhaseSpec("b", op="broadcast", message_elems=4, deps=("r",)),
            PhaseSpec("s", op="scatter", message_elems=2, deps=("b",)),
            PhaseSpec("g", op="gather", message_elems=2, deps=("s",)),
            PhaseSpec("ag", op="allgather", deps=("g",)),
            PhaseSpec("aa", op="alltoall", deps=("ag",)),
        ])
        step = run_workload(w).steps[0]
        assert not step.degraded
        for p in step.phases:
            assert p.transfers_executed == p.transfers_scheduled
            assert p.finish > p.release

    def test_multi_step_offsets(self):
        w = _workload([
            PhaseSpec("b", op="broadcast", message_elems=4, compute=3.0),
        ])
        rep = run_workload(w, steps=3)
        assert rep.num_steps == 3
        for prev, cur in zip(rep.steps, rep.steps[1:]):
            assert cur.start == prev.end
        # identical DAGs => identical per-step durations
        durs = rep.step_durations()
        assert durs[0] == durs[1] == durs[2]
        assert rep.makespan == rep.steps[-1].end


class TestAnalyses:
    def test_link_utilization_bounded(self):
        w = _workload([
            PhaseSpec("b", op="broadcast", algorithm="msbt",
                      message_elems=16, packet_elems=4),
        ])
        step = run_workload(w).steps[0]
        util = step.link_utilization
        assert util.links_used > 0
        assert 0 < util.mean <= util.max <= 1.0
        assert len(util.busiest) <= 3
        assert util.busiest[0][1] == util.max

    def test_stragglers_cover_receiving_nodes(self):
        w = _workload([
            PhaseSpec("b", op="broadcast", message_elems=8, packet_elems=4),
        ])
        step = run_workload(w).steps[0]
        s = step.stragglers
        assert s.nodes_observed == 7  # everyone but the source receives
        assert s.max_lag >= s.median_lag > 0
        assert s.ratio >= 1.0
        assert s.max_lag <= step.duration

    def test_critical_path_tiles_the_step(self):
        w = _workload([
            PhaseSpec("c", compute=10.0),
            PhaseSpec("b", op="broadcast", compute=2.0, deps=("c",),
                      message_elems=4),
        ])
        step = run_workload(w).steps[0]
        cp = step.critical_path
        assert cp.phases == ("c", "b")
        assert cp.compute_time + cp.comm_time == pytest.approx(step.duration)


class TestFaults:
    def test_report_mode_degrades_without_crashing(self):
        w = _workload(
            [PhaseSpec("b", op="broadcast", algorithm="sbt",
                       message_elems=4)],
            faults=FaultPlan(dead_links=[(0, 1)]),
            on_fault="report",
        )
        rep = run_workload(w)
        assert rep.degraded
        b = rep.steps[0].phase("b")
        assert b.degraded
        assert b.transfers_executed < b.transfers_scheduled
        assert b.undelivered_nodes  # the cut-off subtree missed chunks

    def test_raise_mode_raises(self):
        w = _workload(
            [PhaseSpec("b", op="broadcast", algorithm="sbt",
                       message_elems=4)],
            faults=FaultPlan(dead_links=[(0, 1)]),
        )
        with pytest.raises(FaultError):
            run_workload(w)

    def test_unaffected_phase_stays_clean(self):
        # the dead link cuts node 1 off broadcasts from 0, but a
        # broadcast rooted elsewhere routes around nothing — it never
        # uses the dead edge in its SBT either way; use msbt from the
        # far corner so no tree edge crosses (0, 1)
        w = _workload(
            [
                PhaseSpec("hit", op="broadcast", algorithm="sbt",
                          message_elems=4),
                PhaseSpec("clean", compute=1.0),
            ],
            faults=FaultPlan(dead_links=[(0, 1)]),
            on_fault="report",
        )
        rep = run_workload(w)
        assert rep.steps[0].phase("hit").degraded
        assert not rep.steps[0].phase("clean").degraded


class TestBackendsAndValidation:
    def test_bad_steps(self):
        w = _workload([PhaseSpec("a", compute=1.0)])
        with pytest.raises(ValueError, match="steps must be >= 1"):
            run_workload(w, steps=0)
        for steps in (True, 2.5):
            with pytest.raises(ValueError, match="steps must be an integer"):
                run_workload(w, steps=steps)

    def test_report_roundtrips_to_dict(self):
        w = _workload([
            PhaseSpec("c", compute=1.0),
            PhaseSpec("b", op="broadcast", message_elems=4, deps=("c",)),
        ])
        d = run_workload(w, steps=2).to_dict()
        assert d["workload"] == "test"
        assert d["summary"]["steps"] == 2
        assert len(d["steps"]) == 2
        assert not math.isnan(d["summary"]["straggler_ratio_max"])
        phase_names = [p["name"] for p in d["steps"][0]["phases"]]
        assert phase_names == ["c", "b"]
