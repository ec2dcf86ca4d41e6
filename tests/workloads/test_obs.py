"""The repro_workload_* instruments and their flush helper."""

from __future__ import annotations

import pytest

from repro.obs import REGISTRY
from repro.obs.instruments import (
    WORKLOAD_LINK_UTILIZATION,
    WORKLOAD_PHASES,
    WORKLOAD_STEP_TIME,
    WORKLOAD_STEPS,
    WORKLOAD_STRAGGLER_RATIO,
)
from repro.workloads import PhaseSpec, Workload, WorkloadDAG, run_workload


@pytest.fixture(autouse=True)
def _enabled_registry():
    prev = REGISTRY.enabled
    REGISTRY.configure(enabled=True)
    yield
    REGISTRY.configure(enabled=prev)


def _run():
    dag = WorkloadDAG((
        PhaseSpec("c", compute=4.0),
        PhaseSpec("b", op="broadcast", message_elems=8, packet_elems=4,
                  deps=("c",)),
    ))
    w = Workload(name="obs-test", dimension=3, dag_builder=lambda s: dag)
    return run_workload(w, steps=2)


class TestWorkloadFlush:
    def test_steps_and_phases_counted(self):
        steps_before = WORKLOAD_STEPS.labels(
            workload="obs-test", outcome="completed"
        ).value
        bcast_before = WORKLOAD_PHASES.labels(
            workload="obs-test", kind="broadcast"
        ).value
        compute_before = WORKLOAD_PHASES.labels(
            workload="obs-test", kind="compute"
        ).value
        _run()
        assert WORKLOAD_STEPS.labels(
            workload="obs-test", outcome="completed"
        ).value == steps_before + 2
        assert WORKLOAD_PHASES.labels(
            workload="obs-test", kind="broadcast"
        ).value == bcast_before + 2
        assert WORKLOAD_PHASES.labels(
            workload="obs-test", kind="compute"
        ).value == compute_before + 2

    def test_step_time_histogram_observes(self):
        hist = WORKLOAD_STEP_TIME.labels(workload="obs-test")
        count_before = hist.count
        report = _run()
        assert hist.count == count_before + 2
        assert hist.sum >= sum(report.step_durations()) * 0.99

    def test_gauges_track_worst_step(self):
        report = _run()
        util_max = max(s.link_utilization.max for s in report.steps)
        assert WORKLOAD_LINK_UTILIZATION.labels(
            workload="obs-test", stat="max"
        ).value == util_max
        ratio = max(s.stragglers.ratio for s in report.steps)
        assert WORKLOAD_STRAGGLER_RATIO.labels(
            workload="obs-test"
        ).value == ratio

    def test_disabled_registry_is_untouched(self):
        REGISTRY.configure(enabled=False)
        before = WORKLOAD_STEPS.labels(
            workload="obs-test", outcome="completed"
        ).value
        _run()
        after = WORKLOAD_STEPS.labels(
            workload="obs-test", outcome="completed"
        ).value
        assert after == before
