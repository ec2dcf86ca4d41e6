"""Determinism regression: a workload report is a pure function of
(scenario, seed, steps) — repeats and pregeneration worker counts must
yield byte-identical reports."""

from __future__ import annotations

import json

from repro.workloads import get_workload_scenario, run_workload

SCENARIO = "train-with-mice"
SEED = 3


def _fingerprint(**kw) -> str:
    workload = get_workload_scenario(SCENARIO).build(SEED)
    report = run_workload(workload, steps=2, **kw)
    return json.dumps(report.to_dict(), sort_keys=True)


class TestBuilderDeterminism:
    def test_same_seed_same_dags(self):
        scenario = get_workload_scenario(SCENARIO)
        a = scenario.build(SEED)
        b = scenario.build(SEED)
        assert a.dag(0) == b.dag(0)
        assert a.dag(1) == b.dag(1)

    def test_different_seed_different_dags(self):
        scenario = get_workload_scenario(SCENARIO)
        assert (
            scenario.build(SEED).dag(0)
            != scenario.build(SEED + 1).dag(0)
        )

    def test_steps_vary_within_a_seed(self):
        w = get_workload_scenario(SCENARIO).build(SEED)
        assert w.dag(0) != w.dag(1)  # per-step jitter + mice draws


class TestRunDeterminism:
    def test_repeat_runs_byte_identical(self):
        assert _fingerprint() == _fingerprint()

    def test_worker_count_is_invisible(self):
        assert _fingerprint(jobs=1) == _fingerprint(jobs=2)
