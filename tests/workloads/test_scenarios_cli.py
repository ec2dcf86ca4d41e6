"""The workload scenario registry and the ``repro workload`` CLI."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.workloads import (
    WORKLOAD_SCENARIOS,
    Workload,
    get_workload_scenario,
    run_workload,
)

EXPECTED = {
    "dp-train-n10",
    "pipeline-4stage",
    "moe-alltoall",
    "train-with-mice",
    "train-under-faults",
}


class TestRegistry:
    def test_expected_scenarios_registered(self):
        assert set(WORKLOAD_SCENARIOS) == EXPECTED

    def test_listing_is_sorted(self):
        assert list(WORKLOAD_SCENARIOS) == sorted(WORKLOAD_SCENARIOS)

    def test_unknown_name_is_helpful(self):
        with pytest.raises(ValueError, match="unknown workload scenario"):
            get_workload_scenario("nope")

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_builders_produce_consistent_workloads(self, name):
        scenario = WORKLOAD_SCENARIOS[name]
        workload = scenario.build(seed=0)
        assert isinstance(workload, Workload)
        assert workload.name == name
        assert workload.dimension == scenario.dimension
        dag = workload.dag(0)
        assert len(dag) > 0
        assert dag.collective_phases  # every scenario moves data
        for p in dag.collective_phases:
            if p.rooted:
                assert 0 <= p.source < (1 << workload.dimension)

    def test_fault_scenario_degrades_but_completes(self):
        workload = get_workload_scenario("train-under-faults").build(seed=0)
        report = run_workload(workload, steps=1)
        assert report.degraded
        assert report.steps[0].duration > 0
        degraded = [p for p in report.steps[0].phases if p.degraded]
        assert degraded  # the fault shows up in the step report


class TestCLI:
    def test_list(self, capsys):
        assert main(["workload", "list"]) == 0
        out = capsys.readouterr().out
        for name in EXPECTED:
            assert name in out

    def test_run_writes_report_and_metrics(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = main([
            "workload", "run", "--scenario", "train-under-faults",
            "--steps", "1", "--report-json", str(report_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "train-under-faults" in out
        assert "degraded" in out
        payload = json.loads(report_path.read_text())
        assert payload["workload"] == "train-under-faults"
        assert payload["summary"]["degraded_steps"] == 1
        assert payload["steps"][0]["critical_path"]["phases"]

    def test_metrics_json_contains_workload_block(self, tmp_path):
        path = tmp_path / "metrics.json"
        code = main([
            "workload", "run", "--scenario", "pipeline-4stage",
            "--steps", "1", "--metrics-json", str(path),
        ])
        assert code == 0
        payload = json.loads(path.read_text())
        block = payload["workload"]
        assert block["dimension"] == 8
        assert block["summary"]["steps"] == 1
        assert len(block["steps"][0]["phases"]) == 8

    def test_unknown_scenario_exits_2(self, capsys):
        assert main(["workload", "run", "--scenario", "nope"]) == 2
        assert "pick one of" in capsys.readouterr().err
