"""Scenario registry and the ``repro service`` CLI surface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.experiments import SCENARIOS, get_scenario
from repro.service import POLICIES


class TestScenarioRegistry:
    def test_expected_names(self):
        assert {"smoke-mix", "three-tenant-n10", "priority-tiers",
                "hog-vs-mice"} <= set(SCENARIOS)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            get_scenario("nope")

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_builders_yield_sorted_multi_tenant_jobs(self, name):
        scenario = SCENARIOS[name]
        specs = scenario.build(0)
        assert specs, name
        assert len({s.tenant for s in specs}) >= 2
        arrivals = [s.arrival for s in specs]
        assert arrivals == sorted(arrivals)
        top = 1 << scenario.dimension
        assert all(0 <= s.source < top for s in specs)


class TestServiceParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["service"])

    def test_run_defaults(self):
        args = build_parser().parse_args(
            ["service", "run", "--scenario", "smoke-mix"]
        )
        assert args.policy == "fifo" and args.seed == 0
        assert args.ports == "full" and args.on_fault == "raise"

    def test_policy_choices_track_registry(self):
        for name in POLICIES:
            args = build_parser().parse_args(
                ["service", "run", "--scenario", "x", "--policy", name]
            )
            assert args.policy == name


class TestServiceCommands:
    def test_list(self, capsys):
        assert main(["service", "list"]) == 0
        out = capsys.readouterr().out
        for name in SCENARIOS:
            assert name in out
        for name in POLICIES:
            assert name in out

    def test_unknown_scenario_fails_cleanly(self, capsys):
        assert main(["service", "run", "--scenario", "nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().err
        assert main([
            "service", "run", "--scenario", "smoke-mix", "--jobs", "-3",
        ]) == 2
        assert "jobs must be" in capsys.readouterr().err

    @pytest.mark.parametrize("policy", ["fifo", "fair-share"])
    def test_run_smoke_mix_emits_quantiles(self, policy, capsys, tmp_path):
        metrics = tmp_path / "metrics.json"
        code = main([
            "service", "run", "--scenario", "smoke-mix",
            "--policy", policy, "--seed", "7",
            "--metrics-json", str(metrics),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "jobs submitted" in out
        assert "cmpl p99" in out

        blob = json.loads(metrics.read_text())
        assert blob["scenario"] == "smoke-mix"
        service = blob["service"]
        assert service["policy"] == policy
        assert service["jobs_accepted"] >= 2
        for tenant in ("ant", "bee"):
            stats = service["tenants"][tenant]
            assert stats["completion_time"]["p99"] > 0
            assert stats["queueing_delay"]["p99"] >= 0
        # the obs registry carries the histogram + exact-quantile series
        reg = blob["registry"]
        assert "repro_service_quantiles" in reg
        assert "repro_service_completion_time" in reg

    def test_run_with_queue_cap_reports_rejections(self, capsys):
        code = main([
            "service", "run", "--scenario", "smoke-mix", "--seed", "7",
            "--max-in-flight", "1", "--queue-cap", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "jobs rejected" in out
