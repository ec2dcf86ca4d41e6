"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table_numbers_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table", "9"])

    def test_broadcast_defaults(self):
        args = build_parser().parse_args(["broadcast"])
        assert args.dim == 5 and args.ports == "full"
        # algorithm defaults to per-topology resolution, not a fixed name
        assert args.algorithm is None
        assert args.topology == "hypercube" and args.k == 3


class TestCommands:
    def test_table5(self, capsys):
        assert main(["table", "5"]) == 0
        out = capsys.readouterr().out
        assert "BST maximum subtree sizes" in out
        assert "52487" in out

    def test_table1(self, capsys):
        assert main(["table", "1"]) == 0
        assert "propagation delays" in capsys.readouterr().out

    def test_broadcast_summary(self, capsys):
        code = main([
            "broadcast", "--dim", "4", "-a", "msbt", "-M", "64", "-B", "8",
            "--ports", "full",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "routing steps     : 12" in out  # 8 packets + log N
        assert "msbt-broadcast" in out

    def test_scatter_summary(self, capsys):
        code = main(["scatter", "--dim", "4", "-a", "bst", "-M", "8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "scatter on Hypercube" in out
        assert "source port skew" in out

    def test_scatter_sbt_shows_imbalance(self, capsys):
        main(["scatter", "--dim", "5", "-a", "sbt", "-M", "4", "-B", "9999"])
        out = capsys.readouterr().out
        skew = float(out.split("source port skew  :")[1].split("x")[0])
        assert skew == pytest.approx(16.0)

    def test_ipsc_flag(self, capsys):
        code = main([
            "broadcast", "--dim", "3", "-a", "sbt", "-M", "2048", "--ipsc",
        ])
        assert code == 0
        assert "iPSC/d7" in capsys.readouterr().out

    def test_dead_link_degraded_broadcast(self, capsys):
        code = main([
            "broadcast", "--dim", "3", "-a", "msbt", "-M", "8", "-B", "4",
            "--dead-link", "0:1", "--dead-link", "2:6",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "msbt-broadcast-degraded" in out
        assert "faults            : 2 links, 0 nodes dead" in out
        assert "unreachable" not in out

    def test_dead_node_report_mode(self, capsys):
        code = main([
            "broadcast", "--dim", "3", "-a", "msbt", "-M", "4",
            "--dead-node", "5", "--on-fault", "report",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "unreachable nodes : [5]" in out

    def test_disconnecting_faults_fail_loudly(self, capsys):
        code = main([
            "broadcast", "--dim", "3", "-M", "4",
            "--dead-link", "0:1", "--dead-link", "0:2", "--dead-link", "0:4",
        ])
        assert code == 1
        assert "fault:" in capsys.readouterr().err

    def test_scatter_with_dead_link(self, capsys):
        code = main([
            "scatter", "--dim", "3", "-a", "bst", "-M", "4",
            "--dead-link", "1:3",
        ])
        assert code == 0
        assert "fault-avoiding-scatter" in capsys.readouterr().out

    def test_malformed_dead_link_rejected(self):
        with pytest.raises(SystemExit):
            main(["broadcast", "--dim", "3", "--dead-link", "zero:one"])

    def test_runtime_backend_broadcast(self, capsys):
        code = main([
            "broadcast", "--dim", "3", "-a", "sbt", "-M", "8", "-B", "4",
            "--backend", "runtime",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "backend           : runtime" in out
        assert "runtime time" in out

    def test_runtime_backend_repair_with_trace(self, capsys, tmp_path):
        jsonl = tmp_path / "trace.jsonl"
        chrome = tmp_path / "trace.json"
        code = main([
            "broadcast", "--dim", "3", "-a", "sbt", "-M", "8", "-B", "4",
            "--backend", "runtime", "--dead-link", "0:1",
            "--on-fault", "repair",
            "--trace-jsonl", str(jsonl), "--trace-chrome", str(chrome),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "repair rounds     : 1" in out
        assert jsonl.exists() and chrome.exists()

    def test_repair_requires_runtime_backend(self, capsys):
        code = main([
            "broadcast", "--dim", "3", "--dead-link", "0:1",
            "--on-fault", "repair",
        ])
        assert code == 2
        assert "requires --backend runtime" in capsys.readouterr().err

    def test_trace_requires_runtime_backend(self, capsys):
        code = main([
            "broadcast", "--dim", "3", "--trace-jsonl", "/tmp/x.jsonl",
        ])
        assert code == 2
        assert "require --backend runtime" in capsys.readouterr().err

    def test_figure_command_dispatches(self, capsys, monkeypatch):
        # patch in a tiny stand-in so the test stays fast
        from repro import experiments
        from repro.experiments.harness import TableReport

        stub = TableReport("Figure 7 — stub", ["x"], [[1]])
        monkeypatch.setattr(
            experiments, "run_fig7", lambda jobs=None: stub
        )
        assert main(["figure", "7"]) == 0
        assert "Figure 7 — stub" in capsys.readouterr().out


class TestSweepCommand:
    def test_unknown_target_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "fig9"])

    def test_target_group_expansion(self):
        from repro.cli import _expand_sweep_targets

        figs = _expand_sweep_targets(["figures"])
        assert figs == ["fig5", "fig6", "fig7", "fig8"]
        tables = _expand_sweep_targets(["tables"])
        assert tables == [f"table{i}" for i in range(1, 7)]
        everything = _expand_sweep_targets(["all"])
        assert set(everything) == set(figs) | set(tables) | {"scatter"}
        # dedupe keeps first occurrence order
        assert _expand_sweep_targets(["fig6", "figures"]) == [
            "fig6", "fig5", "fig7", "fig8",
        ]

    def test_sweep_runs_and_writes_stats(self, capsys, tmp_path):
        import json

        stats_path = tmp_path / "stats.json"
        code = main([
            "sweep", "table1", "--jobs", "1",
            "--stats-json", str(stats_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "propagation delays" in out
        assert "[table1]" in out
        stats = json.loads(stats_path.read_text())
        assert set(stats) == {"table1"}
        assert stats["table1"]["executor"] == "serial"
        assert stats["table1"]["num_points"] >= 1
        assert all("wall_s" in p for p in stats["table1"]["points"])

    def test_sweep_parallel(self, capsys):
        assert main(["sweep", "table6", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "[table6]" in out
        assert "process-pool" in out


class TestObservabilityFlags:
    def _metrics_doc(self, out: str) -> dict:
        """The JSON document ``--metrics-json -`` appends to stdout."""
        import json

        return json.loads(out[out.index("{"):])

    def test_metrics_json_to_stdout(self, capsys):
        code = main([
            "broadcast", "--dim", "4", "-a", "msbt", "-M", "64", "-B", "8",
            "--metrics-json", "-",
        ])
        assert code == 0
        doc = self._metrics_doc(capsys.readouterr().out)
        assert doc["command"] == "broadcast"
        assert doc["collective"]["packets_sent"] > 0
        assert doc["collective"]["phases"]["schedule"] >= 0
        engine = doc["registry"]["repro_engine_transfers_total"]
        assert sum(s["value"] for s in engine["series"]) > 0
        cache_ops = doc["registry"]["repro_cache_ops_total"]["series"]
        assert any(s["labels"]["op"] in ("hit", "miss") for s in cache_ops)

    def test_metrics_json_to_file(self, capsys, tmp_path):
        import json

        path = tmp_path / "metrics.json"
        code = main([
            "scatter", "--dim", "3", "-M", "8", "-B", "4",
            "--metrics-json", str(path),
        ])
        assert code == 0
        assert "metrics written to" in capsys.readouterr().out
        doc = json.loads(path.read_text())
        assert doc["command"] == "scatter"
        assert doc["collective"]["op"] == "scatter"

    def test_metrics_json_on_sweep(self, tmp_path):
        import json

        path = tmp_path / "metrics.json"
        code = main([
            "sweep", "table1", "--jobs", "1", "--metrics-json", str(path),
        ])
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["command"] == "sweep"
        assert doc["targets"] == ["table1"]
        sweeps = doc["registry"]["repro_sweep_points_total"]["series"]
        assert sum(s["value"] for s in sweeps) >= 1

    def test_log_json_writes_run_journal(self, tmp_path):
        import json

        path = tmp_path / "run.jsonl"
        code = main([
            "broadcast", "--dim", "3", "-M", "16", "-B", "4",
            "--log-json", str(path),
        ])
        assert code == 0
        records = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        finished = [r for r in records if r["event"] == "collective.finished"]
        assert finished and finished[0]["op"] == "broadcast"

    def test_log_json_sink_released_after_main(self, tmp_path):
        from repro.obs import logging_enabled

        main([
            "broadcast", "--dim", "3", "-M", "16", "-B", "4",
            "--log-json", str(tmp_path / "run.jsonl"),
        ])
        assert not logging_enabled()

    def test_profile_prints_table(self, capsys):
        code = main([
            "broadcast", "--dim", "3", "-M", "16", "-B", "4", "--profile",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "cumulative" in out or "function calls" in out

    def test_phase_timings_line(self, capsys):
        main(["broadcast", "--dim", "3", "-M", "16", "-B", "4"])
        assert "phase timings" in capsys.readouterr().out
