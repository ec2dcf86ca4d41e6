"""The summary and the workload loop of ``scripts/e2e_pairs.py`` on
canned run records, and the working-tree snapshot its pairs measure."""

from __future__ import annotations

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location(
    "e2e_pairs", ROOT / "scripts" / "e2e_pairs.py"
)
e2e_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(e2e_pairs)

METRICS = [
    {"name": "ops_per_s", "better": "higher", "bound": 0.12},
    {"name": "op_p50_s", "better": "lower", "bound": 0.15},
]


def _record(ops: float, p50: float) -> dict:
    """A run record as ``benchmarks/e2e/run.py --out`` writes it."""
    return {
        "correct": True,
        "metrics": {"ops_per_s": [ops, "1/s"], "op_p50_s": [p50, "s"]},
    }


PAIRS = [
    (_record(100.0, 0.010), _record(120.0, 0.008)),
    (_record(104.0, 0.011), _record(118.0, 0.008)),
    (_record(98.0, 0.009), _record(97.0, 0.009)),
    (_record(102.0, 0.010), _record(125.0, 0.007)),
]


def test_summary_per_metric():
    ops, p50 = e2e_pairs.summarize(PAIRS, METRICS)
    assert ops["metric"] == "ops_per_s" and ops["unit"] == "1/s"
    assert ops["base_median"] == 101.0
    assert ops["work_median"] == 119.0
    assert ops["base_range"] == (98.0, 104.0)
    assert ops["work_range"] == (97.0, 125.0)
    assert ops["gain"] == pytest.approx(18.0 / 101.0)
    # quartiles of 98, 100, 102, 104 (inclusive): 99.5 and 102.5
    assert ops["base_iqr"] == pytest.approx(3.0)
    assert (ops["won"], ops["pairs"]) == (3, 4)
    # lower is better: a drop is a gain; a tie wins nothing
    assert p50["base_median"] == pytest.approx(0.010)
    assert p50["work_median"] == pytest.approx(0.008)
    assert p50["gain"] == pytest.approx(0.2)
    assert p50["won"] == 3


def test_one_pair_has_no_spread():
    (ops,) = e2e_pairs.summarize(PAIRS[:1], METRICS[:1])
    assert ops["base_iqr"] == 0.0
    assert ops["won"] == 1


def test_table_lists_every_metric():
    text = e2e_pairs.format_rows(e2e_pairs.summarize(PAIRS, METRICS))
    lines = text.splitlines()
    assert len(lines) == 2 + len(METRICS)
    assert lines[2].startswith("| ops_per_s (1/s) | 101 [98, 104] | 119 [97, 125] | +17.8% |")
    assert lines[2].endswith("| 3/4 |")
    assert lines[3].startswith("| op_p50_s (s) |")
    assert "| +17.8% | 12% | ok |" in lines[2]


def _pairs(base: list[float], work: list[float]) -> list[tuple[dict, dict]]:
    return [(_record(b, 0.01), _record(w, 0.01)) for b, w in zip(base, work)]


def _verdict(base: list[float], work: list[float]) -> str:
    (ops,) = e2e_pairs.summarize(_pairs(base, work), METRICS[:1])
    return ops["verdict"]


def test_verdict_ok_when_inside_the_bound():
    assert _verdict([100, 101, 99, 100], [95, 96, 94, 95]) == "ok"  # -5%
    assert _verdict([100, 101, 99, 100], [130, 131, 129, 130]) == "ok"


def test_verdict_worse_beyond_the_bound():
    # -15% in the median against a 12% bound, whatever the spread
    assert _verdict([100, 101, 99, 100], [85, 86, 84, 85]) == "worse"
    assert _verdict([60, 140, 100, 100], [85, 86, 84, 85]) == "worse"


def test_verdict_unresolved_when_the_base_spreads_wider_than_the_bound():
    # base quartiles (inclusive) of 60, 100, 100, 140: 90 and 110, an
    # IQR of 20% of the median against a 12% bound
    assert _verdict([60, 140, 100, 100], [100, 100, 100, 100]) == "unresolved"
    # unless every work run reads better than every base run
    assert _verdict([60, 140, 100, 100], [141, 150, 142, 145]) == "ok"


def test_lower_is_better_metrics_take_their_own_bound():
    pairs = [(_record(100.0, 0.010), _record(100.0, w)) for w in (0.0114, 0.0114)]
    _, p50 = e2e_pairs.summarize(pairs, METRICS)
    assert p50["bound"] == 0.15
    assert p50["gain"] == pytest.approx(-0.14)
    assert p50["verdict"] == "ok"  # 14% worse, inside the 15% bound
    pairs = [(_record(100.0, 0.010), _record(100.0, 0.0116))]
    assert e2e_pairs.summarize(pairs, METRICS)[1]["verdict"] == "worse"


def _full_record(ops: float, correct: bool = True) -> dict:
    """A record carrying every end-to-end metric of BENCHMARK.json."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: [1.0, m["unit"]] for m in bench["end_to_end"]}
    metrics["ops_per_s"] = [ops, "1/s"]
    return {"correct": correct, "metrics": metrics}


@pytest.fixture
def canned(monkeypatch):
    """Replace the runs with canned records; returns the workloads run."""
    ran: list[str] = []
    records = {"bad": False}

    def run_pairs(workload, base_tree, work_tree, tmp_path, args):
        ran.append(workload)
        work = _full_record(101.0, correct=not records["bad"])
        return [(_full_record(100.0), work)] * args.pairs

    monkeypatch.setattr(e2e_pairs, "export_ref", lambda ref, dest: None)
    monkeypatch.setattr(e2e_pairs, "export_worktree", lambda dest: None)
    monkeypatch.setattr(e2e_pairs, "run_pairs", run_pairs)
    return ran, records


def test_all_runs_every_workload_in_benchmark_order(canned, capsys):
    ran, _ = canned
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    assert e2e_pairs.main(["--workload", "all", "--pairs", "2"]) == 0
    assert ran == names
    out = capsys.readouterr().out
    for name in names:
        assert f"{name}, seed 0, default length, base HEAD:" in out
    assert out.count("| ops_per_s (1/s) |") == len(names)


def test_several_workloads_run_in_the_order_given(canned):
    ran, _ = canned
    assert e2e_pairs.main(["--workload", "runtime-n9", "paper-grid", "--pairs", "1"]) == 0
    assert ran == ["runtime-n9", "paper-grid"]


def test_unknown_workload_runs_nothing(canned, capsys):
    ran, _ = canned
    assert e2e_pairs.main(["--workload", "paper-grid", "no-such"]) == 2
    assert ran == []
    assert "no-such" in capsys.readouterr().err


def test_a_failed_run_fails_the_command(canned):
    _, records = canned
    records["bad"] = True
    assert e2e_pairs.main(["--workload", "cube-n10", "--pairs", "2"]) == 1


def test_the_work_side_is_a_snapshot_of_the_working_tree(tmp_path):
    """Uncommitted edits and untracked files are copied as they are on
    disk; ignored files and tracked files deleted on disk are not."""
    repo, dest = tmp_path / "repo", tmp_path / "snapshot"
    (repo / "pkg").mkdir(parents=True)
    dest.mkdir()
    (repo / ".gitignore").write_text("out/\n*.log\n")
    (repo / "pkg" / "mod.py").write_text("X = 1\n")
    (repo / "gone.py").write_text("")
    subprocess.run(["git", "init", "-q"], cwd=repo, check=True)
    subprocess.run(["git", "add", "-A"], cwd=repo, check=True)
    (repo / "pkg" / "mod.py").write_text("X = 2\n")  # not staged
    (repo / "gone.py").unlink()
    (repo / "new.py").write_text("Y = 3\n")
    (repo / "out").mkdir()
    (repo / "out" / "trace.json").write_text("{}")
    (repo / "run.log").write_text("")
    e2e_pairs.export_worktree(dest, root=repo)
    copied = sorted(str(p.relative_to(dest)) for p in dest.rglob("*") if p.is_file())
    assert copied == [".gitignore", "new.py", "pkg/mod.py"]
    assert (dest / "pkg" / "mod.py").read_text() == "X = 2\n"
