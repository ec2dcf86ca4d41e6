"""``scripts/bench_compare.py --update`` after a filtered run keeps the
baseline entries the run did not measure."""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location(
    "bench_compare", ROOT / "scripts" / "bench_compare.py"
)
bench_compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_compare)

BENCH = '''
def test_fast(benchmark):
    benchmark(lambda: None)


def test_other(benchmark):
    benchmark(lambda: None)
'''


def test_filtered_update_merges_into_the_baseline(tmp_path, monkeypatch):
    (tmp_path / "bench_tiny.py").write_text(BENCH)
    baseline = tmp_path / "BENCH_TINY.json"
    recorded = {
        "_meta": {"updated": "then", "cpu_count": 64, "note": "kept"},
        "benchmarks": {
            "test_fast": {"median": 9.0},
            "test_other": {"median": 7.0},
            "test_retired": {"median": 5.0},
        },
    }
    baseline.write_text(json.dumps(recorded))
    monkeypatch.setattr(bench_compare, "REPO_ROOT", tmp_path)
    monkeypatch.setattr(
        bench_compare, "SUITES", {"tiny": ("bench_tiny.py", baseline.name)}
    )
    monkeypatch.setattr(sys, "argv", [
        "bench_compare.py", "--suite", "tiny", "--update",
        "--", "-k", "fast", "-p", "no:cacheprovider",
    ])
    assert bench_compare.main() == 0
    got = json.loads(baseline.read_text())
    bench = got["benchmarks"]
    assert list(bench) == ["test_fast", "test_other", "test_retired"]
    assert bench["test_fast"]["median"] < 1.0  # measured now
    assert bench["test_other"] == {"median": 7.0}
    assert bench["test_retired"] == {"median": 5.0}
    meta = got["_meta"]
    assert meta["note"] == "kept" and meta["updated"] != "then"
    assert meta["suite"] == "bench_tiny.py"
