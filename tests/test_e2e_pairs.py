"""The summary of ``scripts/e2e_pairs.py`` on canned run records."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location(
    "e2e_pairs", ROOT / "scripts" / "e2e_pairs.py"
)
e2e_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(e2e_pairs)

METRICS = [
    {"name": "ops_per_s", "better": "higher"},
    {"name": "op_p50_s", "better": "lower"},
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
