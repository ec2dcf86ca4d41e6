"""Self-test of the end-to-end benchmark harness.

Run with ``pytest benchmarks/e2e``.  The command-line checks run every
workload once plain and once traced at the ``--quick`` scale (small
cubes, one set-up sample); the rest call the harness in-process.
"""

from __future__ import annotations

import copy
import importlib
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in BENCH["workloads"]]


def _run_all(tmp_path: Path, *extra: str) -> tuple[str, dict]:
    out = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--quick",
         "--seconds", "0", "--out", str(out), *extra],
        capture_output=True, text=True, timeout=600, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout, json.loads(out.read_text())


@pytest.fixture(scope="module")
def plain(tmp_path_factory):
    return _run_all(tmp_path_factory.mktemp("plain"))


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return _run_all(tmp_path_factory.mktemp("traced"), "--trace")


def _result_lines(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]


@pytest.mark.parametrize("fixture, section", [("plain", "end_to_end"), ("traced", "per_layer")])
def test_printed_metrics_match_benchmark_json(request, fixture, section):
    stdout, result = request.getfixturevalue(fixture)
    names = {m["name"]: m["unit"] for m in BENCH[section]}
    lines = _result_lines(stdout)
    assert [r["workload"] for r in result["runs"]] == WORKLOAD_NAMES
    assert len(lines) == len(WORKLOAD_NAMES)
    assert stdout.rstrip().splitlines()[-1].startswith("{")
    for line in lines:
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert {n: m["unit"] for n, m in line["metrics"].items()} == names
        # every metric line is printed by name with its unit
        for name, unit in names.items():
            assert any(ln.split()[:1] == [name] and ln.split()[-1] == unit
                       for ln in stdout.splitlines())


def test_workload_table_matches_benchmark_json():
    workloads = importlib.import_module("workloads")
    assert list(workloads.WORKLOADS) == WORKLOAD_NAMES


def test_percentile_rule():
    hundred = [float(i) for i in range(100)]
    assert run.percentile(hundred, 0.9) == 89.0
    assert run.percentile(hundred[:20], 0.5) == 9.0
    with pytest.raises(ValueError):
        run.percentile(hundred[:99], 0.9)
    with pytest.raises(ValueError):
        run.percentile(hundred[:19], 0.5)


def test_every_run_has_the_samples_its_percentiles_need(plain):
    for r in plain[1]["runs"]:
        assert r["attempted"] >= run.MIN_OPS >= 100


def test_trace_leaves_sim_digest_unchanged(plain, traced):
    digests = {r["workload"]: r["sim_digest"] for r in plain[1]["runs"]}
    assert digests == {r["workload"]: r["sim_digest"] for r in traced[1]["runs"]}


def test_trace_restores_every_wrapped_attribute():
    importlib.import_module("workloads")  # imports every traced module
    sites = [(m, a) for m, a, _, _ in tracing._targets()]
    sites.append(("repro.collectives.api", "get_engine"))
    assert len(sites) > len(tracing._TARGETS)  # the routing generators too

    def current():
        return [getattr(importlib.import_module(m), a) for m, a in sites]

    before = current()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        during = current()
    finally:
        tracer.uninstall()
    assert all(d is not b for d, b in zip(during, before))
    assert all(a is b for a, b in zip(current(), before))


class _FlakyWorkload:
    """Raises on the op whose input is ``raise_on`` and fails the check of
    the op whose input is ``bad``; every other op passes."""

    def __init__(self, raise_on: float, bad: float):
        self.raise_on = raise_on
        self.bad = bad

    def make(self, kind, rng):
        return rng.random()

    def run(self, x):
        if x == self.raise_on:
            raise RuntimeError("boom")
        return x

    def check(self, x, result):
        return ["wrong output"] if x == self.bad else []

    def record(self, x, result):
        return (result,)


def test_failing_ops_raise_fail_ratio():
    # with seed 7, op i draws from random.Random(7 + i): ops 3 and 5 fail
    w = _FlakyWorkload(random.Random(7 + 3).random(), random.Random(7 + 5).random())
    res = run.measure(w, kinds=[None, None], seed=7, seconds=0)
    assert res["attempted"] >= run.MIN_OPS
    assert res["failed"] == 2
    assert res["failed"] / res["attempted"] > 0
    assert any("RuntimeError: boom" in p for p in res["problems"])


def test_compare_flags_regressions_and_digest_mismatches(plain):
    a = plain[1]
    assert compare.compare(a, a, BENCH)[1]
    slower = copy.deepcopy(a)
    for r in slower["runs"]:
        r["metrics"]["op_p50_s"][0] *= 1.5
    lines, ok = compare.compare(a, slower, BENCH)
    assert not ok and any("op_p50_s" in ln and "REGRESSED" in ln for ln in lines)
    other = copy.deepcopy(a)
    other["runs"][0]["sim_digest"] = "0" * 64
    assert not compare.compare(a, other, BENCH)[1]
