"""Benchmark suite for the workload layer: baselines in
BENCH_WORKLOAD.json.

Pins the cost of running a workload step end to end — DAG lowering,
schedule pregeneration, the event-ordered admission loop over one
resumable engine run, the per-job split, and the per-step report
(link utilization, stragglers, critical path).  Compare or refresh
with::

    python scripts/bench_compare.py --suite workload [--update]

The names of these tests are the keys of the baseline file — renaming
one orphans its baseline entry.
"""

import pytest

from repro.workloads import get_workload_scenario, run_workload


@pytest.fixture(scope="module")
def pipeline():
    return get_workload_scenario("pipeline-4stage").build(seed=0)


@pytest.fixture(scope="module")
def moe():
    return get_workload_scenario("moe-alltoall").build(seed=0)


@pytest.fixture(scope="module")
def mice():
    return get_workload_scenario("train-with-mice").build(seed=0)


@pytest.fixture(scope="module")
def dp_train():
    return get_workload_scenario("dp-train-n10").build(seed=0)


def test_workload_pipeline_4stage_step(benchmark, pipeline):
    report = benchmark(run_workload, pipeline, 1)
    assert not report.degraded


def test_workload_moe_alltoall_step(benchmark, moe):
    report = benchmark(run_workload, moe, 1)
    assert not report.degraded


def test_workload_train_with_mice_step(benchmark, mice):
    """The contended path: mice flows admitted mid-step force extra
    merged-program re-simulations."""
    report = benchmark(run_workload, mice, 1)
    assert not report.degraded


def test_workload_dp_train_n10_step(benchmark, dp_train):
    """One training step on the 1024-node cube — the big-cube path."""
    report = benchmark(run_workload, dp_train, 1)
    assert not report.degraded

