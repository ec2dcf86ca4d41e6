"""Benchmark suite for the multi-tenant service: baselines in
BENCH_SERVICE.json.

Pins the cost of the service scheduler end to end — schedule
pregeneration, merged-program lowering, the shared-cube engine run and
the per-job provenance split — for the named workload scenarios under
each policy family — the static-key policies admit every job up front,
the others grow the run admission by admission — plus the
admission-constrained path.  Compare or refresh with::

    python scripts/bench_compare.py --suite service [--update]

The names of these tests are the keys of the baseline file — renaming
one orphans its baseline entry.
"""

import pytest

from repro.experiments import get_scenario
from repro.service import AdmissionControl, run_service
from repro.topology import Hypercube


@pytest.fixture(scope="module")
def smoke_mix():
    scenario = get_scenario("smoke-mix")
    return Hypercube(scenario.dimension), scenario.build(7)


@pytest.fixture(scope="module")
def hog_vs_mice():
    scenario = get_scenario("hog-vs-mice")
    return Hypercube(scenario.dimension), scenario.build(0)


def test_service_smoke_mix_fifo(benchmark, smoke_mix):
    cube, specs = smoke_mix
    result = benchmark(run_service, cube, specs, policy="fifo")
    assert len(result.accepted) == len(specs)


def test_service_smoke_mix_fair_share(benchmark, smoke_mix):
    cube, specs = smoke_mix
    result = benchmark(run_service, cube, specs, policy="fair-share")
    assert len(result.accepted) == len(specs)


def test_service_smoke_mix_admission_limited(benchmark, smoke_mix):
    """The constrained path: one job on the cube at a time, so the run
    stops at every completion to admit the next job."""
    cube, specs = smoke_mix
    result = benchmark(
        run_service, cube, specs,
        admission=AdmissionControl(max_in_flight_total=1),
    )
    assert len(result.accepted) == len(specs)


def test_service_hog_vs_mice_fair_share_n8(benchmark, hog_vs_mice):
    cube, specs = hog_vs_mice
    result = benchmark(run_service, cube, specs, policy="fair-share")
    assert len(result.accepted) == len(specs)


def test_service_hog_vs_mice_fifo_n8(benchmark, hog_vs_mice):
    """The static-key path: every job is admitted up front into one
    resumable run, which then plays out with no admission events."""
    cube, specs = hog_vs_mice
    result = benchmark(run_service, cube, specs, policy="fifo")
    assert len(result.accepted) == len(specs)
