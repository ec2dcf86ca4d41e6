"""Determinism regression: a service run is a pure function of
(scenario, seed, policy) — the worker count for schedule pregeneration
must never leak into results."""

from __future__ import annotations

import pytest

from repro.experiments import get_scenario, poisson_jobs, TenantProfile
from repro.service import run_service
from repro.topology import Hypercube

SCENARIO = "smoke-mix"
SEED = 3


def _fingerprint(result):
    """Everything observable about a run, in a comparable shape."""
    return (
        result.policy,
        result.makespan,
        [
            (
                j.job_id, j.tenant, j.accepted, j.reject_reason,
                j.admit_time, j.start_time, j.finish_time,
                j.transfers, j.elems, j.link_time,
            )
            for j in result.jobs
        ],
    )


def _run(policy="fifo", **kw):
    scenario = get_scenario(SCENARIO)
    return run_service(
        Hypercube(scenario.dimension), scenario.build(SEED),
        policy=policy, **kw,
    )


class TestInjectorDeterminism:
    def test_same_seed_same_jobs(self):
        scenario = get_scenario(SCENARIO)
        assert scenario.build(SEED) == scenario.build(SEED)

    def test_different_seed_different_jobs(self):
        scenario = get_scenario(SCENARIO)
        assert scenario.build(SEED) != scenario.build(SEED + 1)

    def test_tenant_streams_are_independent(self):
        """Adding a tenant never perturbs another tenant's draws."""
        base = TenantProfile(tenant="ant", rate=1 / 200.0)
        extra = TenantProfile(tenant="newcomer", rate=1 / 300.0)
        solo = poisson_jobs([base], horizon=1000.0, dimension=4, seed=9)
        both = poisson_jobs([base, extra], horizon=1000.0, dimension=4, seed=9)
        assert [j for j in both if j.tenant == "ant"] == solo


class TestRunDeterminism:
    @pytest.mark.parametrize("policy", ["fifo", "priority", "fair-share"])
    def test_repeat_runs_identical(self, policy):
        assert _fingerprint(_run(policy)) == _fingerprint(_run(policy))

    def test_worker_count_is_invisible(self):
        serial = _fingerprint(_run(jobs=1))
        fanned = _fingerprint(_run(jobs=2))
        assert serial == fanned
        # ...and a count that is not a whole number >= 0 is rejected,
        # not run inline
        for bad in (-3, True, 2.5):
            with pytest.raises(ValueError, match="jobs must be"):
                _run(jobs=bad)
