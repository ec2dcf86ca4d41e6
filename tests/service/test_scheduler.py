"""Scheduler semantics: admission control, queueing, accounting."""

from __future__ import annotations

import json
import math

import pytest

from repro.service import (
    AdmissionControl,
    CollectiveService,
    JobSpec,
    run_service,
)
from repro.sim.ports import PortModel
from repro.topology import Hypercube


def _jobs(*specs):
    return [JobSpec(**s) for s in specs]


class TestJobSpec:
    def test_rejects_unknown_op(self):
        with pytest.raises(ValueError, match="op must be one of"):
            JobSpec(tenant="t", op="allscatter")

    def test_rejects_negative_arrival(self):
        with pytest.raises(ValueError, match="arrival"):
            JobSpec(tenant="t", arrival=-1.0)

    def test_rejects_empty_message(self):
        with pytest.raises(ValueError, match="message_elems"):
            JobSpec(tenant="t", message_elems=0)

    @pytest.mark.parametrize("arrival", [float("nan"), float("inf")])
    def test_rejects_non_finite_arrival(self, arrival):
        with pytest.raises(ValueError, match="arrival must be >= 0 and finite"):
            JobSpec(tenant="t", arrival=arrival)

    @pytest.mark.parametrize("m", [2.5, float("nan")])
    def test_rejects_non_integral_message(self, m):
        with pytest.raises(ValueError, match="message_elems must be a whole number"):
            JobSpec(tenant="t", message_elems=m)

    @pytest.mark.parametrize("b", [2.5, float("nan"), 0, -4])
    def test_rejects_bad_packet(self, b):
        with pytest.raises(ValueError, match="packet_elems must be a whole number"):
            JobSpec(tenant="t", message_elems=8, packet_elems=b)

    @pytest.mark.parametrize(
        "priority", [True, float("nan"), float("inf"), -float("inf"), 2.5]
    )
    def test_rejects_non_integer_priority(self, priority):
        with pytest.raises(ValueError, match="priority must be an integer"):
            JobSpec(tenant="t", priority=priority)

    def test_accepts_whole_packet(self):
        assert JobSpec(tenant="t", message_elems=8, packet_elems=4.0).packet_elems == 4


class TestAdmissionControl:
    def test_validates_limits(self):
        with pytest.raises(ValueError):
            AdmissionControl(max_in_flight_total=0)
        with pytest.raises(ValueError):
            AdmissionControl(queue_cap=-1)

    @pytest.mark.parametrize(
        "field", ["max_in_flight_per_tenant", "max_in_flight_total", "queue_cap"]
    )
    @pytest.mark.parametrize("value", [float("nan"), 1.5, True, float("inf")])
    def test_rejects_non_whole_caps(self, field, value):
        # a NaN cap would compare False against every count and never block
        with pytest.raises(ValueError, match="whole number >= 1"):
            AdmissionControl(**{field: value})

    def test_unconstrained_property(self):
        assert AdmissionControl().unconstrained
        assert AdmissionControl(queue_cap=5).unconstrained
        assert not AdmissionControl(max_in_flight_total=1).unconstrained


class TestEmptyRun:
    def test_no_jobs(self):
        result = run_service(Hypercube(3), [])
        assert result.jobs == [] and result.makespan == 0.0
        assert result.view is None and result.latency_summary() == {}


class TestSerializedCube:
    def test_max_in_flight_one_serializes(self):
        """Cap 1: admit/finish windows of consecutive jobs never
        overlap, later arrivals wait in queue."""
        specs = _jobs(
            dict(tenant="a", message_elems=32, packet_elems=8),
            dict(tenant="b", message_elems=32, packet_elems=8),
            dict(tenant="a", message_elems=32, packet_elems=8),
        )
        result = run_service(
            Hypercube(3), specs,
            admission=AdmissionControl(max_in_flight_total=1),
        )
        done = sorted(result.accepted, key=lambda j: j.admit_time)
        assert len(done) == 3
        for early, late in zip(done, done[1:]):
            assert late.admit_time >= early.finish_time
        assert done[1].queueing_delay > 0.0
        assert all(not j.degraded for j in done)

    def test_per_tenant_cap(self):
        """Tenant cap 1: tenant a's second job waits for its first,
        tenant b sails through."""
        specs = _jobs(
            dict(tenant="a", message_elems=32, packet_elems=8),
            dict(tenant="a", message_elems=32, packet_elems=8),
            dict(tenant="b", message_elems=4),
        )
        result = run_service(
            Hypercube(3), specs,
            admission=AdmissionControl(max_in_flight_per_tenant=1),
        )
        a1, a2, b = result.jobs
        assert a2.admit_time >= a1.finish_time
        assert b.admit_time == 0.0

    def test_queue_cap_rejects_with_reason(self):
        """One on the cube, one waiting; arrivals three and four bounce."""
        specs = _jobs(
            dict(tenant="t", message_elems=64, packet_elems=8, arrival=0.0),
            dict(tenant="t", message_elems=64, packet_elems=8, arrival=1.0),
            dict(tenant="t", message_elems=64, packet_elems=8, arrival=2.0),
            dict(tenant="t", message_elems=64, packet_elems=8, arrival=3.0),
        )
        result = run_service(
            Hypercube(3), specs,
            admission=AdmissionControl(max_in_flight_total=1, queue_cap=1),
        )
        assert [j.accepted for j in result.jobs] == [True, True, False, False]
        for j in result.rejected:
            assert j.reject_reason == "queue full (1 waiting)"
            assert math.isnan(j.finish_time)
        assert len(result.accepted) == 2


class TestAccounting:
    def test_latency_summary_shape(self):
        specs = _jobs(
            dict(tenant="x", message_elems=8, arrival=0.0),
            dict(tenant="x", message_elems=8, arrival=5.0),
            dict(tenant="y", op="scatter", message_elems=4, arrival=2.0),
        )
        result = run_service(Hypercube(3), specs)
        summary = result.latency_summary()
        assert set(summary) == {"x", "y"}
        for tenant, metrics in summary.items():
            for metric in ("completion_time", "queueing_delay"):
                stats = metrics[metric]
                assert stats["p50"] <= stats["p99"] <= stats["max"]
                assert stats["count"] == (2.0 if tenant == "x" else 1.0)

    def test_to_dict_is_json_ready(self):
        result = run_service(
            Hypercube(3), _jobs(dict(tenant="t", message_elems=8))
        )
        blob = json.loads(json.dumps(result.to_dict()))
        assert blob["policy"] == "fifo"
        assert blob["jobs_accepted"] == 1
        assert blob["tenants"]["t"]["completion_time"]["p99"] > 0

    def test_submit_validates_source(self):
        service = CollectiveService(Hypercube(3))
        with pytest.raises(ValueError):
            service.submit(JobSpec(tenant="t", source=99))

    def test_all_port_models_run(self):
        specs = _jobs(
            dict(tenant="t", message_elems=8, packet_elems=4),
            dict(tenant="u", op="scatter", message_elems=2, arrival=1.0),
        )
        for pm in PortModel:
            result = run_service(Hypercube(3), specs, port_model=pm)
            assert len(result.accepted) == 2
            assert not result.degraded
