"""Built-in instruments and the per-subsystem flush helpers."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import pytest

from repro.obs import REGISTRY, MetricsRegistry
from repro.obs.instruments import (
    ENGINE_DEADLOCKS,
    ENGINE_EVENTS,
    ENGINE_TRANSFERS,
    RUNTIME_PACKETS,
    RUNTIME_TIMEOUTS,
    SWEEP_CACHE_OPS,
    SWEEP_POINTS,
    SWEEP_WORKER_UTILIZATION,
    engine_run_finished,
    runtime_run_finished,
    sweep_finished,
)
from repro.sim.ports import PortModel


@pytest.fixture(autouse=True)
def _enabled_registry():
    """Make sure the global registry records during these tests."""
    prev = REGISTRY.enabled
    REGISTRY.configure(enabled=True)
    yield
    REGISTRY.configure(enabled=prev)


class TestEngineFlush:
    def test_flush_populates_labeled_counters(self):
        before = ENGINE_TRANSFERS.labels(
            engine="async", port_model="all-ports"
        ).value
        engine_run_finished(
            "async",
            PortModel.ALL_PORT,
            transfers=7,
            elems=99,
            seconds=0.01,
            events=21,
            admission_blocks=2,
        )
        assert (
            ENGINE_TRANSFERS.labels(
                engine="async", port_model="all-ports"
            ).value
            == before + 7
        )

    def test_port_model_label_uses_enum_value(self):
        before = ENGINE_EVENTS.labels(engine="async").value
        engine_run_finished(
            "async",
            PortModel.ONE_PORT_FULL,
            transfers=1,
            elems=1,
            seconds=0.0,
            events=5,
        )
        assert ENGINE_EVENTS.labels(engine="async").value == before + 5
        series = ENGINE_TRANSFERS.labels(
            engine="async", port_model=PortModel.ONE_PORT_FULL.value
        )
        assert series.labels["port_model"] == "1-send-and-receive"

    def test_deadlock_marker(self):
        before = ENGINE_DEADLOCKS.labels(engine="async").value
        engine_run_finished(
            "async",
            PortModel.ALL_PORT,
            transfers=0,
            elems=0,
            seconds=0.0,
            deadlocked=True,
        )
        assert ENGINE_DEADLOCKS.labels(engine="async").value == before + 1

    def test_noop_while_disabled(self):
        with REGISTRY.disabled():
            before = ENGINE_TRANSFERS.value
            engine_run_finished(
                "async", PortModel.ALL_PORT, transfers=5, elems=5, seconds=0.0
            )
            assert ENGINE_TRANSFERS.value == before


class TestRuntimeFlush:
    def test_flush_populates_counters(self):
        packets0 = RUNTIME_PACKETS.value
        timeouts0 = RUNTIME_TIMEOUTS.value
        runtime_run_finished(
            packets=12, elems=48, seconds=0.02, timeouts=3, repair_rounds=1
        )
        assert RUNTIME_PACKETS.value == packets0 + 12
        assert RUNTIME_TIMEOUTS.value == timeouts0 + 3


@dataclass
class _FakePoint:
    wall_s: float = 0.1
    lru_hits: int = 0
    lru_misses: int = 0


@dataclass
class _FakeStats:
    """Duck-typed stand-in for ``repro.experiments.parallel.SweepStats``."""

    executor: str = "serial"
    jobs: int = 2
    wall_s: float = 1.0
    points: list = field(default_factory=list)

    @property
    def num_points(self) -> int:
        return len(self.points)

    @property
    def point_wall_s(self) -> float:
        return sum(p.wall_s for p in self.points)

    @property
    def lru_hits(self) -> int:
        return sum(p.lru_hits for p in self.points)

    @property
    def lru_misses(self) -> int:
        return sum(p.lru_misses for p in self.points)


class TestSweepFlush:
    def test_flush_folds_points_and_caches(self):
        points0 = SWEEP_POINTS.labels(executor="serial").value
        hits0 = SWEEP_CACHE_OPS.labels(layer="lru", op="hit").value
        stats = _FakeStats(
            points=[
                _FakePoint(wall_s=0.4, lru_hits=3, lru_misses=1),
                _FakePoint(wall_s=0.6, lru_hits=2),
            ]
        )
        sweep_finished(stats)
        assert SWEEP_POINTS.labels(executor="serial").value == points0 + 2
        assert SWEEP_CACHE_OPS.labels(layer="lru", op="hit").value == hits0 + 5
        # utilization = point_wall / (wall * jobs) = 1.0 / (1.0 * 2)
        assert SWEEP_WORKER_UTILIZATION.value == pytest.approx(0.5)

    def test_utilization_capped_at_one(self):
        sweep_finished(
            _FakeStats(jobs=1, wall_s=0.1, points=[_FakePoint(wall_s=5.0)])
        )
        assert SWEEP_WORKER_UTILIZATION.value == 1.0


class TestDisabledOverhead:
    def test_disabled_counter_inc_is_near_noop(self):
        """Smoke bound: a disabled increment is a flag check, nothing more.

        The bound is intentionally loose (shared CI runners); the test
        guards against accidentally putting allocation or locking on the
        disabled path, not against microsecond-level drift.
        """
        reg = MetricsRegistry(enabled=False)
        series = reg.counter("noop_total", labelnames=("k",)).labels(k="x")
        n = 200_000
        t0 = time.perf_counter()
        for _ in range(n):
            series.inc()
        elapsed = time.perf_counter() - t0
        assert series.value == 0
        assert elapsed < 1.0, f"{n} disabled incs took {elapsed:.3f}s"
