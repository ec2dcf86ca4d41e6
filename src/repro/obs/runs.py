"""Per-run metric collection for the collective API.

A :class:`RunCollector` wraps one collective operation: the API layer
creates it, times each phase through :meth:`RunCollector.phase`, and
calls :meth:`RunCollector.finalize` on the finished
:class:`~repro.collectives.result.CollectiveResult`.  Finalize

* diffs the registry's counters against a snapshot taken at
  construction, yielding the *deltas this run caused* (engine events,
  runtime packets, cache hits/misses, ...) even though the underlying
  counters are process-cumulative;
* derives the canonical traffic numbers — ``packets_sent``,
  ``elems_sent``, ``links_used`` — from the executed result's
  :class:`~repro.sim.trace.LinkStats`, so the ``sim`` and ``runtime``
  backends report identical values for the same operation (the
  differential test in ``tests/obs`` pins this);
* attaches everything as ``result.metrics`` and bumps the
  ``repro_collective_runs_total`` counter.

With the registry disabled the collector is inert: ``phase`` is a
plain passthrough and ``finalize`` leaves ``result.metrics`` empty.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Iterator

from repro.obs.instruments import COLLECTIVE_PHASE_SECONDS, COLLECTIVE_RUNS
from repro.obs.log import get_logger
from repro.obs.registry import REGISTRY, MetricsRegistry

__all__ = ["RunCollector"]


class RunCollector:
    """Collects one collective run's phase timings and counter deltas."""

    def __init__(
        self,
        op: str,
        algorithm: str,
        backend: str = "sim",
        registry: MetricsRegistry | None = None,
        topology: str = "hypercube",
    ):
        self.op = op
        self.algorithm = algorithm
        self.backend = backend
        self.topology = topology
        self._registry = registry or REGISTRY
        self._active = self._registry.enabled
        self._phases: dict[str, float] = {}
        self._t0 = time.perf_counter()
        self._before = (
            self._registry.counter_values() if self._active else {}
        )
        self._log = get_logger(
            op=op, algorithm=algorithm, backend=backend, topology=topology
        )

    @property
    def active(self) -> bool:
        """False when the registry was disabled at construction."""
        return self._active

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time a named phase (schedule / sync / async / runtime)."""
        if not self._active:
            yield
            return
        t0 = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - t0
            self._phases[name] = self._phases.get(name, 0.0) + elapsed
            COLLECTIVE_PHASE_SECONDS.labels(phase=name).observe(elapsed)

    def counter_deltas(self) -> dict[str, float]:
        """Registry counter increments since construction.

        Keys are rendered ``family{label="value",...}`` (no labels →
        bare family name); only series that moved are included.
        """
        out: dict[str, float] = {}
        if not self._active:
            return out
        after = self._registry.counter_values()
        for key, value in after.items():
            delta = value - self._before.get(key, 0)
            if delta:
                name, labelvalues = key
                family = self._registry.get(name)
                labelnames = family.labelnames if family else ()
                if labelvalues:
                    inner = ",".join(
                        f'{k}="{v}"' for k, v in zip(labelnames, labelvalues)
                    )
                    out[f"{name}{{{inner}}}"] = delta
                else:
                    out[name] = delta
        return out

    def finalize(self, result: Any) -> dict[str, Any]:
        """Attach the collected metrics to ``result`` and return them."""
        if not self._active:
            return {}
        executed = result.async_ if result.async_ is not None else result.sync
        link_stats = getattr(executed, "link_stats", None)
        if link_stats is None:
            link_stats = result.sync.link_stats
        metrics: dict[str, Any] = {
            "op": self.op,
            "algorithm": self.algorithm,
            "backend": self.backend,
            "topology": self.topology,
            "wall_s": time.perf_counter() - self._t0,
            "phases": dict(self._phases),
            "packets_sent": link_stats.total_packets(),
            "elems_sent": link_stats.total_elems(),
            "links_used": link_stats.links_used(),
            "cycles": result.cycles,
            "time": result.time,
            "degraded": result.degraded,
            "undelivered_nodes": len(result.undelivered_nodes),
            "counters": self.counter_deltas(),
        }
        COLLECTIVE_RUNS.labels(
            op=self.op,
            algorithm=self.algorithm,
            backend=self.backend,
            topology=self.topology,
        ).inc()
        result.metrics = metrics
        self._log.info(
            "collective.finished",
            wall_s=round(metrics["wall_s"], 6),
            packets_sent=metrics["packets_sent"],
            elems_sent=metrics["elems_sent"],
            cycles=metrics["cycles"],
            degraded=metrics["degraded"],
        )
        return metrics
