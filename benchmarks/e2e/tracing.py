"""Per-layer spans recorded from outside the library, for ``--trace``.

:class:`Tracer` replaces public functions at the module attributes their
callers look them up through (for example ``execute_program`` as
``repro.service.scheduler`` sees it) with wrappers that record one span
per call: ``[layer, detail, start, end, parent, op, count]``.  A call
made inside a span of the same layer is folded into that span, so a
layer's spans never nest.  ``count`` is the work the call reports:
transfers for an engine run, rows for a lowering, packets for a runtime
run.  Spans stay in memory until :meth:`Tracer.write`.

A layer's self time is its spans' time minus the time of their child
spans; the ``bench`` layer is the span the harness opens around each op,
so the self times of all layers add up to the traced op wall time.
"""

from __future__ import annotations

import importlib
import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator

__all__ = ["LAYERS", "Tracer", "layer_metrics", "self_times"]

#: every span layer, in the order LAYERS.md lists them
LAYERS = (
    "bench", "collectives", "routing", "sim.synchronous", "sim.lowering",
    "sim.multi", "sim.engine", "service.exec", "service.scheduler",
    "workloads.exec", "runtime",
)

#: the two admission loops that call ``execute_program``
_LOOPS = ("service.scheduler", "workloads.exec")

SPAN_FIELDS = ("layer", "detail", "start", "end", "parent", "op", "count")


def _transfers(result: Any) -> int:
    return result.transfers_executed


def _rows(lowered: Any) -> int:
    return lowered.n_transfers


def _packets(result: Any) -> int:
    return sum(result.link_stats.packets.values())


def _view_transfers(view: Any) -> int:
    return view.raw.transfers_executed


#: (module, attribute, layer, count) of every wrapped call site
_TARGETS: tuple[tuple[str, str, str, Callable[[Any], int] | None], ...] = (
    ("repro.collectives.api", "broadcast", "collectives", None),
    ("repro.collectives.api", "scatter", "collectives", None),
    ("repro.collectives.api", "collective_schedule", "routing", None),
    ("repro.service.scheduler", "collective_schedule", "routing", None),
    ("repro.collectives.api", "run_synchronous", "sim.synchronous", None),
    ("repro.collectives.api", "run_collective", "runtime", _packets),
    ("repro.service.exec", "lower_schedule", "sim.lowering", _rows),
    ("repro.sim.vectorized", "lower_schedule", "sim.lowering", _rows),
    ("repro.service.exec", "run_async_vectorized", "sim.engine", _transfers),
    ("repro.service.scheduler", "merge_programs", "sim.multi", None),
    ("repro.workloads.exec", "merge_programs", "sim.multi", None),
    ("repro.service.scheduler", "execute_program", "service.exec", _view_transfers),
    ("repro.workloads.exec", "execute_program", "service.exec", _view_transfers),
    ("repro.service", "run_service", "service.scheduler", None),
    ("repro.workloads", "run_workload", "workloads.exec", None),
)


def _targets() -> list[tuple[str, str, str, Callable[[Any], int] | None]]:
    """The static call sites plus every schedule generator the collective
    API imported from ``repro.routing``."""
    api = importlib.import_module("repro.collectives.api")
    routing = [
        ("repro.collectives.api", name, "routing", None)
        for name, obj in sorted(vars(api).items())
        if callable(obj) and getattr(obj, "__module__", "").startswith("repro.routing")
    ]
    return [*_TARGETS, *routing]


def _lru_counts() -> tuple[int, int]:
    """Hits and misses summed over the in-memory LRU caches."""
    from repro.cache import cache_stats

    hits = misses = 0
    for name, stats in cache_stats().items():
        if not name.startswith("cache.disk."):
            hits += stats["hits"]
            misses += stats["misses"]
    return hits, misses


class Tracer:
    """Installs span-recording wrappers and keeps the spans they record."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.lru_hits = 0
        self.lru_misses = 0
        self._op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []
        self._lru_before = (0, 0)

    def install(self) -> None:
        """Wrap every target attribute; :meth:`uninstall` restores them."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        from repro.sim.dispatch import resolve_engine

        for module, attr, layer, count in _targets():
            mod = importlib.import_module(module)
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self._wrap(original, layer, attr, count))

        api = importlib.import_module("repro.collectives.api")
        get_engine = api.get_engine

        def traced_get_engine(engine: str | None = None) -> Callable[..., Any]:
            return self._wrap(
                get_engine(engine), "sim.engine", resolve_engine(engine), _transfers
            )

        self._saved.append((api, "get_engine", get_engine))
        api.get_engine = traced_get_engine
        self._lru_before = _lru_counts()

    def uninstall(self) -> None:
        """Restore every wrapped attribute to the object it held before."""
        hits, misses = _lru_counts()
        self.lru_hits += hits - self._lru_before[0]
        self.lru_misses += misses - self._lru_before[1]
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def _open(self, layer: str, detail: str) -> int:
        stack = self._stack
        parent = stack[-1] if stack else -1
        if parent >= 0 and self.spans[parent][0] == layer:
            return -1
        idx = len(self.spans)
        self.spans.append([layer, detail, perf_counter(), 0.0, parent, self._op, 0])
        stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][3] = perf_counter()
        self._stack.pop()

    def _wrap(
        self,
        fn: Callable[..., Any],
        layer: str,
        detail: str,
        count: Callable[[Any], int] | None,
    ) -> Callable[..., Any]:
        def traced(*args: Any, **kwargs: Any) -> Any:
            idx = self._open(layer, detail)
            if idx < 0:
                return fn(*args, **kwargs)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                self.spans[idx][6] = count(result)
            return result

        return traced

    @contextmanager
    def op_span(self, op: int) -> Iterator[None]:
        """The ``bench`` span around op ``op``; spans inside carry its id."""
        self._op = op
        idx = self._open("bench", "op")
        try:
            yield
        finally:
            self._close(idx)

    def write(self, path: Path, **meta: Any) -> None:
        """Write the spans (and ``meta``) as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {**meta, "fields": SPAN_FIELDS, "spans": self.spans}
        path.write_text(json.dumps(doc))


def _totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per layer: calls, busy (inclusive) seconds, self seconds, count."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[4] >= 0:
            child[s[4]] += s[3] - s[2]
    totals: dict[str, dict[str, float]] = {}
    for i, s in enumerate(spans):
        t = totals.setdefault(s[0], {"calls": 0, "busy": 0.0, "self": 0.0, "count": 0})
        d = s[3] - s[2]
        t["calls"] += 1
        t["busy"] += d
        t["self"] += d - child[i]
        t["count"] += s[6]
    return totals


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _admission_loops(spans: list[list], ops: int) -> dict[str, tuple[float, float]]:
    """Per admission loop: re-simulations per op, and simulation
    efficiency — the transfers of each op's final ``execute_program``
    call over the transfers of all its calls."""
    runs: dict[tuple[str, int], list[int]] = {}
    for s in spans:
        if s[0] != "service.exec":
            continue
        p = s[4]
        while p >= 0 and spans[p][0] not in _LOOPS:
            p = spans[p][4]
        if p >= 0:
            runs.setdefault((spans[p][0], s[5]), []).append(s[6])
    out = {}
    for loop in _LOOPS:
        mine = [v for (name, _), v in runs.items() if name == loop]
        out[loop] = (
            _ratio(sum(len(v) for v in mine), ops),
            _ratio(sum(v[-1] for v in mine), sum(sum(v) for v in mine)),
        )
    return out


def self_times(spans: list[list], ops: int) -> dict[str, float]:
    """Self seconds per op of every layer (0 for layers with no spans)."""
    totals = _totals(spans)
    return {layer: _ratio(totals.get(layer, {}).get("self", 0.0), ops) for layer in LAYERS}


def layer_metrics(tracer: Tracer, ops: int, overhead: float) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of a traced run of ``ops`` ops, by name:
    ``(value, unit)``.  Counts and times are per op."""
    t = _totals(tracer.spans)

    def per_op(layer: str, key: str) -> float:
        return _ratio(t.get(layer, {}).get(key, 0), ops)

    loops = _admission_loops(tracer.spans, ops)
    engine = t.get("sim.engine", {})
    hits, misses = tracer.lru_hits, tracer.lru_misses
    return {
        "collectives.calls": (per_op("collectives", "calls"), "1/op"),
        "collectives.self_s": (per_op("collectives", "self"), "s/op"),
        "routing.calls": (per_op("routing", "calls"), "1/op"),
        "routing.busy_s": (per_op("routing", "busy"), "s/op"),
        "cache.lru_hits": (_ratio(hits, ops), "1/op"),
        "cache.lru_misses": (_ratio(misses, ops), "1/op"),
        "cache.hit_ratio": (_ratio(hits, hits + misses), "ratio"),
        "sim.synchronous.calls": (per_op("sim.synchronous", "calls"), "1/op"),
        "sim.synchronous.busy_s": (per_op("sim.synchronous", "busy"), "s/op"),
        "sim.lowering.calls": (per_op("sim.lowering", "calls"), "1/op"),
        "sim.lowering.busy_s": (per_op("sim.lowering", "busy"), "s/op"),
        "sim.lowering.rows": (per_op("sim.lowering", "count"), "1/op"),
        "sim.multi.calls": (per_op("sim.multi", "calls"), "1/op"),
        "sim.multi.busy_s": (per_op("sim.multi", "busy"), "s/op"),
        "sim.engine.calls": (per_op("sim.engine", "calls"), "1/op"),
        "sim.engine.busy_s": (per_op("sim.engine", "busy"), "s/op"),
        "sim.engine.transfers": (per_op("sim.engine", "count"), "1/op"),
        "sim.engine.transfers_per_s": (
            _ratio(engine.get("count", 0), engine.get("busy", 0.0)), "1/s"
        ),
        "service.exec.calls": (per_op("service.exec", "calls"), "1/op"),
        "service.exec.self_s": (per_op("service.exec", "self"), "s/op"),
        "service.scheduler.self_s": (per_op("service.scheduler", "self"), "s/op"),
        "service.scheduler.resims_per_op": (loops["service.scheduler"][0], "1/op"),
        "service.scheduler.sim_efficiency": (loops["service.scheduler"][1], "ratio"),
        "workloads.exec.self_s": (per_op("workloads.exec", "self"), "s/op"),
        "workloads.exec.resims_per_op": (loops["workloads.exec"][0], "1/op"),
        "workloads.exec.sim_efficiency": (loops["workloads.exec"][1], "ratio"),
        "runtime.calls": (per_op("runtime", "calls"), "1/op"),
        "runtime.busy_s": (per_op("runtime", "busy"), "s/op"),
        "runtime.packets": (per_op("runtime", "count"), "1/op"),
        "trace.overhead": (overhead, "ratio"),
    }
