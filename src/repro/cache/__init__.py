"""Caching layer: the keyed LRU every memo uses, and the statistics
all of them share.

Two memos use it.  Every collective call's schedule, initial holdings
and lowering live in one ``lowerings`` entry per call
(:func:`repro.collectives.api.collective_program`), and the runtime
keeps its source-0 broadcast programs in ``runtime.cluster_programs``
(:func:`repro.runtime.rules.build_cluster_program`); both report in
:func:`cache_stats`.  Spanning trees and schedules are built by their
constructors and generators, which keep no memo of their own.

Cached artifacts live only in process memory, so nothing is persisted
across processes, and the layer has no on/off switch: a caller that
wants a call built afresh uses the uncached builders
(:func:`repro.collectives.api.collective_schedule` and
:func:`repro.sim.lowering.lower_schedule`).
"""

from repro.cache.lru import LRUCache, MISSING, cache_stats, clear_caches

__all__ = [
    "LRUCache",
    "MISSING",
    "cache_stats",
    "clear_caches",
]
