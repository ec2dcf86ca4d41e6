"""Caching layer: keyed LRUs for spanning trees, and the switch and
statistics every LRU shares.

Parameter sweeps (the Figure 5–8 reproductions) evaluate the same
trees and collective calls at many ``(M, B, port model)`` points; the
caches make repeats cheap while keeping results bit-identical to the
uncached paths (asserted by ``tests/cache``).

Generated artifacts live only in process memory: regenerating a tree
or schedule is cheap (a new root is one O(N) relabelling of a cached
canonical tree), so nothing is persisted across processes.

:class:`LRUCache` is also used outside this package: every collective
call's schedule, initial holdings and lowering live in one
``lowerings`` entry per call
(:func:`repro.collectives.api.collective_program`), and the runtime
keeps its source-0 broadcast programs in ``runtime.cluster_programs``
(:func:`repro.runtime.rules.build_cluster_program`), under the same
switch and in the same :func:`cache_stats`.

Environment:
    ``REPRO_CACHE=0`` (or ``off``/``false``/``no``) disables the whole
    layer (read at import; re-read with ``configure(from_env=True)``).
"""

from repro.cache.lru import (
    LRUCache,
    MISSING,
    cache_stats,
    caching_enabled,
    clear_caches,
    configure,
    disabled,
)
from repro.cache.trees import cached_msbt_graph, cached_tree

__all__ = [
    "LRUCache",
    "MISSING",
    "cache_stats",
    "caching_enabled",
    "cached_msbt_graph",
    "cached_tree",
    "clear_caches",
    "configure",
    "disabled",
]
