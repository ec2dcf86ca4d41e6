"""Keyed LRU caches with a process-wide registry.

Every cache created through :class:`LRUCache` registers itself under a
name so callers can inspect hit rates (:func:`cache_stats`) or reset
state (:func:`clear_caches`) — important for benchmarks that want to
measure cold-path cost.  There is no switch: a caller that wants a
result built afresh calls the uncached builder behind the cache.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable

from repro.obs.instruments import CACHE_OPS

__all__ = [
    "LRUCache",
    "MISSING",
    "cache_stats",
    "clear_caches",
]

#: sentinel distinguishing "not cached" from a cached ``None``
MISSING = object()

#: every cache in the process, keyed by name
_REGISTRY: "OrderedDict[str, LRUCache]" = OrderedDict()


class LRUCache:
    """A named, bounded mapping with least-recently-used eviction.

    Args:
        name: registry name (must be unique per process; re-creating a
            cache under an existing name replaces the registry entry).
        maxsize: entries kept before the least recently used is evicted.
            ``None`` means unbounded.
    """

    def __init__(self, name: str, maxsize: int | None = 128):
        if maxsize is not None and maxsize < 1:
            raise ValueError(f"maxsize must be >= 1 or None, got {maxsize}")
        self.name = name
        self.maxsize = maxsize
        # Counters live in the observability registry (``always=True``:
        # they back the functional cache_stats() API, so they keep
        # counting while telemetry is disabled).  Re-creating a cache
        # under an existing name replaces the registry entry, so the
        # series restart at zero with it.
        self._hit = CACHE_OPS.labels(cache=name, op="hit")
        self._miss = CACHE_OPS.labels(cache=name, op="miss")
        self._evict = CACHE_OPS.labels(cache=name, op="eviction")
        for series in (self._hit, self._miss, self._evict):
            series.reset()
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        _REGISTRY[name] = self

    @property
    def hits(self) -> int:
        """Lookups served from the cache."""
        return self._hit.value

    @property
    def misses(self) -> int:
        """Lookups that fell through to generation."""
        return self._miss.value

    @property
    def evictions(self) -> int:
        """Entries dropped by the LRU bound."""
        return self._evict.value

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: Hashable) -> Any:
        """The cached value for ``key``, or :data:`MISSING`."""
        try:
            value = self._data[key]
        except KeyError:
            self._miss.inc()
            return MISSING
        self._data.move_to_end(key)
        self._hit.inc()
        return value

    def put(self, key: Hashable, value: Any) -> None:
        """Store ``key -> value``, evicting the LRU entry when full."""
        data = self._data
        if key in data:
            data.move_to_end(key)
        data[key] = value
        if self.maxsize is not None and len(data) > self.maxsize:
            data.popitem(last=False)
            self._evict.inc()

    def clear(self) -> None:
        """Drop all entries and reset the counters."""
        self._data.clear()
        self._hit.reset()
        self._miss.reset()
        self._evict.reset()

    def stats(self) -> dict[str, int | None]:
        """Counters snapshot: size, maxsize, hits, misses, evictions."""
        return {
            "size": len(self._data),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

    def __repr__(self) -> str:
        return (
            f"LRUCache({self.name!r}, size={len(self)}/{self.maxsize}, "
            f"hits={self.hits}, misses={self.misses})"
        )


def cache_stats() -> dict[str, dict[str, int | None]]:
    """Stats of every registered cache, keyed by cache name."""
    return {name: cache.stats() for name, cache in _REGISTRY.items()}


def clear_caches() -> None:
    """Clear every registered cache (entries and counters)."""
    for cache in _REGISTRY.values():
        cache.clear()
