"""Unit tests for the keyed LRU primitive and the cache registry."""

from __future__ import annotations

import importlib
import pkgutil

from repro.cache import LRUCache, MISSING, cache_stats, clear_caches


def test_get_put_and_missing_sentinel():
    c = LRUCache("test.basic", maxsize=4)
    assert c.get("k") is MISSING
    c.put("k", 42)
    assert c.get("k") == 42
    assert c.get("other") is MISSING
    # None is a legal cached value, distinct from a miss
    c.put("none", None)
    assert c.get("none") is None


def test_lru_eviction_order():
    c = LRUCache("test.evict", maxsize=2)
    c.put("a", 1)
    c.put("b", 2)
    assert c.get("a") == 1  # refresh a; b is now least recent
    c.put("c", 3)
    assert c.get("b") is MISSING
    assert c.get("a") == 1
    assert c.get("c") == 3
    assert len(c) == 2


def test_unbounded_cache():
    c = LRUCache("test.unbounded", maxsize=None)
    for i in range(1000):
        c.put(i, i)
    assert len(c) == 1000
    assert c.get(0) == 0


def test_stats_and_registry():
    c = LRUCache("test.stats", maxsize=8)
    c.get("miss")
    c.put("k", 1)
    c.get("k")
    stats = c.stats()
    assert stats["hits"] == 1
    assert stats["misses"] == 1
    assert stats["size"] == 1
    assert cache_stats()["test.stats"]["hits"] == 1


def test_clear():
    c = LRUCache("test.clear", maxsize=8)
    c.put("k", 1)
    c.clear()
    assert c.get("k") is MISSING
    assert len(c) == 0


def test_clear_caches_empties_registered_caches():
    c = LRUCache("test.clearall", maxsize=8)
    c.put("k", 1)
    clear_caches()
    assert len(c) == 0


def test_the_library_keeps_exactly_two_memos():
    """A collective call goes through the one ``lowerings`` memo and a
    runtime broadcast through ``runtime.cluster_programs``; trees and
    schedules come from their builders, with no memo of their own."""
    import repro

    for mod in pkgutil.walk_packages(repro.__path__, "repro."):
        if not mod.name.endswith("__main__"):
            importlib.import_module(mod.name)
    names = {name for name in cache_stats() if not name.startswith("test.")}
    assert names == {"lowerings", "runtime.cluster_programs"}
