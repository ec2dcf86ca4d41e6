"""Cache state is per-process: what pool workers see and can touch.

The sweep executor hands points to worker processes, so it matters that
``cache_stats()`` / ``clear_caches()`` act on exactly one process's
registry.  A forked worker inherits a *copy* of the parent's caches
(clearing there must not reach back); a spawned worker imports fresh
and starts empty.  Both start methods are exercised explicitly.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro import cache
from repro.collectives import collective_program
from repro.sim.ports import PortModel
from repro.topology import Hypercube

_METHODS = [
    m for m in ("fork", "spawn") if m in multiprocessing.get_all_start_methods()
]

_LRU_NAME = "lowerings"


def _generate():
    return collective_program(
        Hypercube(3), "broadcast", "sbt", 0, 32, 8, PortModel.ONE_PORT_FULL
    )


# --- probe functions (module level: picklable by reference for spawn) ---

def _probe_lru_size():
    """(pid, entries currently in the collective-call LRU)."""
    stats = cache.cache_stats()[_LRU_NAME]
    return os.getpid(), stats["size"]


def _clear_and_generate():
    """Clear this process's caches, regenerate, report the miss count."""
    cache.clear_caches()
    _generate()
    return cache.cache_stats()[_LRU_NAME]["misses"]


def _generate_and_stats():
    _generate()
    stats = cache.cache_stats()[_LRU_NAME]
    return stats["size"], stats["misses"]


@pytest.fixture(autouse=True)
def _fresh():
    cache.clear_caches()
    yield
    cache.clear_caches()


def _pool(method):
    return ProcessPoolExecutor(
        max_workers=1, mp_context=multiprocessing.get_context(method)
    )


@pytest.mark.parametrize("method", _METHODS)
def test_worker_stats_are_process_local(method):
    _generate()
    assert cache.cache_stats()[_LRU_NAME]["size"] == 1
    with _pool(method) as pool:
        pid, size = pool.submit(_probe_lru_size).result()
    assert pid != os.getpid()
    if method == "fork":
        # a forked worker inherits a snapshot of the parent's entries
        assert size == 1
    else:
        # a spawned worker imports fresh: its registry starts empty
        assert size == 0


@pytest.mark.parametrize("method", _METHODS)
def test_worker_clear_does_not_reach_parent(method):
    _generate()
    before = cache.cache_stats()[_LRU_NAME]
    assert before["size"] == 1 and before["misses"] == 1
    with _pool(method) as pool:
        worker_misses = pool.submit(_clear_and_generate).result()
    assert worker_misses == 1  # the worker really did clear + regenerate
    after = cache.cache_stats()[_LRU_NAME]
    # ...but the parent's entries and counters are untouched
    assert after["size"] == 1
    assert after["misses"] == 1
    _generate()
    assert cache.cache_stats()[_LRU_NAME]["hits"] == 1


@pytest.mark.parametrize("method", _METHODS)
def test_worker_population_does_not_reach_parent(method):
    with _pool(method) as pool:
        size, misses = pool.submit(_generate_and_stats).result()
    assert size == 1 and misses >= 1
    parent = cache.cache_stats()[_LRU_NAME]
    assert parent["size"] == 0
    assert parent["hits"] == 0 and parent["misses"] == 0


@pytest.mark.parametrize("method", _METHODS)
def test_sweep_executor_respects_start_method_default(method):
    """run_sweep's pool works regardless of the configured start method:
    per-point telemetry still reports worker-local cache counters."""
    from repro.experiments import run_sweep

    ctx_before = multiprocessing.get_start_method(allow_none=True)
    try:
        multiprocessing.set_start_method(method, force=True)
        result = run_sweep(
            _sweep_point, [{"n": 2}, {"n": 3}, {"n": 2}, {"n": 3}], jobs=2
        )
    finally:
        multiprocessing.set_start_method(ctx_before, force=True)
    assert [r[0] for r in result.values] == [2, 3, 2, 3]
    # repeated points hit the worker-local LRU somewhere in the pool
    total_hits = sum(p.lru_hits for p in result.stats.points)
    total_misses = sum(p.lru_misses for p in result.stats.points)
    assert total_misses >= 2
    assert total_hits + total_misses >= 4
    # and none of that leaked into the parent registry
    assert cache.cache_stats()[_LRU_NAME]["misses"] == 0


def _sweep_point(n):
    sched, _, _ = collective_program(
        Hypercube(n), "broadcast", "sbt", 0, 32, 8, PortModel.ONE_PORT_FULL
    )
    return (n, sched.rounds)
