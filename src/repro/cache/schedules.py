"""Memoization for the ``repro.routing`` schedule generators.

A schedule is a pure function of its generator arguments, so a keyed
LRU over normalized arguments makes repeated points of a parameter
sweep (same ``(n, source, algorithm, port_model, M, B, ...)``) cost a
dictionary lookup plus a shallow copy instead of a full re-generation.

Schedules are *not* reliably XOR-translation-equivariant — the
generators iterate absolute node addresses when packing rounds, so the
schedule for source ``s`` is generally not the source-0 schedule
translated (the trees are; see :mod:`repro.cache.trees`).  The source
is therefore part of the cache key.

Cached :class:`~repro.sim.schedule.Schedule` objects are never handed
out directly: every call returns a fresh ``Schedule`` whose ``rounds``
list, ``chunk_sizes`` dict and ``meta`` are copies (the ``Transfer``
tuples inside are immutable and shared), so callers may mutate the
result without corrupting the cache.
"""

from __future__ import annotations

import copy
import functools
import inspect
from typing import Any, Callable, Hashable, TypeVar

from repro.cache.lru import MISSING, LRUCache, caching_enabled
from repro.sim.faults import FaultPlan
from repro.sim.ports import PortModel
from repro.sim.schedule import Schedule
from repro.topology.base import Topology
from repro.trees.base import SpanningTree

__all__ = ["memoize_schedule"]

F = TypeVar("F", bound=Callable[..., Schedule])


def _normalize(value: Any) -> Hashable:
    """A hashable cache-key component for one generator argument."""
    if isinstance(value, Topology):
        # The full token — ("hypercube", n) vs ("torus", n, k) — so
        # different topologies at the same n can never share an entry.
        return value.cache_token()
    if isinstance(value, PortModel):
        return ("port", value.value)
    if isinstance(value, SpanningTree):
        return value.cache_token()
    if isinstance(value, FaultPlan):
        # Equal fault sets share an entry; any difference (an extra
        # dead link, a changed activation time) splits the key, so a
        # fault-free schedule is never served for a damaged cube.
        return value.cache_token()
    if isinstance(value, (list, tuple)):
        return tuple(_normalize(v) for v in value)
    if isinstance(value, (set, frozenset)):
        return ("set", tuple(sorted(_normalize(v) for v in value)))
    hash(value)  # unhashable arguments must not be silently collapsed
    return value


def _copy_schedule(sched: Schedule) -> Schedule:
    return Schedule(
        rounds=list(sched.rounds),
        chunk_sizes=dict(sched.chunk_sizes),
        algorithm=sched.algorithm,
        meta=copy.deepcopy(sched.meta),
    )


def memoize_schedule(maxsize: int | None = 256) -> Callable[[F], F]:
    """Decorator memoizing a schedule generator in a named LRU cache.

    The cache key binds the call against the generator's signature
    (defaults applied), so positional and keyword spellings of the same
    call share an entry.  The wrapped function gains a ``cache``
    attribute exposing the underlying :class:`LRUCache`.
    """

    def decorate(fn: F) -> F:
        sig = inspect.signature(fn)
        cache = LRUCache(f"schedules.{fn.__name__}", maxsize=maxsize)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not caching_enabled():
                return fn(*args, **kwargs)
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            key = tuple(
                (name, _normalize(value))
                for name, value in bound.arguments.items()
            )
            hit = cache.get(key)
            if hit is not MISSING:
                return _copy_schedule(hit)
            sched = fn(*args, **kwargs)
            cache.put(key, _copy_schedule(sched))
            return sched

        wrapper.cache = cache  # type: ignore[attr-defined]
        return wrapper  # type: ignore[return-value]

    return decorate
