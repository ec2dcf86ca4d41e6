"""Memoization for the ``repro.routing`` schedule generators.

A schedule is a pure function of its generator arguments, so a keyed
LRU over normalized arguments makes repeated points of a parameter
sweep (same ``(n, source, algorithm, port_model, M, B, ...)``) cost a
dictionary lookup plus a shallow copy instead of a full re-generation.

The hypercube is a Cayley graph, so a broadcast from source ``s`` can
be the source-0 broadcast relabelled by ``i ^ s``.  The SBT and MSBT
broadcast generators walk relative addresses ``s ^ c`` so that this
holds exactly, round order included; they are memoized with an
``equivariant`` predicate, and every fault-free call shares one
source-0 entry per ``(n, M, B, port model, order)`` that a hit
translates (:meth:`~repro.sim.schedule.Schedule.translated`, whose
rounds are built only when read).  Every other generator keeps the
source in its key: scatter schedules name their destinations in the
chunk ids and pack rounds by absolute address, the tree/HP generators
take a rooted tree, and a fault-routed schedule depends on where the
faults sit relative to the source.  Lowerings are not kept here: every
collective call's lowering comes from the one ``lowerings`` LRU of
:func:`repro.collectives.api.collective_lowering`, which translates the
same way.

Cached :class:`~repro.sim.schedule.Schedule` objects are never handed
out directly: every call returns a fresh ``Schedule`` whose ``rounds``
list, ``chunk_sizes`` dict and ``meta`` are copies (the ``Transfer``
tuples inside are immutable and shared; a translated hit builds new
ones when read), so callers may mutate the result without corrupting
the cache.
"""

from __future__ import annotations

import copy
import functools
import inspect
from typing import Any, Callable, Hashable, Mapping, TypeVar

from repro.cache.lru import MISSING, LRUCache, caching_enabled
from repro.sim.faults import FaultPlan
from repro.sim.ports import PortModel
from repro.sim.schedule import Schedule
from repro.topology.base import Topology
from repro.trees.base import SpanningTree

__all__ = ["memoize_schedule", "normalized_key"]

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
        return ("set", tuple(sorted(map(_normalize, value), key=repr)))
    hash(value)  # unhashable arguments must not be silently collapsed
    if type(value) is int:
        return value
    # any other leaf is keyed with its type: True == 1 == 1.0 == np.True_
    # hash alike, but a generator may accept one and reject another, and
    # a hit must not skip its validation
    return (type(value), value)


def normalized_key(arguments: Mapping[str, Any]) -> tuple:
    """The cache key of a call's bound ``arguments``: ``(name,
    normalized value)`` pairs in argument order."""
    return tuple((name, _normalize(value)) for name, value in arguments.items())


def _copy_schedule(sched: Schedule) -> Schedule:
    return Schedule(
        rounds=list(sched.rounds),
        chunk_sizes=dict(sched.chunk_sizes),
        algorithm=sched.algorithm,
        meta=copy.deepcopy(sched.meta),
    )


def memoize_schedule(
    maxsize: int | None = 256,
    equivariant: Callable[[Mapping[str, Any]], bool] | None = None,
) -> Callable[[F], F]:
    """Decorator memoizing a schedule generator in a named LRU cache.

    The cache key binds the call against the generator's signature
    (defaults applied), so positional and keyword spellings of the same
    call share an entry.  The wrapped function gains a ``cache``
    attribute exposing the underlying :class:`LRUCache`.

    Args:
        maxsize: LRU capacity.
        equivariant: for a broadcast generator taking ``cube`` and
            ``source``, a predicate over the bound arguments that is
            true when the call's schedule is the source-0 schedule
            translated by ``source``.  Such calls are keyed at source 0
            and served by :meth:`~repro.sim.schedule.Schedule.translated`;
            the rest keep ``source`` in the key.
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
            arguments = bound.arguments
            source = 0
            if equivariant is not None and equivariant(arguments):
                source = arguments["cube"].check_node(arguments["source"])
                arguments["source"] = 0
            key = normalized_key(arguments)
            sched = cache.get(key)
            if sched is MISSING:
                sched = fn(*bound.args, **bound.kwargs)
                cache.put(key, sched)
            if source:
                return sched.translated(arguments["cube"], source)
            return _copy_schedule(sched)

        wrapper.cache = cache  # type: ignore[attr-defined]
        return wrapper  # type: ignore[return-value]

    return decorate
