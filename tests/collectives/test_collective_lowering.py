"""The one memo behind every collective call.

:func:`repro.collectives.api.collective_program` serves the lowering of
a ``collective_schedule`` call from the ``lowerings`` LRU, to the public
collectives, service jobs and workload phases alike.  For every
schedule op, port model and a spread of sources, the served lowering
must equal a fresh lowering of a fresh schedule column for column,
dtype included; it must be read-only (it is shared) and carry its
lock-step verdict; and a repeated call must be a cache hit.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.sim.synchronous as synchronous
import repro.collectives.api as api
from repro.cache import cache_stats, clear_caches
from repro.collectives import (
    SCHEDULE_OPS,
    broadcast,
    collective_program,
    collective_schedule,
    scatter,
)
from repro.service import CollectiveService, JobSpec
from repro.sim.lowering import ARRAYS, lower_schedule
from repro.sim.ports import PortModel
from repro.sim.synchronous import run_synchronous
from repro.topology import Hypercube
from tests.fresh import uncached

CUBE = Hypercube(3)
N = CUBE.num_nodes

#: (op, algorithm): every op at its default, plus the SBT broadcast,
#: whose lowering is translated like the MSBT one
CALLS = [(op, None) for op in SCHEDULE_OPS] + [("broadcast", "sbt")]

#: the one cache every call is served from
CACHE = "lowerings"

#: calls served as the source-0 entry translated
_TRANSLATED = {("broadcast", None), ("broadcast", "sbt")}


def _lowering(*args, **kwargs):
    """The lowering ``collective_program`` serves for a call."""
    return collective_program(*args, **kwargs)[2]


def _fresh(op, algorithm, source, pm):
    sched, initial = collective_schedule(CUBE, op, algorithm, source, 4, 2, pm)
    return lower_schedule(CUBE, sched, initial)


def _assert_same(got, want) -> None:
    assert got.n_transfers == want.n_transfers
    assert got.n_slots == want.n_slots
    assert got.n_links == want.n_links
    assert got.chunk_objects == want.chunk_objects
    for name in ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name


@pytest.mark.parametrize("source", [0, 1, N - 1])
@pytest.mark.parametrize("pm", list(PortModel))
@pytest.mark.parametrize("op,algorithm", CALLS)
class TestCollectiveLowering:
    def test_served_lowering_equals_a_fresh_one(self, op, algorithm, source, pm):
        got = _lowering(CUBE, op, algorithm, source, 4, 2, pm)
        _assert_same(got, _fresh(op, algorithm, source, pm))
        assert all(not getattr(got, name).flags.writeable for name in ARRAYS)

    def test_second_call_is_a_hit(self, op, algorithm, source, pm):
        first = _lowering(CUBE, op, algorithm, source, 4, 2, pm)
        before = cache_stats()[CACHE]
        again = _lowering(CUBE, op, algorithm, source, 4, 2, pm)
        after = cache_stats()[CACHE]
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"]
        _assert_same(again, first)
        if source == 0 or (op, algorithm) not in _TRANSLATED:
            assert again is first  # one shared entry per call


def test_rootless_calls_share_one_entry():
    """``source`` is ignored by the rootless ops, so it is not keyed."""
    first = _lowering(CUBE, "alltoall", source=0, message_elems=3)
    assert _lowering(CUBE, "alltoall", source=5, message_elems=3) is first


def test_built_schedule_is_lowered_on_a_miss(monkeypatch):
    """A caller that already holds the call's schedule passes it as
    ``built``: a miss lowers that schedule as is, building none."""
    clear_caches()
    sched, initial = collective_schedule(CUBE, "scatter", None, 2, 4, 2)
    monkeypatch.setattr(api, "collective_schedule", None)  # never called
    got = _lowering(CUBE, "scatter", None, 2, 4, 2, built=(sched, initial))
    assert cache_stats()[CACHE]["misses"] == 1
    _assert_same(got, lower_schedule(CUBE, sched, initial))


def _entries() -> tuple[int, int, int]:
    stats = cache_stats()[CACHE]
    return stats["misses"], stats["hits"], stats["size"]


@pytest.mark.parametrize("op,algorithm,source", [
    ("broadcast", "msbt", 5),
    ("broadcast", "sbt", 0),
    ("scatter", "bst", 6),
    ("scatter", "sbt", 3),
])
def test_public_call_and_service_job_share_one_entry(op, algorithm, source):
    """A public collective fills the entry a service job of the same call
    then hits, so the service adds no lowering miss."""
    clear_caches()
    cube, pm = Hypercube(4), PortModel.ONE_PORT_HALF
    call = broadcast if op == "broadcast" else scatter
    call(cube, source, algorithm, 12, 4, pm, run_event_sim=True)
    misses, hits, size = _entries()
    assert (misses, size) == (1, 1)
    service = CollectiveService(cube, pm)
    service.submit(JobSpec("t", op, algorithm, source, 12, 4))
    (job,) = service.run().jobs
    assert job.accepted and not job.degraded and not job.undelivered
    assert _entries() == (misses, hits + 1, size)
    served = _lowering(cube, op, algorithm, source, 12, 4, pm)
    assert _entries() == (misses, hits + 2, size)
    sched, initial = collective_schedule(cube, op, algorithm, source, 12, 4, pm)
    _assert_same(served, lower_schedule(cube, sched, initial))


@pytest.mark.parametrize("op,algorithm,source", [
    ("broadcast", "msbt", 6),
    ("broadcast", "sbt", 0),
    ("scatter", "bst", 2),
    ("alltoall", None, 0),
])
def test_a_hit_carries_its_verdict(op, algorithm, source, monkeypatch):
    """An entry is checked once, when it is filled; the lock-step run of
    a hit only prices it, as it does the uncached lowering after its
    own check."""
    pm = PortModel.ALL_PORT
    _lowering(CUBE, op, algorithm, source, 4, 2, pm)
    calls = []
    check = synchronous.lowered_constraints_hold
    monkeypatch.setattr(
        synchronous, "lowered_constraints_hold",
        lambda *a: calls.append(a) or check(*a),
    )
    hit = _lowering(CUBE, op, algorithm, source, 4, 2, pm)
    assert hit.checked_under is pm
    sched, initial = collective_schedule(CUBE, op, algorithm, source, 4, 2, pm)
    warm = run_synchronous(CUBE, sched, pm, initial, lowered=hit)
    assert calls == []
    fresh = lower_schedule(CUBE, sched, initial)
    assert fresh.checked_under is None
    cold = run_synchronous(CUBE, sched, pm, initial, lowered=fresh)
    assert len(calls) == 1
    assert (warm.time, warm.cycles, warm.holdings) == (cold.time, cold.cycles, cold.holdings)


@pytest.mark.parametrize("op,algorithm", [
    ("broadcast", "sbt"), ("broadcast", "msbt"), ("scatter", "bst"),
])
def test_bad_arguments_raise_after_their_twin_is_cached(op, algorithm):
    """A cached entry never skips validation: a source or size that only
    hashes like a cached one is rejected, not served."""
    for source in (0, 1):
        _lowering(CUBE, op, algorithm, source, 4, 2)
    _lowering(CUBE, op, algorithm, 0, 1)
    for bad in (False, 0.0, True, np.True_):
        with pytest.raises(ValueError, match="node address"):
            _lowering(CUBE, op, algorithm, bad, 4, 2)
    with pytest.raises(ValueError, match="message size"):
        _lowering(CUBE, op, algorithm, 0, True)


@pytest.mark.parametrize("first,second", [
    ("depth_first", "reversed_breadth_first"),
    ("reversed_breadth_first", "depth_first"),
])
def test_subtree_order_is_part_of_the_key(first, second):
    """A BST scatter's lowering depends on its subtree order (128 against
    124 cycles here), so a public call in one order is never served the
    lowering the other order cached."""
    cube, pm = Hypercube(5), PortModel.ONE_PORT_HALF
    scatter(cube, 3, "bst", 4, 1, pm, subtree_order=first)
    warm = scatter(cube, 3, "bst", 4, 1, pm, run_event_sim=True, subtree_order=second)
    with uncached():
        cold = scatter(cube, 3, "bst", 4, 1, pm, run_event_sim=True, subtree_order=second)
    assert (warm.cycles, warm.sync.time, warm.time) == (cold.cycles, cold.sync.time, cold.time)
