"""The job-lowering memo behind the service and the workload layer.

:func:`repro.collectives.api.collective_lowering` serves the lowering of
a ``collective_schedule`` call from a cache.  For every schedule op,
port model and a spread of sources, the served lowering must equal a
fresh lowering of a fresh schedule column for column, dtype included;
it must be read-only (it is shared); a repeated call must be a cache
hit; and with caching off the call must lower afresh, touching no
cache.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache import cache_stats, disabled
from repro.collectives import SCHEDULE_OPS, collective_lowering, collective_schedule
from repro.sim.lowering import ARRAYS, lower_schedule
from repro.sim.ports import PortModel
from repro.topology import Hypercube

CUBE = Hypercube(3)
N = CUBE.num_nodes

#: (op, algorithm): every op at its default, plus the SBT broadcast,
#: whose lowering is translated like the MSBT one
CALLS = [(op, None) for op in SCHEDULE_OPS] + [("broadcast", "sbt")]

#: the cache a call is served from
_TRANSLATED = {
    (None, "broadcast"): "lowerings.msbt_broadcast_schedule",
    ("sbt", "broadcast"): "lowerings.sbt_broadcast_schedule",
}


def _cache_name(op: str, algorithm: str | None) -> str:
    return _TRANSLATED.get((algorithm, op), "lowerings.jobs")


def _fresh(op, algorithm, source, pm):
    with disabled():
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
        got = collective_lowering(CUBE, op, algorithm, source, 4, 2, pm)
        _assert_same(got, _fresh(op, algorithm, source, pm))
        assert all(not getattr(got, name).flags.writeable for name in ARRAYS)

    def test_second_call_is_a_hit(self, op, algorithm, source, pm):
        name = _cache_name(op, algorithm)
        first = collective_lowering(CUBE, op, algorithm, source, 4, 2, pm)
        before = cache_stats()[name]
        again = collective_lowering(CUBE, op, algorithm, source, 4, 2, pm)
        after = cache_stats()[name]
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"]
        _assert_same(again, first)
        if name == "lowerings.jobs":
            assert again is first  # one shared entry per call

    def test_disabled_lowers_afresh(self, op, algorithm, source, pm):
        name = _cache_name(op, algorithm)
        cached = collective_lowering(CUBE, op, algorithm, source, 4, 2, pm)
        before = cache_stats()[name]
        with disabled():
            got = collective_lowering(CUBE, op, algorithm, source, 4, 2, pm)
        assert cache_stats()[name] == before
        assert got is not cached
        assert got.src.flags.writeable
        _assert_same(got, _fresh(op, algorithm, source, pm))


def test_rootless_calls_share_one_entry():
    """``source`` is ignored by the rootless ops, so it is not keyed."""
    first = collective_lowering(CUBE, "alltoall", source=0, message_elems=3)
    assert collective_lowering(CUBE, "alltoall", source=5, message_elems=3) is first


def test_built_schedule_is_lowered_on_a_miss():
    """A caller that already holds the call's schedule passes it as
    ``built``: under ``disabled()`` that schedule is lowered as is."""
    sched, initial = collective_schedule(CUBE, "scatter", None, 2, 4, 2)
    with disabled():
        got = collective_lowering(CUBE, "scatter", None, 2, 4, 2, built=(sched, initial))
    _assert_same(got, lower_schedule(CUBE, sched, initial))
