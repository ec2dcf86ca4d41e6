"""The built-on-read contract, once for every class that uses it.

A translated schedule, a lowered lock-step result, a vectorized event
result, link stats made from arrays, a program split from a resumable
service run, one job's slice of that run, one job's service result, a
runtime broadcast served from its memo entry, its first round and its
runtime result all leave some fields unbuilt until they are read
(:class:`repro.sim.onread.OnRead`).  Read or not, each must behave like
the same object built eagerly, build each field at most once, pickle
and copy with built fields only, and reject an unknown attribute like
any other object.
"""

from __future__ import annotations

import copy
import pickle
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest

from repro.routing import msbt_broadcast_schedule
from repro.runtime import RuntimeResult, build_cluster_program, run_program
from repro.service import JobResult, JobSpec, run_service
from repro.sim import LinkStats, run_async
from repro.sim.lowering import lower_schedule
from repro.sim.machine import IPSC_D7
from repro.sim.ports import PortModel
from repro.sim.synchronous import run_synchronous
from repro.topology.hypercube import DirectedEdge, Hypercube
from tests.engine_reference import run_async_reference
from tests.fresh import fresh_broadcast
from tests.merged_oracle import run_merged, untag_holdings

CUBE = Hypercube(4)
FULL = PortModel.ONE_PORT_FULL
SPECS = [
    JobSpec(tenant="a", source=1, message_elems=12, packet_elems=4),
    JobSpec(tenant="b", op="scatter", source=6, message_elems=2, arrival=1.5),
    JobSpec(tenant="c", op="allgather", message_elems=2, arrival=4.0),
]


def _msbt(source: int):
    return msbt_broadcast_schedule(CUBE, source, 37, 8, FULL)


def _translated():
    return _msbt(0).translated(CUBE, 11)


def _generated():
    return _msbt(11)


def _lowered_run(engine):
    sched = _msbt(5)
    init = {5: set(sched.chunk_sizes)}
    low = lower_schedule(CUBE, sched, init)
    return engine(CUBE, sched, FULL, init, IPSC_D7, lowered=low)


def _edge_stats():
    return LinkStats.from_links(
        np.array([3, 0, 1], dtype=np.int32),
        np.array([1, 1, 5], dtype=np.int32),
        np.array([2, 1, 4], dtype=np.int64),
        np.array([7, 9, 20], dtype=np.int64),
    )


def _service():
    return run_service(Hypercube(3), SPECS, FULL, IPSC_D7, policy="fifo")


def _oracle():
    """The from-scratch run of the service's merged program."""
    return run_merged(Hypercube(3), _service().program.entries, FULL, IPSC_D7)


def _eager_run(engine):
    """The run of :func:`_lowered_run` on an engine that builds every
    field as it goes: the scalar lock-step loop or the reference
    event engine."""
    sched = _msbt(5)
    return engine(CUBE, sched, FULL, {5: set(sched.chunk_sizes)}, IPSC_D7)


def _eager_edge_stats():
    return LinkStats(
        elems=Counter({
            DirectedEdge(3, 1): 7, DirectedEdge(0, 1): 9, DirectedEdge(1, 5): 20,
        }),
        packets=Counter({
            DirectedEdge(3, 1): 2, DirectedEdge(0, 1): 1, DirectedEdge(1, 5): 4,
        }),
    )


def _eager_job(job_id: int) -> JobResult:
    """Job ``job_id``'s result with its holdings untagged from the
    from-scratch run of the service's merged program."""
    lazy = _service().jobs[job_id]
    raw = _oracle().raw
    kept = {
        f.name: getattr(lazy, f.name) for f in fields(JobResult)
        if f.name != "holdings"
    }
    return JobResult(**kept, holdings=untag_holdings(raw.holdings, job_id))


def _served_program():
    return build_cluster_program(CUBE, "broadcast", "msbt", 11, 37, 8, FULL)


def _fresh_program():
    return fresh_broadcast(CUBE, "msbt", 11, 37, 8, FULL, "port")


def _eager_runtime_result() -> RuntimeResult:
    """The run of a hand-built program, every field read into the
    dataclass constructor."""
    res = run_program(CUBE, _fresh_program(), IPSC_D7)
    return RuntimeResult(
        **{f.name: getattr(res, f.name) for f in fields(RuntimeResult)}
    )


#: name -> (make an unread instance, make its eager twin by another path)
CASES = {
    "Schedule": (_translated, _generated),
    "SyncResult": (
        lambda: _lowered_run(run_synchronous),
        lambda: _eager_run(run_synchronous),
    ),
    "AsyncResult": (
        lambda: _lowered_run(run_async),
        lambda: _eager_run(run_async_reference),
    ),
    "LinkStats": (_edge_stats, _eager_edge_stats),
    "MergedProgram": (lambda: _service().program, lambda: _oracle().program),
    # the oracle sums a slice's link counters transfer by transfer
    "JobSlice": (lambda: _service().view.slices[1], lambda: _oracle().slices[1]),
    "JobResult": (
        lambda: _service().jobs[0],
        lambda: _eager_job(0),
    ),
    "ClusterProgram": (_served_program, _fresh_program),
    "SendRound": (
        lambda: _served_program().first_round(CUBE),
        lambda: _fresh_program().first_round(CUBE),
    ),
    "RuntimeResult": (
        lambda: run_program(CUBE, _served_program(), IPSC_D7),
        _eager_runtime_result,
    ),
}

CLONES = {
    "pickle": lambda x: pickle.loads(pickle.dumps(x)),
    "deepcopy": copy.deepcopy,
    "copy": copy.copy,
}


def _unbuilt(obj) -> list[str]:
    return [name for name in obj._builders if obj._unbuilt(name)]


@pytest.fixture(params=list(CASES))
def case(request):
    return CASES[request.param]


def test_the_case_leaves_every_field_unbuilt(case):
    make, _ = case
    lazy = make()
    assert _unbuilt(lazy) == list(lazy._builders)
    assert "_on_read" in vars(lazy)
    eager = case[1]()
    assert _unbuilt(eager) == []
    assert "_on_read" not in vars(eager)


def test_unread_instance_equals_its_eager_twin(case):
    make, twin = case
    eager = twin()
    lazy = make()
    assert lazy == eager
    assert _unbuilt(lazy) == []
    assert "_on_read" not in vars(lazy)
    assert set(vars(lazy)) == {f.name for f in fields(lazy)}
    # the twins may list a set in another order (lock-step loop vs.
    # lowered pass), so ``repr`` is compared with the read instance
    assert repr(make()) == repr(lazy)


def test_each_builder_runs_at_most_once(case, monkeypatch):
    make, twin = case
    eager = twin()
    lazy = make()
    cls = type(lazy)
    calls: Counter = Counter()

    def counting(name, build):
        def wrapped(obj):
            calls[name] += obj is lazy
            return build(obj)
        return wrapped

    monkeypatch.setattr(cls, "_builders", {
        name: counting(name, build) for name, build in cls._builders.items()
    })
    for _ in range(2):
        for name in cls._builders:
            getattr(lazy, name)
        assert lazy == eager
        repr(lazy)
        for clone in CLONES.values():
            clone(lazy)
    assert calls and max(calls.values()) == 1


@pytest.mark.parametrize("clone", list(CLONES.values()), ids=list(CLONES))
def test_clones_hold_built_fields_only(case, clone):
    make, twin = case
    lazy = make()
    copied = clone(lazy)
    assert set(vars(copied)) == {f.name for f in fields(copied)}
    assert set(vars(lazy)) == {f.name for f in fields(lazy)}
    assert copied == twin()
    assert lazy == copied


def test_unknown_attribute_names_the_class(case):
    make, twin = case
    for obj in (make(), twin()):
        name = type(obj).__name__
        with pytest.raises(
            AttributeError,
            match=f"^'{name}' object has no attribute 'no_such_field'$",
        ):
            obj.no_such_field
    lazy = make()
    with pytest.raises(AttributeError):
        lazy._on_read_missing
    assert _unbuilt(lazy) == list(lazy._builders)
