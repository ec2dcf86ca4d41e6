"""A runtime broadcast's first round, served from its memo entry.

A broadcast served from ``runtime.cluster_programs`` runs the entry's
source-0 first round relabelled to its source: the key-sorted
schedule, its lowering and that lowering's delivery verdict.  Every
result must equal the fresh path's, which derives the programs at the
source and lowers their sends (:func:`tests.fresh.fresh_broadcast`):
fault-free, under a dead link in ``report`` and ``repair`` modes, and
traced.  A program whose ``programs`` were read runs what they say, and
a run the verdict cannot vouch for falls back to ``check_delivery``.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

import repro.collectives.api as api
from repro.runtime import build_cluster_program, run_program
from repro.runtime.execute import RuntimeResult
from repro.runtime.rules import SendRound
from repro.sim.faults import DegradedResult, FaultPlan
from repro.sim.lowering import ARRAYS, lower_schedule
from repro.sim.ports import PortModel
from repro.sim.schedule import Schedule, Transfer
from repro.topology import Hypercube
from tests.fresh import fresh_broadcast, uncached

PMS = [PortModel.ONE_PORT_HALF, PortModel.ONE_PORT_FULL, PortModel.ALL_PORT]
CASES = [("sbt", "port"), ("sbt", "packet"), ("msbt", "port")]
DIMS = [2, 3, 4, 5, 6]
#: three packets, the last one short
M, B = 17, 7

grid = pytest.mark.parametrize("pm", PMS, ids=lambda pm: pm.name)
cases = pytest.mark.parametrize("algorithm,order", CASES)
dims = pytest.mark.parametrize("n", DIMS)


def _fresh_lowering(cube, algorithm, source, pm, order):
    """``lower_schedule`` of the key-sorted round of programs derived
    directly at ``source``."""
    prog = fresh_broadcast(cube, algorithm, source, M, B, pm, order)
    sends = sorted(
        ((node, s) for node, p in prog.programs.items() for s in p.sends),
        key=lambda send: send[1].key,
    )
    sched = Schedule(
        rounds=[tuple(Transfer(node, s.dst, s.chunks) for node, s in sends)],
        chunk_sizes=prog.chunk_sizes,
    )
    initial = {node: set(p.initial) for node, p in prog.programs.items()}
    return sends, initial, sched, lower_schedule(cube, sched, initial)


def _assert_same_result(got, want):
    assert type(got) is type(want)
    assert got.time == want.time
    assert got.start_times == want.start_times
    assert got.transfers_executed == want.transfers_executed
    assert got.link_stats == want.link_stats
    assert got.holdings == want.holdings
    assert list(got.holdings) == list(want.holdings)
    assert got.fault_events == want.fault_events
    if isinstance(want, DegradedResult):
        assert got == want
        return
    assert got.per_node_stats == want.per_node_stats
    assert list(got.per_node_stats) == list(want.per_node_stats)
    assert got.repair_rounds == want.repair_rounds
    assert got.trace == want.trace


def _run_both(cube, algorithm, source, pm, order, **kwargs):
    args = (cube, "broadcast", algorithm, source, M, B, pm)
    got = run_program(cube, build_cluster_program(*args, order=order), **kwargs)
    want = run_program(
        cube, fresh_broadcast(cube, algorithm, source, M, B, pm, order),
        **kwargs,
    )
    return got, want


@grid
@cases
@dims
def test_served_lowering_equals_fresh(n, algorithm, order, pm):
    cube = Hypercube(n)
    for source in cube.nodes():
        prog = build_cluster_program(
            cube, "broadcast", algorithm, source, M, B, pm, order=order
        )
        got = prog.first_round(cube)
        assert prog._unbuilt("programs")  # served without translating them
        sends, initial, sched, want = _fresh_lowering(
            cube, algorithm, source, pm, order
        )
        for name in ARRAYS:
            a, b = getattr(got.lowering, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), (source, name)
        assert got.lowering.chunk_objects == want.chunk_objects
        assert (
            got.lowering.n_transfers, got.lowering.n_slots, got.lowering.n_links
        ) == (want.n_transfers, want.n_slots, want.n_links)
        assert got.schedule.rounds == sched.rounds
        assert got.schedule.chunk_sizes == sched.chunk_sizes
        assert got.sends == sends
        assert got.initial == initial and list(got.initial) == list(initial)
        # every node ends holding every packet, and the verdict says so
        assert got.lowering.n_fillable == cube.num_nodes * len(prog.chunk_sizes)
        assert got.lowering.delivers is True


@grid
@cases
@dims
def test_runtime_result_equals_fresh(n, algorithm, order, pm):
    cube = Hypercube(n)
    for source in cube.nodes():
        got, want = _run_both(cube, algorithm, source, pm, order)
        # one fault-free round under a verdict: nothing was read
        assert "holdings" not in vars(got)
        assert "per_node_stats" not in vars(got)
        assert got.lowering is not None
        assert want.lowering is None  # no verdict on a hand-built program
        _assert_same_result(got, want)


def _sources(cube):
    return sorted({0, 1, cube.num_nodes // 2 + 1, cube.num_nodes - 1})


@pytest.mark.parametrize("mode", ["report", "repair"])
@grid
@cases
@dims
def test_dead_link_runs_equal_fresh(n, algorithm, order, pm, mode):
    cube = Hypercube(n)
    for source in _sources(cube):
        faults = FaultPlan(dead_links=[(source, source ^ 1)])
        got, want = _run_both(
            cube, algorithm, source, pm, order, faults=faults, on_fault=mode
        )
        assert got.fault_events  # the dead link is on the first round
        _assert_same_result(got, want)


@grid
@cases
@dims
def test_traced_runs_equal_fresh(n, algorithm, order, pm):
    cube = Hypercube(n)
    for source in _sources(cube):
        got, want = _run_both(cube, algorithm, source, pm, order, trace=True)
        assert len(got.trace) == got.transfers_executed
        _assert_same_result(got, want)


class TestEditedPrograms:
    """A program whose ``programs`` were read lowers from them."""

    @pytest.mark.parametrize("source", [0, 5])
    def test_read_programs_lower_from_them(self, source):
        cube = Hypercube(4)
        args = (cube, "broadcast", "msbt", source, M, B, PortModel.ONE_PORT_FULL)
        prog = build_cluster_program(*args)
        prog.programs  # read: from now on the programs are what runs
        got = run_program(cube, prog)
        assert got.lowering is None
        _assert_same_result(got, run_program(cube, build_cluster_program(*args)))

    @pytest.mark.parametrize("source", [0, 5])
    def test_sabotaged_programs_are_honoured(self, source):
        cube = Hypercube(4)
        args = (cube, "broadcast", "sbt", source, M, B, PortModel.ONE_PORT_FULL)
        prog = build_cluster_program(*args)
        want = fresh_broadcast(
            cube, "sbt", source, M, B, PortModel.ONE_PORT_FULL, "port"
        )
        extra = replace(
            prog.programs[source].sends[0], key=(cube.dimension, 0, 0)
        )
        for p in (prog, want):
            src = p.programs[source]
            p.programs[source] = replace(src, sends=(*src.sends, extra))
        got = run_program(cube, prog)
        clean = run_program(cube, build_cluster_program(*args))
        assert got.transfers_executed == clean.transfers_executed + 1
        _assert_same_result(got, run_program(cube, want))

    def test_starved_program_still_deadlocks(self):
        cube = Hypercube(3)
        prog = build_cluster_program(
            cube, "broadcast", "sbt", 6, 4, 4, PortModel.ONE_PORT_HALF
        )
        src = prog.programs[6]
        prog.programs[6] = replace(src, sends=src.sends[1:])
        with pytest.raises(RuntimeError, match="deadlocked"):
            run_program(cube, prog)


def _runtime_broadcast(cube):
    return api.broadcast(
        cube, 9, "msbt", M, B, PortModel.ONE_PORT_FULL, backend="runtime"
    )


class TestDeliveryFallback:
    """Where the verdict cannot vouch for a run, ``check_delivery`` (or
    the runtime's own scan) decides, and names the short node."""

    ARGS = ("broadcast", "msbt", 9, M, B, PortModel.ONE_PORT_FULL)

    def test_negative_verdict_checks_the_holdings(self, monkeypatch):
        cube = Hypercube(4)
        # fill both memos, so only the call's own checks remain
        _runtime_broadcast(cube)
        prog = build_cluster_program(cube, *self.ARGS)
        monkeypatch.setattr(prog._on_read.first.lowering, "delivers", False)
        calls = []
        check = api.check_delivery

        def counted(*args):
            calls.append(args[1])
            return check(*args)

        monkeypatch.setattr(api, "check_delivery", counted)
        res = _runtime_broadcast(cube)
        assert calls == ["broadcast"]  # _require_delivery ran
        assert "holdings" in vars(res.async_)  # the runtime's scan read them
        with uncached():
            want = _runtime_broadcast(cube)
        _assert_same_result(res.async_, want.async_)

    def test_positive_verdict_skips_the_check(self, monkeypatch):
        cube = Hypercube(4)
        # fill both memos, so only the call's own checks remain
        _runtime_broadcast(cube)
        calls = []
        monkeypatch.setattr(
            api, "check_delivery", lambda *args: calls.append(args) or {}
        )
        res = _runtime_broadcast(cube)
        assert calls == []
        assert "holdings" not in vars(res.async_)

    def test_short_runtime_run_names_the_node(self):
        cube = Hypercube(4)
        prog = build_cluster_program(cube, *self.ARGS)
        served = prog.first_round(cube)
        # the last send by key feeds a leaf nothing is forwarded from
        short = SendRound.of(
            cube, served.sends[:-1], served.initial, prog.chunk_sizes
        )
        short.lowering.n_fillable = served.lowering.n_fillable
        short.lowering.delivers = True
        victim = served.sends[-1][1].dst
        prog.first_round = lambda cube: short
        starved = rf"1 nodes starved, e\.g\. \[\({victim}, "
        with pytest.raises(RuntimeError, match=starved):
            run_program(cube, prog)

    def test_short_result_fails_require_delivery(self, monkeypatch):
        cube = Hypercube(4)
        real = api.run_collective
        dropped = []

        def one_slot_short(*args, **kwargs):
            rt = real(*args, **kwargs)
            nodes, parts, senders = rt._on_read
            (slot_node, slot_chunk, chunks, tag), = parts
            dropped.append(int(slot_node[-1]))
            fields = {
                name: getattr(rt, name)
                for name in ("time", "link_stats", "start_times",
                             "transfers_executed", "fault_events",
                             "repair_rounds", "trace", "lowering")
            }
            return RuntimeResult.on_read(
                (nodes, [(slot_node[:-1], slot_chunk[:-1], chunks, tag)], senders),
                **fields,
            )

        monkeypatch.setattr(api, "run_collective", one_slot_short)
        with pytest.raises(AssertionError, match="short of 1 chunk") as err:
            _runtime_broadcast(cube)
        assert f"node {dropped[0]} " in str(err.value)
