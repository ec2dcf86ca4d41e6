"""End-to-end runtime execution: delivery, determinism, result shape,
tracing, and failure surfaces."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.runtime import (
    RuntimeResult,
    build_cluster_program,
    run_collective,
    run_program,
)
from repro.sim.faults import FaultError, FaultPlan
from repro.sim.machine import MachineParams
from repro.sim.ports import PortModel
from repro.topology import Hypercube

PMS = tuple(PortModel)


class TestDelivery:
    @pytest.mark.parametrize("pm", PMS)
    @pytest.mark.parametrize("algorithm", ["sbt", "msbt"])
    def test_broadcast_reaches_every_node(self, algorithm, pm):
        cube = Hypercube(4)
        res = run_collective(cube, "broadcast", algorithm, 3, 17, 4, pm)
        chunks = set(res.holdings[3])
        assert len(chunks) == 5  # ceil(17/4)
        for v in cube.nodes():
            assert res.holdings[v] == chunks, f"node {v} incomplete"
        assert res.time > 0
        assert res.fault_events == []
        assert res.repair_rounds == 0

    @pytest.mark.parametrize("pm", PMS)
    @pytest.mark.parametrize("algorithm", ["sbt", "bst"])
    def test_scatter_delivers_each_slice(self, algorithm, pm):
        cube = Hypercube(3)
        res = run_collective(cube, "scatter", algorithm, 1, 19, 4, pm)
        # every destination ends up holding its whole slice (relay
        # nodes also keep copies of what they forwarded, as in the
        # engine's holdings semantics)
        all_chunks = set(res.holdings[1])
        for v in cube.nodes():
            if v == 1:
                continue
            slice_v = {c for c in all_chunks if c[1] == v}
            assert slice_v, f"scatter produced no chunks for node {v}"
            assert slice_v <= res.holdings[v], f"node {v} missing its slice"

    def test_smallest_cube_single_hop(self):
        cube = Hypercube(1)
        res = run_collective(
            cube, "broadcast", "sbt", 0, 4, 4, PortModel.ONE_PORT_HALF
        )
        assert res.transfers_executed == 1
        assert res.holdings[1] == res.holdings[0]


class TestResultShape:
    def test_duck_types_async_result(self):
        cube = Hypercube(3)
        res = run_collective(
            cube, "broadcast", "sbt", 0, 8, 2, PortModel.ONE_PORT_FULL
        )
        assert isinstance(res, RuntimeResult)
        assert res.transfers_executed == len(res.start_times)
        assert res.start_times == sorted(res.start_times)
        assert set(res.holdings) == set(cube.nodes())

    def test_per_node_stats_merge_to_link_stats(self):
        cube = Hypercube(4)
        res = run_collective(
            cube, "broadcast", "msbt", 0, 12, 3, PortModel.ALL_PORT
        )
        total_elems: dict = {}
        total_packets: dict = {}
        for stats in res.per_node_stats.values():
            for edge, n in stats.elems.items():
                total_elems[edge] = total_elems.get(edge, 0) + n
            for edge, n in stats.packets.items():
                total_packets[edge] = total_packets.get(edge, 0) + n
        assert dict(res.link_stats.elems) == total_elems
        assert dict(res.link_stats.packets) == total_packets
        # each node's stats hold only its own outgoing edges
        for node, stats in res.per_node_stats.items():
            assert all(edge.src == node for edge in stats.elems)

    def test_determinism_across_runs(self):
        cube = Hypercube(4)
        args = (cube, "scatter", "sbt", 5, 23, 4, PortModel.ONE_PORT_HALF)
        a = run_collective(*args, trace=True)
        b = run_collective(*args, trace=True)
        assert a.time == b.time
        assert a.start_times == b.start_times
        assert a.holdings == b.holdings
        assert list(a.trace) == list(b.trace)


class TestTracing:
    def test_trace_records_every_transfer(self, tmp_path):
        cube = Hypercube(3)
        res = run_collective(
            cube, "broadcast", "sbt", 0, 10, 4,
            PortModel.ONE_PORT_FULL, trace=True,
        )
        transfers = res.trace.transfers()
        assert len(transfers) == res.transfers_executed
        assert sorted(e.time for e in transfers) == res.start_times
        for e in transfers:
            assert e.end > e.time
            assert cube.port_towards(e.src, e.dst) == e.port

    def test_jsonl_and_chrome_exports(self, tmp_path):
        cube = Hypercube(3)
        res = run_collective(
            cube, "broadcast", "sbt", 0, 6, 2,
            PortModel.ALL_PORT, trace=True,
        )
        jl = tmp_path / "trace.jsonl"
        res.trace.write_jsonl(jl)
        lines = jl.read_text().strip().splitlines()
        assert len(lines) == len(res.trace)
        for line in lines:
            rec = json.loads(line)
            assert rec["kind"] == "transfer"
            assert rec["end"] > rec["time"]
        ch = tmp_path / "trace.json"
        res.trace.write_chrome(ch)
        doc = json.loads(ch.read_text())
        evs = doc["traceEvents"]
        assert len(evs) == len(res.trace)
        assert all(e["ph"] == "X" and e["dur"] > 0 for e in evs)

    def test_trace_off_by_default(self):
        cube = Hypercube(2)
        res = run_collective(
            cube, "broadcast", "sbt", 0, 2, 2, PortModel.ONE_PORT_HALF
        )
        assert res.trace is None


class TestMachines:
    def test_machine_params_scale_time(self):
        cube = Hypercube(3)
        unit = run_collective(
            cube, "broadcast", "sbt", 0, 4, 4, PortModel.ONE_PORT_HALF
        )
        slow = run_collective(
            cube, "broadcast", "sbt", 0, 4, 4, PortModel.ONE_PORT_HALF,
            machine=MachineParams(tau=3.0, t_c=2.0),
        )
        assert slow.time > unit.time
        assert slow.transfers_executed == unit.transfers_executed


class TestFailureSurfaces:
    def test_deadlocked_program_raises(self):
        cube = Hypercube(3)
        program = build_cluster_program(
            cube, "broadcast", "sbt", 0, 4, 4, PortModel.ONE_PORT_HALF
        )
        # sabotage: drop the source's first send; its subtree starves
        src_prog = program.programs[0]
        program.programs[0] = replace(src_prog, sends=src_prog.sends[1:])
        with pytest.raises(RuntimeError, match="deadlocked"):
            run_program(cube, program)

    def test_handler_exception_propagates(self):
        cube = Hypercube(3)
        program = build_cluster_program(
            cube, "broadcast", "sbt", 0, 8, 4, PortModel.ONE_PORT_HALF
        )
        # sabotage: relay 1's first send also carries a chunk that is
        # missing from chunk_sizes, so pricing it raises and the error
        # must reach the caller instead of being swallowed
        bogus = ("b", 99)
        relay = program.programs[1]
        first, *rest = relay.sends
        bad = replace(first, chunks=first.chunks | {bogus})
        program.programs[1] = replace(
            relay, sends=(bad, *rest), initial=relay.initial | {bogus}
        )
        with pytest.raises(KeyError):
            run_program(cube, program)

    def test_fault_with_raise_mode_raises(self):
        cube = Hypercube(3)
        with pytest.raises(FaultError, match="dead"):
            run_collective(
                cube, "broadcast", "sbt", 0, 4, 4,
                PortModel.ONE_PORT_HALF,
                faults=FaultPlan(dead_links=[(0, 1)]),
                on_fault="raise",
            )

    def test_bad_fault_mode_rejected(self):
        cube = Hypercube(2)
        with pytest.raises(ValueError, match="on_fault"):
            run_collective(
                cube, "broadcast", "sbt", 0, 2, 2,
                PortModel.ONE_PORT_HALF, on_fault="ignore",
            )

    @pytest.mark.parametrize(
        "M,B",
        [(8.5, 4), (-1, 4), (0, 4), (8, 0), (8, 2.5), (float("nan"), 4),
         (8, float("inf")), (True, 4), (8, True)],
    )
    @pytest.mark.parametrize("op,algorithm", [("broadcast", "sbt"),
                                              ("scatter", "bst")])
    def test_bad_sizes_rejected(self, op, algorithm, M, B):
        with pytest.raises(ValueError, match="size"):
            run_collective(
                Hypercube(3), op, algorithm, 0, M, B,
                PortModel.ONE_PORT_FULL,
            )

    @pytest.mark.parametrize(
        "timeout", [float("nan"), float("inf"), -1.0, True, False]
    )
    def test_bad_detect_timeout_rejected(self, timeout):
        faults = FaultPlan(dead_links=[(0, 1)])
        with pytest.raises(ValueError, match="detect_timeout"):
            run_collective(
                Hypercube(3), "broadcast", "sbt", 0, 4, 4,
                PortModel.ONE_PORT_FULL,
                faults=faults, on_fault="repair", detect_timeout=timeout,
            )
        program = build_cluster_program(
            Hypercube(3), "broadcast", "sbt", 0, 4, 4,
            PortModel.ONE_PORT_FULL,
        )
        with pytest.raises(ValueError, match="detect_timeout"):
            run_program(
                Hypercube(3), program, faults=faults, on_fault="repair",
                detect_timeout=timeout,
            )
