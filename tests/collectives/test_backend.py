"""The ``backend="runtime"`` switch on the collective API."""

from __future__ import annotations

import pytest

from repro.collectives import BACKENDS, broadcast, scatter
from repro.runtime import RuntimeResult
from repro.sim.faults import FaultPlan
from repro.sim.ports import PortModel
from repro.topology import Hypercube


class TestRuntimeBackend:
    def test_backends_constant(self):
        assert BACKENDS == ("sim", "runtime")

    @pytest.mark.parametrize("pm", list(PortModel))
    @pytest.mark.parametrize("algorithm", ["sbt", "msbt"])
    def test_broadcast_times_match_event_engine(self, cube4, algorithm, pm):
        sim = broadcast(
            cube4, 0, algorithm, 17, 4, pm, run_event_sim=True
        )
        rt = broadcast(cube4, 0, algorithm, 17, 4, pm, backend="runtime")
        assert isinstance(rt.async_, RuntimeResult)
        assert rt.time == sim.time
        assert rt.cycles == sim.cycles
        assert rt.async_.holdings == sim.async_.holdings

    @pytest.mark.parametrize("algorithm", ["sbt", "bst"])
    def test_scatter_times_match_event_engine(self, cube4, algorithm):
        pm = PortModel.ONE_PORT_FULL
        sim = scatter(cube4, 3, algorithm, 9, 4, pm, run_event_sim=True)
        rt = scatter(cube4, 3, algorithm, 9, 4, pm, backend="runtime")
        assert rt.time == sim.time
        assert rt.async_.holdings == sim.async_.holdings

    def test_trace_lands_on_result(self, cube4):
        rt = broadcast(
            cube4, 0, "sbt", 8, 4, backend="runtime", trace=True
        )
        assert rt.async_.trace is not None
        assert len(rt.async_.trace.transfers()) == rt.async_.transfers_executed

    def test_repair_mode_completes_under_faults(self, cube4):
        rt = broadcast(
            cube4, 0, "sbt", 8, 4,
            backend="runtime",
            faults=FaultPlan(dead_links=[(0, 1)]),
            on_fault="repair",
        )
        assert isinstance(rt.async_, RuntimeResult)
        assert rt.async_.repair_rounds >= 1
        assert rt.undelivered_nodes == frozenset()
        want = set(rt.schedule.chunk_sizes)
        assert all(
            rt.async_.holdings[v] == want for v in cube4.nodes()
        )

    def test_unsupported_algorithm_rejected(self, cube4):
        with pytest.raises(ValueError, match="runtime backend"):
            broadcast(cube4, 0, "tcbt", 4, 2, backend="runtime")
        with pytest.raises(ValueError, match="runtime backend"):
            scatter(cube4, 0, "tcbt", 4, 2, backend="runtime")

    def test_unknown_backend_rejected(self, cube4):
        with pytest.raises(ValueError, match="backend"):
            broadcast(cube4, 0, "sbt", 4, 2, backend="mpi")
        with pytest.raises(ValueError, match="backend"):
            scatter(cube4, 0, "sbt", 4, 2, backend="mpi")
