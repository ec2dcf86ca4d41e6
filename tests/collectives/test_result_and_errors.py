"""Collective API error paths and CollectiveResult behaviour."""

import json

import numpy as np
import pytest

from repro.collectives import (
    all_broadcast,
    allgather,
    allreduce,
    alltoall_personalized,
    broadcast,
    collective_schedule,
    scatter,
)
from repro.collectives.result import CollectiveResult
from repro.sim import PortModel
from repro.topology import Hypercube
from repro.topology.torus import Torus


class TestErrorPaths:
    def test_bad_source_rejected(self, cube4):
        for source in (99, True, 2.0):
            with pytest.raises(ValueError):
                broadcast(cube4, source, "sbt", 4, 4)
        for source in (-1, False, 2.5):
            with pytest.raises(ValueError):
                scatter(cube4, source, "bst", 4, 4)

    def test_bad_message_sizes_rejected(self, cube4):
        with pytest.raises(ValueError):
            broadcast(cube4, 0, "sbt", 0)
        with pytest.raises(ValueError):
            scatter(cube4, 0, "bst", 4, 0)
        # the rootless ops take whole sizes too, not just sizes >= 1
        cube3 = Hypercube(3)
        for size in (2.5, float("nan"), True):
            for call in (allgather, alltoall_personalized, all_broadcast):
                with pytest.raises(ValueError, match="whole number"):
                    call(cube3, size)
            with pytest.raises(ValueError, match="whole number"):
                all_broadcast(Torus(2, 3), size)
            for topo, op, algorithm, pm in (
                (cube3, "allgather", None, PortModel.ONE_PORT_FULL),
                (cube3, "alltoall", None, PortModel.ONE_PORT_FULL),
                (cube3, "alltoall", "bst", PortModel.ALL_PORT),
                (cube3, "all_broadcast", None, PortModel.ONE_PORT_FULL),
                (Torus(2, 3), "all_broadcast", None, PortModel.ALL_PORT),
            ):
                with pytest.raises(ValueError, match="whole number"):
                    collective_schedule(
                        topo, op, algorithm, message_elems=size, port_model=pm
                    )

    def test_port_model_must_be_a_port_model(self, cube4):
        for backend in ("sim", "runtime"):
            with pytest.raises(ValueError, match="PortModel"):
                broadcast(cube4, 0, "sbt", 4, 4, "all-ports", backend=backend)
            with pytest.raises(ValueError, match="PortModel"):
                scatter(cube4, 0, "bst", 4, 4, None, backend=backend)

    def test_bad_subtree_order_rejected(self, cube4):
        with pytest.raises(ValueError, match="subtree order"):
            scatter(cube4, 0, "bst", 4, 4, subtree_order="sideways")

    def test_bad_sbt_order_rejected(self, cube4):
        from repro.routing import sbt_broadcast_schedule

        with pytest.raises(ValueError, match="SBT order"):
            sbt_broadcast_schedule(cube4, 0, 4, 4, PortModel.ALL_PORT, order="zigzag")

    def test_bad_alltoall_algorithm_rejected(self, cube4):
        from repro.collectives import alltoall_personalized

        with pytest.raises(ValueError, match="total-exchange"):
            alltoall_personalized(cube4, 1, algorithm="bogus")


class TestAllreduce:
    def test_two_phases_returned(self, cube4):
        p1, p2 = allreduce(cube4, 8, 4)
        assert isinstance(p1, CollectiveResult)
        assert isinstance(p2, CollectiveResult)
        assert p1.algorithm == "sbt-reduce"
        assert "broadcast" in p2.algorithm

    def test_total_time_is_sum(self, cube4):
        p1, p2 = allreduce(cube4, 8, 4)
        assert p1.time + p2.time > 0

    def test_broadcast_algorithm_choice(self, cube4):
        _, p2 = allreduce(cube4, 8, 4, broadcast_algorithm="msbt")
        assert p2.algorithm == "msbt-broadcast"


class TestResultProperties:
    def test_cycles_and_time_delegation(self, cube4):
        res = broadcast(cube4, 0, "msbt", 16, 4)
        assert res.cycles == res.sync.cycles
        assert res.time == res.sync.time
        res2 = broadcast(cube4, 0, "msbt", 16, 4, run_event_sim=True)
        assert res2.time == res2.async_.time

    def test_schedule_meta_preserved(self, cube4):
        res = scatter(cube4, 3, "bst", 2, 8, PortModel.ALL_PORT)
        assert res.schedule.meta["source"] == 3
        assert res.schedule.meta["port_model"] == PortModel.ALL_PORT.value

    @pytest.mark.parametrize("algorithm", ["sbt", "msbt", "bst"])
    def test_numpy_source_leaves_a_plain_int_in_meta(self, cube4, algorithm):
        call = scatter if algorithm == "bst" else broadcast
        res = call(cube4, np.int64(3), algorithm, 8, 4)
        assert type(res.schedule.meta["source"]) is int
        assert json.loads(json.dumps(res.schedule.meta))["source"] == 3
