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
from repro.cache import clear_caches
from repro.collectives.api import BROADCAST_ALGORITHMS, SCATTER_ALGORITHMS
from repro.collectives.result import CollectiveResult
from repro.service import JobSpec
from repro.sim import PortModel
from repro.topology import Hypercube
from repro.topology.torus import Torus
from repro.workloads import PhaseSpec


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


CUBE3 = Hypercube(3)
#: (bad argument, its valid twin): equal, and hashing alike
BAD_SOURCES = [
    (False, 0), (0.0, 0), (True, 1), (1.0, 1),
    (np.True_, 1), (np.float32(1.0), 1),
]
BAD_SIZES = [(True, 1)]


def _sized_calls():
    yield from (
        (f"broadcast-{a}", lambda m, a=a: broadcast(CUBE3, 0, a, m))
        for a in BROADCAST_ALGORITHMS
    )
    yield from (
        (f"scatter-{a}", lambda m, a=a: scatter(CUBE3, 0, a, m))
        for a in SCATTER_ALGORITHMS
    )
    yield from (
        (call.__name__, lambda m, call=call: call(CUBE3, m))
        for call in (allgather, alltoall_personalized, all_broadcast)
    )
    yield "all_broadcast-torus", lambda m: all_broadcast(Torus(2, 3), m)


SIZED_CALLS = dict(_sized_calls())
ROOTED_CALLS = {
    name: call for name, call in SIZED_CALLS.items()
    if name.startswith(("broadcast", "scatter"))
}


class TestErrorsDoNotDependOnTheCache:
    """A cache hit for an equal, valid twin must not skip validation."""

    @pytest.mark.parametrize("bad,good", BAD_SIZES, ids=repr)
    @pytest.mark.parametrize("name", list(SIZED_CALLS))
    def test_bad_size_after_its_valid_twin(self, name, bad, good):
        call = SIZED_CALLS[name]
        clear_caches()
        with pytest.raises(ValueError):
            call(bad)
        call(good)
        with pytest.raises(ValueError):
            call(bad)

    @pytest.mark.parametrize("bad,good", BAD_SOURCES, ids=repr)
    @pytest.mark.parametrize("name", list(ROOTED_CALLS))
    def test_bad_source_after_its_valid_twin(self, name, bad, good):
        op, algorithm = name.split("-", 1)
        call = broadcast if op == "broadcast" else scatter
        clear_caches()
        with pytest.raises(ValueError, match="node address"):
            call(CUBE3, bad, algorithm, 4)
        call(CUBE3, good, algorithm, 4)
        with pytest.raises(ValueError, match="node address"):
            call(CUBE3, bad, algorithm, 4)


class TestSubtreeOrderCheckedEverywhere:
    @pytest.mark.parametrize("algorithm", SCATTER_ALGORITHMS)
    def test_scatter(self, algorithm):
        with pytest.raises(ValueError, match="subtree order"):
            scatter(CUBE3, 0, algorithm, 4, subtree_order="x")

    @pytest.mark.parametrize("op", ["broadcast", "scatter", "gather", "reduce"])
    def test_collective_schedule(self, op):
        with pytest.raises(ValueError, match="subtree order"):
            collective_schedule(CUBE3, op, message_elems=4, subtree_order="x")

    def test_runtime_backend(self):
        with pytest.raises(ValueError, match="subtree order"):
            scatter(CUBE3, 0, "sbt", 4, subtree_order="x", backend="runtime")

    def test_specs(self):
        with pytest.raises(ValueError, match="subtree order"):
            JobSpec("t", subtree_order="x")
        with pytest.raises(ValueError, match="subtree order"):
            PhaseSpec("p", op="scatter", subtree_order="x")


def test_node_error_names_the_topology_once():
    with pytest.raises(ValueError) as err:
        Torus(2, 3).check_node(9)
    assert str(err.value) == "node 9 outside Torus(n=2, k=3, N=9)"


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
