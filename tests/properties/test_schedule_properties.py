"""Property-based tests on schedule generation and execution.

The central invariant: any generated schedule, for any (algorithm, M,
B, source, port model) combination, passes port-model validation and
delivers complete data — these are exactly the guarantees the paper's
routing algorithms claim.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.routing import (
    bst_scatter_schedule,
    msbt_broadcast_schedule,
    sbt_broadcast_schedule,
    sbt_scatter_schedule,
)
from repro.routing.common import MSG
from repro.sim import PortModel, run_synchronous
from repro.sim import run_async
from repro.topology import Hypercube

dims = st.integers(min_value=2, max_value=5)
port_models = st.sampled_from(list(PortModel))


@st.composite
def broadcast_case(draw):
    n = draw(dims)
    source = draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    M = draw(st.integers(min_value=1, max_value=48))
    B = draw(st.integers(min_value=1, max_value=16))
    pm = draw(port_models)
    return n, source, M, B, pm


@st.composite
def scatter_case(draw):
    n = draw(dims)
    source = draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    M = draw(st.integers(min_value=1, max_value=8))
    B = draw(st.integers(min_value=1, max_value=64))
    pm = draw(port_models)
    return n, source, M, B, pm


class TestBroadcastProperties:
    @settings(max_examples=40, deadline=None)
    @given(broadcast_case(), st.sampled_from(["sbt", "msbt"]))
    def test_valid_and_complete(self, case, algo):
        n, source, M, B, pm = case
        cube = Hypercube(n)
        gen = sbt_broadcast_schedule if algo == "sbt" else msbt_broadcast_schedule
        sched = gen(cube, source, M, B, pm)
        res = run_synchronous(cube, sched, pm, {source: set(sched.chunk_sizes)})
        want = set(sched.chunk_sizes)
        for v in cube.nodes():
            assert res.holdings[v] >= want
        # conservation: total elements delivered over all chunks == M
        assert sum(sched.chunk_sizes.values()) == M

    @settings(max_examples=25, deadline=None)
    @given(broadcast_case())
    def test_async_execution_terminates_and_delivers(self, case):
        n, source, M, B, pm = case
        cube = Hypercube(n)
        sched = msbt_broadcast_schedule(cube, source, M, B, pm)
        res = run_async(cube, sched, pm, {source: set(sched.chunk_sizes)})
        want = set(sched.chunk_sizes)
        for v in cube.nodes():
            assert res.holdings[v] >= want
        assert res.time > 0


class TestScatterProperties:
    @settings(max_examples=40, deadline=None)
    @given(scatter_case(), st.sampled_from(["sbt", "bst"]))
    def test_valid_and_complete(self, case, algo):
        n, source, M, B, pm = case
        cube = Hypercube(n)
        gen = sbt_scatter_schedule if algo == "sbt" else bst_scatter_schedule
        sched = gen(cube, source, M, B, pm)
        res = run_synchronous(cube, sched, pm, {source: set(sched.chunk_sizes)})
        for v in cube.nodes():
            if v == source:
                continue
            mine = {c for c in sched.chunk_sizes if c[0] == MSG and c[1] == v}
            assert res.holdings[v] >= mine
        # conservation: each destination's chunks sum to exactly M
        for v in cube.nodes():
            if v == source:
                continue
            total = sum(
                s for c, s in sched.chunk_sizes.items() if c[1] == v
            )
            assert total == M

    @settings(max_examples=25, deadline=None)
    @given(scatter_case())
    def test_packets_respect_size_bound(self, case):
        n, source, M, B, pm = case
        cube = Hypercube(n)
        sched = bst_scatter_schedule(cube, source, M, B, pm)
        # no packet exceeds B (chunks are pre-split to <= B)
        assert sched.max_transfer_elems() <= B

    @settings(max_examples=15, deadline=None)
    @given(scatter_case())
    def test_link_traffic_conservation(self, case):
        # every message crosses each tree edge on its path exactly once:
        # total element-hops == sum over dests of M * path length
        n, source, M, B, pm = case
        cube = Hypercube(n)
        sched = sbt_scatter_schedule(cube, source, M, B, pm)
        res = run_synchronous(cube, sched, pm, {source: set(sched.chunk_sizes)})
        from repro.bits.ops import popcount

        expected = sum(
            M * popcount(v ^ source) for v in cube.nodes() if v != source
        )
        assert res.link_stats.total_elems() == expected
