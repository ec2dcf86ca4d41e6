"""Tests for schedule composition (concurrent multi-source collectives)."""

import pytest

from repro.routing import msbt_broadcast_schedule, reschedule, sbt_broadcast_schedule
from repro.sim import JobEntry, PortModel, run_synchronous
from repro.sim.schedule import Schedule, merge_schedules
from repro.topology import Hypercube


class TestMergeSchedules:
    def test_two_broadcasts_compose_and_deliver(self, cube4):
        pm = PortModel.ONE_PORT_FULL
        s0 = msbt_broadcast_schedule(cube4, 0, 8, 2, pm)
        s1 = msbt_broadcast_schedule(cube4, 15, 8, 2, pm)
        merged = merge_schedules([s0, s1])
        init = {
            0: {(0, c) for c in s0.chunk_sizes},
            15: {(1, c) for c in s1.chunk_sizes},
        }
        packed = reschedule(cube4, merged, pm, init)
        res = run_synchronous(cube4, packed, pm, init)
        for v in cube4.nodes():
            assert res.holdings[v] >= set(merged.chunk_sizes), v

    def test_concurrent_broadcasts_cheaper_than_sequential(self, cube4):
        # two sources far apart can share the cube: packed rounds are
        # fewer than the sum of the individual runs
        pm = PortModel.ONE_PORT_FULL
        s0 = sbt_broadcast_schedule(cube4, 0, 8, 2, pm)
        s1 = sbt_broadcast_schedule(cube4, 15, 8, 2, pm)
        merged = merge_schedules([s0, s1])
        init = {
            0: {(0, c) for c in s0.chunk_sizes},
            15: {(1, c) for c in s1.chunk_sizes},
        }
        packed = reschedule(cube4, merged, pm, init)
        individual = s0.compact().num_rounds + s1.compact().num_rounds
        assert packed.num_rounds < individual

    def test_chunk_tagging_prevents_aliasing(self, cube4):
        s0 = sbt_broadcast_schedule(cube4, 0, 4, 4, PortModel.ONE_PORT_FULL)
        s1 = sbt_broadcast_schedule(cube4, 3, 4, 4, PortModel.ONE_PORT_FULL)
        merged = merge_schedules([s0, s1])
        # both used ("b", 0); tagged apart they are distinct chunks
        assert (0, ("b", 0)) in merged.chunk_sizes
        assert (1, ("b", 0)) in merged.chunk_sizes

    def test_untagged_merge_keeps_chunk_ids(self, cube4):
        s0 = sbt_broadcast_schedule(cube4, 0, 4, 4, PortModel.ONE_PORT_FULL)
        merged = merge_schedules([s0], tag_chunks=False)
        assert set(merged.chunk_sizes) == set(s0.chunk_sizes)

    def test_conflicting_sizes_rejected(self, cube4):
        s0 = sbt_broadcast_schedule(cube4, 0, 4, 4, PortModel.ONE_PORT_FULL)
        s1 = sbt_broadcast_schedule(cube4, 0, 8, 8, PortModel.ONE_PORT_FULL)
        with pytest.raises(ValueError, match="conflicting"):
            merge_schedules([s0, s1], tag_chunks=False)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            merge_schedules([])


class TestJobEntry:
    @pytest.mark.parametrize(
        "release", [-1.0, float("nan"), float("inf"), float("-inf")]
    )
    def test_rejects_negative_or_non_finite_release(self, release):
        empty = Schedule(rounds=[], chunk_sizes={0: 1}, algorithm="none")
        with pytest.raises(ValueError, match="release time must be >= 0 and finite"):
            JobEntry("j", empty, {0: {0}}, release=release)

    def test_accepts_a_finite_release(self):
        empty = Schedule(rounds=[], chunk_sizes={0: 1}, algorithm="none")
        assert JobEntry("j", empty, {0: {0}}, release=2.5).release == 2.5
