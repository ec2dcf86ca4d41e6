"""Unit tests for the shared scatter machinery."""

import pytest

from repro.routing.common import scatter_chunks
from repro.routing.scatter_common import (
    distribute_packet,
    pieces_by_dest,
    wave_scatter_schedule,
)
from repro.sim import PortModel
from repro.topology import Hypercube
from repro.trees import BalancedSpanningTree, SpanningBinomialTree


class TestDestPieces:
    def test_ordered_pieces(self):
        sizes = scatter_chunks([5, 3], 10, 4)
        assert pieces_by_dest(sizes) == {
            5: [("m", 5, 0), ("m", 5, 1), ("m", 5, 2)],
            3: [("m", 3, 0), ("m", 3, 1), ("m", 3, 2)],
        }

    def test_missing_destination_empty(self):
        sizes = scatter_chunks([5], 10, 4)
        assert 7 not in pieces_by_dest(sizes)

    def test_matches_per_destination_scan(self):
        """Equal to filtering ``sizes`` per destination and sorting by
        piece index, whatever the key order of ``sizes``."""
        sizes = dict(reversed(scatter_chunks([6, 2, 9], 11, 3).items()))
        sizes[("x", 2, 0)] = 1  # not a message piece
        assert pieces_by_dest(sizes) == {
            d: sorted((c for c in sizes if c[0] == "m" and c[1] == d), key=lambda c: c[2])
            for d in (6, 2, 9)
        }


class TestDistributePacket:
    def test_fans_out_bfs(self, cube4):
        tree = BalancedSpanningTree(cube4, 0)
        head = tree.children_map[0][0]
        members = tree.subtree_of(head)
        sizes = scatter_chunks(list(members), 2, 2)
        chunks = set(sizes)
        transfers = distribute_packet(tree, head, chunks)
        # every member beyond the head receives its pieces
        delivered = {}
        for t in transfers:
            for c in t.chunks:
                delivered.setdefault(c[1], []).append(t.dst)
        for d in members:
            if d == head:
                assert d not in delivered or head not in delivered.get(d, [])
            else:
                assert delivered[d][-1] == d

    def test_foreign_destination_rejected(self, cube4):
        tree = BalancedSpanningTree(cube4, 0)
        head = tree.children_map[0][0]
        other_head = tree.children_map[0][-1]
        foreign = tree.subtree_of(other_head)[-1]
        sizes = scatter_chunks([foreign], 1, 1)
        with pytest.raises(ValueError, match="not below"):
            distribute_packet(tree, head, set(sizes))

    def test_empty_payload(self, cube4):
        tree = BalancedSpanningTree(cube4, 0)
        assert distribute_packet(tree, tree.children_map[0][0], set()) == []


class TestWaveSchedule:
    def test_departures_deepest_first(self, cube4):
        tree = SpanningBinomialTree(cube4, 0)
        sched = wave_scatter_schedule(tree, 1, 1000, "x")
        # the first round's root transfers carry only deepest-level data
        first = sched.rounds[0]
        root_out = [t for t in first if t.src == 0]
        assert root_out
        for t in root_out:
            for c in t.chunks:
                assert tree.level(c[1]) == tree.height

    def test_valid_under_all_port(self, cube4):
        from repro.sim.validate import assert_schedule_valid

        tree = BalancedSpanningTree(cube4, 0)
        sched = wave_scatter_schedule(tree, 3, 5, "x")
        assert_schedule_valid(cube4, sched, PortModel.ALL_PORT)
