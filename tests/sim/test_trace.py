"""Unit tests for link-traffic statistics."""

from repro.sim.trace import LinkStats
from repro.topology import DirectedEdge


class TestLinkStats:
    def test_record_and_query(self):
        s = LinkStats()
        s.record(0, 1, 10)
        s.record(0, 1, 5)
        s.record(1, 0, 3)
        assert s.elems[DirectedEdge(0, 1)] == 15
        assert s.packets[DirectedEdge(0, 1)] == 2
        assert s.elems[DirectedEdge(1, 0)] == 3
        assert s.max_edge_elems() == 15
        assert s.max_edge_packets() == 2
        assert s.total_elems() == 18

    def test_port_elems(self):
        s = LinkStats()
        s.record(0, 1, 7)   # port 0
        s.record(0, 4, 9)   # port 2
        s.record(3, 0, 100)  # inbound: not ours
        assert s.port_elems(0) == {0: 7, 2: 9}

    def test_busiest_edges(self):
        s = LinkStats()
        s.record(0, 1, 1)
        s.record(2, 3, 50)
        top = s.busiest_edges(1)
        assert top == [(DirectedEdge(2, 3), 50)]

    def test_empty(self):
        s = LinkStats()
        assert s.max_edge_elems() == 0
        assert s.max_edge_packets() == 0
        assert s.busiest_edges() == []


class TestPortsEnum:
    def test_describe_and_flags(self):
        from repro.sim import PortModel

        assert PortModel.ONE_PORT_HALF.half_duplex
        assert not PortModel.ONE_PORT_FULL.half_duplex
        for pm in PortModel:
            assert pm.describe()


class TestLinkStatsMerge:
    def test_merge_adds_counters_edgewise(self):
        a, b = LinkStats(), LinkStats()
        a.record(0, 1, 10)
        a.record(1, 0, 5)
        b.record(0, 1, 7)
        b.record(2, 3, 1)
        out = a.merge(b)
        assert out is a  # in place, chainable
        assert a.elems[DirectedEdge(0, 1)] == 17
        assert a.packets[DirectedEdge(0, 1)] == 2
        assert a.elems[DirectedEdge(1, 0)] == 5
        assert a.elems[DirectedEdge(2, 3)] == 1

    def test_merged_leaves_inputs_untouched(self):
        parts = []
        for i in range(3):
            s = LinkStats()
            s.record(0, 1, i + 1)
            parts.append(s)
        total = LinkStats.merged(parts)
        assert total.elems[DirectedEdge(0, 1)] == 6
        assert total.packets[DirectedEdge(0, 1)] == 3
        assert all(p.packets[DirectedEdge(0, 1)] == 1 for p in parts)

    def test_merge_matches_single_observer(self):
        """Splitting a record stream across workers then merging is
        identical to one global recorder."""
        records = [(0, 1, 4), (1, 3, 2), (0, 1, 4), (3, 1, 9)]
        whole = LinkStats()
        shards = [LinkStats(), LinkStats()]
        for i, (s, d, e) in enumerate(records):
            whole.record(s, d, e)
            shards[i % 2].record(s, d, e)
        merged = LinkStats.merged(shards)
        assert merged.elems == whole.elems
        assert merged.packets == whole.packets
