"""Unit tests for the chunking helpers shared by the generators."""

import numpy as np
import pytest

from repro.collectives import broadcast, scatter
from repro.routing.common import broadcast_chunks, scatter_chunks, validate_message_args
from repro.topology import Hypercube


class TestBroadcastChunks:
    def test_even_split(self):
        sizes = broadcast_chunks(12, 4)
        assert sizes == {("b", 0): 4, ("b", 1): 4, ("b", 2): 4}

    def test_ragged_tail(self):
        sizes = broadcast_chunks(10, 4)
        assert sizes[("b", 2)] == 2
        assert sum(sizes.values()) == 10

    def test_single_packet(self):
        sizes = broadcast_chunks(5, 100)
        assert sizes == {("b", 0): 5}

    def test_bad_args(self):
        with pytest.raises(ValueError):
            broadcast_chunks(0, 1)
        with pytest.raises(ValueError):
            broadcast_chunks(1, 0)


class TestScatterChunks:
    def test_per_destination_pieces(self):
        sizes = scatter_chunks([3, 5], 6, 4)
        assert sizes[("m", 3, 0)] == 4 and sizes[("m", 3, 1)] == 2
        assert sizes[("m", 5, 0)] == 4 and sizes[("m", 5, 1)] == 2

    def test_total_conservation(self):
        dests = list(range(1, 8))
        sizes = scatter_chunks(dests, 10, 3)
        for d in dests:
            assert sum(s for c, s in sizes.items() if c[1] == d) == 10

    def test_piece_bound(self):
        sizes = scatter_chunks([1], 100, 7)
        assert all(s <= 7 for s in sizes.values())

    def test_empty_destinations(self):
        assert scatter_chunks([], 4, 4) == {}


class TestValidate:
    def test_messages(self):
        validate_message_args(1, 1)
        with pytest.raises(ValueError, match="message"):
            validate_message_args(-1, 1)
        with pytest.raises(ValueError, match="packet"):
            validate_message_args(1, -1)

    def test_integral_values_of_any_type_accepted(self):
        validate_message_args(8.0, np.int64(4))
        validate_message_args(np.float64(16.0), 3)

    @pytest.mark.parametrize(
        "bad", [8.5, float("nan"), float("inf"), -float("inf"), True, False]
    )
    def test_non_integral_sizes_rejected(self, bad):
        with pytest.raises(ValueError, match="message size must be a whole number"):
            validate_message_args(bad, 4)
        with pytest.raises(ValueError, match="packet size must be a whole number"):
            validate_message_args(8, bad)

    def test_broadcast_rejects_fractional_message(self):
        with pytest.raises(ValueError, match="message size must be a whole number"):
            broadcast(Hypercube(3), 0, "sbt", message_elems=8.5, packet_elems=1)
        with pytest.raises(ValueError, match="packet size must be a whole number"):
            scatter(Hypercube(3), 0, "bst", message_elems=4, packet_elems=float("nan"))
