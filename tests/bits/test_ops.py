"""Unit tests for the bit-manipulation primitives."""

import pytest

from repro.bits import ops


class TestMaskAndBits:
    def test_mask_values(self):
        assert ops.mask(0) == 0
        assert ops.mask(1) == 1
        assert ops.mask(4) == 15
        assert ops.mask(10) == 1023

    def test_mask_negative_rejected(self):
        with pytest.raises(ValueError):
            ops.mask(-1)

    def test_bit_extraction(self):
        x = 0b10110
        assert [ops.bit(x, j) for j in range(5)] == [0, 1, 1, 0, 1]

    def test_set_clear_flip(self):
        assert ops.set_bit(0b100, 0) == 0b101
        assert ops.clear_bit(0b101, 2) == 0b001
        assert ops.flip_bit(0b101, 1) == 0b111
        assert ops.flip_bit(ops.flip_bit(0b1011, 3), 3) == 0b1011

    def test_to_from_bits_roundtrip(self):
        for x in [0, 1, 5, 19, 31]:
            assert ops.from_bits(ops.to_bits(x, 5)) == x

    def test_to_bits_overflow_rejected(self):
        with pytest.raises(ValueError):
            ops.to_bits(32, 5)

    def test_from_bits_bad_value_rejected(self):
        with pytest.raises(ValueError):
            ops.from_bits([0, 2, 1])

    def test_bit_string_matches_paper_notation(self):
        # the paper writes a_{n-1} ... a_0, MSB first
        assert ops.bit_string(0b01101, 5) == "01101"
        assert ops.bit_string(1, 4) == "0001"

    def test_bit_string_overflow_rejected(self):
        with pytest.raises(ValueError):
            ops.bit_string(16, 4)


class TestPopcountAndDistance:
    def test_popcount_small(self):
        assert ops.popcount(0) == 0
        assert ops.popcount(0b1011) == 3
        assert ops.popcount((1 << 40) - 1) == 40

    def test_popcount_negative_rejected(self):
        with pytest.raises(ValueError):
            ops.popcount(-1)

    def test_hamming_distance_symmetry(self):
        assert ops.hamming_distance(0b1010, 0b0101) == 4
        assert ops.hamming_distance(7, 7) == 0
        for a, b in [(3, 5), (0, 15), (9, 12)]:
            assert ops.hamming_distance(a, b) == ops.hamming_distance(b, a)

    def test_highest_lowest_set_bit(self):
        assert ops.highest_set_bit(0) == -1
        assert ops.lowest_set_bit(0) == -1
        assert ops.highest_set_bit(0b1) == 0
        assert ops.highest_set_bit(0b10110) == 4
        assert ops.lowest_set_bit(0b10110) == 1
        assert ops.lowest_set_bit(1 << 17) == 17


class TestRotation:
    def test_rotate_right_example(self):
        # R(a5..a0) moves a0 to the top position
        assert ops.rotate_right(0b011010, 1, 6) == 0b001101
        assert ops.rotate_right(0b000001, 1, 6) == 0b100000

    def test_rotate_left_inverts_right(self):
        for x in range(64):
            for s in range(7):
                assert ops.rotate_left(ops.rotate_right(x, s, 6), s, 6) == x

    def test_rotation_full_period_is_identity(self):
        for x in range(32):
            assert ops.rotate_right(x, 5, 5) == x

    def test_rotation_preserves_popcount(self):
        for x in range(64):
            for s in range(6):
                assert ops.popcount(ops.rotate_right(x, s, 6)) == ops.popcount(x)

    def test_rotation_rejects_oversized(self):
        with pytest.raises(ValueError):
            ops.rotate_right(16, 1, 4)
        with pytest.raises(ValueError):
            ops.rotate_right(1, 1, 0)

