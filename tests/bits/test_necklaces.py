"""Unit tests for periods, necklaces and the BST base function."""

import pytest

from repro.bits import necklaces as nk
from repro.bits.ops import rotate_right


class TestPeriod:
    def test_paper_examples(self):
        # "the period of (011011) is 3" (§2)
        assert nk.period(0b011011, 6) == 3
        # "The period of (011010) is 6 and the period of (110110) is 3" (§4.1)
        assert nk.period(0b011010, 6) == 6
        assert nk.period(0b110110, 6) == 3

    def test_constants(self):
        assert nk.period(0, 6) == 1
        assert nk.period(0b111111, 6) == 1
        assert nk.period(0b101010, 6) == 2

    def test_period_divides_n(self):
        for n in (4, 6, 8):
            for x in range(1 << n):
                assert n % nk.period(x, n) == 0

    def test_period_is_minimal(self):
        for n in (5, 6):
            for x in range(1 << n):
                p = nk.period(x, n)
                assert rotate_right(x, p, n) == x
                for q in range(1, p):
                    assert rotate_right(x, q, n) != x

    def test_is_cyclic(self):
        assert nk.is_cyclic(0b0101, 4)
        assert not nk.is_cyclic(0b0001, 4)
        assert nk.is_cyclic(0, 4)

    def test_bad_args_rejected(self):
        with pytest.raises(ValueError):
            nk.period(1, 0)
        with pytest.raises(ValueError):
            nk.period(16, 4)


class TestBase:
    def test_paper_example_110110(self):
        # base((110110)) = 1: one right rotation reaches 011011 = min
        assert nk.base(0b110110, 6) == 1

    def test_formal_definition_on_011010(self):
        # The paper's prose says 3, but its formal definition gives 1:
        # R^1(011010) = 001101 = 13 is the unique minimum rotation.
        # (See DESIGN.md §2 — the formal definition reproduces Table 5.)
        assert nk.base(0b011010, 6) == 1
        assert nk.canonical_rotation(0b011010, 6) == 0b001101

    def test_base_reaches_minimum(self):
        for n in (4, 5, 6, 7):
            for x in range(1 << n):
                b = nk.base(x, n)
                m = rotate_right(x, b, n)
                assert all(
                    m <= rotate_right(x, j, n) for j in range(n)
                ), (x, n)
                # b is the least such rotation count
                assert all(
                    rotate_right(x, j, n) > m for j in range(b)
                ), (x, n)

    def test_base_is_first_minimizing_rotation_exhaustive(self):
        # every n-bit value for n = 1..12, against the checked rotate_right
        for n in range(1, 13):
            for x in range(1 << n):
                rots = [rotate_right(x, j, n) for j in range(n)]
                assert nk.base(x, n) == rots.index(min(rots)), (x, n)

    def test_base_range_limited_by_period(self):
        # base < period: rotating by the period revisits the same values
        for n in (6, 8):
            for x in range(1, 1 << n):
                assert nk.base(x, n) < nk.period(x, n)

    def test_necklace_members_have_distinct_bases_per_rotation(self):
        # within a full necklace, every subtree index appears exactly once
        n = 6
        for rep in nk.necklace_representatives(n):
            if rep == 0:
                continue
            members = nk.generator_set(rep, n)
            bases = sorted(nk.base(m, n) for m in members)
            assert bases == list(range(len(members))), rep


class TestGeneratorSets:
    def test_paper_example(self):
        # (001001), (010010), (100100) form one generator set (§2)
        gs = set(nk.generator_set(0b001001, 6))
        assert gs == {0b001001, 0b010010, 0b100100}

    def test_size_equals_period(self):
        for n in (4, 6):
            for x in range(1 << n):
                assert len(nk.generator_set(x, n)) == nk.period(x, n)

    def test_representatives_partition_the_space(self):
        for n in (4, 5, 6):
            reps = nk.necklace_representatives(n)
            seen: set[int] = set()
            for r in reps:
                members = set(nk.generator_set(r, n))
                assert not (members & seen)
                seen |= members
            assert seen == set(range(1 << n))

    def test_count_matches_burnside(self):
        for n in range(1, 16):
            assert nk.count_necklaces(n) == len(nk.necklace_representatives(n)) if n <= 14 else True

    def test_count_necklaces_known_values(self):
        # OEIS A000031
        known = {1: 2, 2: 3, 3: 4, 4: 6, 5: 8, 6: 14, 7: 20, 8: 36, 16: 4116}
        for n, v in known.items():
            assert nk.count_necklaces(n) == v, n

    def test_count_cyclic_matches_enumeration(self):
        for n in (4, 6, 8, 9):
            brute = sum(1 for x in range(1 << n) if nk.is_cyclic(x, n))
            assert nk.count_cyclic(n) == brute
