"""The one-pass lemma 4.2 wave scatter equals its two-pass oracle.

:func:`~repro.routing.scatter_common.wave_scatter_schedule` ranks the
pieces once and fills every bundle in that order; the oracle
(:func:`tests.wave_oracles.two_pass_wave_schedule`) bundles pieces in
sets, splits with ``split_oversized`` and compacts.  Both must give the
same rounds, in the same transfer order, with the same chunk sizes,
algorithm and meta (key order included).
"""

import pytest

from repro.routing.fault_aware import survivor_broadcast_tree
from repro.routing.scatter_common import wave_scatter_schedule
from repro.sim.faults import FaultPlan
from repro.topology import Hypercube
from repro.trees import (
    BalancedSpanningTree,
    SpanningBinomialTree,
    TwoRootedCompleteBinaryTree,
)
from tests.wave_oracles import tree_path_from_root, two_pass_wave_schedule

#: (M, B) pairs: one piece per destination, several pieces with a
#: short last one, B below and above M, bundles far below B
MB = [(1, 1), (3, 2), (5, 3), (7, 16), (10, 4), (1024, 256)]

TREES = {
    "sbt": SpanningBinomialTree,
    "bst": BalancedSpanningTree,
    "tcbt": TwoRootedCompleteBinaryTree,
}


def _sources(n):
    return sorted({0, 1, (1 << n) - 1, (0b1011011 & ((1 << n) - 1))})


def assert_same(got, want):
    # Transfer equality covers (src, dst, chunks)
    assert [tuple(r) for r in got.rounds] == [tuple(r) for r in want.rounds]
    assert list(got.chunk_sizes.items()) == list(want.chunk_sizes.items())
    assert got.algorithm == want.algorithm
    assert list(got.meta.items()) == list(want.meta.items())


@pytest.mark.parametrize(
    "family,n",
    # the TCBT needs two roots, so n >= 2
    [(f, n) for f in sorted(TREES) for n in range(1 if f != "tcbt" else 2, 8)],
)
def test_wave_schedule_equals_two_pass(family, n):
    cube = Hypercube(n)
    for source in _sources(n):
        tree = TREES[family](cube, source)
        for m, b in MB:
            got = wave_scatter_schedule(tree, m, b, f"{family}-scatter")
            want = two_pass_wave_schedule(
                TREES[family](cube, source), m, b, f"{family}-scatter"
            )
            assert_same(got, want)


@pytest.mark.parametrize("m,b", MB)
def test_survivor_tree_subset_equals_two_pass(m, b):
    cube = Hypercube(4)
    faults = FaultPlan(dead_links=[(0, 1)], dead_nodes=[0b1110])
    for source in (0, 5, 9):
        tree = survivor_broadcast_tree(cube, source, faults, partial=True)
        dests = tuple(sorted(tree.covered - {source}))
        got = wave_scatter_schedule(tree, m, b, "fault-avoiding-scatter", dests)
        want = two_pass_wave_schedule(
            tree, m, b, "fault-avoiding-scatter", dests
        )
        assert_same(got, want)


def test_dests_subset_of_a_full_tree_equals_two_pass():
    # a strict subset leaves the oracle's tree-height steps empty;
    # compacting them away gives the height taken from the paths
    cube = Hypercube(5)
    tree = BalancedSpanningTree(cube, 6)
    for dests in ((7,), (1, 2, 3), tuple(range(0, 32, 3))):
        for m, b in MB:
            assert_same(
                wave_scatter_schedule(tree, m, b, "x", dests),
                two_pass_wave_schedule(tree, m, b, "x", dests),
            )


def test_no_destinations():
    tree = SpanningBinomialTree(Hypercube(3), 2)
    assert_same(
        wave_scatter_schedule(tree, 4, 2, "x", dests=(2,)),
        two_pass_wave_schedule(tree, 4, 2, "x", dests=(2,)),
    )


class TestTreePath:
    def test_path_from_root(self, cube4):
        tree = SpanningBinomialTree(cube4, 0)
        path = tree_path_from_root(tree, 0b1011)
        assert path[0] == 0 and path[-1] == 0b1011
        for a, b in zip(path, path[1:]):
            assert tree.parents_map[b] == a

    def test_root_path_is_singleton(self, cube4):
        tree = SpanningBinomialTree(cube4, 3)
        assert tree_path_from_root(tree, 3) == [3]
