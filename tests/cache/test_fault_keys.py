"""Cache correctness under faults: damaged cubes never reuse clean entries.

A :class:`FaultPlan` normalizes how its faults are spelled into its
``cache_token`` (which its hash and equality read), so equal fault sets
key alike and any difference splits them.  A collective call under a
non-empty plan never touches the collective-call memo: its schedule is
routed afresh around the faults, so a fault-free cached program is
never served for a damaged cube.
"""

from __future__ import annotations

import pytest

from repro.cache import cache_stats, clear_caches
from repro.collectives import broadcast, scatter
from repro.routing import tree_broadcast_schedule
from repro.routing.fault_aware import survivor_broadcast_tree
from repro.sim import FaultPlan, PortModel
from repro.topology import Hypercube
from repro.trees import SurvivorTree

CUBE = Hypercube(3)
PM = PortModel.ONE_PORT_FULL


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_caches()
    yield
    clear_caches()


class TestNormalization:
    def test_fault_plan_normalizes_to_its_token(self):
        plan = FaultPlan(dead_links=[(1, 0)], dead_nodes=[(4, 2.0)])
        # spelled differently but equal -> same token, equal plans
        twin = FaultPlan(dead_links=[(0, 1, 0.0)], dead_nodes=[(4, 2.0)])
        assert plan.cache_token() == twin.cache_token()
        assert plan == twin and hash(plan) == hash(twin)

    def test_distinct_plans_normalize_apart(self):
        a = FaultPlan(dead_links=[(0, 1)])
        b = FaultPlan(dead_links=[(0, 1, 5.0)])  # same link, later onset
        assert a.cache_token() != b.cache_token()
        assert a.cache_token() != FaultPlan().cache_token()
        assert a != b

    def test_sets_normalize_order_free(self):
        assert FaultPlan(dead_links={(0, 1), (2, 3)}).cache_token() == FaultPlan(
            dead_links=[(3, 2), (1, 0)]
        ).cache_token()


@pytest.mark.parametrize("call", [broadcast, scatter], ids=["broadcast", "scatter"])
@pytest.mark.parametrize("algorithm", ["sbt", None])
def test_faulted_call_is_never_served_the_clean_entry(call, algorithm):
    """The clean call's entry is filled first; the faulted call after it
    neither reads nor fills the memo, and its schedule avoids the dead
    link the clean one uses."""
    plan = FaultPlan(dead_links=[(0, 1)])
    clean = call(CUBE, 0, algorithm, 6, 2, PM)
    assert not plan.schedule_is_clean(clean.schedule)
    before = cache_stats()["lowerings"]
    damaged = call(CUBE, 0, algorithm, 6, 2, PM, faults=plan)
    assert cache_stats()["lowerings"] == before
    assert plan.schedule_is_clean(damaged.schedule)
    again = call(CUBE, 0, algorithm, 6, 2, PM)
    assert again.schedule.rounds == clean.schedule.rounds


class TestSurvivorTreeTokens:
    def test_generic_broadcast_not_cross_served(self):
        t1 = survivor_broadcast_tree(CUBE, 0, FaultPlan(dead_links=[(0, 1)]))
        t2 = survivor_broadcast_tree(CUBE, 0, FaultPlan(dead_links=[(0, 2)]))
        s1 = tree_broadcast_schedule(t1, 4, 2, PM)
        s2 = tree_broadcast_schedule(t2, 4, 2, PM)
        assert FaultPlan(dead_links=[(0, 1)]).schedule_is_clean(s1)
        assert FaultPlan(dead_links=[(0, 2)]).schedule_is_clean(s2)
        # each tree's schedule follows that tree, not the other one
        assert not FaultPlan(dead_links=[(0, 2)]).schedule_is_clean(s1)

    def test_partial_tree_covered_set(self):
        plan = FaultPlan(dead_nodes=[7])
        tree = survivor_broadcast_tree(CUBE, 0, plan, partial=True)
        assert isinstance(tree, SurvivorTree)
        assert tree.covered == frozenset(range(7))
        with pytest.raises(ValueError, match="not covered"):
            tree.parent(7)
