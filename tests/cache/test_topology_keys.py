"""Cache identity must separate topologies of equal dimension.

Regression tests for the torus/hypercube key-collision class of bug:
a ``Torus(n, k)`` and a ``Hypercube(n)`` (or two tori of different
arity) must never share a cache entry — not in the collective-call
memo, and not through a :class:`FaultPlan` pinned to a topology.
"""

from __future__ import annotations

from repro.collectives.api import _normalize
from repro.sim.faults import FaultPlan
from repro.sim.ports import PortModel
from repro.topology import Hypercube, Torus, topology_token


class TestTopologyTokens:
    def test_cache_tokens_distinct_same_dimension(self):
        assert Hypercube(3).cache_token() == ("hypercube", 3)
        assert Torus(3, 2).cache_token() == ("torus", 3, 2)
        assert Torus(3, 3).cache_token() != Torus(3, 2).cache_token()

    def test_topology_token_uses_cache_token(self):
        assert topology_token(Hypercube(4)) == ("hypercube", 4)
        assert topology_token(Torus(4, 3)) == ("torus", 4, 3)

    def test_normalize_splits_topologies(self):
        """The collective-call memo's key component per topology."""
        keys = {
            _normalize(Hypercube(2)),
            _normalize(Torus(2, 2)),
            _normalize(Torus(2, 3)),
        }
        assert len(keys) == 3

    def test_normalize_other_types_unchanged(self):
        assert _normalize(PortModel.ALL_PORT) == ("port", PortModel.ALL_PORT.value)
        assert _normalize(7) == 7


class TestFaultPlanTopologyPinning:
    def test_unpinned_plans_keep_old_token_shape(self):
        plan = FaultPlan(dead_links=[(0, 1)])
        assert plan.topology_token is None
        assert plan.cache_token()[0] == "faultplan"

    def test_pinned_plans_split_by_topology(self):
        links = [(0, 1)]
        on_cube = FaultPlan(dead_links=links, topology=Hypercube(3))
        on_torus = FaultPlan(dead_links=links, topology=Torus(3, 2))
        assert on_cube.topology_token == ("hypercube", 3)
        assert on_torus.topology_token == ("torus", 3, 2)
        assert on_cube.cache_token() != on_torus.cache_token()

    def test_equal_pinned_plans_share_token(self):
        a = FaultPlan(dead_links=[(0, 1)], topology=Torus(2, 4))
        b = FaultPlan(dead_links=[(1, 0)], topology=Torus(2, 4))
        assert a.cache_token() == b.cache_token()
