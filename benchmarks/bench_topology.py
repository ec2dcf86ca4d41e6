"""Benchmark suite for the topology layer: baselines in
BENCH_TOPOLOGY.json.

Pins the cost of the torus paths next to their hypercube peers —
ring-decomposition tree construction, the Jung–Sakho all-broadcast
schedule, torus collectives end to end on the vectorized engine, and
the vectorized ``edge_ports`` adjacency resolution the lowering layer
leans on.  Compare or refresh with::

    python scripts/bench_compare.py --suite topology [--update]

The names of these tests are the keys of the baseline file — renaming
one orphans its baseline entry.
"""

import numpy as np
import pytest

from repro.cache import clear_caches
from repro.collectives import all_broadcast, allreduce, broadcast
from repro.routing import torus_all_broadcast_schedule
from repro.sim.ports import PortModel
from repro.topology import Hypercube, Torus
from repro.trees import RingDecompositionTree


@pytest.fixture(autouse=True)
def _cold_caches():
    """Schedule/tree memoizers would hide the generation cost."""
    clear_caches()
    yield
    clear_caches()


def test_topology_ring_tree_construction(benchmark):
    """Build the ring-decomposition tree maps on a 729-node torus."""
    t = Torus(6, 3)

    def build():
        tree = RingDecompositionTree(t)
        return tree.parents_map, tree.levels

    parents, levels = benchmark(build)
    assert len(parents) == 729
    assert max(levels.values()) == t.diameter


def test_topology_torus_all_broadcast_schedule(benchmark):
    """Generate the Jung–Sakho circulation schedule on Torus(3, 5)."""
    t = Torus(3, 5)

    def build():
        clear_caches()
        return torus_all_broadcast_schedule(
            t, 4, PortModel.ALL_PORT
        )

    sched = benchmark(build)
    assert sched.num_rounds > 0


def test_topology_torus_broadcast_end_to_end(benchmark):
    """Ring broadcast on Torus(2, 16) through the vectorized engine."""
    t = Torus(2, 16)

    def run():
        clear_caches()
        return broadcast(
            t, 0, message_elems=64, packet_elems=16,
            run_event_sim=True,
        )

    res = benchmark(run)
    assert res.time > 0


def test_topology_torus_allreduce_end_to_end(benchmark):
    """Two-phase ring allreduce on Torus(2, 8), both engines."""
    t = Torus(2, 8)

    def run():
        clear_caches()
        return allreduce(
            t, message_elems=32, packet_elems=8,
            run_event_sim=True,
        )

    res = benchmark(run)
    assert res.time > 0


def test_topology_hypercube_all_broadcast_end_to_end(benchmark):
    """The hypercube counterpart at a similar node count (n=8)."""
    h = Hypercube(8)

    def run():
        clear_caches()
        return all_broadcast(
            h, message_elems=4, run_event_sim=True,
        )

    res = benchmark(run)
    assert res.time > 0


def test_topology_torus_edge_ports_vectorized(benchmark):
    """Resolve 100k directed pairs to ports on a 4096-node torus."""
    t = Torus(4, 8)
    rng = np.random.default_rng(7)
    src = rng.integers(0, t.num_nodes, size=100_000)
    # half genuine ring neighbours, half random (mostly non-edges)
    dim = rng.integers(0, 4, size=50_000)
    delta = rng.choice([1, -1], size=50_000)
    neigh = np.array([
        t.ring_step(int(s), int(d), int(e))
        for s, d, e in zip(src[:50_000], dim, delta)
    ])
    dst = np.concatenate([neigh, rng.integers(0, t.num_nodes, size=50_000)])

    ports = benchmark(t.edge_ports, src, dst)
    assert (ports[:50_000] >= 0).all()
