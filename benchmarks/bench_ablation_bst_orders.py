"""Ablation — BST scatter transmission orders (§5.2).

The paper implemented the depth-first order on the iPSC and notes
reversed breadth-first as the alternative (most remote data first,
which makes the root's finish time the completion time).  Both must
deliver identically; their lock-step cycle counts match, and timing
differences on the iPSC model stay small.
"""

from repro.routing import bst_scatter_schedule
from repro.sim import IPSC_D7, PortModel
from repro.sim import run_async
from repro.topology import Hypercube


def _times(n: int, M: int) -> dict[str, float]:
    cube = Hypercube(n)
    out = {}
    for order in ("depth_first", "reversed_breadth_first"):
        sched = bst_scatter_schedule(
            cube, 0, M, M, PortModel.ONE_PORT_HALF, subtree_order=order
        )
        res = run_async(
            cube, sched, PortModel.ONE_PORT_HALF,
            {0: set(sched.chunk_sizes)}, IPSC_D7,
        )
        out[order] = res.time
    return out


def test_ablation_bst_orders(benchmark, show):
    times = benchmark(_times, 5, 1024)
    print()
    for order, t in times.items():
        print(f"  {order:<24} {t:.4f} s")
    ratio = times["reversed_breadth_first"] / times["depth_first"]
    assert 0.8 < ratio < 1.25, ratio
