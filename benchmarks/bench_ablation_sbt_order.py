"""Ablation — port-oriented vs packet-oriented SBT broadcast (§2).

Both orders take exactly ``ceil(M/B) * log N`` lock-step cycles, but
they disagree on *when* the far subtrees start receiving: the
packet-oriented order touches every port once per packet, so the last
subtree sees data after ``log N`` rounds instead of after
``(log N - 1) * ceil(M/B)`` rounds — visible as earlier first-delivery
times under the event engine.
"""

from repro.routing import sbt_broadcast_schedule
from repro.sim import PortModel, UNIT_COST, run_synchronous
from repro.sim import run_async
from repro.topology import Hypercube


def _compare(n: int, M: int, B: int) -> dict[str, dict[str, float]]:
    cube = Hypercube(n)
    out = {}
    for order in ("port", "packet"):
        sched = sbt_broadcast_schedule(
            cube, 0, M, B, PortModel.ONE_PORT_FULL, order=order
        )
        init = {0: set(sched.chunk_sizes)}
        sync = run_synchronous(cube, sched, PortModel.ONE_PORT_FULL, init)
        asy = run_async(cube, sched, PortModel.ONE_PORT_FULL, init, UNIT_COST)
        # time at which the last node receives its FIRST chunk
        first_round = None
        seen = {0}
        for ri, r in enumerate(sched.rounds):
            for t in r:
                seen.add(t.dst)
            if len(seen) == cube.num_nodes:
                first_round = ri + 1
                break
        out[order] = {
            "cycles": sync.cycles,
            "async_time": asy.time,
            "all_reached_by_round": first_round,
        }
    return out


def test_ablation_sbt_orders(benchmark, show):
    n, M, B = 5, 64, 4
    results = benchmark(_compare, n, M, B)
    print()
    for order, stats in results.items():
        print(f"  {order:<8} {stats}")
    # identical lock-step cost (the paper's T is order-independent)
    assert results["port"]["cycles"] == results["packet"]["cycles"] == 16 * n
    # packet-oriented reaches every node much earlier
    assert (
        results["packet"]["all_reached_by_round"]
        < results["port"]["all_reached_by_round"]
    )
