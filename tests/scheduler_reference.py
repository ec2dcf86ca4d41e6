"""Reference implementations of the greedy list scheduler.

These are the original, straightforward O(rounds * pending) scanners
from :mod:`repro.routing.scheduler`, preserved verbatim — the optimized
versions there are dependency-indexed and must stay *bit-identical* to
these on every input (same rounds, same transfer order within a round,
same error behaviour).  ``tests/routing/test_scheduler_equivalence.py``
asserts that on the full algorithm zoo and on randomized transfer
lists, mirroring the convention of ``tests/engine_reference.py``.
"""

from __future__ import annotations

from repro.sim.ports import PortModel
from repro.sim.schedule import Chunk, Schedule, Transfer
from repro.topology.hypercube import Hypercube

__all__ = ["list_schedule_reference", "greedy_partition_reference"]


def _fits(
    port_model: PortModel,
    t: Transfer,
    send_busy: set[int],
    recv_busy: set[int],
    edge_busy: set[tuple[int, int]],
) -> bool:
    if (t.src, t.dst) in edge_busy:
        return False
    if port_model is PortModel.ALL_PORT:
        return True
    if t.src in send_busy or t.dst in recv_busy:
        return False
    if port_model.half_duplex and (t.src in recv_busy or t.dst in send_busy):
        return False
    return True


def list_schedule_reference(
    cube: Hypercube,
    transfers: list[Transfer],
    chunk_sizes: dict[Chunk, int],
    port_model: PortModel,
    initial_holdings: dict[int, set[Chunk]],
    algorithm: str = "list-scheduled",
    meta: dict | None = None,
) -> Schedule:
    """The original full-rescan greedy list scheduler."""
    avail: dict[tuple[int, Chunk], int] = {}
    for node, chunks in initial_holdings.items():
        for c in chunks:
            avail[(node, c)] = 0

    remaining = list(range(len(transfers)))
    rounds: list[tuple[Transfer, ...]] = []
    r = 0
    guard = 0
    max_rounds = 4 * (len(transfers) + 1) + 16  # generous upper bound

    while remaining:
        send_busy: set[int] = set()
        recv_busy: set[int] = set()
        edge_busy: set[tuple[int, int]] = set()
        this_round: list[Transfer] = []
        next_remaining: list[int] = []
        min_future = None

        for idx in remaining:
            t = transfers[idx]
            ready = 0
            blocked = False
            for c in t.chunks:
                a = avail.get((t.src, c))
                if a is None:
                    blocked = True
                    break
                ready = max(ready, a)
            if blocked or ready > r:
                if not blocked:
                    min_future = ready if min_future is None else min(min_future, ready)
                next_remaining.append(idx)
                continue
            if not _fits(port_model, t, send_busy, recv_busy, edge_busy):
                next_remaining.append(idx)
                continue
            this_round.append(t)
            send_busy.add(t.src)
            recv_busy.add(t.dst)
            edge_busy.add((t.src, t.dst))
            for c in t.chunks:
                key = (t.dst, c)
                if key not in avail or avail[key] > r + 1:
                    avail[key] = r + 1

        if this_round:
            rounds.append(tuple(this_round))
            remaining = next_remaining
            r += 1
        elif min_future is not None and min_future > r:
            r = min_future  # idle gap: nothing deliverable yet
        else:
            stuck = [transfers[i] for i in remaining[:4]]
            raise RuntimeError(
                f"list scheduling deadlocked with {len(remaining)} transfers "
                f"left, e.g. {stuck}"
            )
        guard += 1
        if guard > max_rounds:
            raise RuntimeError("list scheduling failed to converge")

    return Schedule(
        rounds=rounds,
        chunk_sizes=dict(chunk_sizes),
        algorithm=algorithm,
        meta=meta or {},
    )


def greedy_partition_reference(
    chunks: list[Chunk],
    sizes: dict[Chunk, int],
    limit: int,
) -> list[list[Chunk]]:
    """The original first-fit partition scanning every bin per chunk."""
    bins: list[tuple[int, list[Chunk]]] = []
    for c in chunks:
        s = sizes[c]
        placed = False
        for i, (used, members) in enumerate(bins):
            if used + s <= limit:
                bins[i] = (used + s, members + [c])
                placed = True
                break
        if not placed:
            bins.append((s, [c]))
    return [members for _, members in bins]
