"""Greedy list scheduling of logical transfers into rounds.

Several of the paper's routings (BST scatter forwarding, half-duplex
serializations, generic-tree pipelines) are most naturally expressed as
an ordered list of *logical* transfers with causal dependencies implied
by their payloads: a node can forward a chunk only after receiving it.
This module packs such a list into lock-step rounds greedily, in list
order, under the active port model — earliest-fit, one pass per round.

List order is the priority: generators encode the paper's transmission
orders (descending relative address, cyclic subtree round-robin,
depth-first within subtree, ...) simply by ordering the transfer list.

Implementation note: the packer used to rescan the whole pending list
every round and first-fit used to probe every bin per chunk, both
quadratic — prohibitive for the fine-packet grids the runtime
differential harness sweeps (``B = 1`` turns a one-port BST scatter at
``n = 8`` into ~10^6 transfers).  The versions here are
dependency-indexed (a ``(node, chunk) -> waiting transfers`` map plus
ready/eligible heaps) and skip saturated bins, and they are
*bit-identical* to the originals, which are preserved in
:mod:`repro.routing._scheduler_reference` and asserted equivalent by
``tests/routing/test_scheduler_equivalence.py``.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from repro.sim.ports import PortModel
from repro.sim.schedule import Chunk, Schedule, Transfer
from repro.topology.hypercube import Hypercube

__all__ = ["list_schedule", "reschedule", "split_oversized", "greedy_partition"]


def list_schedule(
    cube: Hypercube,
    transfers: list[Transfer],
    chunk_sizes: dict[Chunk, int],
    port_model: PortModel,
    initial_holdings: dict[int, set[Chunk]],
    algorithm: str = "list-scheduled",
    meta: dict | None = None,
) -> Schedule:
    """Pack ``transfers`` (in priority order) into constraint-valid rounds.

    A transfer is eligible in round ``r`` when the sender holds all its
    chunks by the start of ``r`` (initially, or delivered in a round
    before ``r``) and the round still has capacity for it under
    ``port_model``.  Eligible transfers are taken greedily in list
    order.

    Raises:
        RuntimeError: when no remaining transfer can ever become
            eligible (a causally broken transfer list).
    """
    avail: dict[tuple[int, Chunk], int] = {}
    for node, chunks in initial_holdings.items():
        for c in chunks:
            avail[(node, c)] = 0

    n_transfers = len(transfers)
    rounds: list[tuple[Transfer, ...]] = []

    # Dependency index.  Every pending transfer is in exactly one of:
    # *waiting* (some payload chunk has no availability round yet; its
    # index sits in `waiters` under each missing (src, chunk) key),
    # *future* (payload fully known, ready round > r), or *eligible*
    # (ready, competing for capacity in input order).  Availability
    # rounds are monotone — a chunk's first delivery is its earliest,
    # later duplicates never improve it — so a transfer's ready round
    # is fixed the moment its last chunk materializes.
    waiters: dict[tuple[int, Chunk], list[int]] = {}
    missing = [0] * n_transfers
    future: list[tuple[int, int]] = []  # (ready round, input index)
    # Eligible input indices, one heap per sender.  Busy sets only grow
    # within a round, so once a sender is busy under a one-port model
    # every transfer it has left is blocked until the next round: those
    # wait in their sender's heap instead of being popped and re-pushed.
    eligible: dict[int, list[int]] = {}
    sender_blocks = port_model is not PortModel.ALL_PORT
    half = port_model.half_duplex
    done = [False] * n_transfers
    for idx, t in enumerate(transfers):
        m = 0
        ready = 0
        for c in t.chunks:
            a = avail.get((t.src, c))
            if a is None:
                m += 1
                waiters.setdefault((t.src, c), []).append(idx)
            elif a > ready:
                ready = a
        missing[idx] = m
        if m == 0:
            heappush(future, (ready, idx))

    placed = 0
    r = 0
    while placed < n_transfers:
        while future and future[0][0] <= r:
            idx = heappop(future)[1]
            src = transfers[idx].src
            q = eligible.get(src)
            if q is None:
                eligible[src] = [idx]
            else:
                heappush(q, idx)
        if not eligible:
            if future:
                r = future[0][0]  # idle gap: nothing deliverable yet
                continue
            stuck = [transfers[i] for i in range(n_transfers) if not done[i]][:4]
            raise RuntimeError(
                f"list scheduling deadlocked with {n_transfers - placed} "
                f"transfers left, e.g. {stuck}"
            )

        send_busy: set[int] = set()
        recv_busy: set[int] = set()
        edge_busy: set[tuple[int, int]] = set()
        this_round: list[Transfer] = []
        deferred: list[int] = []
        # The heads of the senders' heaps, merged: transfers are taken
        # in input order, skipping only those of blocked senders, which
        # would not fit anyway.
        heads = [q[0] for q in eligible.values()]
        heapify(heads)
        while heads:
            idx = heappop(heads)
            t = transfers[idx]
            src = t.src
            q = eligible[src]
            heappop(q)
            if not _fits(port_model, t, send_busy, recv_busy, edge_busy):
                deferred.append(idx)
                if q and not (sender_blocks and (
                    src in send_busy or (half and src in recv_busy)
                )):
                    heappush(heads, q[0])
                continue
            this_round.append(t)
            done[idx] = True
            send_busy.add(src)
            recv_busy.add(t.dst)
            edge_busy.add((src, t.dst))
            if q and not sender_blocks:
                heappush(heads, q[0])
            for c in t.chunks:
                key = (t.dst, c)
                if key not in avail:
                    avail[key] = r + 1
                    for w in waiters.pop(key, ()):
                        missing[w] -= 1
                        if missing[w] == 0:
                            tw = transfers[w]
                            ready = 0
                            for cw in tw.chunks:
                                a = avail[(tw.src, cw)]
                                if a > ready:
                                    ready = a
                            heappush(future, (ready, w))
        for idx in deferred:
            heappush(eligible[transfers[idx].src], idx)
        for src in [s for s, q in eligible.items() if not q]:
            del eligible[src]
        # The round is never empty: with fresh busy sets the first
        # eligible transfer always fits.
        rounds.append(tuple(this_round))
        placed += len(this_round)
        r += 1

    return Schedule(
        rounds=rounds,
        chunk_sizes=dict(chunk_sizes),
        algorithm=algorithm,
        meta=meta or {},
    )


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


def reschedule(
    cube: Hypercube,
    schedule: Schedule,
    port_model: PortModel,
    initial_holdings: dict[int, set[Chunk]],
) -> Schedule:
    """Re-pack an existing schedule under a (usually stricter) port model.

    Used to derive the one-send-*or*-receive MSBT broadcast from the
    full-duplex labelled schedule (§3.3.2's "transform each cycle into
    two cycles" construction, realized greedily).
    """
    out = list_schedule(
        cube,
        schedule.all_transfers(),
        schedule.chunk_sizes,
        port_model,
        initial_holdings,
        algorithm=f"{schedule.algorithm}@{port_model.value}",
        meta=dict(schedule.meta),
    )
    return out


def split_oversized(schedule: Schedule, packet_elems: int) -> Schedule:
    """Split transfers larger than ``packet_elems`` into micro-rounds.

    A round whose largest transfer needs ``k`` packets becomes ``k``
    consecutive micro-rounds; each oversized transfer's chunks are
    distributed greedily over its micro-rounds so no packet exceeds
    ``packet_elems`` (individual chunks bigger than the limit go out
    alone — generators are expected to pre-split chunks when a hard
    bound matters).
    """
    if packet_elems < 1:
        raise ValueError(f"packet size must be >= 1, got {packet_elems}")
    new_rounds: list[tuple[Transfer, ...]] = []
    for round_transfers in schedule.rounds:
        pieces: list[list[Transfer]] = []
        for t in round_transfers:
            groups = greedy_partition(
                sorted(t.chunks, key=lambda c: (-schedule.chunk_sizes[c], repr(c))),
                schedule.chunk_sizes,
                packet_elems,
            )
            for micro, group in enumerate(groups):
                while len(pieces) <= micro:
                    pieces.append([])
                pieces[micro].append(Transfer(t.src, t.dst, frozenset(group)))
        new_rounds.extend(tuple(p) for p in pieces)
    return Schedule(
        rounds=new_rounds,
        chunk_sizes=dict(schedule.chunk_sizes),
        algorithm=schedule.algorithm,
        meta={**schedule.meta, "split_packet_elems": packet_elems},
    )


def greedy_partition(
    chunks: list[Chunk],
    sizes: dict[Chunk, int],
    limit: int,
) -> list[list[Chunk]]:
    """First-fit partition of ``chunks`` (in the given order) into
    bins of at most ``limit`` elements each.

    Only bins with spare room are probed (a saturated bin can never
    take a chunk of size >= 1, so skipping it preserves first-fit
    placement exactly); zero-sized chunks fall back to the full scan,
    where a saturated bin *does* accept them.
    """
    used: list[int] = []
    members: list[list[Chunk]] = []
    open_bins: list[int] = []  # bins with used < limit, creation order
    for c in chunks:
        s = sizes[c]
        placed = False
        if s > 0:
            for pos, i in enumerate(open_bins):
                u = used[i]
                if u + s <= limit:
                    used[i] = u + s
                    members[i].append(c)
                    if u + s >= limit:
                        open_bins.pop(pos)
                    placed = True
                    break
        else:
            for i in range(len(used)):
                if used[i] + s <= limit:
                    members[i].append(c)
                    placed = True
                    break
        if not placed:
            used.append(s)
            members.append([c])
            if s < limit:
                open_bins.append(len(used) - 1)
    return members
