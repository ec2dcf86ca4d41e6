"""Vectorized array-core asynchronous engine: the production event engine.

Runs the discrete-event semantics of the reference oracle
(:func:`repro.sim._engine_reference.run_async_reference`) over the flat
arrays produced by :mod:`repro.sim.lowering`, instead of per-transfer
Python objects.  Results are bit-identical — the equivalence suite
asserts it on every tree, port model, machine and fault plan.

The engine advances time the way the iPSC of §5 does for a schedule:

* every transfer takes ``machine.send_cost(elems)`` wall-clock time
  (start-up per internal hardware packet + proportional transfer);
* a transfer starts as soon as — and no sooner than — its payload is
  present at the sender, its directed link is free, and both endpoint
  nodes have channel capacity under the active port model;
* under the one-port models, consecutive actions of one node on
  *different* ports may overlap by the machine's ``overlap`` fraction;
* transfers compete in schedule order (program order), i.e. the round
  structure provides priorities, not barriers.

How bit-identity survives vectorization
---------------------------------------
The reference engine advances time instant by instant: at each instant
it rescans *all* pending transfers in program order until a fixpoint,
then jumps ``now`` to the earliest pushed wake-up strictly more than
``_EPS`` ahead.  Scanning a blocked transfer has exactly one side
effect — pushing its current constraint value as a wake.  Which floats
end up in the wake heap *matters to the last ulp*: an instant the
reference does not visit can capture a transfer whose ready time lies
within ``_EPS`` above it and start it one ulp early, so this engine
must push the same wake values, no more and no fewer.  They are:

* the completion time ``end`` and the overlap release in *duration*
  form ``start + (1-ov)*dur``, pushed at occupation (ready-time wakes
  are always ``end`` values, so they add nothing new);
* blocked transfers' constraint values — maxima over channel windows
  whose other-port terms use the *end-start* release form
  ``start + (1-ov)*(end-start)``, one ulp away from the duration form
  in general.  The reference re-pushes these for every blocked
  transfer at every instant; this engine materializes them with a
  dirty-channel sweep before each time advance — every transfer
  blocked on a channel occupied during the closed instant gets its
  constraint re-evaluated against final instant state and pushed as a
  pure wake.

With the wake values aligned, the full rescan is unnecessary: within
an instant the scalar admission loop below replays the reference's
program-order fixpoint exactly — including mid-pass pickup of
transfers enabled by zero-duration deliveries.

The wake heap holds raw floats deduplicated by their exact bit pattern
(a set of float keys — the "microtick" identity of an instant), so the
heap stays bounded by the number of genuinely distinct event times.

Per instant, admission candidates are prefiltered in bulk by the
:mod:`repro.sim._kernels` kernel (NumPy masks over the payload-ready
column and a per-transfer constraint column ``vc``; numba-jitted when
available); only the survivors reach the exact scalar check.  The
``vc`` gate is exact, not conservative: a blocked transfer's stored
constraint is re-materialized by the dirty-channel sweep whenever its
resources change, so at prefilter time ``vc > limit`` is precisely the
reference's own admission refusal (under the all-port model ``vc`` can
lag *below* the true link constraint, which costs a re-exam, never a
wrong skip).  Channel state itself stays in per-node Python lists
pruned exactly like the reference's ``_Channel.occupy`` — the float
arithmetic is identical expression for expression.
"""

from __future__ import annotations

from heapq import heappop, heappush
from time import perf_counter

import numpy as np

from repro.obs.instruments import engine_run_finished
from repro.sim._kernels import prefilter
from repro.sim.faults import (
    DegradedResult,
    FaultError,
    FaultEvent,
    FaultPlan,
    TransferLog,
    _check_mode,
    undelivered_map,
)
from repro.sim.lowering import LoweredSchedule, lower_schedule
from repro.sim.machine import MachineParams
from repro.sim.ports import PortModel
from repro.sim.result import _EPS, AsyncResult
from repro.sim.schedule import Chunk, Schedule, Transfer
from repro.sim.trace import LinkStats
from repro.topology.base import Topology
from repro.topology.hypercube import DirectedEdge

__all__ = ["run_async_vectorized"]

_INF = float("inf")


def run_async_vectorized(
    cube: Topology,
    schedule: Schedule,
    port_model: PortModel,
    initial_holdings: dict[int, set[Chunk]],
    machine: MachineParams | None = None,
    faults: FaultPlan | None = None,
    on_fault: str = "raise",
    lowered: LoweredSchedule | None = None,
    transfer_log: bool = False,
) -> AsyncResult | DegradedResult:
    """Event-driven execution of ``schedule`` under ``port_model``.

    Exported as :func:`repro.sim.run_async`.  Raises ``RuntimeError`` on
    deadlock — i.e. when a pending transfer's payload can never arrive
    because the schedule is causally broken.

    With a :class:`~repro.sim.faults.FaultPlan`, a transfer whose start
    instant falls on a dead link or endpoint raises a structured
    :class:`~repro.sim.faults.FaultError` (``on_fault="raise"``,
    default) or is cancelled and reported (``on_fault="report"``):
    the run then continues with the surviving transfers, transfers
    starved by the cancellation cascade are dropped instead of
    deadlocking, and a :class:`~repro.sim.faults.DegradedResult` names
    every undelivered ``(node, chunk)``.  A faulted run that still
    executes every transfer returns a plain :class:`AsyncResult`.

    ``lowered`` optionally reuses a pre-built
    :class:`~repro.sim.lowering.LoweredSchedule`; it must have been
    lowered from this exact ``schedule`` and ``initial_holdings``
    (lowering is machine- and port-model-independent, so one lowering
    can be replayed under many machines).  ``transfer_log=True``
    additionally records per-transfer provenance (program-order ids +
    execution-order start times) on the result — the service layer's
    hook for splitting merged multi-job runs back into per-job
    accounting.

    This engine also honours per-chunk *release times* baked into the
    lowering (see :func:`repro.sim.lowering.lower_schedule`): a
    transfer whose payload is released at ``t > 0`` is filed for the
    instant ``t`` instead of competing at 0, which is how service jobs
    admitted mid-stream join an already-running cube.
    """
    machine = machine or MachineParams()
    _check_mode(on_fault)
    report = faults is not None and on_fault == "report"
    half = port_model.half_duplex
    allport = port_model is PortModel.ALL_PORT
    use_lb = not allport
    ov1 = 1.0 - machine.overlap
    eps = _EPS

    low = lowered if lowered is not None else lower_schedule(
        cube, schedule, initial_holdings
    )
    nT = low.n_transfers
    transfers = low.transfers

    # Python mirrors of the per-transfer columns: the scalar admission
    # loop reads these (C-int list access beats NumPy scalar indexing
    # by ~5x per element).
    src_py = low.src.tolist()
    dst_py = low.dst.tolist()
    port_py = low.port.tolist()
    link_py = low.link.tolist()
    in_ptr = low.in_ptr.tolist()
    in_idx = low.in_idx.tolist()
    out_ptr = (
        in_ptr  # in/out CSR pointers are parallel by construction
        if np.array_equal(low.out_ptr, low.in_ptr)
        else low.out_ptr.tolist()
    )
    out_idx = low.out_idx.tolist()
    wait_ptr = low.wait_ptr.tolist()
    wait_idx = low.wait_idx.tolist()

    # send_cost is pure in the size, so compute it once per distinct size
    uniq_sizes, size_inv = np.unique(low.elems, return_inverse=True)
    uniq_costs = [machine.send_cost(int(s)) for s in uniq_sizes.tolist()]
    if uniq_sizes.size == 1:
        costs_py = uniq_costs * nT
    else:
        costs_py = [uniq_costs[j] for j in size_inv.tolist()]

    # -- mutable state -----------------------------------------------------
    avail_py = low.init_avail.tolist()
    missing_py = low.init_missing.tolist()
    done_py = [False] * nT
    ready_np = np.full(nT, np.inf)
    # Queue-membership marker: a transfer already sitting in the current
    # instant's exam queues is never pushed a second time (the reference
    # examines each pending transfer at most once per scan pass).
    inq = [False] * nT
    link_free_py = [0.0] * low.n_links
    num_nodes = cube.num_nodes
    n_ports = cube.num_ports
    if use_lb:
        # Exact channel windows, pruned like _Channel.
        swin: list[list[tuple[int, float, float]]] = [
            [] for _ in range(num_nodes)
        ]
        rwin = swin if half else [[] for _ in range(num_nodes)]
        # Transfers currently blocked on each node channel, and the
        # channels occupied since the last time advance (the dirty set
        # driving the constraint re-materialization sweep).
        sblk: list[set[int]] = [set() for _ in range(num_nodes)]
        rblk = sblk if half else [set() for _ in range(num_nodes)]
        dirty_s: set[int] = set()
        dirty_r: set[int] = set()
    else:
        swin = rwin = [[]]
        sblk = rblk = [set()]
        dirty_s = set()
        dirty_r = set()
    # Outstanding blocked-set entries; while zero, the execute path can
    # skip blocked-set and dirty-channel bookkeeping entirely.
    blk_total = 0
    # Per-channel occupation epochs plus per-blocked-transfer stamps of
    # (send epoch, recv epoch, link_free) at exam time: a transfer that
    # blocked in one pass is re-examined in the next only if one of its
    # three resources changed after the exam — an unchanged re-exam
    # recomputes the same constraint, whose wake the first exam already
    # pushed, so skipping it is exactly a no-op.
    es = [0] * num_nodes
    er = es if half else [0] * num_nodes
    st_se = [0] * nT
    st_re = [0] * nT
    st_lf = [0.0] * nT
    # Stored constraint value at stamp time (max of channel walks and
    # link-free).  It is only ever read under unchanged stamps, where
    # max(now, vc) reproduces the walk bit for bit; the zero init
    # encodes the virgin state exactly — empty windows and a free link
    # constrain to ``now``.  The NumPy mirror is the prefilter's
    # admission gate; ``vc_touch`` collects ids whose mirror entry is
    # stale, flushed in one fancy assignment per instant (executed and
    # faulted transfers are then batch-set to +inf, dropping them from
    # all future candidate sets).
    vc_py = [0.0] * nT
    vc_np = np.zeros(nT)
    vc_touch: list[int] = []

    # Event calendar: transfer ids bucketed under the exact float time
    # at which they next surface as admission candidates (their ready
    # or stored-constraint value — always also a wake-heap value, so
    # the advance's own pops harvest the due buckets).  Every vc/ready
    # change files a new entry, so the latest state always has one;
    # stale (superseded or post-execution) entries are tolerated — the
    # kernel filters them in bulk against the current ``vc`` column.
    # This keeps per-instant work proportional to the transfers
    # actually due, not to the number of enabled transfers.
    calendar: dict[float, list[int]] = {}
    # Entries falling inside the instant being processed (sweep values
    # clamped to ``now``) carry straight into the next instant's due
    # list instead, as do the t=0 seeds.
    pending: list[int] = []

    # Wake heap of raw float times, deduplicated by exact bit pattern.
    wake: list[float] = []
    wake_set: set[float] = set()

    for i in range(nT):
        if missing_py[i] == 0:
            r = 0.0
            for s in in_idx[in_ptr[i]:in_ptr[i + 1]]:
                a = avail_py[s]
                if a > r:
                    r = a
            ready_np[i] = r
            if r > eps:
                # Release-delayed seed (multi-job programs): file it for
                # the instant its payload is released, exactly like a
                # delivery beyond the current instant would.
                b0 = calendar.get(r)
                if b0 is None:
                    calendar[r] = [i]
                else:
                    b0.append(i)
                if r not in wake_set:
                    wake_set.add(r)
                    heappush(wake, r)
            else:
                pending.append(i)

    remaining = nT
    now = 0.0
    finish = 0.0
    start_times: list[float] = []
    executed_ids: list[int] = []
    fault_events: list[FaultEvent] = []
    lost: list[Transfer] = []

    t0 = perf_counter()
    doneskip_n = 0
    blocks_n = 0

    def _flush(deadlocked: bool = False) -> None:
        elems_total = (
            int(low.elems[np.asarray(executed_ids, dtype=np.int64)].sum())
            if executed_ids
            else 0
        )
        engine_run_finished(
            "vectorized", port_model,
            transfers=len(start_times),
            elems=elems_total,
            seconds=perf_counter() - t0,
            events=(
                blocks_n + doneskip_n
                + len(start_times) + len(fault_events)
            ),
            admission_blocks=blocks_n,
            faulted=len(lost),
            deadlocked=deadlocked,
            table_bytes=low.table_bytes,
        )

    while remaining:
        limit = now + eps

        if pending:
            cand_arr = prefilter(
                np.asarray(pending, dtype=np.int64), ready_np, vc_np, limit
            )
            pending = []
            # unique: an id with several due entries is examined once
            cur: list[int] = np.unique(cand_arr).tolist()
        else:
            cur = []
        for i in cur:
            inq[i] = True
        nextpass: list[int] = []
        blocked_acc: list[int] = []
        idone: list[int] = []

        while True:
            mark = len(start_times) + len(fault_events)
            # Walk `cur` (ascending ids = program order) with a cursor;
            # `extra` holds same-instant enables ahead of the cursor.
            extra: list[int] = []
            ci = 0
            cn = len(cur)
            while True:
                if ci < cn:
                    i = cur[ci]
                    if extra and extra[0] < i:
                        i = heappop(extra)
                    else:
                        ci += 1
                elif extra:
                    i = heappop(extra)
                else:
                    break
                inq[i] = False
                if done_py[i]:
                    doneskip_n += 1
                    continue
                p_ = port_py[i]
                s_ = src_py[i]
                d_ = dst_py[i]
                li = link_py[i]
                lf = link_free_py[li]
                if st_se[i] == es[s_] and st_re[i] == er[d_] and st_lf[i] == lf:
                    # Unchanged resources since the stamped exam (or the
                    # virgin state, which the zero stamps encode
                    # exactly): the stored constraint still holds, its
                    # wake value is already in the heap, and a blocked
                    # transfer is already in the blocked-channel sets.
                    start = vc_py[i]
                    if start > limit:
                        blocks_n += 1
                        blocked_acc.append(i)
                        continue
                    if start < now:
                        start = now
                else:
                    start = now
                    if use_lb:
                        for ap, as_, ae in swin[s_]:
                            v = ae if ap == p_ else as_ + ov1 * (ae - as_)
                            if v > start:
                                start = v
                        for ap, as_, ae in rwin[d_]:
                            v = ae if ap == p_ else as_ + ov1 * (ae - as_)
                            if v > start:
                                start = v
                    if lf > start:
                        start = lf
                    if start > limit:
                        blocks_n += 1
                        if use_lb:
                            bs = sblk[s_]
                            if i not in bs:
                                bs.add(i)
                                blk_total += 1
                            bs = rblk[d_]
                            if i not in bs:
                                bs.add(i)
                                blk_total += 1
                        if start not in wake_set:
                            wake_set.add(start)
                            heappush(wake, start)
                        st_se[i] = es[s_]
                        st_re[i] = er[d_]
                        st_lf[i] = lf
                        vc_py[i] = start
                        vc_touch.append(i)
                        b = calendar.get(start)
                        if b is None:
                            calendar[start] = [i]
                        else:
                            b.append(i)
                        blocked_acc.append(i)
                        continue

                if faults is not None:
                    hit = faults.blocks(s_, d_, start)
                    if hit is not None:
                        kind, subject = hit
                        t = transfers[i]
                        if on_fault == "raise":
                            _flush()
                            raise FaultError(
                                f"transfer {t.src}->{t.dst} blocked by dead "
                                f"{kind} {subject} at t={start:.6g}; pending "
                                f"chunks {sorted(map(repr, t.chunks))[:4]}",
                                edge=(t.src, t.dst),
                                node=subject if kind == "node" else None,
                                time=start,
                                chunks=t.chunks,
                            )
                        fault_events.append(FaultEvent(t, start, kind, subject))
                        lost.append(t)
                        done_py[i] = True
                        idone.append(i)
                        continue

                dur = costs_py[i]
                end = start + dur
                if use_lb:
                    es[s_] += 1
                    er[d_] += 1
                    cut = start + eps
                    w = swin[s_]
                    if w:
                        if len(w) == 1:
                            if w[0][2] <= cut:
                                w.clear()
                        else:
                            swin[s_] = w = [a for a in w if a[2] > cut]
                    w.append((p_, start, end))
                    w = rwin[d_]
                    if w:
                        if len(w) == 1:
                            if w[0][2] <= cut:
                                w.clear()
                        else:
                            rwin[d_] = w = [a for a in w if a[2] > cut]
                    w.append((p_, start, end))
                    if blk_total:
                        bs = sblk[s_]
                        if i in bs:
                            bs.discard(i)
                            blk_total -= 1
                        bs = rblk[d_]
                        if i in bs:
                            bs.discard(i)
                            blk_total -= 1
                        # Only occupations that land while some transfer
                        # is blocked can invalidate a pushed constraint;
                        # with nothing blocked the sweep has no work.
                        dirty_s.add(s_)
                        dirty_r.add(d_)
                    # Duration-form overlap release, pushed like the
                    # reference at occupation; the end-start form the
                    # channel constraints compute is materialized by
                    # the dirty-channel sweep before the next advance.
                    r1 = start + ov1 * dur
                    if r1 not in wake_set:
                        wake_set.add(r1)
                        heappush(wake, r1)
                link_free_py[li] = end
                if end not in wake_set:
                    wake_set.add(end)
                    heappush(wake, end)

                op = out_ptr[i]
                oe = out_ptr[i + 1]
                outs = (
                    (out_idx[op],) if oe - op == 1 else out_idx[op:oe]
                )
                for s in outs:
                    a = avail_py[s]
                    if end < a:
                        avail_py[s] = end
                        first = a == _INF
                        wp0 = wait_ptr[s]
                        wp1 = wait_ptr[s + 1]
                        waiters = (
                            (wait_idx[wp0],)
                            if wp1 - wp0 == 1
                            else wait_idx[wp0:wp1]
                        )
                        for w2 in waiters:
                            if done_py[w2]:
                                continue
                            if first:
                                m = missing_py[w2] - 1
                                missing_py[w2] = m
                                if m:
                                    continue
                                newly = True
                            else:
                                if missing_py[w2]:
                                    continue
                                newly = False
                            i0 = in_ptr[w2]
                            i1 = in_ptr[w2 + 1]
                            if i1 - i0 == 1:
                                r = avail_py[in_idx[i0]]
                            else:
                                r = 0.0
                                for s2 in in_idx[i0:i1]:
                                    a2 = avail_py[s2]
                                    if a2 > r:
                                        r = a2
                            ready_np[w2] = r
                            if r > limit:
                                b = calendar.get(r)
                                if b is None:
                                    calendar[r] = [w2]
                                else:
                                    b.append(w2)
                            elif not inq[w2]:
                                # Enabled at this same instant: the
                                # reference's scan picks it up in this
                                # pass when it lies ahead of the
                                # cursor, next pass otherwise.
                                inq[w2] = True
                                if w2 > i:
                                    heappush(extra, w2)
                                else:
                                    nextpass.append(w2)

                start_times.append(start)
                executed_ids.append(i)
                if end > finish:
                    finish = end
                done_py[i] = True
                idone.append(i)

            dtot = len(start_times) + len(fault_events)
            remaining = nT - dtot
            if dtot == mark or not remaining:
                break
            if blocked_acc:
                for j in blocked_acc:
                    if (
                        not done_py[j]
                        and not inq[j]
                        and (
                            es[src_py[j]] != st_se[j]
                            or er[dst_py[j]] != st_re[j]
                            or link_free_py[link_py[j]] != st_lf[j]
                        )
                    ):
                        inq[j] = True
                        nextpass.append(j)
            if not nextpass:
                break
            cur = nextpass
            nextpass = []
            cur.sort()

        for j in nextpass:  # delivery-enabled when the instant closed
            inq[j] = False

        if not remaining:
            break

        # Dirty-channel sweep (see module docstring): re-evaluate every
        # transfer blocked on a channel occupied during this instant and
        # push its constraint — computed from final instant state, with
        # the end-start release form — as a pure wake.  This is where
        # the reference's per-instant rescan pushes come from.
        if use_lb and (dirty_s or dirty_r):
            # Channel windows are frozen for the whole sweep, so the
            # per-(node, port) walk maxima are memoized — the blocked
            # transfers of one pile share their send-side walk.
            swc: dict[int, float] = {}
            rwc = swc if half else {}
            for blk_list, nodes in ((sblk, dirty_s), (rblk, dirty_r)):
                for node in nodes:
                    blocked = blk_list[node]
                    for w3 in list(blocked):
                        if done_py[w3]:
                            blocked.discard(w3)
                            blk_total -= 1
                            continue
                        # Unchanged resources since the blocked exam (or
                        # a previous sweep visit) mean an unchanged
                        # constraint, already in the wake set.
                        sw3 = src_py[w3]
                        dw3 = dst_py[w3]
                        lfw = link_free_py[link_py[w3]]
                        if (
                            es[sw3] == st_se[w3]
                            and er[dw3] == st_re[w3]
                            and lfw == st_lf[w3]
                        ):
                            continue
                        st_se[w3] = es[sw3]
                        st_re[w3] = er[dw3]
                        st_lf[w3] = lfw
                        pw = port_py[w3]
                        k_ = sw3 * n_ports + pw
                        sv = swc.get(k_)
                        if sv is None:
                            sv = 0.0
                            for ap, as_, ae in swin[sw3]:
                                c = ae if ap == pw else as_ + ov1 * (ae - as_)
                                if c > sv:
                                    sv = c
                            swc[k_] = sv
                        k_ = dw3 * n_ports + pw
                        rv = rwc.get(k_)
                        if rv is None:
                            rv = 0.0
                            for ap, as_, ae in rwin[dw3]:
                                c = ae if ap == pw else as_ + ov1 * (ae - as_)
                                if c > rv:
                                    rv = c
                            rwc[k_] = rv
                        v = now
                        if sv > v:
                            v = sv
                        if rv > v:
                            v = rv
                        if lfw > v:
                            v = lfw
                        # max(now', vc) == max(now', true constraint)
                        # for every later instant now' >= now, so the
                        # now-clamped value is safe to store.
                        vc_py[w3] = v
                        vc_touch.append(w3)
                        if v > limit:
                            b = calendar.get(v)
                            if b is None:
                                calendar[v] = [w3]
                            else:
                                b.append(w3)
                        else:
                            pending.append(w3)
                        if v not in wake_set:
                            wake_set.add(v)
                            heappush(wake, v)
            dirty_s.clear()
            dirty_r.clear()

        # Flush the NumPy mirrors the prefilter reads, in one batch per
        # instant: stale vc entries first (duplicate ids all carry the
        # same final value), then the executed/faulted overrides.
        if vc_touch:
            vc_np[vc_touch] = [vc_py[j] for j in vc_touch]
            vc_touch.clear()
        if idone:
            vc_np[idone] = np.inf

        nxt = None
        while wake:
            v = heappop(wake)
            if v > limit:
                nxt = v
                break
        if nxt is None:
            if report and fault_events:
                break  # starvation cascade from cancelled transfers
            stuck = [transfers[j] for j in range(nT) if not done_py[j]][:4]
            _flush(deadlocked=True)
            raise RuntimeError(
                f"schedule deadlocked with {remaining} transfers pending, "
                f"e.g. {stuck}"
            )
        now = nxt
        # Harvest the due calendar buckets: the new instant coalesces
        # every wake value in (limit, now + eps], so ids filed under
        # those values are exactly the next admission candidates.
        b = calendar.pop(nxt, None)
        if b is not None:
            pending.extend(b)
        lim2 = nxt + eps
        while wake and wake[0] <= lim2:
            v = heappop(wake)
            b = calendar.pop(v, None)
            if b is not None:
                pending.extend(b)
        # The dedup set otherwise accumulates every float ever pushed;
        # rebuilding it from the live heap keeps it cache-sized on
        # million-transfer runs.  (Dedup is a size optimization, not a
        # correctness requirement: a missed duplicate is popped and
        # coalesced at the same instant.)
        if len(wake_set) > 4 * len(wake) + 4096:
            wake_set = set(wake)
            wake_set.add(nxt)

    # -- result assembly ---------------------------------------------------
    holdings: dict[int, set[Chunk]] = {node: set() for node in cube.nodes()}
    chunk_objects = low.chunk_objects
    slot_node = low.slot_node.tolist()
    slot_chunk = low.slot_chunk.tolist()
    for s in np.flatnonzero(np.asarray(avail_py) != np.inf).tolist():
        holdings[slot_node[s]].add(chunk_objects[slot_chunk[s]])

    stats = LinkStats()
    if executed_ids:
        ids = np.asarray(executed_ids, dtype=np.int64)
        le = low.link[ids]
        packets = np.bincount(le, minlength=low.n_links)
        elems_per = np.bincount(
            le, weights=low.elems[ids].astype(np.float64),
            minlength=low.n_links,
        )
        lsrc = low.link_src.tolist()
        ldst = low.link_dst.tolist()
        pk = packets.tolist()
        el = elems_per.tolist()
        for li in np.flatnonzero(packets).tolist():
            edge = DirectedEdge(lsrc[li], ldst[li])
            stats.packets[edge] = pk[li]
            stats.elems[edge] = int(el[li])

    log = (
        TransferLog(ids=list(executed_ids), starts=list(start_times))
        if transfer_log
        else None
    )
    start_times.sort()  # stable: equal start times keep execution order

    if fault_events or remaining:
        lost.extend(transfers[j] for j in range(nT) if not done_py[j])
        _flush()
        return DegradedResult(
            time=finish,
            holdings=holdings,
            link_stats=stats,
            fault_events=fault_events,
            undelivered=undelivered_map(lost, holdings),
            transfers_executed=len(start_times),
            transfers_lost=len(lost),
            start_times=start_times,
            transfer_log=log,
        )

    _flush()
    return AsyncResult(
        time=finish,
        holdings=holdings,
        link_stats=stats,
        start_times=start_times,
        transfers_executed=nT,
        transfer_log=log,
    )
