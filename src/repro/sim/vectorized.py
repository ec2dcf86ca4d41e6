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
  in general.

Every payload-ready transfer on one directed link shares its ``src``,
``dst``, port and ``link_free``, so at any state they all have the same
constraint value: the reference's pushes for all but the first repeat
it, and the wake set deduplicates the repeats.  This engine therefore
keeps one program-order queue (a heap of transfer ids) of
payload-ready pending transfers per directed link, and one stored
constraint per link.  Only the head of each queue is an admission
candidate, sits in the blocked-channel sets and is re-evaluated by the
sweep:

* a transfer is examined once when its payload becomes ready, at its
  program-order position — head or not, exactly where the reference
  first scans it, so a constraint value that holds only mid-pass is
  pushed as the reference pushes it;
* after that only the head is examined: when the link's stored
  constraint comes due, when its resources changed during the pass
  (the next pass re-examines it), and right after the head before it
  started or was cancelled — at its program-order position in the same
  pass, which picks up the next transfer within the instant when the
  finished head took no time (a zero-cost machine) or was cancelled by
  a fault and never occupied the link;
* before each time advance a per-link sweep re-evaluates every link
  whose blocked head waits on a channel occupied during the closed
  instant, against final instant state, and pushes that value as a
  pure wake.  This is where the reference's per-instant rescan pushes
  come from; it costs one evaluation per dirty link, not one per
  queued transfer.

With the wake values aligned, the full rescan is unnecessary: within
an instant the scalar admission loop below replays the reference's
program-order fixpoint exactly — including mid-pass pickup of
transfers enabled by zero-duration deliveries.

The wake heap holds raw floats deduplicated by their exact bit pattern
(a set of float keys — the "microtick" identity of an instant), so the
heap stays bounded by the number of genuinely distinct event times.

A link's stored constraint ``vc`` comes with stamps of the resources
it was computed from (send-channel epoch, receive-channel epoch,
``link_free``).  Under unchanged stamps ``max(now, vc)`` is the walk's
value bit for bit, so an exam skips the walk.  Channel state itself
stays in per-node Python lists pruned exactly like the reference's
``_Channel.occupy`` — the float arithmetic is identical expression for
expression.

Resumable runs
--------------
:class:`VectorizedRun` holds the whole state of a run, so a run can stop
between two instants and continue later, after more work has joined.
:func:`run_async_vectorized` is one such run: the whole schedule is
admitted at t=0 and advanced to the end.  The multi-job admission loops
(:mod:`repro.service`, :mod:`repro.workloads`) drive the same object
incrementally: :meth:`VectorizedRun.admit` adds one job entry (with
its own untagged lowering, which entries may share; chunks namespaced
by its tag, released at its admission instant),
:meth:`VectorizedRun.advance` executes instants up to a bound, and
:meth:`VectorizedRun.result` closes the run.  The end state is bit for
bit that of one from-scratch run of the final merged program
(:func:`repro.sim.multi.merge_programs` of every entry in rank order):

* live transfers (not yet executed or cancelled) keep ids in the final
  program order — round-major, then entry rank, then order within the
  round — so later instants scan them in exactly the full run's order.
  A new job's round-0 rows rank ahead of older jobs' later rounds, so
  an admission merges its rows into the live ones.  Rows done by then
  join a frozen prefix whose ids never change, so a flush sorts and
  mirrors only the live and the new rows; :meth:`VectorizedRun.result`
  maps every id to its final program position once;
* a job released at ``r`` only adds events at or after ``r``, and
  ``advance(t)`` never processes an instant ``now`` with
  ``now + _EPS >= t``: the full run coalesces the release wake of a job
  admitted at ``t`` into such an instant and may start the job up to
  one ``_EPS`` early;
* ``advance`` also stops right after the instant in which a job
  *resolves* — its last transfer started, or was cancelled, or was
  starved by a cancellation — when the job's finish lies below the
  bound, because the admission loops may admit more work at that
  finish.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from time import perf_counter
from typing import Hashable

import numpy as np

from repro.obs.instruments import engine_run_finished
from repro.sim.faults import (
    DegradedResult,
    FaultError,
    FaultEvent,
    FaultPlan,
    TransferLog,
    _check_mode,
    undelivered_map,
)
from repro.sim.lowering import LoweredSchedule, _csr_take, lower_schedule
from repro.sim.machine import MachineParams
from repro.sim.multi import JobEntry
from repro.sim.ports import PortModel
from repro.sim.result import _EPS, AsyncResult, holdings_from_slots
from repro.sim.schedule import Chunk, Schedule, Transfer
from repro.sim.trace import LinkStats
from repro.topology.base import Topology

__all__ = ["AdmissionBlock", "VectorizedRun", "run_async_vectorized"]

_INF = float("inf")

#: columns of the per-transfer static table, permuted together on every
#: renumbering: endpoints, port, internal link id, size, round, position
#: within the round, owning job handle, row in the job's own lowering
_SRC, _DST, _PORT, _LINK, _ELEMS, _RND, _WITHIN, _JOB, _LOCAL = range(9)
_NCOL = 9


@dataclass(frozen=True)
class AdmissionBlock:
    """The rows one lowering adds to a run, as far as the lowering alone
    fixes them.  An admitted run keeps it with the lowering
    (:attr:`~repro.sim.lowering.LoweredSchedule.block`), so a flush
    only fills in the job, prices the sizes and offsets the slots.

    Attributes:
        icol: the ``(T, _NCOL)`` static table in the lowering's row
            order, with the job column 0.
        sizes, size_inv: the distinct transfer sizes, ascending, and
            each row's index into them.
        io: the ``(input, output)`` slot of every CSR entry, relative
            to the job's first slot.
    """

    icol: np.ndarray
    sizes: np.ndarray
    size_inv: np.ndarray
    io: np.ndarray

    def __post_init__(self) -> None:
        for a in (self.icol, self.sizes, self.size_inv, self.io):
            a.flags.writeable = False

    @property
    def nbytes(self) -> int:
        return (
            self.icol.nbytes + self.sizes.nbytes + self.size_inv.nbytes
            + self.io.nbytes
        )

    @classmethod
    def build(cls, low: LoweredSchedule, link: np.ndarray) -> "AdmissionBlock":
        """The block of ``low`` whose rows use the link ids ``link``."""
        n = low.n_transfers
        lens = low.round_lens
        icol = np.empty((n, _NCOL), dtype=np.int64)
        icol[:, _SRC] = low.src
        icol[:, _DST] = low.dst
        icol[:, _PORT] = low.port
        icol[:, _LINK] = link
        icol[:, _ELEMS] = low.elems
        icol[:, _RND] = np.repeat(np.arange(lens.size), lens)
        row = np.arange(n)
        icol[:, _WITHIN] = row - np.repeat(np.cumsum(lens) - lens, lens)
        icol[:, _JOB] = 0
        icol[:, _LOCAL] = row
        sizes, inv = np.unique(low.elems, return_inverse=True)
        return cls(icol, sizes, inv.reshape(-1), _io(low))

    def moved(self, low: LoweredSchedule, link: np.ndarray) -> "AdmissionBlock":
        """This block moved to ``low``, a translation of its lowering:
        rows keep their order, round, size and port, so only the
        endpoints, the links and the slots change."""
        icol = self.icol.copy()
        icol[:, _SRC] = low.src
        icol[:, _DST] = low.dst
        icol[:, _LINK] = link
        return AdmissionBlock(icol, self.sizes, self.size_inv, _io(low))


def _io(low: LoweredSchedule) -> np.ndarray:
    """``low``'s ``(in_idx, out_idx)`` as one ``(nnz, 2)`` array."""
    return np.stack((low.in_idx, low.out_idx), axis=1)


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
    instant ``t`` instead of competing at 0.
    """
    run = VectorizedRun(cube, port_model, machine, faults, on_fault,
                        transfer_log)
    run._stage(
        lowered if lowered is not None
        else lower_schedule(cube, schedule, initial_holdings)
    )
    return run.result()


def _splice(values: list, start: int, tail: list) -> list:
    """``values`` with everything from ``start`` on replaced by
    ``tail``, in place (``tail`` itself when ``start`` is 0)."""
    if not start:
        return tail
    values[start:] = tail
    return values


class VectorizedRun:
    """One resumable engine run (see "Resumable runs" above).

    The arguments mirror :func:`run_async_vectorized`.  Jobs join with
    :meth:`admit`; :meth:`advance` executes instants up to a bound;
    :meth:`take_resolved` hands out the jobs that resolved meanwhile,
    with their completion instants; :meth:`result` runs to the end and
    returns the engine result of the whole program.
    """

    def __init__(
        self,
        cube: Topology,
        port_model: PortModel,
        machine: MachineParams | None = None,
        faults: FaultPlan | None = None,
        on_fault: str = "raise",
        transfer_log: bool = False,
    ):
        _check_mode(on_fault)
        self.cube = cube
        self.port_model = port_model
        self.machine = machine = machine or MachineParams()
        self.faults = faults
        self.on_fault = on_fault
        self.transfer_log = transfer_log
        self._report = faults is not None and on_fault == "report"
        self._half = half = port_model.half_duplex
        self._use_lb = use_lb = port_model is not PortModel.ALL_PORT
        self._ov1 = 1.0 - machine.overlap
        num_nodes = cube.num_nodes
        self._cost_of: dict[int, float] = {}

        # -- admitted jobs -----------------------------------------------
        # (lowering, chunk tag or None, slot offset) per job handle
        self._entries: list[tuple[LoweredSchedule, Hashable, int]] = []
        self._ranks: list = []
        self._track = False  # per-job resolution tracking (admit() only)
        self._jleft: list[int] = []  # unresolved transfers per job
        self._jfin: list[float] = []  # latest end per job (-inf: none)
        self._jcost: list[list[float]] = []  # executed costs, exec order
        self._jrel: list[float] = []
        self._resolved: list[tuple[float, int]] = []
        self.held_slots: list[tuple[np.ndarray, np.ndarray, list[Chunk], Hashable]] = []

        # -- static columns: NumPy masters + the hot loop's Python mirrors
        self.n_transfers = 0
        self.n_slots = 0
        self._table_bytes = 0
        self._staged: list[tuple[int, LoweredSchedule]] = []
        self._icol = np.zeros((0, _NCOL), dtype=np.int64)
        self._cost_np = np.zeros(0)
        # transfer -> (input slot, output slot) CSR; the two slot lists
        # of a transfer are parallel by construction
        self._ptr = np.zeros(1, dtype=np.int64)
        self._io = np.zeros((0, 2), dtype=np.int64)
        self._wait_ptr = np.zeros(1, dtype=np.int64)
        self._wait_idx = np.zeros(0, dtype=np.int64)
        self._link_key = np.zeros(0, dtype=np.int64)  # link id -> src*N+dst
        self._wr_left: list[int] = []  # unresolved writers per slot
        # Python mirrors of the per-transfer columns: the scalar loops
        # read these (C-int list access beats NumPy scalar indexing by
        # ~5x per element).  A flush rewrites only their tails.
        self._src_py: list[int] = []
        self._dst_py: list[int] = []
        self._port_py: list[int] = []
        self._link_py: list[int] = []
        self._job_py: list[int] = []  # while jobs are tracked
        self._cost_py: list[float] = []
        self._ptr_py: list[int] = [0]
        self._in_py: list[int] = []
        self._out_py: list[int] = []
        self._wait_ptr_py: list[int] = [0]
        self._wait_py: list[int] = []
        # Rows below ``_frozen`` all executed or were cancelled before
        # the last flush: their ids never change again.  Entries of
        # ``_executed`` / ``_lost_ids`` below the two marks name such
        # rows.  While ``_ordered``, ids are final program positions.
        self._frozen = 0
        self._executed_mark = 0
        self._lost_mark = 0
        self._ordered = True
        self._all_links = False  # the link table spans the whole cube

        # -- mutable state (see advance) ---------------------------------
        self._avail: list[float] = []
        # Per-transfer state: missing inputs, done flags, whether the
        # transfer sits in its link's ready queue, and whether it is a
        # candidate of the admission pass (always False between passes).
        self._missing: list[int] = []
        self._done: list[bool] = []
        self._queued: list[bool] = []
        self._inq: list[bool] = []
        # Per-link state (_init_links): the ready queue (a heap of
        # transfer ids in program order), link_free, and the stored
        # constraint ``vc`` with the stamps (send epoch, recv epoch,
        # link_free) it was computed under.  An exam under unchanged
        # stamps reuses ``vc``: recomputing would give the same value,
        # whose wake is already in the heap.  The zero init encodes the
        # virgin state exactly — empty windows and a free link constrain
        # to ``now``.
        self._lq: list[list[int]] = []
        self._link_free: list[float] = []
        self._lse: list[int] = []
        self._lre: list[int] = []
        self._llf: list[float] = []
        self._lvc: list[float] = []
        self._lsrc: list[int] = []
        self._ldst: list[int] = []
        self._lport: list[int] = []
        # per-channel occupation epochs
        self._es = [0] * num_nodes
        self._er = self._es if half else [0] * num_nodes
        if use_lb:
            # Exact channel windows, pruned like _Channel.
            self._swin: list[list[tuple[int, float, float]]] = [
                [] for _ in range(num_nodes)
            ]
            self._rwin = self._swin if half else [[] for _ in range(num_nodes)]
            # Links whose blocked head waits on each node channel; with
            # the channels occupied since the last time advance (the
            # dirty sets) they drive the per-link sweep.
            self._sblk: list[set[int]] = [set() for _ in range(num_nodes)]
            self._rblk = (
                self._sblk if half else [set() for _ in range(num_nodes)]
            )
        else:
            self._swin = self._rwin = [[]]
            self._sblk = self._rblk = [set()]
        self._dirty_s: set[int] = set()
        self._dirty_r: set[int] = set()
        # Outstanding blocked-set entries; while zero, the execute path
        # can skip dirty-channel bookkeeping entirely.
        self._blk_total = 0
        # Event calendar, keyed by the exact float time at which its
        # entries surface — always also a wake-heap value, so the time
        # advance's own pops harvest the due buckets.  An entry ``i >= 0``
        # is transfer ``i`` whose payload becomes ready then; an entry
        # ``~li < 0`` is link ``li``, whose stored constraint comes due.
        # Stale entries (a transfer already queued or done, a link whose
        # ``vc`` moved on) are dropped at harvest, so per-instant work is
        # proportional to the entries actually due.
        self._calendar: dict[float, list[int]] = {}
        # Entries falling inside the instant being processed (sweep
        # values clamped to ``now``) carry straight into the next
        # instant's due list instead, as do the t=0 seeds.
        self._pending: list[int] = []
        # Wake heap of raw float times, deduplicated by exact bit pattern.
        self._wake: list[float] = []
        self._wake_set: set[float] = set()
        self._now = 0.0
        self._limit = 0.0
        self._fresh = True  # instant 0 not yet processed
        self._remaining = 0
        self._finish = 0.0
        self._start_times: list[float] = []
        self._executed: list[int] = []
        self._fault_events: list[FaultEvent] = []
        self._lost: list[Transfer] = []
        self._lost_ids: list[int] = []
        self._dead: set[int] = set()  # starved by a cancellation
        self._doneskip_n = 0
        self._blocks_n = 0
        self._seconds = 0.0

    # -- admission ---------------------------------------------------------

    @property
    def horizon(self) -> float:
        """The earliest instant a job may still be released at."""
        return 0.0 if self._fresh else math.nextafter(self._limit, _INF)

    def admit(self, entry: JobEntry, rank, low: LoweredSchedule) -> int:
        """Add ``entry`` to the running program; returns its job handle.

        ``rank`` orders the entry among all admitted entries (smaller =
        higher contention priority, as in
        :func:`~repro.sim.multi.merge_programs`).  ``low`` is the
        entry's own untagged lowering, which may be shared by entries
        with the same schedule.  The entry's release must not precede
        :attr:`horizon`.  Admissions are staged: the rows of every job
        admitted before the next :meth:`advance` join in one flush.
        """
        if entry.release < self.horizon:
            raise ValueError(
                f"release {entry.release!r} of job {entry.tag!r} precedes "
                f"the run's horizon {self.horizon!r}"
            )
        if not self._track:
            self._track = True
            if not (self.n_transfers or self._staged):
                # Jobs join one by one: link ids span every directed
                # edge of the cube from the start, so no admission grows
                # the link table.  result() shrinks it to the used links.
                a, b = np.asarray(list(self.cube.links()), dtype=np.int64).T
                n = self.cube.num_nodes
                keys = np.unique(np.concatenate([a * n + b, b * n + a]))
                self._init_links(
                    keys, self.cube.edge_ports(keys // n, keys % n).tolist()
                )
                self._all_links = True
        h = self._stage(low, entry.tag, entry.release, rank)
        self._jleft.append(low.n_transfers)
        self._jfin.append(-_INF)
        self._jcost.append([])
        self._jrel.append(entry.release)
        if self._report:
            self._wr_left.extend(
                np.bincount(low.out_idx, minlength=low.n_slots).tolist()
            )
        if not low.n_transfers:
            self._resolve([h])
        return h

    def take_resolved(self) -> list[tuple[float, int]]:
        """``(completion, handle)`` of every job resolved since the last
        call.  The completion is the job's finish (its release if none
        of its transfers ran), raised to :attr:`horizon` at resolution
        time when a cancellation resolved the job later than that."""
        out = self._resolved
        self._resolved = []
        return out

    def link_time(self, handle: int) -> float:
        """Summed durations of the job's executed transfers — the same
        NumPy reduction over the same execution order that the
        provenance split performs."""
        return float(np.asarray(self._jcost[handle], dtype=np.float64).sum())

    def _cost(self, size: int) -> float:
        c = self._cost_of.get(size)
        if c is None:
            c = self._cost_of[size] = self.machine.send_cost(size)
        return c

    def _resolve(self, handles: list[int]) -> None:
        horizon = self.horizon
        for h in handles:
            f = self._jfin[h]
            c = f if f != -_INF else self._jrel[h]
            self._resolved.append((c if c > horizon else horizon, h))

    def _stage(
        self,
        low: LoweredSchedule,
        tag: Hashable = None,
        release: float = 0.0,
        rank=None,
    ) -> int:
        """Register one job's lowering; its rows join at the next flush."""
        h = len(self._entries)
        self._entries.append((low, tag, self.n_slots))
        self._ranks.append(rank)
        self._staged.append((h, low))
        self.n_slots += low.n_slots
        init = low.init_avail
        if release:
            init = np.where(init == np.inf, init, release)
        self._avail.extend(init.tolist())
        self._remaining += low.n_transfers
        return h

    def _flush_staged(self) -> None:
        """Add the staged jobs' rows.

        Live rows keep ids in program order — round-major, then entry
        rank, then order within the round — which is the order the
        admission pass scans them in.  A new job's early rounds rank
        ahead of older jobs' later ones, so the new rows are merged
        into the live ones, not appended.  Rows that executed (or were
        cancelled) since the last flush join the frozen prefix in their
        current order, and only the live and the new rows are sorted:
        a flush costs O(live + new rows), not O(all rows).  The frozen
        rows go to their final program positions once, in
        :meth:`result`.
        """
        staged = self._staged
        if not staged:
            return
        self._staged = []
        F = self._frozen
        n_old = self.n_transfers
        num_nodes = self.cube.num_nodes
        lows = [low for _, low in staged]
        blocks = [self._block(low) for low in lows]
        self._table_bytes += sum(low.table_bytes for low in lows)
        n_e = np.asarray([low.n_transfers for low in lows], dtype=np.int64)
        n_new = int(n_e.sum())
        T = n_old + n_new
        row0 = np.cumsum(n_e) - n_e  # first new row of each job

        def cat(name: str) -> np.ndarray:
            if len(lows) == 1:
                return getattr(lows[0], name)
            return np.concatenate([getattr(low, name) for low in lows])

        def counts(name: str) -> np.ndarray:
            return np.diff(cat(name)) if len(lows) == 1 else np.concatenate(
                [np.diff(getattr(low, name)) for low in lows]
            )

        # Links: one sorted key table keeps the link ids canonical
        # (ascending src * N + dst, as lower_schedule numbers them).  An
        # admitted run set it to every edge of the cube at its first
        # admit; a one-shot run stages one lowering, whose keys are the
        # table as they are.
        one_shot = not self._all_links
        if one_shot and (n_old or len(lows) > 1):
            raise RuntimeError("a one-shot run stages exactly one lowering")
        keys = (
            lows[0].link_src.astype(np.int64) * num_nodes + lows[0].link_dst
            if one_shot else self._link_key
        )
        icol = np.concatenate([self._icol, *(b.icol for b in blocks)])
        icol[n_old:, _JOB] = np.repeat([h for h, _ in staged], n_e)
        # send_cost is pure in the size: once per distinct size
        cost_new = np.concatenate([
            np.asarray(
                [self._cost(s) for s in b.sizes.tolist()], dtype=np.float64
            )[b.size_inv]
            for b in blocks
        ])
        nnz_e = np.asarray([low.in_idx.size for low in lows], dtype=np.int64)
        io_old = self._io.shape[0]
        io = np.concatenate([self._io, *(b.io for b in blocks)])
        io[io_old:] += np.repeat(
            [self._entries[h][2] for h, _ in staged], nnz_e
        )[:, None]
        # slots are disjoint per job: the slot -> waiters CSR just grows
        nw_e = np.asarray([low.wait_idx.size for low in lows], dtype=np.int64)
        wait_new = cat("wait_idx") + np.repeat(row0 + n_old, nw_e)
        wait_ptr_new = self._wait_ptr[-1] + np.cumsum(counts("wait_ptr"))
        missing_new = cat("init_missing")

        cost = np.concatenate([self._cost_np, cost_new])
        ptr = np.concatenate(
            [self._ptr, self._ptr[-1] + np.cumsum(counts("in_ptr"))]
        )
        wait_idx = np.concatenate([self._wait_idx, wait_new])
        seeds = np.flatnonzero(missing_new == 0) + n_old
        F2 = F  # the frozen prefix after this flush
        moved = n_old  # the first old row whose id changes
        if n_old or len(staged) > 1:
            # retire the rows done since the last flush, in their order,
            # then sort the live and the new rows into program order
            done = np.zeros(T - F, dtype=bool)
            queued = np.zeros(T - F, dtype=bool)
            missing = np.empty(T - F, dtype=np.int64)
            done[:n_old - F] = self._done[F:]
            queued[:n_old - F] = self._queued[F:]
            missing[:n_old - F] = self._missing[F:]
            missing[n_old - F:] = missing_new
            retired = np.flatnonzero(done[:n_old - F]) + F
            live = np.flatnonzero(~done) + F
            F2 = F + retired.size
            by_job = self._rank_pos()[icol[live, _JOB]]
            live = live[np.lexsort(
                (icol[live, _WITHIN], by_job, icol[live, _RND])
            )]
            order = np.concatenate([retired, live])  # row F + k <- old id
            new_of = np.empty(T - F, dtype=np.int64)
            new_of[order - F] = np.arange(F, T)
            changed = np.flatnonzero(new_of[:n_old - F] != np.arange(F, n_old))
            moved = F + int(changed[0]) if changed.size else n_old
            icol[F:] = icol[order]
            cost[F:] = cost[order]
            p0 = int(ptr[F])
            tptr, io[p0:] = _csr_take(ptr[F:] - p0, io[p0:], order - F)
            ptr[F:] = tptr + p0
            tail = wait_idx >= F
            wait_idx[tail] = new_of[wait_idx[tail] - F]
            seeds = new_of[seeds - F]
            self._done[F:] = done[order - F].tolist()
            self._queued[F:] = queued[order - F].tolist()
            self._missing[F:] = missing[order - F].tolist()
            if moved < n_old:
                self._renumber(moved, new_of[moved - F:n_old - F].tolist())
            if F2 > 0 and n_new:
                self._ordered = False
        else:  # one lowering into an empty run: already in program order
            self._done = [False] * n_new
            self._queued = [False] * n_new
            self._missing = missing_new.tolist()
        self._frozen = F2
        self._executed_mark = len(self._executed)
        self._lost_mark = len(self._lost_ids)
        self._inq.extend([False] * n_new)

        # the tails of the Python mirrors
        src, dst, port = icol[F:, :_LINK].T.tolist()
        self._src_py = _splice(self._src_py, F, src)
        self._dst_py = _splice(self._dst_py, F, dst)
        self._port_py = _splice(self._port_py, F, port)
        self._link_py = _splice(self._link_py, F, icol[F:, _LINK].tolist())
        if one_shot:  # ports from the transfer columns
            lport = np.zeros(keys.size, dtype=np.int64)
            lport[icol[:, _LINK]] = icol[:, _PORT]
            self._init_links(keys, lport.tolist())
        if self._track:  # set before the first flush, as long as jobs join
            self._job_py = _splice(self._job_py, F, icol[F:, _JOB].tolist())
        self._cost_py = _splice(self._cost_py, F, cost[F:].tolist())
        p0 = int(ptr[F])
        self._ptr_py = _splice(self._ptr_py, F, ptr[F:].tolist())
        ins, outs = io[p0:].T.tolist()
        self._in_py = _splice(self._in_py, p0, ins)
        self._out_py = _splice(self._out_py, p0, outs)
        self._wait_ptr_py.extend(wait_ptr_new.tolist())
        w_old = self._wait_idx.size
        first = w_old
        if moved < n_old:
            changed = np.flatnonzero(wait_idx[:w_old] != self._wait_idx)
            if changed.size:
                first = int(changed[0])
        self._wait_py = _splice(self._wait_py, first, wait_idx[first:].tolist())

        self._icol = icol
        self._cost_np = cost
        self._ptr = ptr
        self._io = io
        self._wait_ptr = np.concatenate([self._wait_ptr, wait_ptr_new])
        self._wait_idx = wait_idx
        self.n_transfers = T

        # seed the new rows whose payload is initially held
        avail = self._avail
        ptr_py = self._ptr_py
        in_py = self._in_py
        calendar = self._calendar
        pending = self._pending
        wake = self._wake
        wake_set = self._wake_set
        for i in seeds.tolist():
            r = 0.0
            for s in in_py[ptr_py[i]:ptr_py[i + 1]]:
                a = avail[s]
                if a > r:
                    r = a
            if r > _EPS:
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

    def _block(self, low: LoweredSchedule) -> AdmissionBlock:
        """The static rows of ``low`` in this run.  Admitted runs number
        links in the one whole-cube table, so their block is kept with
        the lowering, and a translated lowering moves its source's.  A
        one-shot run uses the lowering's own link ids and keeps
        nothing."""
        if not self._all_links:
            return AdmissionBlock.build(low, low.link)
        block = low.block
        if block is None:
            link = np.searchsorted(
                self._link_key,
                low.link_src.astype(np.int64) * self.cube.num_nodes
                + low.link_dst,
            )[low.link]
            source = low.translated_from
            block = low.block = (
                AdmissionBlock.build(low, link) if source is None
                else self._block(source).moved(low, link)
            )
        return block

    def rank_order(self) -> list[int]:
        """Job handles in rank order, ties by handle (admission order)."""
        ranks = self._ranks
        return sorted(range(len(ranks)), key=ranks.__getitem__)

    def _rank_pos(self) -> np.ndarray:
        """Job handle -> position in :meth:`rank_order`."""
        by_rank = self.rank_order()
        rank_pos = np.empty(len(by_rank), dtype=np.int64)
        rank_pos[by_rank] = np.arange(len(by_rank))
        return rank_pos

    def _init_links(self, keys: np.ndarray, ports: list[int]) -> None:
        """Set the link table, once per run: link id -> the sorted key
        ``keys[id]`` (``src * N + dst``) and its port ``ports[id]``,
        every link in its virgin state."""
        num_nodes = self.cube.num_nodes
        n_links = keys.size
        self._link_key = keys
        self._lsrc = (keys // num_nodes).tolist()
        self._ldst = (keys % num_nodes).tolist()
        self._lport = ports
        self._lq = [[] for _ in range(n_links)]
        self._link_free = [0.0] * n_links
        self._llf = [0.0] * n_links
        self._lvc = [0.0] * n_links
        self._lse = [0] * n_links
        self._lre = [0] * n_links

    def _renumber(self, lo: int, m: list[int]) -> None:
        """Move the mutable state to the new ids of a flush: old id
        ``j >= lo`` becomes ``m[j - lo]``; smaller ids keep theirs."""
        # (links enter the calendar and the due lists as ``~li < 0``)
        self._pending = [
            x if x < lo else m[x - lo] for x in self._pending
        ]
        calendar = self._calendar
        for t, b in calendar.items():
            calendar[t] = [x if x < lo else m[x - lo] for x in b]
        # Renumbering keeps the relative program order of the live
        # transfers, so a mapped heap is still a heap.
        lq = self._lq
        for li, q in enumerate(lq):
            if q:
                lq[li] = [j if j < lo else m[j - lo] for j in q]
        # executions and cancellations before the last flush name
        # frozen rows
        for ids, mark in (
            (self._executed, self._executed_mark),
            (self._lost_ids, self._lost_mark),
        ):
            ids[mark:] = [j if j < lo else m[j - lo] for j in ids[mark:]]
        self._dead = {j if j < lo else m[j - lo] for j in self._dead}

    def _transfer(self, i: int) -> Transfer:
        """The (job-tagged) :class:`Transfer` behind id ``i``."""
        low, tag, _ = self._entries[int(self._icol[i, _JOB])]
        t = low.transfer(int(self._icol[i, _LOCAL]))
        if tag is None:
            return t
        return Transfer(t.src, t.dst, frozenset((tag, c) for c in t.chunks))

    def _flush(self, deadlocked: bool = False) -> None:
        executed = self._executed
        elems_total = (
            int(self._icol[executed, _ELEMS].sum())
            if executed
            else 0
        )
        engine_run_finished(
            "vectorized", self.port_model,
            transfers=len(self._start_times),
            elems=elems_total,
            seconds=self._seconds,
            events=(
                self._blocks_n + self._doneskip_n
                + len(self._start_times) + len(self._fault_events)
            ),
            admission_blocks=self._blocks_n,
            faulted=len(self._lost),
            deadlocked=deadlocked,
            table_bytes=self._table_bytes,
        )

    # -- the event loop ----------------------------------------------------

    def advance(self, until: float = _INF) -> bool:
        """Execute every instant ``now`` with ``now + _EPS < until``.

        Stops earlier, right after an instant in which a job resolved
        with a completion below ``until`` (see :meth:`take_resolved`),
        and then returns True.

        Each instant runs in phases: the time advance with its calendar
        harvest (:meth:`_next_instant`), the admission pass
        (:meth:`_admission_pass`), the per-link sweep (:meth:`_sweep`)
        and, while jobs are tracked, job resolution
        (:meth:`_resolve_jobs`).
        """
        t_start = perf_counter()
        self._flush_staged()
        executed_ids = self._executed
        lost_ids = self._lost_ids
        stop = False
        while True:
            due = self._next_instant(until)
            if due is None:
                break
            mk = len(executed_ids)
            ml = len(lost_ids)
            self._admission_pass(due)
            if self._dirty_s or self._dirty_r:
                self._sweep()
            if self._track and (len(executed_ids) > mk or len(lost_ids) > ml):
                if self._resolve_jobs(mk, ml, until):
                    stop = True
                    break
        self._seconds += perf_counter() - t_start
        return stop

    def _next_instant(self, until: float) -> list[int] | None:
        """Time advance with calendar harvest: move ``now`` to the next
        instant with ``now + _EPS < until`` and return the calendar
        entries due there, or None if there is no such instant."""
        eps = _EPS
        if self._fresh:
            if eps >= until:
                return None
            self._fresh = False
        else:
            if not self._remaining:
                return None
            wake = self._wake
            limit = self._limit
            while wake and wake[0] <= limit:
                heappop(wake)
            if not wake:
                self._out_of_wakes()
                return None
            nxt = wake[0]
            if nxt + eps >= until:
                return None
            heappop(wake)
            self._now = nxt
            # Harvest the due calendar buckets: the new instant coalesces
            # every wake value in (limit, now + eps], so entries filed
            # under those values are exactly the next instant's due list.
            calendar = self._calendar
            pending = self._pending
            b = calendar.pop(nxt, None)
            if b is not None:
                pending.extend(b)
            lim2 = nxt + eps
            while wake and wake[0] <= lim2:
                b = calendar.pop(heappop(wake), None)
                if b is not None:
                    pending.extend(b)
            # The dedup set otherwise accumulates every float ever
            # pushed; rebuilding it from the live heap keeps it
            # cache-sized on million-transfer runs.  (Dedup is a size
            # optimization, not a correctness requirement: a missed
            # duplicate is popped and coalesced at the same instant.)
            if len(self._wake_set) > 4 * len(wake) + 4096:
                self._wake_set = set(wake)
                self._wake_set.add(nxt)
        self._limit = self._now + eps
        due = self._pending
        self._pending = []
        return due

    def _out_of_wakes(self) -> None:
        """No wake is left while transfers remain.  After a cancellation
        under ``report`` this is the end of the starvation cascade:
        nothing left can run.  Otherwise the schedule deadlocked."""
        if self._report and self._fault_events:
            if self._track:
                jleft = self._jleft
                self._resolve([h for h, n in enumerate(jleft) if n > 0])
                for h in range(len(jleft)):
                    jleft[h] = 0
            return
        done = self._done
        stuck = [
            self._transfer(j) for j in range(self.n_transfers) if not done[j]
        ][:4]
        self._flush(deadlocked=True)
        raise RuntimeError(
            f"schedule deadlocked with {self._remaining} transfers "
            f"pending, e.g. {stuck}"
        )

    def _admission_pass(self, due: list[int]) -> None:
        """Replay the reference's program-order fixpoint at instant
        ``now``: walk the candidates in program order, pass after pass,
        until a pass makes no progress."""
        eps = _EPS
        faults = self.faults
        use_lb = self._use_lb
        ov1 = self._ov1
        nT = self.n_transfers
        src_py = self._src_py
        dst_py = self._dst_py
        port_py = self._port_py
        link_py = self._link_py
        costs_py = self._cost_py
        # a transfer writes the chunks it reads: one pointer list
        in_ptr = self._ptr_py
        in_idx = self._in_py
        out_idx = self._out_py
        wait_ptr = self._wait_ptr_py
        wait_idx = self._wait_py
        avail_py = self._avail
        missing_py = self._missing
        done_py = self._done
        queued = self._queued
        inq = self._inq
        lq = self._lq
        link_free_py = self._link_free
        lsrc = self._lsrc
        ldst = self._ldst
        lse = self._lse
        lre = self._lre
        llf = self._llf
        lvc = self._lvc
        swin = self._swin
        rwin = self._rwin
        sblk = self._sblk
        rblk = self._rblk
        dirty_s = self._dirty_s
        dirty_r = self._dirty_r
        blk_total = self._blk_total
        es = self._es
        er = self._er
        calendar = self._calendar
        wake = self._wake
        wake_set = self._wake_set
        now = self._now
        limit = self._limit
        finish = self._finish
        start_times = self._start_times
        executed_ids = self._executed
        fault_events = self._fault_events
        doneskip_n = self._doneskip_n
        blocks_n = self._blocks_n

        # Candidates: every transfer whose payload became ready (it joins
        # its link's queue and is examined once, head or not) and the
        # head of every link whose stored constraint came due.
        cur: list[int] = []
        for x in due:
            if x >= 0:
                if queued[x] or done_py[x]:
                    continue  # stale: already queued, or cancelled
                queued[x] = True
                heappush(lq[link_py[x]], x)
            else:
                q = lq[~x]
                if not q or lvc[~x] > limit:
                    continue  # stale: the link's constraint moved on
                x = q[0]
            if not inq[x]:
                inq[x] = True
                cur.append(x)
        cur.sort()
        nextpass: list[int] = []
        blocked_acc: list[int] = []  # links whose exam found them blocked

        while True:
            mark = len(start_times) + len(fault_events)
            # Walk `cur` (ascending ids = program order) with a cursor;
            # `extra` holds same-instant exams ahead of the cursor.
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
                if lse[li] == es[s_] and lre[li] == er[d_] and llf[li] == lf:
                    # Unchanged resources since the link's stamped
                    # evaluation (or the virgin state, which the zero
                    # stamps encode exactly): the stored constraint still
                    # holds, and a blocked link's wake is already in the
                    # heap and the link in the blocked-channel sets.
                    start = lvc[li]
                    if start > limit:
                        blocks_n += 1
                        blocked_acc.append(li)
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
                            if li not in bs:
                                bs.add(li)
                                blk_total += 1
                            bs = rblk[d_]
                            if li not in bs:
                                bs.add(li)
                                blk_total += 1
                        if start not in wake_set:
                            wake_set.add(start)
                            heappush(wake, start)
                        lse[li] = es[s_]
                        lre[li] = er[d_]
                        llf[li] = lf
                        lvc[li] = start
                        b = calendar.get(start)
                        if b is None:
                            calendar[start] = [~li]
                        else:
                            b.append(~li)
                        blocked_acc.append(li)
                        continue

                # `i` leaves its queue, started or cancelled.  The next
                # head is examined at its own position: in this pass when
                # it lies ahead of the cursor, in the next one otherwise.
                q = lq[li]
                if q[0] == i:
                    heappop(q)
                else:  # a non-head `i` started ahead of its head
                    q.remove(i)
                    heapify(q)
                if q:
                    h = q[0]
                    if not inq[h]:
                        inq[h] = True
                        if h > i:
                            heappush(extra, h)
                        else:
                            nextpass.append(h)
                elif blk_total:
                    bs = sblk[s_]
                    if li in bs:
                        bs.discard(li)
                        blk_total -= 1
                    bs = rblk[d_]
                    if li in bs:
                        bs.discard(li)
                        blk_total -= 1

                if faults is not None:
                    hit = faults.blocks(s_, d_, start)
                    if hit is not None:
                        self._blocks_n = blocks_n
                        self._doneskip_n = doneskip_n
                        self._cancel(i, start, hit)
                        done_py[i] = True
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
                        # Only occupations that land while some link is
                        # blocked can invalidate a pushed constraint;
                        # with nothing blocked the sweep has no work.
                        dirty_s.add(s_)
                        dirty_r.add(d_)
                    # Duration-form overlap release, pushed like the
                    # reference at occupation; the end-start form the
                    # channel constraints compute is materialized by the
                    # per-link sweep before the next advance.
                    r1 = start + ov1 * dur
                    if r1 not in wake_set:
                        wake_set.add(r1)
                        heappush(wake, r1)
                link_free_py[li] = end
                if end not in wake_set:
                    wake_set.add(end)
                    heappush(wake, end)

                op = in_ptr[i]
                oe = in_ptr[i + 1]
                outs = (out_idx[op],) if oe - op == 1 else out_idx[op:oe]
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
                            elif missing_py[w2]:
                                continue
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
                            if r > limit:
                                b = calendar.get(r)
                                if b is None:
                                    calendar[r] = [w2]
                                else:
                                    b.append(w2)
                            elif not queued[w2]:
                                # Ready at this same instant: the
                                # reference's scan picks it up in this
                                # pass when it lies ahead of the cursor,
                                # next pass otherwise.
                                queued[w2] = True
                                heappush(lq[link_py[w2]], w2)
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

            dtot = len(start_times) + len(fault_events)
            remaining = nT - dtot
            if dtot == mark or not remaining:
                break
            for li in blocked_acc:
                q = lq[li]
                if q and (
                    es[lsrc[li]] != lse[li]
                    or er[ldst[li]] != lre[li]
                    or link_free_py[li] != llf[li]
                ):
                    h = q[0]
                    if not inq[h]:
                        inq[h] = True
                        nextpass.append(h)
            if not nextpass:
                break
            cur = nextpass
            nextpass = []
            cur.sort()

        for j in nextpass:  # made ready when the instant closed
            inq[j] = False
        self._remaining = remaining
        self._finish = finish
        self._blk_total = blk_total
        self._doneskip_n = doneskip_n
        self._blocks_n = blocks_n

    def _cancel(self, i: int, start: float, hit: tuple) -> None:
        """Transfer ``i`` would start on a dead link or endpoint: raise
        under ``raise``, otherwise record it as cancelled."""
        kind, subject = hit
        t = self._transfer(i)
        if self.on_fault == "raise":
            self._flush()
            raise FaultError(
                f"transfer {t.src}->{t.dst} blocked by dead "
                f"{kind} {subject} at t={start:.6g}; pending "
                f"chunks {sorted(map(repr, t.chunks))[:4]}",
                edge=(t.src, t.dst),
                node=subject if kind == "node" else None,
                time=start,
                chunks=t.chunks,
            )
        self._fault_events.append(FaultEvent(t, start, kind, subject))
        self._lost.append(t)
        self._lost_ids.append(i)

    def _sweep(self) -> None:
        """Per-link sweep (see module docstring): re-evaluate every link
        whose blocked head waits on a channel occupied during the closed
        instant, and push its constraint — from final instant state, with
        the end-start release form — as a pure wake."""
        ov1 = self._ov1
        n_ports = self.cube.num_ports
        now = self._now
        limit = self._limit
        link_free_py = self._link_free
        lsrc = self._lsrc
        ldst = self._ldst
        lport = self._lport
        lse = self._lse
        lre = self._lre
        llf = self._llf
        lvc = self._lvc
        es = self._es
        er = self._er
        swin = self._swin
        rwin = self._rwin
        calendar = self._calendar
        pending = self._pending
        wake = self._wake
        wake_set = self._wake_set
        # Channel windows are frozen for the whole sweep, so the
        # per-(node, port) walk maxima are memoized.
        swc: dict[int, float] = {}
        rwc = swc if self._half else {}
        for blk_list, nodes in (
            (self._sblk, self._dirty_s), (self._rblk, self._dirty_r)
        ):
            for node in nodes:
                for li in blk_list[node]:
                    # Unchanged resources since the link's last
                    # evaluation mean an unchanged constraint, already in
                    # the wake set.
                    sw = lsrc[li]
                    dw = ldst[li]
                    lfw = link_free_py[li]
                    if es[sw] == lse[li] and er[dw] == lre[li] and lfw == llf[li]:
                        continue
                    lse[li] = es[sw]
                    lre[li] = er[dw]
                    llf[li] = lfw
                    pw = lport[li]
                    k_ = sw * n_ports + pw
                    sv = swc.get(k_)
                    if sv is None:
                        sv = 0.0
                        for ap, as_, ae in swin[sw]:
                            c = ae if ap == pw else as_ + ov1 * (ae - as_)
                            if c > sv:
                                sv = c
                        swc[k_] = sv
                    k_ = dw * n_ports + pw
                    rv = rwc.get(k_)
                    if rv is None:
                        rv = 0.0
                        for ap, as_, ae in rwin[dw]:
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
                    # max(now', vc) == max(now', true constraint) for
                    # every later instant now' >= now, so the now-clamped
                    # value is safe to store.
                    lvc[li] = v
                    if v > limit:
                        b = calendar.get(v)
                        if b is None:
                            calendar[v] = [~li]
                        else:
                            b.append(~li)
                    else:
                        pending.append(~li)
                    if v not in wake_set:
                        wake_set.add(v)
                        heappush(wake, v)
        self._dirty_s.clear()
        self._dirty_r.clear()

    def _resolve_jobs(self, mk: int, ml: int, until: float) -> bool:
        """Job resolution after an instant that executed or cancelled
        transfers (executions from ``mk`` on, cancellations from ``ml``
        on): a job resolves once each of its transfers executed, was
        cancelled, or is starved for good by a cancellation (no writer
        of one of its input slots is left).  True if a job resolved with
        a completion below ``until``."""
        executed_ids = self._executed
        start_times = self._start_times
        costs_py = self._cost_py
        job_py = self._job_py
        jleft = self._jleft
        jfin = self._jfin
        jcost = self._jcost
        res: list[int] = []
        for k in range(mk, len(executed_ids)):
            i = executed_ids[k]
            h = job_py[i]
            c = costs_py[i]
            jcost[h].append(c)
            e = start_times[k] + c
            if e > jfin[h]:
                jfin[h] = e
            jleft[h] -= 1
            if not jleft[h]:
                res.append(h)
        stack = self._lost_ids[ml:]
        for i in stack:
            h = job_py[i]
            jleft[h] -= 1
            if not jleft[h]:
                res.append(h)
        if self._report:
            ptr = self._ptr_py
            out_idx = self._out_py
            wait_ptr = self._wait_ptr_py
            wait_idx = self._wait_py
            avail_py = self._avail
            done_py = self._done
            wr_left = self._wr_left
            dead = self._dead
            while stack:
                i = stack.pop()
                for s in out_idx[ptr[i]:ptr[i + 1]]:
                    wr_left[s] -= 1
                    if wr_left[s] or avail_py[s] != _INF:
                        continue
                    for w in wait_idx[wait_ptr[s]:wait_ptr[s + 1]]:
                        if done_py[w] or w in dead:
                            continue
                        dead.add(w)
                        stack.append(w)
                        h = job_py[w]
                        jleft[h] -= 1
                        if not jleft[h]:
                            res.append(h)
        if not res:
            return False
        first = len(self._resolved)
        self._resolve(res)
        return any(c < until for c, _ in self._resolved[first:])

    # -- results -----------------------------------------------------------

    def result(self) -> AsyncResult | DegradedResult:
        """Run to the end and close the run; the engine result of the
        whole program, with transfer ids in final program order (as are
        :meth:`link_columns`, :meth:`costs` and :meth:`owners` from then
        on).

        Also keeps :attr:`held_slots`: per job handle, the
        ``(slot_node, slot_chunk, chunk_objects, tag)`` of the job's
        held slots, the part :func:`~repro.sim.result.holdings_from_slots`
        builds the job's holdings from."""
        self._track = False  # no more admissions: skip job bookkeeping
        self.advance()
        if self._all_links:
            # the link ids of lower_schedule: the used links, ascending
            link = self._icol[:, _LINK]
            used = np.flatnonzero(np.bincount(link, minlength=self._link_key.size))
            new_id = np.empty(self._link_key.size, dtype=np.int64)
            new_id[used] = np.arange(used.size)
            self._icol[:, _LINK] = new_id[link]
            self._link_key = self._link_key[used]
            self._all_links = False
        nT = self.n_transfers
        done_py = self._done
        held = np.asarray(self._avail) != np.inf
        parts = []
        for low, tag, off in self._entries:
            h = held[off:off + low.n_slots]
            parts.append((low.slot_node[h], low.slot_chunk[h], low.chunk_objects, tag))
        self.held_slots = parts
        slots = (self.cube.nodes(), parts)

        executed_ids = self._executed
        start_times = self._start_times
        stats = LinkStats()
        if executed_ids:
            _, link, link_src, link_dst = self.link_columns()
            ids = np.asarray(executed_ids, dtype=np.int64)
            le = link[ids]
            packets = np.bincount(le, minlength=link_src.size)
            elems_per = np.bincount(
                le, weights=self._icol[ids, _ELEMS].astype(np.float64),
                minlength=link_src.size,
            )
            used = np.flatnonzero(packets)
            stats = LinkStats.from_links(
                link_src[used], link_dst[used], packets[used],
                elems_per[used].astype(np.int64),
            )

        # stable: equal start times keep execution order
        start_sorted = sorted(start_times)
        fault_events = self._fault_events
        remaining = self._remaining
        self._flush()
        lost = list(self._lost)
        if fault_events or remaining:
            # the rows never done are live rows: in program order
            lost.extend(self._transfer(j) for j in range(nT) if not done_py[j])
        final = None
        if not self._ordered:
            # frozen rows to their final program positions, once
            icol = self._icol
            order = np.lexsort((
                icol[:, _WITHIN], self._rank_pos()[icol[:, _JOB]],
                icol[:, _RND],
            ))
            self._icol = icol[order]
            self._cost_np = self._cost_np[order]
            final = np.empty(nT, dtype=np.int64)
            final[order] = np.arange(nT)
            self._ordered = True
        log = (
            TransferLog(
                ids=(
                    list(executed_ids) if final is None
                    else final[executed_ids].tolist()
                ),
                starts=list(start_times),
            )
            if self.transfer_log
            else None
        )
        if fault_events or remaining:
            holdings = holdings_from_slots(*slots)
            return DegradedResult(
                time=self._finish,
                holdings=holdings,
                link_stats=stats,
                fault_events=list(fault_events),
                undelivered=undelivered_map(lost, holdings),
                transfers_executed=len(start_sorted),
                transfers_lost=len(lost),
                start_times=start_sorted,
                transfer_log=log,
            )
        return AsyncResult.on_read(
            slots,
            time=self._finish,
            link_stats=stats,
            start_times=start_sorted,
            transfers_executed=nT,
            transfer_log=log,
        )

    def link_columns(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-transfer ``(elems, link)`` plus ``(link_src, link_dst)``,
        with link ids in canonical order (ascending ``src * N + dst``,
        as :func:`~repro.sim.lowering.lower_schedule` numbers them)."""
        num_nodes = self.cube.num_nodes
        key = self._link_key
        return (
            self._icol[:, _ELEMS], self._icol[:, _LINK],
            (key // num_nodes).astype(np.int32),
            (key % num_nodes).astype(np.int32),
        )

    def costs(self) -> np.ndarray:
        """Per-transfer ``machine.send_cost(elems)``, in program order."""
        return self._cost_np

    def owners(self) -> np.ndarray:
        """Per-transfer rank position (in :meth:`rank_order`) of the
        owning job, in program order: once every staged job is in, the
        ``owners`` of :func:`~repro.sim.multi.merge_programs` over the
        entries in rank order."""
        return self._rank_pos()[self._icol[:, _JOB]]
