"""Lower a :class:`~repro.sim.schedule.Schedule` into flat arrays.

The vectorized event engine (:mod:`repro.sim.vectorized`) does not walk
``Transfer`` objects, chunk frozensets and ``(node, chunk)`` dicts at
every admission check.  Instead this module compiles a schedule once
into an array-of-structs :class:`LoweredSchedule`:

* per-transfer columns ``src``/``dst``/``port``/``link``/``elems`` —
  the port and the dense directed-link id are precomputed here, so the
  hot loop never calls :meth:`Hypercube.port_towards` (an object-path
  engine spends a large share of its time re-deriving and re-validating
  ports, ~6–7 examinations per transfer);
* a *slot* table: every distinct ``(node, chunk)`` pair that can ever
  hold payload gets a dense id, with ``slot_node``/``slot_chunk``
  decoding columns and an ``init_avail`` column (0.0 for initial
  holdings — or their per-chunk release time, see ``release_times`` —
  and ``+inf`` for absent);
* dependency CSR indexes: ``in_ptr``/``in_idx`` (the slots a transfer
  reads at its sender), ``out_idx`` (the slots it writes at its
  receiver, under the same ``in_ptr``: a transfer writes the chunks it
  reads) and the inverted ``wait_ptr``/``wait_idx`` (the transfers
  waiting on each slot), plus ``init_missing`` — how many of each
  transfer's input slots start out absent;
* ``round_lens``, the transfers per round, so the lock-step pass
  (:mod:`repro.sim.synchronous`) never reads the schedule's rounds.

The transfers themselves are not kept: :meth:`LoweredSchedule.transfer`
rebuilds one from the columns for the fault and error reports.

Lowering is machine- and port-model-independent: the same
:class:`LoweredSchedule` can be replayed under any
:class:`~repro.sim.machine.MachineParams`.  It *does* bake in the
initial holdings (they define the slot table and ``init_avail``).

A lowering relabelled by a topology automorphism is the lowering of
the relabelled schedule (:meth:`LoweredSchedule.translated`): the
hypercube broadcasts are lowered once at source 0 and moved to every
other source by XOR, with no ``Transfer`` built on the way.

Adjacency validation is vectorized through the topology's
``edge_ports``: every transfer must cross exactly one port of the host
graph (a cube dimension, a torus ring step).  Offending transfers are
re-checked through ``port_towards`` so the error message matches the
object-path engines.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.sim.ports import PortModel
from repro.sim.result import holdings_from_slots
from repro.sim.schedule import Chunk, Schedule, Transfer
from repro.topology.base import Topology

__all__ = ["LoweredSchedule", "lower_schedule"]

#: every NumPy column of a :class:`LoweredSchedule`
ARRAYS = (
    "src", "dst", "port", "link", "elems",
    "in_ptr", "in_idx", "out_idx",
    "wait_ptr", "wait_idx",
    "slot_node", "slot_chunk", "init_avail", "init_missing",
    "link_src", "link_dst", "round_lens",
)


def _csr_take(
    ptr: np.ndarray, idx: np.ndarray, order: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The CSR rows ``order`` of ``(ptr, idx)``, as a new CSR."""
    counts = np.diff(ptr)[order]
    nptr = np.zeros(order.size + 1, dtype=np.int64)
    np.cumsum(counts, out=nptr[1:])
    pos = np.repeat(ptr[:-1][order] - nptr[:-1], counts)
    pos += np.arange(int(nptr[-1]), dtype=np.int64)
    return nptr, idx[pos]


def _ranks(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(order, rank)`` of distinct ``keys``: ``keys[order]`` ascends
    and ``rank[i]`` is the position of ``keys[i]`` in it."""
    order = np.argsort(keys)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return order, rank


@dataclass
class LoweredSchedule:
    """A schedule compiled to flat NumPy columns (see module docstring).

    Attributes:
        n_transfers: number of transfers ``T``.
        n_slots: number of distinct ``(node, chunk)`` payload slots.
        n_links: number of distinct directed links used.
        chunk_objects: chunk id -> original chunk identifier.
        src, dst, port: per-transfer endpoints and cube dimension.
        link: per-transfer dense directed-link id.
        elems: per-transfer payload size in elements.
        in_ptr, in_idx: CSR — transfer -> sender payload slots.
        out_idx: receiver payload slots, indexed by ``in_ptr`` too.
        wait_ptr, wait_idx: CSR — slot -> transfer ids waiting on it.
        slot_node, slot_chunk: slot -> ``(node, chunk id)`` decode.
        init_avail: slot -> availability time at t=0 (``inf`` = absent).
        init_missing: transfer -> count of input slots absent at t=0.
        link_src, link_dst: link id -> directed endpoints.
        round_lens: round -> number of transfers (empty rounds included).
        checked_under: the port model whose lock-step constraints this
            lowering is known to satisfy, or ``None``.  An entry of the
            ``lowerings`` LRU gets one when it is filled (see
            :func:`repro.collectives.api.collective_program`), and
            :meth:`translated` keeps it: translation preserves every
            constraint.
        n_fillable: the number of slots a run can end up holding (see
            :meth:`fillable`), or ``None``; set with ``delivers``.
        delivers: whether the holdings of the fillable slots pass the
            call's :func:`~repro.collectives.api.check_delivery`, or
            ``None`` (no verdict).  The ``lowerings`` entries take both
            facts when they are filled, and :meth:`translated` keeps
            them (a translation moves the obligations with the slots);
            :meth:`delivered_with` reads them.
        block: the static rows an admitted run adds for this lowering
            (:class:`~repro.sim.vectorized.AdmissionBlock`), built on its
            first admission and kept here, or ``None``.
        translated_from: the lowering this one is a translation of, whose
            block an admission moves instead of building one, or ``None``.
    """

    n_transfers: int
    n_slots: int
    n_links: int
    chunk_objects: list[Chunk]
    src: np.ndarray
    dst: np.ndarray
    port: np.ndarray
    link: np.ndarray
    elems: np.ndarray
    in_ptr: np.ndarray
    in_idx: np.ndarray
    out_idx: np.ndarray
    wait_ptr: np.ndarray
    wait_idx: np.ndarray
    slot_node: np.ndarray
    slot_chunk: np.ndarray
    init_avail: np.ndarray
    init_missing: np.ndarray
    link_src: np.ndarray
    link_dst: np.ndarray
    round_lens: np.ndarray
    checked_under: PortModel | None = None
    n_fillable: int | None = None
    delivers: bool | None = None
    block: Any = field(default=None, repr=False, compare=False)
    translated_from: "LoweredSchedule | None" = field(
        default=None, repr=False, compare=False
    )

    @property
    def table_bytes(self) -> int:
        """Total bytes held by the lowered arrays and, once built, the
        admission block (peak table footprint)."""
        arrays = sum(getattr(self, name).nbytes for name in ARRAYS)
        return arrays + (0 if self.block is None else self.block.nbytes)

    def fillable(self) -> np.ndarray:
        """Slot mask of the slots a run can end up holding: the initial
        holdings and every transfer's output.  A fault-free run holds
        exactly these; any run holds a subset of them."""
        held = np.isfinite(self.init_avail)
        held[self.out_idx] = True
        return held

    def delivered_with(self, n_held: int | None) -> bool:
        """True when a run that ended holding ``n_held`` of this
        lowering's slots is known to deliver: held slots are always
        fillable, so ``n_held == n_fillable`` means they are all the
        fillable slots, and ``delivers`` is then the run's outcome.
        False means unknown (a short run, or no verdict): check the
        holdings."""
        return (
            self.delivers is True
            and n_held is not None
            and n_held == self.n_fillable
        )

    def judge_delivery(
        self,
        nodes: Iterable[int],
        missing: Callable[[dict[int, set[Chunk]]], dict],
    ) -> None:
        """Record this lowering's delivery verdict: ``n_fillable``, and
        ``delivers`` when ``missing`` (a call's ``check_delivery``)
        finds no node of ``nodes`` short in the holdings of the
        fillable slots, which a fault-free run ends holding."""
        fill = self.fillable()
        self.n_fillable = int(fill.sum())
        self.delivers = not missing(holdings_from_slots(
            nodes,
            [(self.slot_node[fill], self.slot_chunk[fill],
              self.chunk_objects, None)],
        ))

    def transfer(self, i: int) -> Transfer:
        """Transfer ``i`` rebuilt from the columns (for error reporting,
        fault events and degraded results)."""
        chunks = self.chunk_objects
        slots = self.in_idx[self.in_ptr[i]:self.in_ptr[i + 1]]
        return Transfer(
            int(self.src[i]), int(self.dst[i]),
            frozenset(chunks[c] for c in self.slot_chunk[slots].tolist()),
        )

    def read_only(self) -> "LoweredSchedule":
        """Mark every column read-only (for lowerings shared through a
        cache, where one caller's write would corrupt every later one);
        returns ``self``."""
        for name in ARRAYS:
            getattr(self, name).flags.writeable = False
        return self

    def translated(self, cube: Topology, by: int) -> "LoweredSchedule":
        """The lowering relabelled by the automorphism ``cube.translation(by)``.

        Equal, column for column and dtype included, to lowering the
        relabelled schedule (:meth:`~repro.sim.schedule.Schedule.translated`)
        with the relabelled initial holdings.  Endpoints move through
        the translation (XOR with ``by`` on the hypercube); links are
        re-ranked by their moved keys ``src * N + dst`` and slots by
        ``node * C + chunk``, one ``argsort`` each, and every column
        indexing them is remapped.  Transfer order, chunk ids, sizes and
        ports stay: a translation preserves ports.  So does every
        lock-step constraint, hence ``checked_under`` carries over, and
        every delivery obligation, hence ``n_fillable`` and
        ``delivers``.  Unchanged columns are shared with ``self``, which
        the result names as ``translated_from`` (or ``self``'s own).
        """
        perm = np.asarray(cube.translation(by), dtype=np.int64)
        link_src = perm[self.link_src]
        link_dst = perm[self.link_dst]
        link_order, link_rank = _ranks(link_src * cube.num_nodes + link_dst)
        slot_node = perm[self.slot_node]
        slot_order, slot_rank = _ranks(
            slot_node * max(1, len(self.chunk_objects)) + self.slot_chunk
        )
        wait_ptr, wait_idx = _csr_take(self.wait_ptr, self.wait_idx, slot_order)
        return LoweredSchedule(
            n_transfers=self.n_transfers,
            n_slots=self.n_slots,
            n_links=self.n_links,
            chunk_objects=self.chunk_objects,
            src=perm[self.src],
            dst=perm[self.dst],
            port=self.port,
            link=link_rank[self.link],
            elems=self.elems,
            in_ptr=self.in_ptr,
            in_idx=slot_rank[self.in_idx],
            out_idx=slot_rank[self.out_idx],
            wait_ptr=wait_ptr,
            wait_idx=wait_idx,
            slot_node=slot_node[slot_order],
            slot_chunk=self.slot_chunk[slot_order],
            init_avail=self.init_avail[slot_order],
            init_missing=self.init_missing,
            link_src=link_src[link_order].astype(np.int32),
            link_dst=link_dst[link_order].astype(np.int32),
            round_lens=self.round_lens,
            checked_under=self.checked_under,
            n_fillable=self.n_fillable,
            delivers=self.delivers,
            translated_from=(
                self if self.translated_from is None else self.translated_from
            ),
        )


def lower_schedule(
    cube: Topology,
    schedule: Schedule,
    initial_holdings: dict[int, set[Chunk]],
    release_times: dict[Chunk, float] | None = None,
) -> LoweredSchedule:
    """Compile ``schedule`` + ``initial_holdings`` into flat arrays.

    ``release_times`` optionally delays initially-held chunks: a chunk
    mapped to ``t`` becomes available at its holders at instant ``t``
    instead of 0.0, so no transfer reading it can start earlier.  This
    is how the service layer gates a job admitted at time ``t`` into an
    already-running merged program (multi-job runs, see
    :mod:`repro.sim.multi`); absent chunks still start at ``+inf``.
    """
    transfers = schedule.all_transfers()
    n_transfers = len(transfers)
    chunk_sizes = schedule.chunk_sizes

    # -- chunk interning ---------------------------------------------------
    chunk_ids: dict[Chunk, int] = {}
    chunk_objects: list[Chunk] = []

    def _cid(c: Chunk) -> int:
        i = chunk_ids.get(c)
        if i is None:
            i = len(chunk_objects)
            chunk_ids[c] = i
            chunk_objects.append(c)
        return i

    # One Python pass over the transfer list gathers everything that
    # needs object hashing; all index construction after it is NumPy.
    # A transfer reads and writes the same chunks, so one chunk-id list
    # serves both its sender and its receiver slots.
    cid_of = chunk_ids.get
    cids: list[int] = []
    add_cid = cids.append
    elems_l: list[int] = []
    in_counts: list[int] = []
    for t in transfers:
        total = 0
        for c in t.chunks:
            ci = cid_of(c)
            if ci is None:
                ci = chunk_ids[c] = len(chunk_objects)
                chunk_objects.append(c)
            add_cid(ci)
            total += chunk_sizes[c]
        elems_l.append(total)
        in_counts.append(len(t.chunks))
    src_l = [t.src for t in transfers]
    dst_l = [t.dst for t in transfers]

    init_nodes: list[int] = []
    init_cids: list[int] = []
    init_at: list[float] = []
    for node, chunks in initial_holdings.items():
        for c in chunks:
            init_nodes.append(node)
            init_cids.append(_cid(c))
            init_at.append(
                release_times.get(c, 0.0) if release_times else 0.0
            )

    n_chunks = max(1, len(chunk_objects))
    num_nodes = cube.num_nodes

    src = np.asarray(src_l, dtype=np.int64).reshape(n_transfers)
    dst = np.asarray(dst_l, dtype=np.int64).reshape(n_transfers)
    elems = np.asarray(elems_l, dtype=np.int64).reshape(n_transfers)

    # -- adjacency validation + port extraction (vectorized) ---------------
    port = cube.edge_ports(src, dst).astype(np.int32).reshape(n_transfers)
    if n_transfers and not bool((port >= 0).all()):
        bad = int(np.flatnonzero(port < 0)[0])
        # re-raise through the canonical validators for the same message
        cube.check_node(transfers[bad].src)
        cube.check_node(transfers[bad].dst)
        cube.port_towards(transfers[bad].src, transfers[bad].dst)
        raise AssertionError("unreachable")  # pragma: no cover

    # -- dense directed-link ids -------------------------------------------
    edge_key = src * num_nodes + dst
    uniq_edges, link = np.unique(edge_key, return_inverse=True)
    link = link.astype(np.int64).reshape(n_transfers)
    link_src = (uniq_edges // num_nodes).astype(np.int32)
    link_dst = (uniq_edges % num_nodes).astype(np.int32)

    # -- slot table: every (node, chunk) that can hold payload -------------
    counts = np.asarray(in_counts, dtype=np.int64).reshape(n_transfers)
    cid_arr = np.asarray(cids, dtype=np.int64)
    in_key = np.repeat(src, counts) * n_chunks + cid_arr
    out_key = np.repeat(dst, counts) * n_chunks + cid_arr
    init_key = (
        np.asarray(init_nodes, dtype=np.int64) * n_chunks
        + np.asarray(init_cids, dtype=np.int64)
    )
    all_keys = np.concatenate([in_key, out_key, init_key])
    uniq_slots, inv = np.unique(all_keys, return_inverse=True)
    inv = inv.astype(np.int64)
    n_slots = int(uniq_slots.size)
    n_in = in_key.size
    n_out = out_key.size
    in_idx = inv[:n_in]
    out_idx = inv[n_in:n_in + n_out]
    init_slots = inv[n_in + n_out:]
    slot_node = (uniq_slots // n_chunks).astype(np.int64)
    slot_chunk = (uniq_slots % n_chunks).astype(np.int64)

    in_ptr = np.zeros(n_transfers + 1, dtype=np.int64)
    np.cumsum(counts, out=in_ptr[1:])

    init_avail = np.full(n_slots, np.inf)
    # np.minimum.at: a chunk held by several nodes keeps the earliest
    # release should duplicate (node, chunk) init entries ever appear
    np.minimum.at(init_avail, init_slots, np.asarray(init_at, dtype=np.float64))

    # -- inverted dependency index: slot -> waiting transfer ids -----------
    owner = np.repeat(np.arange(n_transfers, dtype=np.int64), counts)
    order = np.argsort(in_idx, kind="stable")
    wait_idx = owner[order]
    wait_ptr = np.zeros(n_slots + 1, dtype=np.int64)
    np.cumsum(np.bincount(in_idx, minlength=n_slots), out=wait_ptr[1:])

    absent = init_avail[in_idx] == np.inf
    init_missing = np.bincount(owner[absent], minlength=n_transfers).astype(
        np.int64
    )

    return LoweredSchedule(
        n_transfers=n_transfers,
        n_slots=n_slots,
        n_links=int(uniq_edges.size),
        chunk_objects=chunk_objects,
        src=src,
        dst=dst,
        port=port,
        link=link,
        elems=elems,
        in_ptr=in_ptr,
        in_idx=in_idx,
        out_idx=out_idx,
        wait_ptr=wait_ptr,
        wait_idx=wait_idx,
        slot_node=slot_node,
        slot_chunk=slot_chunk,
        init_avail=init_avail,
        init_missing=init_missing,
        link_src=link_src,
        link_dst=link_dst,
        round_lens=np.fromiter(
            map(len, schedule.rounds), dtype=np.int64, count=schedule.num_rounds
        ),
    )
