"""Admitted runs build their rows from blocks kept with the lowerings.

A lowering's rows in an admitted run — endpoints, port, link id in the
whole-cube link table, size, round, within-round and local row, its
distinct sizes and its relative ``(in, out)`` slot pairs — depend on
the lowering alone, so :class:`repro.sim.vectorized.AdmissionBlock`
builds them once, on the lowering's first admission, and a translated
lowering moves its source's block.  Every flush must still add exactly
the rows the column build from the lowerings gave; that build is kept
here as the oracle (:func:`_old_columns`).
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.cache import clear_caches
from repro.collectives.api import broadcast, collective_program
from repro.service import AdmissionControl, JobSpec, run_service
from repro.sim import run_async
from repro.sim.lowering import ARRAYS
from repro.sim.machine import IPSC_D7, MachineParams
from repro.sim.ports import PortModel
from repro.sim.vectorized import (
    _DST, _ELEMS, _JOB, _LINK, _LOCAL, _NCOL, _PORT, _RND, _SRC, _WITHIN,
    AdmissionBlock, VectorizedRun,
)
from repro.topology import Hypercube
from repro.workloads import PhaseSpec, Workload, WorkloadDAG, run_workload

CUBE = Hypercube(3)
MACHINE = MachineParams(tau=0.1, t_c=0.07, overlap=0.25)

SPECS = [
    JobSpec(tenant="hog", source=1, message_elems=24, packet_elems=4),
    JobSpec(tenant="mouse", op="scatter", source=6, message_elems=2,
            arrival=1.5),
    JobSpec(tenant="mouse", source=5, message_elems=6, packet_elems=2,
            arrival=1.5, algorithm="sbt"),
    JobSpec(tenant="bee", op="allgather", message_elems=2, arrival=9.0),
    JobSpec(tenant="hog", source=3, message_elems=24, packet_elems=4,
            arrival=12.0),
    JobSpec(tenant="hog", op="alltoall", message_elems=1, arrival=30.0),
]


def _old_columns(run: VectorizedRun):
    """The staged rows' static columns, costs and absolute ``(in, out)``
    slots as the flush built them from the lowerings, in staged order
    (job handle, then local row)."""
    staged = run._staged
    num_nodes = run.cube.num_nodes
    lows = [low for _, low in staged]
    n_e = np.asarray([low.n_transfers for low in lows], dtype=np.int64)
    n_new = int(n_e.sum())
    row0 = np.cumsum(n_e) - n_e

    def cat(name):
        return np.concatenate([getattr(low, name) for low in lows])

    keys_e = [
        low.link_src.astype(np.int64) * num_nodes + low.link_dst
        for low in lows
    ]
    n_keys = np.asarray([k.size for k in keys_e], dtype=np.int64)
    new_keys = np.concatenate(keys_e)
    keys = run._link_key if run._all_links else new_keys
    local_link = cat("link") + np.repeat(np.cumsum(n_keys) - n_keys, n_e)
    lens = cat("round_lens")
    n_rounds = np.asarray([low.round_lens.size for low in lows], dtype=np.int64)
    ic = np.empty((n_new, _NCOL), dtype=np.int64)
    ic[:, _SRC] = cat("src")
    ic[:, _DST] = cat("dst")
    ic[:, _PORT] = cat("port")
    ic[:, _LINK] = np.searchsorted(keys, new_keys)[local_link]
    ic[:, _ELEMS] = cat("elems")
    ic[:, _RND] = np.repeat(
        np.arange(lens.size)
        - np.repeat(np.cumsum(n_rounds) - n_rounds, n_rounds),
        lens,
    )
    ic[:, _WITHIN] = np.arange(n_new) - np.repeat(np.cumsum(lens) - lens, lens)
    ic[:, _JOB] = np.repeat([h for h, _ in staged], n_e)
    ic[:, _LOCAL] = np.arange(n_new) - np.repeat(row0, n_e)
    uniq, inv = np.unique(ic[:, _ELEMS], return_inverse=True)
    cost = np.asarray(
        [run.machine.send_cost(int(s)) for s in uniq.tolist()],
        dtype=np.float64,
    )[inv.reshape(-1)]
    nnz_e = np.asarray([low.in_idx.size for low in lows], dtype=np.int64)
    off = np.repeat([run._entries[h][2] for h, _ in staged], nnz_e)
    io = np.stack((cat("in_idx") + off, cat("out_idx") + off), axis=1)
    return ic, cost, io


@pytest.fixture
def flushes(monkeypatch):
    """Check every flush against :func:`_old_columns`; counts the
    flushes by (jobs staged > 1, a translated lowering staged, admitted
    run)."""
    real = VectorizedRun._flush_staged
    seen: Counter = Counter()

    def checked(self):
        if not self._staged:
            return real(self)
        handles = [h for h, _ in self._staged]
        translated = any(
            low.translated_from is not None for _, low in self._staged
        )
        ic, cost, io = _old_columns(self)
        real(self)
        icol = self._icol
        rows = np.flatnonzero(np.isin(icol[:, _JOB], handles))
        rows = rows[np.lexsort((icol[rows, _LOCAL], icol[rows, _JOB]))]
        np.testing.assert_array_equal(icol[rows], ic)
        assert self._cost_np[rows].tolist() == cost.tolist()
        ptr = self._ptr
        got_io = [self._io[ptr[i]:ptr[i + 1]] for i in rows.tolist()]
        np.testing.assert_array_equal(
            np.concatenate(got_io) if got_io else np.zeros((0, 2)), io
        )
        # the hot loop's mirrors follow the masters
        assert self._src_py == icol[:, _SRC].tolist()
        assert self._link_py == icol[:, _LINK].tolist()
        assert self._cost_py == self._cost_np.tolist()
        assert [self._in_py, self._out_py] == self._io.T.tolist()
        seen[len(handles) > 1, translated, self._all_links] += 1

    monkeypatch.setattr(VectorizedRun, "_flush_staged", checked)
    return seen


@pytest.mark.parametrize("pm", list(PortModel))
def test_one_shot_run(flushes, pm):
    sched, initial, low = collective_program(CUBE, "broadcast", "msbt", 5, 24, 4, pm)
    run_async(CUBE, sched, pm, initial, MACHINE, lowered=low)
    assert flushes == {(False, True, False): 1}
    assert low.block is None  # a one-shot run keeps nothing


@pytest.mark.parametrize("pm", list(PortModel))
@pytest.mark.parametrize("policy,admission", [
    ("fifo", None),  # every job staged in one flush
    ("fair-share", None),  # one job per flush
    ("fifo", AdmissionControl(max_in_flight_total=2)),
])
def test_service_flushes(flushes, pm, policy, admission):
    run_service(CUBE, SPECS, pm, MACHINE, policy=policy, admission=admission)
    assert flushes[False, True, True] + flushes[True, True, True] > 0
    if policy == "fifo" and admission is None:
        assert flushes[True, True, True] == 1


@pytest.mark.parametrize("pm", list(PortModel))
def test_workload_flushes(flushes, pm):
    dag = WorkloadDAG((
        PhaseSpec("dispatch", op="alltoall", message_elems=2),
        PhaseSpec("side", op="broadcast", source=3, message_elems=4,
                  packet_elems=2),
        PhaseSpec("reduce", op="reduce", algorithm="sbt", message_elems=4,
                  packet_elems=2, deps=("dispatch",)),
        PhaseSpec("bcast", op="broadcast", algorithm="msbt",
                  message_elems=4, packet_elems=2, deps=("reduce",)),
    ))
    workload = Workload(
        name="w", dimension=3, dag_builder=lambda step: dag,
        port_model=pm, machine=MACHINE,
    )
    run_workload(workload, steps=2)
    assert flushes[True, True, True] >= 1  # both roots join in one flush
    assert sum(flushes.values()) >= 4


def test_translated_lowering_moves_its_source_block():
    pm = PortModel.ONE_PORT_FULL
    clear_caches()
    run_service(CUBE, SPECS[:1], pm, MACHINE)
    _, _, low = collective_program(CUBE, "broadcast", None, 1, 24, 4, pm)
    source = low.translated_from
    assert source is not None and source.translated_from is None
    assert low.block is None  # a fresh translation, not yet admitted
    run = VectorizedRun(CUBE, pm, MACHINE)
    run._all_links = True
    run._link_key = np.asarray(sorted(
        a * 8 + b for a, b in CUBE.links() for a, b in ((a, b), (b, a))
    ))
    block = run._block(low)
    assert low.block is block and source.block is not None
    assert block.sizes is source.block.sizes
    assert block.size_inv is source.block.size_inv
    link = np.searchsorted(
        run._link_key, low.link_src.astype(np.int64) * 8 + low.link_dst
    )[low.link]
    built = AdmissionBlock.build(low, link)
    for name in ("icol", "sizes", "size_inv", "io"):
        np.testing.assert_array_equal(getattr(block, name), getattr(built, name))
    assert not block.icol.flags.writeable


def test_table_bytes_count_a_built_block():
    pm = PortModel.ALL_PORT
    clear_caches()
    _, _, low = collective_program(CUBE, "scatter", None, 2, 2, 2, pm)
    arrays = sum(getattr(low, name).nbytes for name in ARRAYS)
    assert low.table_bytes == arrays
    run_service(CUBE, [JobSpec(tenant="a", op="scatter", source=2, message_elems=2,
                               packet_elems=2)], pm)
    assert low.block is not None
    assert low.table_bytes == arrays + low.block.nbytes > arrays


def test_public_calls_build_no_block():
    clear_caches()
    res = broadcast(CUBE, 6, "msbt", 24, 4, PortModel.ONE_PORT_HALF, IPSC_D7,
                    run_event_sim=True)
    assert res.time > 0
    _, _, low = collective_program(
        CUBE, "broadcast", "msbt", 6, 24, 4, PortModel.ONE_PORT_HALF
    )
    assert low.block is None and low.translated_from.block is None
