"""The dependency-indexed list scheduler is bit-identical to the
original full-rescan reference (and likewise for first-fit partition).

Mirrors the ``run_async`` / ``_engine_reference`` convention: the
optimized implementation in :mod:`repro.routing.scheduler` must produce
the *same rounds in the same order* as
:mod:`repro.routing._scheduler_reference` on every input, including the
deadlock diagnostics.
"""

from __future__ import annotations

import random

import pytest

from repro.routing._scheduler_reference import (
    greedy_partition_reference,
    list_schedule_reference,
)
from repro.routing.broadcast_msbt import msbt_broadcast_schedule
from repro.routing.scatter_bst import bst_scatter_schedule
from repro.routing.scheduler import greedy_partition, list_schedule
from repro.sim.ports import PortModel
from repro.sim.schedule import Transfer
from repro.topology.hypercube import Hypercube

PORTS = (PortModel.ONE_PORT_HALF, PortModel.ONE_PORT_FULL, PortModel.ALL_PORT)


def random_transfer_list(cube: Hypercube, rng: random.Random, n_chunks: int):
    """A causally consistent random relay list plus chunk sizes."""
    sizes = {("b", p): rng.randint(1, 5) for p in range(n_chunks)}
    holders: dict[int, set] = {0: set(sizes)}
    transfers = []
    for _ in range(rng.randint(5, 60)):
        src = rng.choice([v for v in holders if holders[v]])
        port = rng.randrange(cube.dimension)
        dst = cube.neighbor(src, port)
        pool = sorted(holders[src])
        take = frozenset(rng.sample(pool, rng.randint(1, len(pool))))
        transfers.append(Transfer(src, dst, take))
        holders.setdefault(dst, set()).update(take)
    return transfers, sizes, {0: set(sizes)}


@pytest.mark.parametrize("port_model", PORTS)
@pytest.mark.parametrize("seed", range(8))
def test_list_schedule_matches_reference_random(port_model, seed):
    rng = random.Random(seed)
    cube = Hypercube(3)
    transfers, sizes, init = random_transfer_list(cube, rng, n_chunks=4)
    fast = list_schedule(cube, transfers, sizes, port_model, init)
    ref = list_schedule_reference(cube, transfers, sizes, port_model, init)
    assert fast.rounds == ref.rounds
    assert fast.chunk_sizes == ref.chunk_sizes


@pytest.mark.parametrize("port_model", PORTS)
def test_list_schedule_matches_reference_on_generators(port_model, monkeypatch):
    """The real consumers (MSBT half-duplex, BST scatter) agree too."""
    import repro.routing.broadcast_msbt as bm
    import repro.routing.scatter_bst as sb

    cube = Hypercube(4)
    fast_m = msbt_broadcast_schedule(cube, 3, 40, 7, port_model)
    fast_b = bst_scatter_schedule(cube, 3, 17, 5, port_model)
    monkeypatch.setattr(bm, "reschedule", _reference_reschedule)
    monkeypatch.setattr(sb, "list_schedule", list_schedule_reference)
    ref_m = msbt_broadcast_schedule(cube, 3, 40, 7, port_model)
    ref_b = bst_scatter_schedule(cube, 3, 17, 5, port_model)
    assert fast_m.rounds == ref_m.rounds
    assert fast_b.rounds == ref_b.rounds


def _reference_reschedule(cube, schedule, port_model, initial_holdings):
    out = list_schedule_reference(
        cube,
        schedule.all_transfers(),
        schedule.chunk_sizes,
        port_model,
        initial_holdings,
        algorithm=f"{schedule.algorithm}@{port_model.value}",
        meta=dict(schedule.meta),
    )
    return out


def test_list_schedule_deadlock_message_matches():
    cube = Hypercube(2)
    bad = [Transfer(1, 3, frozenset({("b", 0)}))]  # node 1 never holds b0
    sizes = {("b", 0): 1}
    with pytest.raises(RuntimeError) as fast_err:
        list_schedule(cube, bad, sizes, PortModel.ONE_PORT_FULL, {0: {("b", 0)}})
    with pytest.raises(RuntimeError) as ref_err:
        list_schedule_reference(
            cube, bad, sizes, PortModel.ONE_PORT_FULL, {0: {("b", 0)}}
        )
    assert str(fast_err.value) == str(ref_err.value)


@pytest.mark.parametrize("seed", range(12))
def test_greedy_partition_matches_reference(seed):
    rng = random.Random(1000 + seed)
    limit = rng.choice((1, 3, 7, 16))
    chunks = [("m", d, p) for d in range(rng.randint(1, 6)) for p in range(rng.randint(1, 9))]
    rng.shuffle(chunks)
    sizes = {c: rng.randint(0, limit + 2) for c in chunks}
    assert greedy_partition(chunks, sizes, limit) == greedy_partition_reference(
        chunks, sizes, limit
    )


def test_greedy_partition_saturated_bins_fast():
    """B = 1 is linear now: 20k unit chunks partition instantly."""
    chunks = [("m", 1, p) for p in range(20_000)]
    sizes = {c: 1 for c in chunks}
    out = greedy_partition(chunks, sizes, 1)
    assert len(out) == 20_000
    assert out[0] == [("m", 1, 0)]
