"""Local routing rules: the per-node programs and their priority keys.

The load-bearing property is *global order reconstruction*: sorting
every node's locally derived sends by priority key must reproduce the
exact transfer order of the central schedule generator — that is what
lets the kernel resolve contention identically to the engine without
any node reading a schedule.  Central MSBT ``ONE_PORT_HALF`` and the
one-port BST scatter are excluded here by design (the central
generator post-processes those orders); their equivalence is asserted
at execution level in ``test_validate.py``.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, replace

import pytest

from repro import cache
from repro.routing import (
    bst_scatter_schedule,
    msbt_broadcast_schedule,
    sbt_broadcast_schedule,
    sbt_scatter_schedule,
)
from repro.runtime import build_cluster_program
from repro.sim.ports import PortModel
from repro.topology import Hypercube
from tests.fresh import uncached

PMS = tuple(PortModel)


def _local_order(program):
    sends = []
    for prog in program.programs.values():
        for s in prog.sends:
            sends.append((s.key, prog.node, s.dst, s.chunks))
    sends.sort(key=lambda x: x[0])
    return [(src, dst, ch) for _, src, dst, ch in sends]


def _central_order(sched):
    return [(t.src, t.dst, t.chunks) for t in sched.all_transfers()]


class TestOrderReconstruction:
    @pytest.mark.parametrize("pm", PMS)
    @pytest.mark.parametrize("order", ["port", "packet"])
    @pytest.mark.parametrize("n,M,B", [(3, 5, 2), (4, 17, 3), (5, 8, 8)])
    def test_sbt_broadcast(self, n, M, B, pm, order):
        cube = Hypercube(n)
        sched = sbt_broadcast_schedule(cube, 1, M, B, pm, order=order)
        prog = build_cluster_program(
            cube, "broadcast", "sbt", 1, M, B, pm, order=order
        )
        assert _local_order(prog) == _central_order(sched)

    @pytest.mark.parametrize(
        "pm", [PortModel.ONE_PORT_FULL, PortModel.ALL_PORT]
    )
    @pytest.mark.parametrize("n,M,B", [(3, 5, 2), (4, 17, 3), (5, 8, 8)])
    def test_msbt_broadcast(self, n, M, B, pm):
        cube = Hypercube(n)
        sched = msbt_broadcast_schedule(cube, 1, M, B, pm)
        prog = build_cluster_program(cube, "broadcast", "msbt", 1, M, B, pm)
        assert _local_order(prog) == _central_order(sched)

    @pytest.mark.parametrize("pm", PMS)
    @pytest.mark.parametrize("n,M,B", [(3, 5, 2), (4, 7, 3)])
    def test_sbt_scatter(self, n, M, B, pm):
        cube = Hypercube(n)
        sched = sbt_scatter_schedule(cube, 1, M, B, pm)
        prog = build_cluster_program(cube, "scatter", "sbt", 1, M, B, pm)
        assert _local_order(prog) == _central_order(sched)

    @pytest.mark.parametrize("n,M,B", [(3, 5, 2), (4, 7, 3)])
    def test_bst_scatter_all_port(self, n, M, B):
        cube = Hypercube(n)
        pm = PortModel.ALL_PORT
        sched = bst_scatter_schedule(cube, 1, M, B, pm)
        prog = build_cluster_program(cube, "scatter", "bst", 1, M, B, pm)
        assert _local_order(prog) == _central_order(sched)


class TestProgramStructure:
    def test_broadcast_initial_and_expected(self):
        cube = Hypercube(3)
        prog = build_cluster_program(
            cube, "broadcast", "sbt", 2, 10, 4, PortModel.ONE_PORT_FULL
        )
        chunks = set(prog.chunk_sizes)
        assert len(chunks) == 3  # ceil(10/4) packets
        assert sum(prog.chunk_sizes.values()) == 10
        assert prog.programs[2].initial == frozenset(chunks)
        assert prog.programs[2].expected == frozenset()
        for v in cube.nodes():
            if v != 2:
                assert prog.programs[v].initial == frozenset()
                assert prog.programs[v].expected == frozenset(chunks)

    def test_scatter_expected_is_own_slice(self):
        cube = Hypercube(3)
        prog = build_cluster_program(
            cube, "scatter", "bst", 0, 5, 2, PortModel.ONE_PORT_FULL
        )
        assert prog.programs[0].initial == frozenset(prog.chunk_sizes)
        for v in cube.nodes():
            if v == 0:
                continue
            exp = prog.programs[v].expected
            assert exp == {c for c in prog.chunk_sizes if c[1] == v}
            assert sum(prog.chunk_sizes[c] for c in exp) == 5

    def test_keys_sorted_and_unique_per_cluster(self):
        cube = Hypercube(4)
        for op, alg in [
            ("broadcast", "sbt"),
            ("broadcast", "msbt"),
            ("scatter", "sbt"),
            ("scatter", "bst"),
        ]:
            for pm in PortModel:
                prog = build_cluster_program(cube, op, alg, 0, 9, 2, pm)
                seen = set()
                for node_prog in prog.programs.values():
                    keys = [s.key for s in node_prog.sends]
                    assert keys == sorted(keys)
                    for k in keys:
                        assert k not in seen, (op, alg, pm, k)
                        seen.add(k)

    def test_total_sends_counts_everything(self):
        cube = Hypercube(3)
        prog = build_cluster_program(
            cube, "broadcast", "sbt", 0, 4, 4, PortModel.ALL_PORT
        )
        assert prog.total_sends() == sum(
            len(p.sends) for p in prog.programs.values()
        )
        assert prog.total_sends() == cube.num_nodes - 1  # one packet, SBT

    def test_rejects_unknown_inputs(self):
        cube = Hypercube(3)
        with pytest.raises(ValueError):
            build_cluster_program(
                cube, "gather", "sbt", 0, 4, 2, PortModel.ALL_PORT
            )
        with pytest.raises(ValueError):
            build_cluster_program(
                cube, "broadcast", "bst", 0, 4, 2, PortModel.ALL_PORT
            )
        with pytest.raises(ValueError):
            build_cluster_program(
                cube, "scatter", "msbt", 0, 4, 2, PortModel.ALL_PORT
            )
        with pytest.raises(ValueError):
            build_cluster_program(
                cube, "broadcast", "sbt", 0, 4, 2,
                PortModel.ONE_PORT_FULL, order="zigzag",
            )
        with pytest.raises(ValueError):
            build_cluster_program(
                cube, "scatter", "bst", 0, 4, 2,
                PortModel.ONE_PORT_FULL, subtree_order="random",
            )

    @pytest.mark.parametrize(
        "op,algorithm",
        [("broadcast", "sbt"), ("broadcast", "msbt"),
         ("scatter", "sbt"), ("scatter", "bst")],
    )
    @pytest.mark.parametrize("pm", PMS)
    def test_orders_checked_for_every_op(self, op, algorithm, pm):
        cube = Hypercube(3)
        with pytest.raises(ValueError, match="SBT order"):
            build_cluster_program(
                cube, op, algorithm, 0, 4, 2, pm, order="bogus"
            )
        with pytest.raises(ValueError, match="subtree order"):
            build_cluster_program(
                cube, op, algorithm, 0, 4, 2, pm, subtree_order="random"
            )

    @pytest.mark.parametrize("op", ["broadcast", "scatter"])
    def test_port_model_must_be_a_port_model(self, op):
        cube = Hypercube(3)
        for pm in ("all-ports", PortModel.ALL_PORT.value, None):
            with pytest.raises(ValueError, match="PortModel"):
                build_cluster_program(cube, op, "sbt", 0, 4, 4, pm)


class TestBroadcastTranslation:
    """A broadcast's local programs from source ``s`` are the source-0
    programs relabelled by ``i ^ s`` (the hypercube is a Cayley graph):
    node ``i ^ s`` plans node ``i``'s sends with every ``dst`` XORed by
    ``s`` and the same keys, chunks, initial and expected sets."""

    @pytest.mark.parametrize("pm", PMS)
    @pytest.mark.parametrize(
        "algorithm,order",
        [("sbt", "port"), ("sbt", "packet"), ("msbt", "port")],
    )
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_programs_translate(self, n, algorithm, order, pm):
        cube = Hypercube(n)
        for M, B in [(5, 2), (17, 3), (8, 8)]:
            base = build_cluster_program(
                cube, "broadcast", algorithm, 0, M, B, pm, order=order
            )
            for s in cube.nodes():
                prog = build_cluster_program(
                    cube, "broadcast", algorithm, s, M, B, pm, order=order
                )
                assert prog.chunk_sizes == base.chunk_sizes
                for i, p0 in base.programs.items():
                    p = prog.programs[i ^ s]
                    assert p.node == i ^ s
                    assert p.initial == p0.initial
                    assert p.expected == p0.expected
                    assert [
                        (x.key, x.dst ^ s, x.chunks) for x in p.sends
                    ] == [(x.key, x.dst, x.chunks) for x in p0.sends], (
                        M, B, s, i,
                    )


class TestBroadcastMemo:
    """Broadcast programs are derived once at source 0 and translated;
    the result must equal a direct derivation and stay the caller's."""

    @pytest.mark.parametrize("pm", PMS)
    @pytest.mark.parametrize(
        "algorithm,order",
        [("sbt", "port"), ("sbt", "packet"), ("msbt", "port")],
    )
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_memoized_equals_uncached(self, n, algorithm, order, pm):
        cube = Hypercube(n)
        for M, B in [(5, 2), (17, 3), (8, 8)]:
            for s in cube.nodes():
                args = (cube, "broadcast", algorithm, s, M, B, pm)
                prog = build_cluster_program(*args, order=order)
                with uncached():
                    want = build_cluster_program(*args, order=order)
                assert prog == want, (M, B, s)
                assert list(prog.programs) == list(want.programs)
                assert list(prog.chunk_sizes) == list(want.chunk_sizes)

    @pytest.mark.parametrize("source", [0, 5])
    def test_returned_containers_are_the_callers(self, source):
        cube = Hypercube(3)
        args = (cube, "broadcast", "msbt", source, 8, 2, PortModel.ONE_PORT_FULL)
        with uncached():
            want = build_cluster_program(*args)
        prog = build_cluster_program(*args)
        prog.programs[source] = replace(prog.programs[source], sends=())
        del prog.programs[source ^ 1]
        prog.chunk_sizes.clear()
        with pytest.raises(FrozenInstanceError):
            prog.programs[source ^ 2].sends = ()
        assert build_cluster_program(*args) == want

    def test_msbt_order_shares_one_entry(self):
        cache.clear_caches()
        cube = Hypercube(3)
        for order in ("port", "packet"):
            build_cluster_program(
                cube, "broadcast", "msbt", 1, 7, 3, PortModel.ALL_PORT,
                order=order,
            )
        memo = cache.cache_stats()["runtime.cluster_programs"]
        assert (memo["size"], memo["misses"], memo["hits"]) == (1, 1, 1)

    @pytest.mark.parametrize("pm", PMS)
    @pytest.mark.parametrize("algorithm", ["sbt", "bst"])
    def test_scatter_bypasses_the_memo(self, algorithm, pm):
        before = cache.cache_stats()["runtime.cluster_programs"]
        cube = Hypercube(4)
        for s in (0, 3):
            build_cluster_program(cube, "scatter", algorithm, s, 5, 2, pm)
        assert cache.cache_stats()["runtime.cluster_programs"] == before
