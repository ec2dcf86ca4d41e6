"""The workload DAG model: validation, ordering, structure queries."""

from __future__ import annotations

import pytest

from repro.workloads import PhaseSpec, Workload, WorkloadDAG


def _chain(*names: str, op: str | None = None) -> WorkloadDAG:
    phases = []
    prev: tuple[str, ...] = ()
    for n in names:
        phases.append(PhaseSpec(n, op=op, deps=prev))
        prev = (n,)
    return WorkloadDAG(tuple(phases))


class TestPhaseSpec:
    def test_compute_phase_kind(self):
        p = PhaseSpec("fwd", compute=5.0)
        assert p.kind == "compute"
        assert not p.rooted

    def test_collective_phase_kind(self):
        p = PhaseSpec("b", op="broadcast")
        assert p.kind == "collective"
        assert p.rooted

    def test_rootless_ops_are_not_rooted(self):
        assert not PhaseSpec("a", op="alltoall").rooted
        assert not PhaseSpec("g", op="allgather").rooted

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="op must be None or one of"):
            PhaseSpec("x", op="allscatter")

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            PhaseSpec("")

    def test_negative_compute_rejected(self):
        with pytest.raises(ValueError, match="compute must be >= 0"):
            PhaseSpec("x", compute=-1.0)
        # a bool is not a time: True is rejected, not read as a 1.0 gap
        for compute in (True, False):
            with pytest.raises(ValueError, match="compute must be >= 0"):
                PhaseSpec("x", compute=compute)

    @pytest.mark.parametrize("compute", [float("nan"), float("inf")])
    def test_non_finite_compute_rejected(self, compute):
        with pytest.raises(ValueError, match="compute must be >= 0 and finite"):
            PhaseSpec("x", compute=compute)

    def test_bad_message_elems_rejected(self):
        with pytest.raises(ValueError, match="message_elems"):
            PhaseSpec("x", op="broadcast", message_elems=0)

    @pytest.mark.parametrize("m", [2.5, float("nan")])
    def test_non_integral_message_elems_rejected(self, m):
        with pytest.raises(ValueError, match="message_elems must be a whole number"):
            PhaseSpec("x", op="broadcast", message_elems=m)

    @pytest.mark.parametrize("b", [2.5, float("nan"), 0])
    def test_bad_packet_elems_rejected(self, b):
        with pytest.raises(ValueError, match="packet_elems must be a whole number"):
            PhaseSpec("x", op="broadcast", message_elems=8, packet_elems=b)

    def test_duplicate_deps_rejected(self):
        with pytest.raises(ValueError, match="duplicate dependencies"):
            PhaseSpec("x", deps=("a", "a"))


class TestWorkloadDAG:
    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one phase"):
            WorkloadDAG(())

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate phase name"):
            WorkloadDAG((PhaseSpec("a"), PhaseSpec("a")))

    def test_unknown_dep_rejected(self):
        with pytest.raises(ValueError, match="unknown phase 'ghost'"):
            WorkloadDAG((PhaseSpec("a", deps=("ghost",)),))

    def test_cycle_rejected(self):
        with pytest.raises(ValueError, match="dependency cycle"):
            WorkloadDAG((
                PhaseSpec("a", deps=("b",)),
                PhaseSpec("b", deps=("a",)),
            ))

    def test_topological_respects_deps_and_declaration_order(self):
        dag = WorkloadDAG((
            PhaseSpec("late", deps=("r1", "r2")),
            PhaseSpec("r2"),
            PhaseSpec("r1"),
        ))
        assert [p.name for p in dag.topological()] == ["r2", "r1", "late"]

    def test_successors(self):
        dag = WorkloadDAG((
            PhaseSpec("a"),
            PhaseSpec("b", deps=("a",)),
            PhaseSpec("c", deps=("a",)),
        ))
        assert dag.successors() == {"a": ("b", "c"), "b": (), "c": ()}

    def test_phase_lookup(self):
        dag = _chain("a", "b")
        assert dag.phase("b").deps == ("a",)
        with pytest.raises(KeyError):
            dag.phase("zzz")

    def test_collective_phases_filter(self):
        dag = WorkloadDAG((
            PhaseSpec("c", compute=1.0),
            PhaseSpec("b", op="broadcast", deps=("c",)),
        ))
        assert [p.name for p in dag.collective_phases] == ["b"]


class TestWorkload:
    def test_dag_builder_invoked_per_step(self):
        steps = []

        def build(step: int) -> WorkloadDAG:
            steps.append(step)
            return _chain(f"s{step}")

        w = Workload(name="w", dimension=3, dag_builder=build)
        assert w.dag(0).phases[0].name == "s0"
        assert w.dag(2).phases[0].name == "s2"
        assert steps == [0, 2]

    def test_negative_step_rejected(self):
        w = Workload(name="w", dimension=3, dag_builder=lambda s: _chain("a"))
        with pytest.raises(ValueError, match="step must be >= 0"):
            w.dag(-1)
