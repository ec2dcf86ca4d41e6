"""The sweep executor: determinism, chunking, telemetry, fallbacks.

The headline guarantee is byte-identical output: every figure/table
experiment run with ``jobs > 1`` must render exactly what the serial
run renders.  The differential tests below assert that for *every*
experiment at reduced sizes.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments import (
    resolve_jobs,
    run_fig5,
    run_fig6,
    run_fig7,
    run_fig8,
    run_scatter_packet_sweep,
    run_sweep,
    run_table1,
    run_table2,
    run_table3,
    run_table4,
    run_table5,
    run_table6,
    sweep_grid,
    to_csv,
    to_json,
)
from repro.experiments.parallel import CHUNKS_PER_WORKER, SweepStats


def _square(x):
    return x * x


def _pair(a, b):
    return (a, b)


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs() == 1

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs() == 5

    def test_zero_means_all_cores(self):
        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_negative_rejected(self):
        # bools and non-integers are rejected too, not passed to the pool
        for bad in (-2, -3, True, False, 2.5, 2.0, "2"):
            with pytest.raises(ValueError, match="jobs must be"):
                resolve_jobs(bad)
        with pytest.raises(ValueError, match="jobs must be"):
            run_sweep(_square, [{"x": 1}, {"x": 2}], jobs=2.5)

    def test_bad_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ValueError):
            resolve_jobs()


class TestSweepGrid:
    def test_row_major_order(self):
        grid = sweep_grid(n=(2, 3), B=(1, 2))
        assert grid == [
            {"n": 2, "B": 1},
            {"n": 2, "B": 2},
            {"n": 3, "B": 1},
            {"n": 3, "B": 2},
        ]

    def test_single_axis(self):
        assert sweep_grid(x=(1, 2, 3)) == [{"x": 1}, {"x": 2}, {"x": 3}]


class TestRunSweep:
    def test_serial_matches_inputs_in_order(self):
        result = run_sweep(_square, [{"x": i} for i in range(10)], jobs=1)
        assert result.values == [i * i for i in range(10)]
        assert result.stats.executor == "serial"
        assert result.stats.num_points == 10

    def test_parallel_preserves_order(self):
        result = run_sweep(_square, [{"x": i} for i in range(23)], jobs=3)
        assert result.values == [i * i for i in range(23)]
        assert result.stats.executor == "process-pool"
        # point stats are sorted and complete
        assert [p.index for p in result.stats.points] == list(range(23))

    def test_single_point_runs_in_process(self):
        result = run_sweep(_square, [{"x": 4}], jobs=8)
        assert result.values == [16]
        assert result.stats.executor == "serial"
        assert result.stats.workers == (os.getpid(),)

    def test_default_chunksize_amortizes(self):
        result = run_sweep(_square, [{"x": i} for i in range(64)], jobs=2)
        assert result.stats.chunksize == 64 // (2 * CHUNKS_PER_WORKER)

    def test_multi_kwarg_points(self):
        result = run_sweep(_pair, [{"a": 1, "b": 2}, {"a": 3, "b": 4}], jobs=2)
        assert result.values == [(1, 2), (3, 4)]

    def test_worker_exception_propagates(self):
        with pytest.raises(ZeroDivisionError):
            run_sweep(_reciprocal, [{"x": 1}, {"x": 0}, {"x": 2}], jobs=2)

    def test_stats_serialization(self):
        result = run_sweep(_square, [{"x": i} for i in range(4)], jobs=2)
        d = result.stats.to_dict()
        assert d["num_points"] == 4
        assert len(d["points"]) == 4
        assert {p["index"] for p in d["points"]} == {0, 1, 2, 3}
        assert "lru_hits" in d and "lru_misses" in d
        assert not any(k.startswith("disk_") for k in d)
        assert isinstance(result.stats.summary(), str)

    def test_env_jobs_drives_sweep(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "2")
        result = run_sweep(_square, [{"x": i} for i in range(4)])
        assert result.stats.jobs == 2
        assert result.stats.executor == "process-pool"


def _reciprocal(x):
    return 1 / x


#: every experiment at sizes small enough for the test suite, with the
#: worker count to compare against serial
_DIFFERENTIAL_CASES = [
    ("fig5", lambda jobs: run_fig5(
        dims=(2, 3), packet_sizes=(512, 1024), message_bytes=(2048, 4096),
        jobs=jobs)),
    ("fig6", lambda jobs: run_fig6(dims=(2, 3), message_bytes=4096, jobs=jobs)),
    ("fig7", lambda jobs: run_fig7(dims=(2, 3), message_bytes=4096, jobs=jobs)),
    ("fig8", lambda jobs: run_fig8(dims=(2, 3), message_bytes=256, jobs=jobs)),
    ("table1", lambda jobs: run_table1(n=3, jobs=jobs)),
    ("table2", lambda jobs: run_table2(n=3, packets=8, jobs=jobs)),
    ("table3", lambda jobs: run_table3(
        n=3, M=48, packet_sizes=(8, 16), jobs=jobs)),
    ("table4", lambda jobs: run_table4(n=4, jobs=jobs)),
    ("table5", lambda jobs: run_table5(max_n=8, construct_up_to=5, jobs=jobs)),
    ("table6", lambda jobs: run_table6(n=3, M=4, jobs=jobs)),
    ("scatter", lambda jobs: run_scatter_packet_sweep(
        n=4, M=4, packet_sizes=(2, 4, 100), jobs=jobs)),
]


class TestSerialParallelIdentity:
    """Parallel output must be byte-identical to serial, per experiment."""

    @pytest.mark.parametrize(
        "name,runner", _DIFFERENTIAL_CASES, ids=[c[0] for c in _DIFFERENTIAL_CASES]
    )
    def test_byte_identical(self, name, runner):
        serial = runner(1)
        parallel = runner(2)
        assert serial.render() == parallel.render()
        assert to_csv(serial) == to_csv(parallel)
        assert to_json(serial) == to_json(parallel)

    def test_parallel_run_attaches_stats(self):
        report = run_fig6(dims=(2, 3), message_bytes=2048, jobs=2)
        assert isinstance(report.sweep, SweepStats)
        assert report.sweep.num_points == 2
        assert report.sweep.executor == "process-pool"
        assert len(report.sweep.workers) >= 1

    def test_table5_constructed_mismatch_propagates_from_worker(self):
        # sanity: worker-side AssertionErrors surface, not silent Nones
        report = run_table5(max_n=6, construct_up_to=6, jobs=2)
        assert len(report.rows) == 5


class TestMergedLinkStats:
    def test_merges_link_stats_and_result_values(self):
        from repro.experiments.parallel import SweepResult, merged_link_stats
        from repro.sim.trace import LinkStats
        from repro.topology.hypercube import DirectedEdge

        class _Res:  # duck-types AsyncResult/CollectiveResult
            def __init__(self, stats):
                self.link_stats = stats

        bare = LinkStats()
        bare.record(0, 1, 5)
        wrapped = LinkStats()
        wrapped.record(0, 1, 2)
        wrapped.record(1, 3, 4)
        values = [bare, _Res(wrapped), "no stats here", None]
        merged = merged_link_stats(values)
        assert merged.elems[DirectedEdge(0, 1)] == 7
        assert merged.elems[DirectedEdge(1, 3)] == 4
        assert bare.elems[DirectedEdge(0, 1)] == 5  # inputs untouched

        result = SweepResult(values=values, stats=SweepStats(
            jobs=1, chunksize=1, executor="serial",
        ))
        assert result.merged_link_stats().elems == merged.elems
