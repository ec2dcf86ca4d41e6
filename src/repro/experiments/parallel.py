"""Process-pool sweep executor for the reproduction experiments.

Every figure/table experiment is a sweep over independent simulation
points — a grid of ``(dim, algorithm, port model, M, B)`` combinations
whose schedule generation and engine runs share nothing but read-only
inputs.  :func:`run_sweep` fans such a grid out over worker processes
and reassembles the results **in grid order**, so the output of a
parallel run is byte-identical to the serial one; parallelism only
changes wall-clock time.

Design points:

* **Determinism.**  Each point carries its grid index; workers return
  ``(index, value)`` pairs and the caller's values land in a
  pre-allocated slot list.  Completion order is irrelevant.
* **Chunking.**  Points are batched into contiguous chunks (~4 chunks
  per worker) so pickle/IPC overhead is amortized while load still
  balances across heterogeneous point costs.
* **Telemetry.**  Every point is timed in its worker and annotated
  with the worker id and the cache-hit deltas it produced;
  :class:`SweepStats` aggregates them across workers.
* **Fallback.**  ``jobs=1`` (the default), a single-point grid, or a
  platform where worker processes cannot be started all run the exact
  same per-point code in-process — no separate serial code path that
  could drift.

Point functions must be module-level callables and their kwargs
picklable (workers may be spawned, not forked).  The ``REPRO_JOBS``
environment variable supplies a default worker count for every sweep;
``jobs=0`` means "all cores".
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import product
from math import ceil
from numbers import Integral
from typing import Any, Callable, Mapping, Sequence

from repro.obs.instruments import CACHE_OPS, sweep_finished
from repro.sim.trace import LinkStats

__all__ = [
    "PointStats",
    "SweepResult",
    "SweepStats",
    "merged_link_stats",
    "resolve_jobs",
    "run_sweep",
    "sweep_grid",
]

#: chunks submitted per worker (balances pickle overhead against load
#: balancing across unevenly priced points)
CHUNKS_PER_WORKER = 4


def resolve_jobs(jobs: int | None = None) -> int:
    """The effective worker count for a sweep.

    Precedence: an explicit ``jobs`` argument, then the ``REPRO_JOBS``
    environment variable, then 1 (serial).  ``0`` means one worker per
    available core.  The schedule-pregeneration pool of the service and
    workload layers validates its ``jobs`` through this function too.

    Raises:
        ValueError: if the count is negative, a ``bool`` or not an
            integer.
    """
    if jobs is None:
        env = os.environ.get("REPRO_JOBS", "").strip()
        if env:
            try:
                jobs = int(env)
            except ValueError:
                raise ValueError(f"REPRO_JOBS must be an integer, got {env!r}")
        else:
            jobs = 1
    if isinstance(jobs, bool) or not isinstance(jobs, Integral) or jobs < 0:
        raise ValueError(f"jobs must be an integer >= 0, got {jobs!r}")
    return int(jobs) or os.cpu_count() or 1


def sweep_grid(**axes: Sequence[Any]) -> list[dict[str, Any]]:
    """The cartesian product of named axes as kwargs dicts.

    Row-major in the given axis order, matching the nesting of the
    serial ``for`` loops the experiments used to run::

        sweep_grid(n=(2, 3), B=(1, 2))
        # [{n: 2, B: 1}, {n: 2, B: 2}, {n: 3, B: 1}, {n: 3, B: 2}]
    """
    names = list(axes)
    return [dict(zip(names, combo)) for combo in product(*axes.values())]


@dataclass(frozen=True)
class PointStats:
    """Telemetry for one executed sweep point.

    Attributes:
        index: the point's position in the grid (== result position).
        wall_s: wall-clock seconds spent executing the point.
        worker: pid of the process that ran it.
        lru_hits / lru_misses: in-memory cache-counter deltas the point
            produced in its worker.
    """

    index: int
    wall_s: float
    worker: int
    lru_hits: int
    lru_misses: int


@dataclass
class SweepStats:
    """Aggregated telemetry for one sweep execution.

    Cache counters are summed over the per-point deltas, i.e. over
    every worker that participated — the workers' registries are
    process-local and die with the pool, so this aggregate is the only
    place their hit counts survive.
    """

    jobs: int
    chunksize: int
    executor: str
    wall_s: float = 0.0
    points: list[PointStats] = field(default_factory=list)

    @property
    def num_points(self) -> int:
        """Points executed."""
        return len(self.points)

    @property
    def workers(self) -> tuple[int, ...]:
        """Distinct worker pids, ascending."""
        return tuple(sorted({p.worker for p in self.points}))

    @property
    def point_wall_s(self) -> float:
        """Summed per-point wall time (> ``wall_s`` when overlapped)."""
        return sum(p.wall_s for p in self.points)

    @property
    def lru_hits(self) -> int:
        """In-memory cache hits across all workers."""
        return sum(p.lru_hits for p in self.points)

    @property
    def lru_misses(self) -> int:
        """In-memory cache misses across all workers."""
        return sum(p.lru_misses for p in self.points)

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable form (the CI timing artifact)."""
        return {
            "jobs": self.jobs,
            "chunksize": self.chunksize,
            "executor": self.executor,
            "wall_s": self.wall_s,
            "point_wall_s": self.point_wall_s,
            "num_points": self.num_points,
            "workers": list(self.workers),
            "lru_hits": self.lru_hits,
            "lru_misses": self.lru_misses,
            "points": [
                {
                    "index": p.index,
                    "wall_s": p.wall_s,
                    "worker": p.worker,
                    "lru_hits": p.lru_hits,
                    "lru_misses": p.lru_misses,
                }
                for p in self.points
            ],
        }

    def summary(self) -> str:
        """One-line human summary (what ``repro sweep`` prints)."""
        return (
            f"{self.num_points} points in {self.wall_s:.2f}s "
            f"({self.executor}, jobs={self.jobs}, chunksize={self.chunksize}, "
            f"{len(self.workers)} worker(s); "
            f"lru {self.lru_hits}h/{self.lru_misses}m)"
        )


def merged_link_stats(values: Sequence[Any]) -> LinkStats:
    """Fleet-wide link traffic folded from per-point results.

    Accepts any mix of :class:`~repro.sim.trace.LinkStats` instances
    and objects exposing a ``link_stats`` attribute (collective and
    runtime results); everything else is skipped.  Workers are
    process-local, so this merge is the only way their per-point link
    counters combine into one cross-worker traffic picture.
    """
    merged = LinkStats()
    for value in values:
        stats = value if isinstance(value, LinkStats) else getattr(
            value, "link_stats", None
        )
        if isinstance(stats, LinkStats):
            merged.merge(stats)
    return merged


@dataclass
class SweepResult:
    """Ordered point results plus execution telemetry."""

    values: list[Any]
    stats: SweepStats

    def merged_link_stats(self) -> LinkStats:
        """Link traffic merged across every point result (see
        :func:`merged_link_stats`)."""
        return merged_link_stats(self.values)


def _cache_totals() -> tuple[int, int]:
    """(hits, misses) summed over every cache in the registry.

    Read from the observability registry's ``repro_cache_ops_total``
    series rather than the live cache objects: the series survive a
    cache being re-created under the same name mid-point (the fork
    start method hands workers a copy of the parent's cache registry,
    and re-registration used to make before/after snapshots disagree
    about which object's counters they were diffing).  One code path
    serves process-pool workers and in-process sweeps alike.
    """
    hits = misses = 0
    for series in CACHE_OPS.series():
        op = series.labels["op"]
        if op == "hit":
            hits += series.value
        elif op == "miss":
            misses += series.value
    return hits, misses


def _run_point(
    fn: Callable[..., Any], index: int, kwargs: Mapping[str, Any]
) -> tuple[Any, PointStats]:
    before = _cache_totals()
    t0 = time.perf_counter()
    value = fn(**kwargs)
    wall = time.perf_counter() - t0
    after = _cache_totals()
    return value, PointStats(
        index=index,
        wall_s=wall,
        worker=os.getpid(),
        lru_hits=after[0] - before[0],
        lru_misses=after[1] - before[1],
    )


def _run_chunk(
    fn: Callable[..., Any], chunk: list[tuple[int, dict[str, Any]]]
) -> list[tuple[Any, PointStats]]:
    return [_run_point(fn, index, kwargs) for index, kwargs in chunk]


def run_sweep(
    fn: Callable[..., Any],
    points: Sequence[Mapping[str, Any]],
    *,
    jobs: int | None = None,
) -> SweepResult:
    """Execute ``fn(**point)`` for every point, possibly in parallel.

    Args:
        fn: a module-level callable (workers pickle it by reference).
        points: kwargs mappings, one per grid point.  Values must be
            picklable when ``jobs > 1``.
        jobs: worker processes; see :func:`resolve_jobs` for defaults.

    Returns:
        A :class:`SweepResult` whose ``values[i]`` is ``fn(**points[i])``
        — identical, entry for entry, to a serial run.
    """
    indexed = [(i, dict(p)) for i, p in enumerate(points)]
    jobs = resolve_jobs(jobs)
    t0 = time.perf_counter()
    if jobs == 1 or len(indexed) <= 1:
        return _run_serial(fn, indexed, jobs, "serial", t0)
    chunksize = max(1, ceil(len(indexed) / (jobs * CHUNKS_PER_WORKER)))
    chunks = [
        indexed[i : i + chunksize] for i in range(0, len(indexed), chunksize)
    ]
    try:
        pool = ProcessPoolExecutor(max_workers=min(jobs, len(chunks)))
    except (OSError, ValueError, NotImplementedError):
        # no usable multiprocessing on this platform — degrade
        # gracefully rather than failing the sweep
        return _run_serial(fn, indexed, jobs, "serial-fallback", t0)
    values: list[Any] = [None] * len(indexed)
    point_stats: list[PointStats] = []
    with pool:
        futures = [pool.submit(_run_chunk, fn, chunk) for chunk in chunks]
        for future in futures:
            for value, ps in future.result():
                values[ps.index] = value
                point_stats.append(ps)
    point_stats.sort(key=lambda p: p.index)
    stats = SweepStats(
        jobs=jobs,
        chunksize=chunksize,
        executor="process-pool",
        wall_s=time.perf_counter() - t0,
        points=point_stats,
    )
    sweep_finished(stats)
    return SweepResult(values=values, stats=stats)


def _run_serial(
    fn: Callable[..., Any],
    indexed: list[tuple[int, dict[str, Any]]],
    jobs: int,
    executor: str,
    t0: float,
) -> SweepResult:
    values = []
    point_stats = []
    for index, kwargs in indexed:
        value, ps = _run_point(fn, index, kwargs)
        values.append(value)
        point_stats.append(ps)
    stats = SweepStats(
        jobs=jobs,
        chunksize=len(indexed) or 1,
        executor=executor,
        wall_s=time.perf_counter() - t0,
        points=point_stats,
    )
    sweep_finished(stats)
    return SweepResult(values=values, stats=stats)
