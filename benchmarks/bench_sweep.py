"""Sweep-executor benchmarks: serial vs parallel full-figure wall clock.

Medians are pinned in ``BENCH_SWEEP.json`` at the repo root; compare or
refresh with::

    python scripts/bench_compare.py --suite sweep [--update]

Each benchmark regenerates Figure 6 in full (the headline broadcast
experiment: five cube dimensions, SBT + MSBT on the event engine), so
one timed round each is the right cost.  The serial/parallel pair is
the speedup record — on a multi-core runner the ``jobs4`` median should
sit well below the serial one; on a single core it documents the pool
overhead instead.  Caches are cleared before every round so each round
pays the true cold generation cost.
"""

from __future__ import annotations

from repro import cache
from repro.experiments import run_fig6

#: the full Figure 6 grid (what `repro figure 6` runs)
FIG6_DIMS = (2, 3, 4, 5, 6)


def _cold():
    cache.clear_caches()


def test_sweep_fig6_serial(benchmark):
    report = benchmark.pedantic(
        run_fig6,
        kwargs=dict(dims=FIG6_DIMS, jobs=1),
        setup=_cold,
        rounds=1,
        iterations=1,
    )
    assert len(report.rows) == len(FIG6_DIMS)
    assert report.sweep.executor == "serial"


def test_sweep_fig6_jobs4(benchmark):
    report = benchmark.pedantic(
        run_fig6,
        kwargs=dict(dims=FIG6_DIMS, jobs=4),
        setup=_cold,
        rounds=1,
        iterations=1,
    )
    assert len(report.rows) == len(FIG6_DIMS)
    assert report.sweep.executor == "process-pool"

