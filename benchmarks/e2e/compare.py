#!/usr/bin/env python3
"""Compare two result files written by ``run.py --out``.

Usage (from the repository root)::

    python benchmarks/e2e/compare.py A.json B.json

Prints one row per (workload, metric): each side's median and quartiles
over its runs, how much better B is than A (negative when worse), and a
status:

* ``ok``: B is no worse than A by more than the metric's bound;
* ``REGRESSED``: B is worse than A by more than the bound;
* ``unresolved``: one side's own spread (quartile distance over median)
  is wider than the bound, so the two cannot be told apart;
* ``-``: a per-layer metric, which has no bound.

Bounds and directions come from ``BENCHMARK.json``.  The exit code is 1
when a metric regressed or when the two files hold different
``sim_digest`` values for the same (workload, seed, scale); else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(q: tuple[float, float, float]) -> float:
    """Quartile distance as a share of the median."""
    q1, med, q3 = q
    if med == 0:
        return 0.0 if q1 == q3 else float("inf")
    return (q3 - q1) / abs(med)


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    if a == 0:
        return 0.0 if b == a else float("inf")
    change = (b - a) / abs(a)
    return change if better == "lower" else -change


def _values(runs: list[dict]) -> dict[tuple[str, str], list[float]]:
    out: dict[tuple[str, str], list[float]] = {}
    for r in runs:
        for name, (value, _unit) in r["metrics"].items():
            out.setdefault((r["workload"], name), []).append(value)
    return out


def _digests(runs: list[dict]) -> dict[tuple[str, int, bool], str]:
    return {(r["workload"], r["seed"], r["quick"]): r["sim_digest"] for r in runs}


def compare(a: dict, b: dict, bench: dict) -> tuple[list[str], bool]:
    """The report lines and whether B passes against A."""
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    va, vb = _values(a["runs"]), _values(b["runs"])
    lines = [
        f"{'workload':20s} {'metric':34s} {'A median [q1, q3]':>34s} "
        f"{'B median [q1, q3]':>34s} {'B better':>8s}  {'bound':>5s}  status"
    ]
    ok = True
    for key in sorted(va.keys() & vb.keys()):
        workload, name = key
        spec = specs[name]
        qa, qb = quartiles(va[key]), quartiles(vb[key])
        worse = worse_by(qa[1], qb[1], spec["better"])
        bound = spec.get("bound")
        if bound is None:
            status = "-"
        elif spread(qa) > bound or spread(qb) > bound:
            status = "unresolved"
        elif worse > bound:
            status = "REGRESSED"
            ok = False
        else:
            status = "ok"
        lines.append(
            f"{workload:20s} {name:34s} "
            f"{qa[1]:12.6g} [{qa[0]:9.4g}, {qa[2]:9.4g}] "
            f"{qb[1]:12.6g} [{qb[0]:9.4g}, {qb[2]:9.4g}] "
            f"{-worse:+8.1%}  {'' if bound is None else f'{bound:.0%}':>5s}  {status}"
        )
    da, db = _digests(a["runs"]), _digests(b["runs"])
    shared = sorted(da.keys() & db.keys())
    for key in shared:
        if da[key] != db[key]:
            ok = False
            lines.append(f"sim_digest differs for {key}: {da[key]} vs {db[key]}")
    lines.append(
        f"sim_digest: {len(shared)} (workload, seed) runs in both files, "
        f"{sum(da[k] != db[k] for k in shared)} differ"
    )
    return lines, ok


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="Compare two run.py --out result files.")
    p.add_argument("a", type=Path, help="the baseline result file")
    p.add_argument("b", type=Path, help="the result file compared against it")
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    a, b = (json.loads(path.read_text()) for path in (args.a, args.b))
    for side, doc in (("A", a), ("B", b)):
        m = doc["meta"]
        print(f"{side}: {m['cpu_count']} CPUs, Python {m['python']}, NumPy {m['numpy']}, "
              f"numba {'present' if m['numba'] else 'absent'}, commit {m['git_sha']}, "
              f"seeds {m['seed']}..{m['seed'] + m['runs'] - 1}")
    if a["meta"]["cpu_count"] != b["meta"]["cpu_count"]:
        print("warning: the two files were recorded with different CPU counts")
    lines, ok = compare(a, b, bench)
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
