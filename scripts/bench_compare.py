#!/usr/bin/env python
"""Run the benchmark-regression suite and compare against the baseline.

Runs one of the benchmark suites under pytest-benchmark, pulls each
benchmark's median, and compares it with the suite's baseline file at
the repo root:

* ``--suite engine`` (default): ``benchmarks/bench_regression.py``
  vs ``BENCH_ENGINE.json`` — engines + schedule generation.
* ``--suite sweep``: ``benchmarks/bench_sweep.py`` vs
  ``BENCH_SWEEP.json`` — serial/parallel full-figure sweeps.
* ``--suite runtime``: ``benchmarks/bench_runtime.py`` vs
  ``BENCH_RUNTIME.json`` — the distributed runtime (collective execution,
  fault repair, one differential runtime-vs-engine check).
* ``--suite service``: ``benchmarks/bench_service.py`` vs
  ``BENCH_SERVICE.json`` — the multi-tenant collective service
  (scenario runs per policy, plus the admission-constrained path).
* ``--suite workload``: ``benchmarks/bench_workload.py`` vs
  ``BENCH_WORKLOAD.json`` — workload DAG steps (pipeline, MoE,
  contended mice flows, the 1024-node training step, runtime backend).
* ``--suite topology``: ``benchmarks/bench_topology.py`` vs
  ``BENCH_TOPOLOGY.json`` — the torus paths (ring-decomposition trees,
  the Jung–Sakho all-broadcast, torus collectives end to end) and the
  vectorized adjacency resolution.

* ``python scripts/bench_compare.py`` — fail (exit 1) when any median
  exceeds its baseline by more than ``--threshold`` (default 50%) *and*
  by more than ``--min-delta`` seconds (absolute floor shielding
  microsecond-scale benchmarks from scheduler noise).
* ``python scripts/bench_compare.py --update`` — rewrite the baseline
  with the freshly measured medians.

New benchmarks (no baseline entry) and orphaned baseline entries are
reported but never fail the comparison; refresh with ``--update``.
Timings are machine-dependent: refresh the baseline when switching
hardware rather than chasing phantom regressions.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from datetime import datetime, timezone
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: suite name -> (benchmark file, baseline file at the repo root)
SUITES = {
    "engine": ("benchmarks/bench_regression.py", "BENCH_ENGINE.json"),
    "sweep": ("benchmarks/bench_sweep.py", "BENCH_SWEEP.json"),
    "runtime": ("benchmarks/bench_runtime.py", "BENCH_RUNTIME.json"),
    "service": ("benchmarks/bench_service.py", "BENCH_SERVICE.json"),
    "workload": ("benchmarks/bench_workload.py", "BENCH_WORKLOAD.json"),
    "topology": ("benchmarks/bench_topology.py", "BENCH_TOPOLOGY.json"),
}


def run_benchmarks(bench_file: Path, pytest_args: list[str]) -> dict[str, float]:
    """Run the regression suite; return {test name: median seconds}."""
    with tempfile.TemporaryDirectory() as tmp:
        json_path = Path(tmp) / "bench.json"
        env = dict(os.environ)
        src = str(REPO_ROOT / "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        cmd = [
            sys.executable,
            "-m",
            "pytest",
            str(bench_file),
            f"--benchmark-json={json_path}",
            "-q",
            *pytest_args,
        ]
        proc = subprocess.run(cmd, cwd=REPO_ROOT, env=env)
        if proc.returncode != 0:
            sys.exit(f"benchmark run failed (pytest exit {proc.returncode})")
        data = json.loads(json_path.read_text())
    return {b["name"]: b["stats"]["median"] for b in data["benchmarks"]}


def load_baseline(baseline_path: Path) -> dict:
    if not baseline_path.exists():
        return {}
    return json.loads(baseline_path.read_text())


def save_baseline(
    medians: dict[str, float], bench_file: Path, baseline_path: Path
) -> None:
    payload = {
        "_meta": {
            "updated": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "python": sys.version.split()[0],
            "platform": sys.platform,
            "cpu_count": os.cpu_count(),
            "suite": str(bench_file.relative_to(REPO_ROOT)),
            "stat": "median seconds per round",
        },
        "benchmarks": {
            name: {"median": medians[name]} for name in sorted(medians)
        },
    }
    baseline_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"baseline written: {baseline_path}")


def compare(
    medians: dict[str, float],
    baseline: dict,
    threshold: float,
    min_delta: float,
) -> tuple[int, dict]:
    """Print the comparison; return (exit code, JSON-able report)."""
    recorded = baseline.get("benchmarks", {})
    regressions = []
    rows = []
    width = max((len(n) for n in medians), default=0)
    for name in sorted(medians):
        median = medians[name]
        entry = recorded.get(name)
        if entry is None:
            print(f"{name:<{width}}  {median:>10.4f}s  (new - no baseline)")
            rows.append({"name": name, "median": median, "status": "new"})
            continue
        base = entry["median"]
        ratio = median / base if base > 0 else float("inf")
        marker = ""
        status = "ok"
        if ratio > 1.0 + threshold and median - base > min_delta:
            marker = "  REGRESSION"
            status = "regression"
            regressions.append((name, base, median, ratio))
        print(
            f"{name:<{width}}  {median:>10.4f}s  baseline {base:.4f}s  "
            f"x{ratio:.2f}{marker}"
        )
        rows.append(
            {
                "name": name,
                "median": median,
                "baseline": base,
                "ratio": ratio if ratio != float("inf") else None,
                "status": status,
            }
        )
    for name in sorted(set(recorded) - set(medians)):
        print(f"{name:<{width}}  (baseline entry has no benchmark - stale?)")
        rows.append(
            {
                "name": name,
                "baseline": recorded[name]["median"],
                "status": "stale",
            }
        )
    if regressions:
        print(
            f"\n{len(regressions)} regression(s) beyond {threshold:.0%} "
            "(rerun, or refresh with --update if intentional):"
        )
        for name, base, median, ratio in regressions:
            print(f"  {name}: {base:.4f}s -> {median:.4f}s (x{ratio:.2f})")
    else:
        print("\nno regressions")
    report = {
        "threshold": threshold,
        "min_delta": min_delta,
        "regressions": len(regressions),
        "passed": not regressions,
        "benchmarks": rows,
    }
    return (1 if regressions else 0), report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--suite",
        choices=sorted(SUITES),
        default="engine",
        help="benchmark suite to run (default: engine)",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite BENCH_ENGINE.json with the measured medians",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.5,
        help="allowed fractional slowdown before failing (default 0.5)",
    )
    parser.add_argument(
        "--min-delta",
        type=float,
        default=0.005,
        help="absolute slowdown in seconds a regression must also exceed "
        "(default 0.005)",
    )
    parser.add_argument(
        "--report",
        metavar="PATH",
        help="also write the comparison as a JSON report (for CI artifacts)",
    )
    parser.add_argument(
        "pytest_args",
        nargs="*",
        help="extra arguments forwarded to pytest (after --)",
    )
    args = parser.parse_args()

    bench_rel, baseline_rel = SUITES[args.suite]
    bench_file = REPO_ROOT / bench_rel
    baseline_path = REPO_ROOT / baseline_rel
    medians = run_benchmarks(bench_file, args.pytest_args)
    if not medians:
        sys.exit("no benchmark results collected")
    if args.update:
        save_baseline(medians, bench_file, baseline_path)
        return 0
    baseline = load_baseline(baseline_path)
    if not baseline:
        sys.exit(
            f"no baseline at {baseline_path}; create one with --update"
        )
    base_cpus = baseline.get("_meta", {}).get("cpu_count")
    if base_cpus is not None and base_cpus != os.cpu_count():
        print(
            f"warning: baseline captured with cpu_count={base_cpus} but "
            f"this machine has {os.cpu_count()}; timings may not be "
            "comparable (refresh with --update after switching hardware)",
            file=sys.stderr,
        )
    code, report = compare(medians, baseline, args.threshold, args.min_delta)
    if args.report:
        report = {
            "suite": args.suite,
            "baseline_file": baseline_rel,
            "generated": datetime.now(timezone.utc).isoformat(
                timespec="seconds"
            ),
            **report,
        }
        Path(args.report).write_text(json.dumps(report, indent=2) + "\n")
        print(f"report written: {args.report}")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
