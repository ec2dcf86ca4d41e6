#!/usr/bin/env python3
"""Alternating end-to-end benchmark pairs: a base git ref against the
working tree.

Usage (from the repository root)::

    python scripts/e2e_pairs.py --workload workload-moe [cube-n10 ...]
        [--base HEAD] [--pairs 8] [--seconds T] [--seed 0]
    python scripts/e2e_pairs.py --workload all --pairs 4

The base ref's committed files are exported (``git archive``) into a
temporary directory, and the working tree's files (tracked ones and
untracked ones git does not ignore, as they are on disk) are copied
beside them, once per batch: a file edited while the batch runs does
not change the code its later pairs measure.  Each pair runs
``benchmarks/e2e/run.py --out`` once in each of the two copies, one
after the other; the side that goes first alternates from pair to pair,
so a machine that slows down or speeds up during the session weighs on
both sides alike.
The workloads run one after the other (``all``: every workload of
``BENCHMARK.json``, in its order), each with its own pairs.

For every end-to-end metric of ``BENCHMARK.json`` it prints, per
workload, the median and the range of each side, the change of the
medians, the metric's bound, a verdict, the interquartile range of the
base runs, and the pairs the working tree won (strictly better in the
metric's direction).  The verdict is ``worse`` when the work median is
worse than the base median by more than the bound; ``unresolved`` when
it is not, but the base IQR is wider than the bound (as a share of the
base median) and some work run reads no better than some base run;
``ok`` otherwise.  It exits 1 if a run failed ops or
missed its pinned ``sim_digest``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUNNER = Path("benchmarks") / "e2e" / "run.py"


def export_ref(ref: str, dest: Path) -> None:
    """Write the committed files of ``ref`` into ``dest``."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", ref],
        cwd=ROOT, check=True, capture_output=True,
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def export_worktree(dest: Path, root: Path = ROOT) -> None:
    """Copy the working tree of the repository at ``root`` into ``dest``:
    its tracked files and the untracked ones git does not ignore, as
    they are on disk."""
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=root, check=True, capture_output=True,
    ).stdout
    for name in sorted(set(listed.decode().split("\0")) - {""}):
        src = root / name
        if src.is_file():  # a tracked file deleted on disk is left out
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name, follow_symlinks=False)


def run_once(tree: Path, workload: str, args: argparse.Namespace, out: Path) -> dict:
    """One ``run.py`` run of ``workload`` in ``tree``; its run record."""
    cmd = [sys.executable, str(RUNNER), "--workload", workload,
           "--seed", str(args.seed), "--out", str(out)]
    if args.seconds is not None:
        cmd += ["--seconds", str(args.seconds)]
    subprocess.run(cmd, cwd=tree, stdout=subprocess.DEVNULL, check=False)
    if not out.is_file():
        raise RuntimeError(f"{tree}: run.py wrote no {out.name}")
    (record,) = json.loads(out.read_text())["runs"]
    return record


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def value(record: dict, name: str) -> float:
    """Metric ``name`` of a run record (``run.py --out`` stores each as
    ``[value, unit]``)."""
    return record["metrics"][name][0]


def summarize(pairs: list[tuple[dict, dict]], metrics: list[dict]) -> list[dict]:
    """Per-metric summary of ``(base, work)`` run records.

    ``metrics`` are ``BENCHMARK.json``'s ``end_to_end`` entries (name,
    ``better`` and ``bound``).  Each row holds the medians, ranges and
    base interquartile range, the change of the work median against the
    base median (positive = better), the bound and the verdict (see the
    module docstring), and the pairs the working tree won.
    """
    rows = []
    for m in metrics:
        name = m["name"]
        sign = 1.0 if m["better"] == "higher" else -1.0
        base = [value(b, name) for b, _ in pairs]
        work = [value(w, name) for _, w in pairs]
        base_med = statistics.median(base)
        work_med = statistics.median(work)
        q1, q3 = _quartiles(base)
        gain = sign * (work_med - base_med) / base_med if base_med else 0.0
        spread = (q3 - q1) / abs(base_med) if base_med else 0.0
        bound = m["bound"]
        # every work run better than every base run
        clear = min(sign * w for w in work) > max(sign * b for b in base)
        rows.append({
            "metric": name,
            "unit": pairs[0][0]["metrics"][name][1],
            "base_median": base_med,
            "base_range": (min(base), max(base)),
            "base_iqr": q3 - q1,
            "work_median": work_med,
            "work_range": (min(work), max(work)),
            "gain": gain,
            "bound": bound,
            "verdict": (
                "worse" if -gain > bound
                else "unresolved" if spread > bound and not clear
                else "ok"
            ),
            "won": sum(sign * (w - b) > 0 for b, w in zip(base, work)),
            "pairs": len(pairs),
        })
    return rows


def format_rows(rows: list[dict]) -> str:
    """The summary as a Markdown table."""
    lines = [
        "| metric | base median [range] | work median [range] | gain | bound | verdict | base IQR | pairs won |",
        "|---|---:|---:|---:|---:|---|---:|---:|",
    ]
    for r in rows:
        lines.append(
            f"| {r['metric']} ({r['unit']}) "
            f"| {r['base_median']:.4g} [{r['base_range'][0]:.4g}, {r['base_range'][1]:.4g}] "
            f"| {r['work_median']:.4g} [{r['work_range'][0]:.4g}, {r['work_range'][1]:.4g}] "
            f"| {100 * r['gain']:+.1f}% | {100 * r['bound']:.0f}% "
            f"| {r['verdict']} | {r['base_iqr']:.3g} "
            f"| {r['won']}/{r['pairs']} |"
        )
    return "\n".join(lines)


def _parse(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, nargs="+",
                   help="workload names from BENCHMARK.json, or 'all'")
    p.add_argument("--base", default="HEAD", help="git ref to compare against (default HEAD)")
    p.add_argument("--pairs", type=int, default=8)
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time per run (default: run.py's, from BENCHMARK.json)")
    p.add_argument("--seed", type=int, default=0)
    return p.parse_args(argv)


def run_pairs(
    workload: str,
    base_tree: Path,
    work_tree: Path,
    tmp_path: Path,
    args: argparse.Namespace,
) -> list[tuple[dict, dict]]:
    """``args.pairs`` alternating ``(base, work)`` runs of ``workload``."""
    pairs: list[tuple[dict, dict]] = []
    for i in range(args.pairs):
        sides = [("base", base_tree), ("work", work_tree)]
        if i % 2:
            sides.reverse()
        got = {
            side: run_once(tree, workload, args, tmp_path / f"{workload}-{side}-{i}.json")
            for side, tree in sides
        }
        pairs.append((got["base"], got["work"]))
        print(
            f"{workload} pair {i + 1}/{args.pairs}: ops_per_s base "
            f"{value(got['base'], 'ops_per_s'):.1f}, work "
            f"{value(got['work'], 'ops_per_s'):.1f}",
            flush=True,
        )
    return pairs


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    workloads = names if args.workload == ["all"] else args.workload
    unknown = sorted(set(workloads) - set(names))
    if unknown:
        print(f"unknown workload(s) {unknown}; pick from {names} or 'all'", file=sys.stderr)
        return 2
    length = "default length" if args.seconds is None else f"{args.seconds:g} s"
    bad = 0
    with tempfile.TemporaryDirectory(prefix="e2e-pairs-") as tmp:
        tmp_path = Path(tmp)
        base_tree, work_tree = tmp_path / "base", tmp_path / "work"
        base_tree.mkdir()
        work_tree.mkdir()
        export_ref(args.base, base_tree)
        export_worktree(work_tree)
        for workload in workloads:
            pairs = run_pairs(workload, base_tree, work_tree, tmp_path, args)
            print(f"\n{workload}, seed {args.seed}, {length}, base {args.base}:\n")
            print(format_rows(summarize(pairs, bench["end_to_end"])), flush=True)
            print()
            bad += sum(not r["correct"] for pair in pairs for r in pair)
    if bad:
        print(f"{bad} run(s) failed ops or missed the digest pin", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
