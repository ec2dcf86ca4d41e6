#!/usr/bin/env python3
"""End-to-end benchmark of the hypercube collective simulator.

Usage (from the repository root)::

    python benchmarks/e2e/run.py [--workload NAME|all] [--seed S]
        [--seconds T] [--trace [0|1]] [--runs N] [--out FILE]
        [--markdown [FILE]] [--quick]

Every (workload, seed) run starts fresh interpreters one after another:
``SETUP_SAMPLES - 1`` children that only set up, then one child that
sets up and measures.  Set-up is everything from interpreter start to
the end of one untimed warm-up op: imports, input generation and cache
fill.  The measuring child is a closed loop with one caller.  It runs
the workload's ops one at a time, in whole cycles of its op kinds,
until ``--seconds`` have passed and at least ``MIN_OPS`` ops have run.
It checks every op's outputs and hashes the simulated outputs of the
first ``MIN_OPS`` ops, which every run makes, into ``sim_digest``.
Every time it reports is scaled to a reference machine speed measured by
a fixed probe (see ``probe``), because the speed of a shared machine
swings too much for raw wall times to be compared run to run.

With ``--trace`` the child wraps the library's layers (see
``tracing.py``) on every other cycle.  It reports per-layer metrics from
the traced cycles and the tracing overhead against the untraced ones,
and writes its spans to ``out/trace-<workload>-<seed>.json`` next to
this file.  ``--markdown`` turns the traced runs into ``LAYERS.md``.

Each run prints its metrics by name and unit, then, as its last line,
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The
exit code is 0 only if every op of every run passed its checks and
every pinned ``sim_digest`` matched.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
TRACE_DIR = HERE / "out"

#: fewest ops a measuring run times; a 90th percentile then has the ten
#: samples beyond it that make it worth reporting
MIN_OPS = 100
#: set-up samples per run, whose median is ``setup_s``
SETUP_SAMPLES = 3
#: wall-clock limit of one (workload, seed) run, children included
RUN_TIMEOUT_S = 170.0
#: the seed whose ``sim_digest`` values ``digests.json`` pins
PINNED_SEED = 0
#: single-threaded numeric libraries, so a run is one process on one core
_THREAD_CAPS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: the speed probe's time on a quiet 2-CPU x86-64 box under Python 3.11;
#: every time the benchmark reports is scaled to that machine speed
PROBE_REF_S = 130e-6


class RunError(RuntimeError):
    """A child process failed or ran out of time."""


def percentile(samples: list[float], q: float) -> float:
    """The nearest-rank ``q``-quantile of ``samples``.

    Raises ``ValueError`` when fewer than ten samples lie beyond it: such
    a percentile says more about one op than about the workload.
    """
    ordered = sorted(samples)
    k = max(math.ceil(q * len(ordered)) - 1, 0)
    if len(ordered) - 1 - k < 10:
        raise ValueError(
            f"{len(ordered)} samples leave fewer than ten beyond the {q:.0%} percentile"
        )
    return ordered[k]


def probe() -> float:
    """Seconds the speed probe takes at this moment.

    The probe is fixed pure-Python work: integer arithmetic and the small
    dict and set churn the simulator is made of.  It runs no library code.
    """
    t0 = time.perf_counter()
    s = 0
    for k in range(1500):
        s += k * k % 7
    d = {}
    for k in range(300):
        d[(k, k & 7)] = {k, k + 1}
    for key, v in d.items():
        if key[1] in v:
            s += 1
    return time.perf_counter() - t0


def scale(elapsed: float, probe_s: float) -> float:
    """``elapsed`` at the reference speed, given the probe's time then."""
    return elapsed * PROBE_REF_S / probe_s


# -- the measuring child -------------------------------------------------


def latency_metrics(times: list[float]) -> dict[str, tuple[float, str]]:
    """Throughput and median and 90th-percentile latency of op times."""
    return {
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_p50_s": (percentile(times, 0.5), "s"),
        "op_p90_s": (percentile(times, 0.9), "s"),
    }


def measure(workload: Any, kinds: list, seed: int, seconds: float, tracer: Any = None) -> dict:
    """Run ``workload``'s ops in whole cycles of ``kinds`` and measure them.

    Op ``i`` has kind ``kinds[i % len(kinds)]`` and inputs drawn from
    ``random.Random(seed + i)``.  An op fails when it raises or its check
    reports a problem; failures are counted and the loop goes on.  With a
    ``tracer`` the even cycles (the first among them) run traced.

    Each op's wall time is scaled by the mean of the probes bracketing it;
    the unscaled numbers are returned under ``raw``.
    """
    n_kinds = len(kinds)
    digest = hashlib.sha256()
    scaled: dict[bool, list[float]] = {False: [], True: []}
    raw: dict[bool, list[float]] = {False: [], True: []}
    failed = 0
    problems: list[str] = []
    start = time.perf_counter()
    i = 0
    while True:
        cycle, j = divmod(i, n_kinds)
        traced = tracer is not None and cycle % 2 == 0
        if traced and j == 0:
            tracer.install()
        inputs = workload.make(kinds[j], random.Random(seed + i))
        before = probe()
        t0 = time.perf_counter()
        try:
            if traced:
                with tracer.op_span(i):
                    result = workload.run(inputs)
            else:
                result = workload.run(inputs)
            found = []
        except Exception as exc:  # a failing op is counted, not fatal
            found = [f"{type(exc).__name__}: {exc}"]
        elapsed = time.perf_counter() - t0
        raw[traced].append(elapsed)
        scaled[traced].append(scale(elapsed, (before + probe()) / 2))
        found = found or workload.check(inputs, result)
        if found:
            failed += 1
            problems.extend(f"op {i}: {p}" for p in found)
        if i < MIN_OPS:
            out = found if found else workload.record(inputs, result)
            digest.update(repr(out).encode() + b"\n")
        i += 1
        if i == MIN_OPS:
            # after a fixed amount of work, so a faster run, which fills
            # the schedule caches with more ops, does not read higher
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if i % n_kinds == 0:
            if traced:
                tracer.uninstall()
            done = time.perf_counter() - start >= seconds and i >= MIN_OPS
            if done and (tracer is None or (i // n_kinds) % 2 == 0):
                break

    res: dict[str, Any] = {
        "attempted": i,
        "failed": failed,
        "problems": problems[:10],
        "sim_digest": digest.hexdigest(),
    }
    if tracer is None:
        res["metrics"] = latency_metrics(scaled[False])
        res["metrics"]["peak_rss_mb"] = (peak_rss_mb, "MB")
        res["raw"] = {k: v for k, (v, _) in latency_metrics(raw[False]).items()}
    else:
        import tracing

        ops = len(scaled[True])
        rate = {t: len(v) / sum(v) for t, v in scaled.items()}
        res["metrics"] = tracing.layer_metrics(tracer, ops, 1.0 - rate[True] / rate[False])
        res["layers"] = tracing.self_times(tracer.spans, ops)
        res["op_wall_s"] = sum(raw[True]) / ops
    return res


def _child(args: argparse.Namespace) -> int:
    import importlib.util

    import numpy
    from workloads import WORKLOADS

    w = WORKLOADS[args.workload]
    kinds = w.kinds(args.quick)
    warm = w.make(kinds[-1], random.Random(args.seed - 1))
    problems = w.check(warm, w.run(warm))
    if problems:
        print(f"{args.workload}: warm-up op failed: {problems}", file=sys.stderr)
        return 1
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    res = measure(w, kinds, args.seed, args.seconds, tracer)
    if tracer is not None:
        tracer.write(
            TRACE_DIR / f"trace-{args.workload}-{args.seed}.json",
            workload=args.workload, seed=args.seed,
        )
    res["env"] = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
    }
    print(json.dumps(res), flush=True)
    return 0


# -- the parent: children, results, output ---------------------------------


def _child_env() -> dict[str, str]:
    """The parent's environment without ``REPRO_*`` settings, with the
    checkout's library first on the path and numeric threads capped."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update(_THREAD_CAPS)
    return env


def _spawn(argv: list[str], deadline: float) -> tuple[float, float, str]:
    """Start a child; return its set-up seconds (start to ``READY``), raw
    and scaled, and the rest of its standard output."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", *argv]
    # probed before the start only, as afterwards a measuring child competes
    # with the probe for the machine; the first probe after the parent sat
    # idle reads slow, so it is dropped
    speed = statistics.median([probe() for _ in range(6)][1:])
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_child_env(), cwd=ROOT, bufsize=0)
    try:
        readable, _, _ = select.select([proc.stdout], [], [], max(deadline - time.monotonic(), 0))
        line = proc.stdout.readline() if readable else b""
        setup = time.perf_counter() - t0
        setup_scaled = scale(setup, speed)
        if line.strip() != b"READY":
            raise RunError(f"child {argv} did not finish set-up (got {line!r})")
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 0))
    except subprocess.TimeoutExpired:
        raise RunError(f"child {argv} ran past the {RUN_TIMEOUT_S:.0f} s limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise RunError(f"child {argv} exited with {proc.returncode}")
    return setup, setup_scaled, out.decode()


def run_one(name: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    """Set up ``SETUP_SAMPLES`` times and measure once; the child's
    result plus the scaled ``setup_samples``."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    argv = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(int(trace))] + (["--quick"] if quick else [])
    setups = [
        _spawn(argv + ["--setup-only"], deadline)[:2]
        for _ in range(0 if quick else SETUP_SAMPLES - 1)
    ]
    raw_setup, scaled_setup, out = _spawn(argv, deadline)
    setups.append((raw_setup, scaled_setup))
    res = json.loads(out.strip().splitlines()[-1])
    res["setup_samples"] = [scaled for _, scaled in setups]
    if not trace:
        res["metrics"]["setup_s"] = (statistics.median(res["setup_samples"]), "s")
        res["raw"]["setup_s"] = statistics.median(raw for raw, _ in setups)
    return res


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _report(run: dict, order: list[str]) -> None:
    """Print one run: a header, each metric by name and unit, then the
    run's one-line JSON result."""
    pin = run["digest_pinned"]
    pin_note = {None: "not pinned", True: "matches the pin", False: "DIFFERS FROM THE PIN"}[pin]
    print(
        f"{run['workload']} seed={run['seed']} trace={int(run['trace'])}: "
        f"{run['attempted']} ops, {run['failed']} failed "
        f"(fail_ratio {run['fail_ratio']:.4g}), sim_digest {run['sim_digest']} ({pin_note})"
    )
    for p in run["problems"]:
        print(f"  problem: {p}")
    for name in order:
        value, unit = run["metrics"][name]
        print(f"  {name:34s} {value:14.6g} {unit}")
    if "raw" in run:
        print("  unscaled wall time: " + ", ".join(f"{k} {v:.6g}" for k, v in run["raw"].items()))
    print(json.dumps({
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {n: {"value": run["metrics"][n][0], "unit": run["metrics"][n][1]} for n in order},
    }), flush=True)


def _layers_markdown(runs: list[dict], meta: dict) -> str:
    """The "where the time goes" table: self time per op of each layer."""
    import tracing

    names = list(dict.fromkeys(r["workload"] for r in runs))

    def med(workload: str, key: str, layer: str | None = None) -> float:
        vals = [r[key][layer] if layer else r[key] for r in runs if r["workload"] == workload]
        return statistics.median(vals)

    lines = [
        "# Where the time goes",
        "",
        "Generated by `python benchmarks/e2e/run.py --workload all --trace --markdown`;",
        "do not edit by hand.  Each cell is a layer's self time per op in ms (its",
        "spans minus their child spans) and its share of the traced op wall time,",
        f"the median over {len(runs) // len(names)} run(s) per workload.  Machine: {meta['cpu_count']} CPUs,",
        f"Python {meta['python']}, NumPy {meta['numpy']}, numba {'present' if meta['numba'] else 'absent'};",
        f"commit {meta['git_sha'] or 'unknown'}, seed {meta['seed']}, {meta['seconds']} s per run.",
        "",
        "| layer | " + " | ".join(names) + " |",
        "|---|" + "---:|" * len(names),
    ]
    for layer in tracing.LAYERS:
        cells = []
        for w in names:
            self_s, wall = med(w, "layers", layer), med(w, "op_wall_s")
            cells.append(f"{self_s * 1e3:.3f} ({self_s / wall:.1%})" if self_s else "-")
        lines.append(f"| {layer} | " + " | ".join(cells) + " |")
    sums = [sum(med(w, "layers", layer) for layer in tracing.LAYERS) for w in names]
    walls = [med(w, "op_wall_s") for w in names]
    lines.append("| sum of self times | " + " | ".join(f"{s * 1e3:.3f}" for s in sums) + " |")
    lines.append("| traced op wall time | " + " | ".join(f"{t * 1e3:.3f}" for t in walls) + " |")
    lines.append("")
    lines.append("`bench` is the harness's own span around each op (call overhead and")
    lines.append("tracing); the tracing overhead itself is `trace.overhead` in the run output.")
    return "\n".join(lines) + "\n"


def _parse(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", help="a workload name from BENCHMARK.json, or all")
    p.add_argument("--seed", type=int, default=PINNED_SEED)
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                   help="report per-layer metrics instead of end-to-end ones")
    p.add_argument("--runs", type=int, default=1, help="runs per workload, with seeds S, S+1, ...")
    p.add_argument("--out", type=Path, help="write every run and the run metadata here as JSON")
    p.add_argument("--markdown", type=Path, nargs="?", const=HERE / "LAYERS.md",
                   help="with --trace, write the per-layer table (default: LAYERS.md here)")
    p.add_argument("--quick", action="store_true",
                   help="small inputs and a single set-up sample, for the harness self-test")
    p.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if args.child:
        return _child(args)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no library source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = [w["name"] for w in bench["workloads"]]
    if args.workload not in known + ["all"]:
        print(f"error: unknown workload {args.workload!r}; pick one of {known} or all",
              file=sys.stderr)
        return 2
    if args.markdown and not args.trace:
        print("error: --markdown needs --trace", file=sys.stderr)
        return 2
    names = known if args.workload == "all" else [args.workload]
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    order = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
    pins = json.loads((HERE / "digests.json").read_text())

    runs = []
    env: dict[str, Any] = {}
    for name in names:
        for seed in range(args.seed, args.seed + args.runs):
            try:
                res = run_one(name, seed, seconds, bool(args.trace), args.quick)
            except RunError as exc:
                print(f"error: {name} seed {seed}: {exc}", file=sys.stderr)
                return 1
            if set(res["metrics"]) != set(order):
                print(f"error: {name} reported metrics {sorted(res['metrics'])}, "
                      f"BENCHMARK.json lists {sorted(order)}", file=sys.stderr)
                return 1
            pinned = pins.get(name)
            res["digest_pinned"] = (
                None if args.quick or seed != PINNED_SEED or pinned is None
                else res["sim_digest"] == pinned
            )
            res.update(workload=name, seed=seed, trace=bool(args.trace), quick=args.quick)
            res["fail_ratio"] = res["failed"] / res["attempted"]
            res["correct"] = res["failed"] == 0 and res["digest_pinned"] is not False
            env = res.pop("env")
            _report(res, order)
            runs.append(res)

    meta = {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        **env,
        "git_sha": _git_sha(),
        "seed": args.seed,
        "runs": args.runs,
        "seconds": seconds,
        "trace": bool(args.trace),
        "quick": args.quick,
    }
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"meta": meta, "runs": runs}, indent=1) + "\n")
    if args.markdown:
        args.markdown.write_text(_layers_markdown(runs, meta))
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
