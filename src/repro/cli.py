"""Command-line interface: run collectives and reproduce paper results.

Usage (also available as ``python -m repro``)::

    python -m repro table 5                 # regenerate a paper table
    python -m repro figure 7                # regenerate a paper figure
    python -m repro sweep all --jobs 4      # every experiment, 4 workers
    python -m repro broadcast --dim 5 --algorithm msbt -M 960 -B 60
    python -m repro scatter --dim 5 --algorithm bst -M 64 --ports all
    python -m repro broadcast --topology torus --dim 2 --k 5 -M 60
    python -m repro all-broadcast --topology torus --dim 3 --k 4 --ports all
    python -m repro allreduce --dim 4 -M 128 --ports full
    python -m repro broadcast --dim 4 --backend runtime \
        --dead-link 0:1 --on-fault repair --trace-chrome trace.json
    python -m repro service list     # scenarios & scheduling policies
    python -m repro service run --scenario smoke-mix --policy fair-share \
        --seed 7 --metrics-json metrics.json
    python -m repro workload list    # DAG workload scenarios
    python -m repro workload run --scenario dp-train-n10 --steps 3 \
        --metrics-json metrics.json

``table``, ``figure`` and ``sweep`` accept ``--jobs N`` (default:
``REPRO_JOBS`` or serial; 0 = all cores) to fan the experiment's point
grid out over worker processes.  Output is identical at any worker
count.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Sequence
from contextlib import nullcontext

from repro.collectives.api import (
    BROADCAST_ALGORITHMS,
    REDUCE_ALGORITHMS,
    SCATTER_ALGORITHMS,
    all_broadcast,
    allreduce,
    broadcast,
    reduce,
    scatter,
)
from repro.obs import configure_logging, profiled, write_metrics_json
from repro.sim.dispatch import ENGINES
from repro.sim.faults import FaultError, FaultPlan
from repro.sim.machine import IPSC_D7, MachineParams
from repro.sim.ports import PortModel
from repro.sim.validate import profile_schedule
from repro.service import POLICIES, AdmissionControl, run_service
from repro.topology import TOPOLOGY_KINDS, resolve_topology
from repro.topology.hypercube import Hypercube

__all__ = ["main", "build_parser"]

_PORT_CHOICES = {
    "half": PortModel.ONE_PORT_HALF,
    "full": PortModel.ONE_PORT_FULL,
    "all": PortModel.ALL_PORT,
}

#: sweep target name -> experiment runner name in repro.experiments
_SWEEP_TARGETS = {
    **{f"table{i}": f"run_table{i}" for i in range(1, 7)},
    **{f"fig{i}": f"run_fig{i}" for i in range(5, 9)},
    "scatter": "run_scatter_packet_sweep",
}


def _add_sweep_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", "-j", type=int, default=None,
        help="worker processes for the point grid "
             "(default: REPRO_JOBS or 1; 0 = all cores)")
    _add_engine_option(parser)


def _add_topology_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--topology", choices=TOPOLOGY_KINDS, default="hypercube",
        help="host topology: hypercube (2^dim nodes) or torus "
             "(k-ary dim-cube, k^dim nodes)")
    parser.add_argument(
        "--k", type=int, default=3, metavar="K",
        help="torus arity (nodes per ring; --topology torus only; "
             "default 3)")


def _add_engine_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--engine", choices=ENGINES, default=None,
        help="event engine (default: REPRO_ENGINE or vectorized, the "
             "production engine; reference is the slow bit-identical "
             "oracle)")


def _add_obs_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics-json", default=None, metavar="PATH",
        help="write the full metrics-registry snapshot (engine/runtime/"
             "cache/sweep counters, phase timings) to PATH as JSON "
             "('-' for stdout) when the command finishes")
    parser.add_argument(
        "--log-json", default=None, metavar="PATH",
        help="append structured JSON-lines logs to PATH ('-' for stdout) "
             "while the command runs")


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser for the ``repro`` CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Hypercube broadcasting & personalized communication "
        "(Ho & Johnsson, ICPP 1986 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    t = sub.add_parser("table", help="regenerate one of the paper's tables")
    t.add_argument("number", type=int, choices=range(1, 7))
    _add_sweep_options(t)
    _add_obs_options(t)

    f = sub.add_parser("figure", help="regenerate one of the paper's figures")
    f.add_argument("number", type=int, choices=range(5, 9))
    _add_sweep_options(f)
    _add_obs_options(f)

    s = sub.add_parser(
        "sweep",
        help="run experiment sweeps (parallel workers)",
    )
    s.add_argument(
        "targets", nargs="+",
        choices=sorted(_SWEEP_TARGETS) + ["all", "figures", "tables"],
        help="experiments to run (fig5..fig8, table1..table6, scatter, "
             "or the groups all/figures/tables)")
    _add_sweep_options(s)
    _add_obs_options(s)
    s.add_argument(
        "--stats-json", default=None, metavar="PATH",
        help="write per-point timing/cache telemetry for every target "
             "to PATH as JSON")

    svc = sub.add_parser(
        "service",
        help="multi-tenant collective service (concurrent jobs, one cube)",
    )
    svc_sub = svc.add_subparsers(dest="service_command", required=True)
    svc_sub.add_parser(
        "list", help="list workload scenarios and scheduling policies")
    sr = svc_sub.add_parser(
        "run", help="run a named scenario through the service scheduler")
    sr.add_argument("--scenario", required=True, metavar="NAME",
                    help="workload scenario (see 'repro service list')")
    sr.add_argument("--policy", choices=sorted(POLICIES), default="fifo",
                    help="scheduling policy for contention priority")
    sr.add_argument("--seed", type=int, default=0,
                    help="workload seed (same seed -> same job list)")
    sr.add_argument("--jobs", "-j", type=int, default=None,
                    help="worker processes for schedule pregeneration "
                         "(default: 1; 0 = all cores); output is "
                         "identical at any worker count")
    sr.add_argument("--ports", choices=sorted(_PORT_CHOICES), default="full",
                    help="port model: half (1 s or r), full (1 s and r), all")
    sr.add_argument("--ipsc", action="store_true",
                    help="use the iPSC/d7 machine model for transfer costs")
    sr.add_argument("--max-in-flight", type=int, default=None, metavar="N",
                    help="admission control: at most N jobs on the cube")
    sr.add_argument("--max-in-flight-per-tenant", type=int, default=None,
                    metavar="N",
                    help="admission control: at most N jobs per tenant "
                         "on the cube")
    sr.add_argument("--queue-cap", type=int, default=None, metavar="N",
                    help="admission control: reject arrivals once N jobs "
                         "are waiting")
    sr.add_argument("--dead-link", action="append", default=[],
                    metavar="A:B", dest="dead_links",
                    help="fail the link between nodes A and B mid-stream "
                         "(repeatable)")
    sr.add_argument("--dead-node", action="append", default=[], type=int,
                    metavar="V", dest="dead_nodes",
                    help="fail node V entirely (repeatable)")
    sr.add_argument("--on-fault", choices=("raise", "report"),
                    default="raise",
                    help="raise on lost deliveries, or report and mark "
                         "only the jobs whose trees cross dead hardware "
                         "as degraded")
    _add_obs_options(sr)

    wl = sub.add_parser(
        "workload",
        help="DAG workloads of collective phases (training steps, "
             "pipelines, expert parallelism)",
    )
    wl_sub = wl.add_subparsers(dest="workload_command", required=True)
    wl_sub.add_parser("list", help="list workload scenarios")
    wr = wl_sub.add_parser(
        "run", help="run a named workload scenario for a number of steps")
    wr.add_argument("--scenario", required=True, metavar="NAME",
                    help="workload scenario (see 'repro workload list')")
    wr.add_argument("--steps", type=int, default=1,
                    help="training steps to execute (serial; default 1)")
    wr.add_argument("--seed", type=int, default=0,
                    help="workload seed (same seed -> same step DAGs)")
    wr.add_argument("--backend", choices=("sim", "runtime"), default="sim",
                    help="sim: one merged vectorized-engine run per step "
                         "(concurrent phases contend); runtime: execute "
                         "each phase on the distributed runtime (serial DAGs "
                         "of broadcast/scatter only)")
    wr.add_argument("--jobs", "-j", type=int, default=None,
                    help="worker processes for schedule pregeneration "
                         "(default: 1; 0 = all cores); output is "
                         "identical at any worker count")
    wr.add_argument("--report-json", default=None, metavar="PATH",
                    help="write the full per-step workload report to "
                         "PATH as JSON ('-' for stdout)")
    _add_obs_options(wr)

    for name, algos in (("broadcast", BROADCAST_ALGORITHMS), ("scatter", SCATTER_ALGORITHMS)):
        c = sub.add_parser(name, help=f"simulate a {name} and report costs")
        c.add_argument("--dim", "-n", type=int, default=5,
                       help="topology dimension")
        _add_topology_options(c)
        c.add_argument("--source", "-s", type=int, default=0)
        c.add_argument("--algorithm", "-a", choices=algos, default=None,
                       help=f"routing algorithm (default: {algos[0]} on the "
                            "hypercube, ring on the torus)")
        c.add_argument("-M", "--message", type=int, default=1024,
                       help="message elements (per destination for scatter)")
        c.add_argument("-B", "--packet", type=int, default=None,
                       help="packet size in elements (default: M)")
        c.add_argument("--ports", choices=sorted(_PORT_CHOICES), default="full",
                       help="port model: half (1 s or r), full (1 s and r), all")
        c.add_argument("--ipsc", action="store_true",
                       help="use the iPSC/d7 machine model and the event engine")
        c.add_argument("--dead-link", action="append", default=[],
                       metavar="A:B", dest="dead_links",
                       help="fail the link between nodes A and B "
                            "(repeatable); routing avoids it")
        c.add_argument("--dead-node", action="append", default=[], type=int,
                       metavar="V", dest="dead_nodes",
                       help="fail node V entirely (repeatable)")
        c.add_argument("--on-fault", choices=("raise", "report", "repair"),
                       default="raise",
                       help="when faults disconnect nodes from the source: "
                            "raise an error, report them and serve the rest, "
                            "or (runtime backend only) time out and repair "
                            "over the survivor tree")
        c.add_argument("--backend", choices=("sim", "runtime"), default="sim",
                       help="sim: replay the central schedule on the engines; "
                            "runtime: derive every node's sends from its "
                            "own address and run them on the event engine")
        c.add_argument("--trace-jsonl", default=None, metavar="PATH",
                       help="write the runtime's per-packet trace to PATH "
                            "as JSON lines (requires --backend runtime)")
        c.add_argument("--trace-chrome", default=None, metavar="PATH",
                       help="write the runtime's per-packet trace to PATH "
                            "in Chrome trace_event format "
                            "(requires --backend runtime)")
        c.add_argument("--profile", action="store_true",
                       help="capture a cProfile of the collective and "
                            "print the hottest functions")
        _add_engine_option(c)
        _add_obs_options(c)

    rd = sub.add_parser(
        "reduce", help="simulate a reduction to a root and report costs")
    rd.add_argument("--dim", "-n", type=int, default=5,
                    help="topology dimension")
    _add_topology_options(rd)
    rd.add_argument("--root", "-s", type=int, default=0,
                    help="node the combined operand ends at")
    rd.add_argument("--algorithm", "-a", choices=REDUCE_ALGORITHMS,
                    default=None,
                    help="routing algorithm (default: sbt on the "
                         "hypercube, ring on the torus)")
    rd.add_argument("-M", "--message", type=int, default=1024,
                    help="operand elements per node")
    rd.add_argument("-B", "--packet", type=int, default=None,
                    help="packet size in elements (default: M)")
    rd.add_argument("--ports", choices=sorted(_PORT_CHOICES), default="full",
                    help="port model: half (1 s or r), full (1 s and r), all")
    rd.add_argument("--ipsc", action="store_true",
                    help="use the iPSC/d7 machine model and the event engine")
    _add_engine_option(rd)
    _add_obs_options(rd)

    ar = sub.add_parser(
        "allreduce",
        help="simulate reduce-to-root then broadcast-back and report costs")
    ar.add_argument("--dim", "-n", type=int, default=5,
                    help="topology dimension")
    _add_topology_options(ar)
    ar.add_argument("--root", "-s", type=int, default=0,
                    help="intermediate root for the two phases")
    ar.add_argument("--reduce-algorithm", choices=REDUCE_ALGORITHMS,
                    default=None,
                    help="reduce-phase algorithm (default per topology)")
    ar.add_argument("--broadcast-algorithm", choices=BROADCAST_ALGORITHMS,
                    default=None,
                    help="broadcast-phase algorithm (default: sbt on the "
                         "hypercube, ring on the torus)")
    ar.add_argument("-M", "--message", type=int, default=1024,
                    help="operand elements per node")
    ar.add_argument("-B", "--packet", type=int, default=None,
                    help="packet size in elements (default: M)")
    ar.add_argument("--ports", choices=sorted(_PORT_CHOICES), default="full",
                    help="port model: half (1 s or r), full (1 s and r), all")
    ar.add_argument("--ipsc", action="store_true",
                    help="use the iPSC/d7 machine model and the event engine")
    _add_engine_option(ar)
    _add_obs_options(ar)

    ab = sub.add_parser(
        "all-broadcast",
        help="simulate an all-to-all broadcast (every node learns every "
             "node's message) and report costs")
    ab.add_argument("--dim", "-n", type=int, default=5,
                    help="topology dimension")
    _add_topology_options(ab)
    ab.add_argument("-M", "--message", type=int, default=1,
                    help="message elements contributed per node")
    ab.add_argument("--ports", choices=sorted(_PORT_CHOICES), default="full",
                    help="port model: half (1 s or r), full (1 s and r), all")
    ab.add_argument("--ipsc", action="store_true",
                    help="use the iPSC/d7 machine model and the event engine")
    _add_engine_option(ab)
    _add_obs_options(ab)
    return parser


def _build_topology(args: argparse.Namespace):
    """The host topology a collective subcommand asked for."""
    try:
        return resolve_topology(
            getattr(args, "topology", "hypercube"), args.dim, k=args.k
        )
    except ValueError as exc:
        raise SystemExit(str(exc))


def _parse_dead_link(spec: str) -> tuple[int, int]:
    try:
        a, _, b = spec.partition(":")
        return (int(a), int(b))
    except ValueError:
        raise SystemExit(f"--dead-link expects A:B with integer nodes, got {spec!r}")


def _expand_sweep_targets(targets: Sequence[str]) -> list[str]:
    """Resolve target groups, dedupe, keep a deterministic order."""
    expanded: list[str] = []
    for target in targets:
        if target == "all":
            expanded.extend(sorted(_SWEEP_TARGETS))
        elif target == "figures":
            expanded.extend(t for t in sorted(_SWEEP_TARGETS) if t.startswith("fig"))
        elif target == "tables":
            expanded.extend(t for t in sorted(_SWEEP_TARGETS) if t.startswith("table"))
        else:
            expanded.append(target)
    seen: set[str] = set()
    return [t for t in expanded if not (t in seen or seen.add(t))]


def _write_metrics(args: argparse.Namespace, **extra: object) -> None:
    """Honour ``--metrics-json`` after a command finishes."""
    if getattr(args, "metrics_json", None):
        write_metrics_json(
            args.metrics_json, extra={"command": args.command, **extra}
        )
        if args.metrics_json != "-":
            print(f"metrics written to {args.metrics_json}")


def _run_sweep_command(args: argparse.Namespace) -> int:
    from repro import experiments

    all_stats: dict[str, dict] = {}
    for target in _expand_sweep_targets(args.targets):
        runner = getattr(experiments, _SWEEP_TARGETS[target])
        report = runner(jobs=args.jobs)
        print(report.render())
        if report.sweep is not None:
            print(f"[{target}] {report.sweep.summary()}")
            all_stats[target] = report.sweep.to_dict()
        print()
    if args.stats_json:
        with open(args.stats_json, "w") as f:
            json.dump(all_stats, f, indent=2)
        print(f"sweep telemetry written to {args.stats_json}")
    _write_metrics(args, targets=list(all_stats))
    return 0


def _run_service_command(args: argparse.Namespace) -> int:
    from repro.experiments import SCENARIOS, get_scenario

    if args.service_command == "list":
        print("scenarios:")
        for name in sorted(SCENARIOS):
            print(f"  {name:<18} {SCENARIOS[name].description}")
        print("policies:")
        for name in sorted(POLICIES):
            print(f"  {name:<18} {POLICIES[name].__doc__.splitlines()[0]}")
        return 0

    try:
        scenario = get_scenario(args.scenario)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    specs = scenario.build(args.seed)
    admission = AdmissionControl(
        max_in_flight_per_tenant=args.max_in_flight_per_tenant,
        max_in_flight_total=args.max_in_flight,
        queue_cap=args.queue_cap,
    )
    faults = None
    if args.dead_links or args.dead_nodes:
        faults = FaultPlan(
            dead_links=[_parse_dead_link(s) for s in args.dead_links],
            dead_nodes=args.dead_nodes,
        )
    try:
        result = run_service(
            Hypercube(scenario.dimension),
            specs,
            port_model=_PORT_CHOICES[args.ports],
            machine=IPSC_D7 if args.ipsc else None,
            policy=args.policy,
            admission=admission,
            faults=faults,
            on_fault=args.on_fault,
            jobs=args.jobs,
        )
    except FaultError as exc:
        print(f"fault: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    unit = " s (iPSC/d7)" if args.ipsc else ""
    print(f"service run: scenario {scenario.name!r} on n={scenario.dimension} "
          f"cube, policy {result.policy}, seed {args.seed}")
    print(f"  jobs submitted    : {len(result.jobs)}")
    print(f"  jobs accepted     : {len(result.accepted)}")
    if result.rejected:
        print(f"  jobs rejected     : {len(result.rejected)}")
    degraded = sum(1 for j in result.accepted if j.degraded)
    if degraded:
        print(f"  jobs degraded     : {degraded}")
    print(f"  makespan          : {result.makespan:.6g}{unit}")
    header = (f"  {'tenant':<12} {'jobs':>4} {'cmpl p50':>10} "
              f"{'cmpl p99':>10} {'queue p50':>10} {'queue p99':>10}")
    print(header)
    for tenant, metrics in result.latency_summary().items():
        cmpl = metrics["completion_time"]
        queue = metrics["queueing_delay"]
        print(f"  {tenant:<12} {int(cmpl['count']):>4} {cmpl['p50']:>10.4g} "
              f"{cmpl['p99']:>10.4g} {queue['p50']:>10.4g} "
              f"{queue['p99']:>10.4g}")
    _write_metrics(
        args,
        scenario=scenario.name,
        seed=args.seed,
        service=result.to_dict(),
    )
    return 0


def _run_workload_command(args: argparse.Namespace) -> int:
    from repro.workloads import (
        WORKLOAD_SCENARIOS,
        get_workload_scenario,
        run_workload,
    )

    if args.workload_command == "list":
        print("workload scenarios:")
        for name, description in WORKLOAD_SCENARIOS.describe():
            print(f"  {name:<20} {description}")
        return 0

    try:
        scenario = get_workload_scenario(args.scenario)
        workload = scenario.build(args.seed)
        report = run_workload(
            workload, args.steps, backend=args.backend, jobs=args.jobs,
        )
    except (ValueError, FaultError) as exc:
        print(str(exc), file=sys.stderr)
        return 2 if isinstance(exc, ValueError) else 1
    summary = report.summary()
    print(f"workload run: scenario {scenario.name!r} on "
          f"n={scenario.dimension} cube, backend {report.backend}, "
          f"seed {args.seed}")
    print(f"  steps             : {report.num_steps}")
    print(f"  makespan          : {report.makespan:.6g}")
    print(f"  step time mean/max: {summary['step_time_mean']:.6g} / "
          f"{summary['step_time_max']:.6g}")
    print(f"  critical path     : compute "
          f"{summary['critical_compute_time']:.6g}, comm "
          f"{summary['critical_comm_time']:.6g}")
    if summary["degraded_steps"]:
        print(f"  degraded steps    : {summary['degraded_steps']}")
    for step in report.steps:
        cp = "->".join(step.critical_path.phases)
        line = (f"  step {step.step}: duration {step.duration:.6g}, "
                f"{len(step.phases)} phases")
        if step.link_utilization.links_used:
            line += f", link util max {step.link_utilization.max:.1%}"
        ratio = step.stragglers.ratio
        if ratio == ratio:  # not NaN
            line += f", straggler ratio {ratio:.3f}"
        if step.degraded:
            degraded = [p.name for p in step.phases if p.degraded]
            line += f", degraded: {', '.join(degraded)}"
        print(line)
        print(f"    critical: {cp}")
    if args.report_json:
        payload = json.dumps(report.to_dict(), indent=2)
        if args.report_json == "-":
            print(payload)
        else:
            with open(args.report_json, "w") as f:
                f.write(payload + "\n")
            print(f"workload report written to {args.report_json}")
    _write_metrics(
        args,
        scenario=scenario.name,
        seed=args.seed,
        workload=report.to_dict(),
    )
    return 0


def _run_reduction_command(args: argparse.Namespace) -> int:
    """Run the reduce / allreduce / all-broadcast subcommands."""
    cube = _build_topology(args)
    port_model = _PORT_CHOICES[args.ports]
    machine: MachineParams | None = IPSC_D7 if args.ipsc else None
    try:
        if args.command == "reduce":
            result = reduce(
                cube, args.root,
                message_elems=args.message, packet_elems=args.packet,
                port_model=port_model, machine=machine,
                run_event_sim=args.ipsc, engine=args.engine,
                algorithm=args.algorithm,
            )
        elif args.command == "allreduce":
            result = allreduce(
                cube,
                message_elems=args.message, packet_elems=args.packet,
                port_model=port_model, machine=machine,
                run_event_sim=args.ipsc, engine=args.engine,
                root=args.root,
                reduce_algorithm=args.reduce_algorithm,
                broadcast_algorithm=args.broadcast_algorithm,
            )
        else:  # all-broadcast
            result = all_broadcast(
                cube, message_elems=args.message, port_model=port_model,
                machine=machine, run_event_sim=args.ipsc, engine=args.engine,
            )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(f"{args.command} on {cube} via {result.algorithm}")
    print(f"  port model        : {port_model.describe()}")
    print(f"  routing steps     : {result.cycles}")
    print(f"  simulated time    : {result.time:.6g}"
          + (" s (iPSC/d7, event-driven)" if args.ipsc
             else " (lock-step units)"))
    if args.command == "allreduce":
        print(f"  reduce phase      : {result.reduce.cycles} steps, "
              f"time {result.reduce.time:.6g}")
        print(f"  broadcast phase   : {result.broadcast.cycles} steps, "
              f"time {result.broadcast.time:.6g}")
    stats = result.link_stats
    print(f"  packets sent      : {sum(stats.packets.values())}")
    print(f"  elements sent     : {stats.total_elems()}")
    print(f"  busiest edge      : {stats.max_edge_elems()} elements")
    metrics = result.metrics
    if metrics and metrics.get("phases"):
        phases = ", ".join(
            f"{name} {secs * 1e3:.2f}ms"
            for name, secs in metrics["phases"].items()
        )
        print(f"  phase timings     : {phases}")
    _write_metrics(args, collective=metrics)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    log_target = getattr(args, "log_json", None)
    if log_target:
        configure_logging(log_target)
    try:
        return _dispatch(args)
    finally:
        if log_target:
            configure_logging(None)


def _dispatch(args: argparse.Namespace) -> int:
    # table/figure/sweep runners reach the engines through many layers;
    # the environment default is the documented channel for them (sweep
    # pool workers inherit it).
    if getattr(args, "engine", None) and args.command in (
        "table", "figure", "sweep"
    ):
        os.environ["REPRO_ENGINE"] = args.engine

    if args.command == "table":
        from repro import experiments

        runner = getattr(experiments, f"run_table{args.number}")
        print(runner(jobs=args.jobs).render())
        _write_metrics(args)
        return 0

    if args.command == "figure":
        from repro import experiments

        runner = getattr(experiments, f"run_fig{args.number}")
        print(runner(jobs=args.jobs).render())
        _write_metrics(args)
        return 0

    if args.command == "sweep":
        return _run_sweep_command(args)

    if args.command == "service":
        return _run_service_command(args)

    if args.command == "workload":
        return _run_workload_command(args)

    if args.command in ("reduce", "allreduce", "all-broadcast"):
        return _run_reduction_command(args)

    cube = _build_topology(args)
    port_model = _PORT_CHOICES[args.ports]
    machine: MachineParams | None = IPSC_D7 if args.ipsc else None
    faults = None
    if args.dead_links or args.dead_nodes:
        faults = FaultPlan(
            dead_links=[_parse_dead_link(s) for s in args.dead_links],
            dead_nodes=args.dead_nodes,
        )
    want_trace = bool(args.trace_jsonl or args.trace_chrome)
    if args.backend != "runtime":
        if args.on_fault == "repair":
            print("--on-fault repair requires --backend runtime",
                  file=sys.stderr)
            return 2
        if want_trace:
            print("--trace-jsonl/--trace-chrome require --backend runtime",
                  file=sys.stderr)
            return 2
    op = broadcast if args.command == "broadcast" else scatter
    prof_ctx = profiled() if args.profile else nullcontext()
    try:
        with prof_ctx as prof:
            result = op(
                cube,
                args.source,
                args.algorithm,
                message_elems=args.message,
                packet_elems=args.packet,
                port_model=port_model,
                machine=machine,
                run_event_sim=args.ipsc,
                faults=faults,
                on_fault=args.on_fault,
                backend=args.backend,
                trace=want_trace,
                engine=args.engine,
            )
    except FaultError as exc:
        print(f"fault: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    profile = profile_schedule(cube, result.schedule, source=args.source)
    print(f"{args.command} on {cube} via {result.algorithm}")
    print(f"  port model        : {port_model.describe()}")
    print(f"  backend           : {args.backend}")
    if faults is not None:
        print(f"  faults            : {len(faults.dead_links)} links, "
              f"{len(faults.dead_nodes)} nodes dead")
        if result.undelivered_nodes:
            print(f"  unreachable nodes : {sorted(result.undelivered_nodes)}")
    print(f"  routing steps     : {result.cycles}")
    if args.backend == "runtime":
        unit = " s (iPSC/d7)" if args.ipsc else " (unit-cost)"
        print(f"  runtime time      : {result.async_.time:.6g}{unit}")
        repair_rounds = getattr(result.async_, "repair_rounds", 0)
        if repair_rounds:
            print(f"  repair rounds     : {repair_rounds}")
        rtrace = getattr(result.async_, "trace", None)
        if rtrace is not None:
            if args.trace_jsonl:
                path = rtrace.write_jsonl(args.trace_jsonl)
                print(f"  trace (jsonl)     : {path} ({len(rtrace)} events)")
            if args.trace_chrome:
                path = rtrace.write_chrome(args.trace_chrome)
                print(f"  trace (chrome)    : {path} ({len(rtrace)} events)")
    else:
        print(f"  simulated time    : {result.time:.6g}"
              + (" s (iPSC/d7, event-driven)" if args.ipsc
                 else " (lock-step units)"))
    print(f"  packets sent      : {profile.transfers}")
    print(f"  busiest edge      : {result.link_stats.max_edge_elems()} elements")
    print(f"  edge utilization  : {profile.edge_utilization:.1%}")
    print(f"  source port skew  : {profile.balance_ratio():.2f}x")
    if result.metrics:
        phases = ", ".join(
            f"{name} {secs * 1e3:.2f}ms"
            for name, secs in result.metrics["phases"].items()
        )
        print(f"  phase timings     : {phases}")
    if args.profile:
        print()
        print(prof.text(limit=20))
    _write_metrics(args, collective=result.metrics)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
