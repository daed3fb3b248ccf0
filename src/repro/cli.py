"""Command-line interface: ``s3asim run|sweep|trace|validate``.

Examples
--------
Run one simulation and print the phase breakdown::

    s3asim run --nprocs 64 --strategy ww-list --query-sync

Reproduce Figure 2's data (reduced axis for speed)::

    s3asim sweep processes --counts 2,8,32,96

Reproduce Figure 5's data::

    s3asim sweep speed --speeds 0.1,1,25.6 --nprocs 64

Render an ASCII Jumpshot timeline::

    s3asim trace --nprocs 8 --strategy ww-coll --width 120
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .analysis import (
    ALL_STRATEGIES,
    FIG2_RATIOS_PCT,
    arrival_sweep,
    compute_speed_sweep,
    masters_sweep,
    overall_table,
    phase_table,
    process_scaling_sweep,
    ratio_table,
    replica_sweep,
    server_cache_sweep,
    strategy_grid,
)
from .cluster.presets import get_preset
from .core import S3aSim, ShardedRunResult, SimulationConfig
from .core.scenarios import SCENARIOS, get_scenario
from .faults import FaultPlan, load_fault_plan
from .core.phases import Phase
from .core.strategies import HYBRID_AUTO, STRATEGIES
from .exec import PointSpec, ProgressReporter, aggregate_point_metrics, run_points
from .obs import MetricsSnapshot, export_metrics_csv, export_metrics_json
from .serve import (
    ADMISSION_POLICIES,
    ARRIVAL_PROCESSES,
    ArrivalConfig,
    format_latency,
)
from .shard import PLACEMENTS, ShardConfig
from .trace import TraceRecorder, export_json, render_timeline
from .workload import ComputeModel, load_workload_kwargs, save_workload


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--nprocs", type=int, default=16)
    parser.add_argument(
        "--strategy",
        choices=sorted(STRATEGIES) + [HYBRID_AUTO],
        default="ww-list",
    )
    parser.add_argument("--query-sync", action="store_true")
    parser.add_argument("--nqueries", type=int, default=20)
    parser.add_argument("--nfragments", type=int, default=128)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--compute-speed", type=float, default=1.0)
    parser.add_argument("--write-every", type=int, default=1)
    parser.add_argument(
        "--cluster",
        choices=["feynman", "feynman-cached", "feynman-replicated", "gige", "modern"],
        default="feynman",
    )
    parser.add_argument(
        "--disk-sched",
        choices=["fifo", "elevator"],
        default=None,
        help="per-server disk-queue scheduler (elevator = starvation-bounded "
        "C-SCAN; default: the cluster preset's, fifo on feynman)",
    )
    parser.add_argument(
        "--server-cache-mib",
        type=float,
        default=None,
        metavar="MIB",
        help="per-server write-back cache size in MiB (0 disables; "
        "default: the cluster preset's, off on feynman)",
    )
    parser.add_argument(
        "--replicas",
        type=int,
        default=None,
        metavar="N",
        help="copies of every strip on N consecutive servers (1 = none, the "
        "seed behaviour; 2+ adds degraded-mode failover and background "
        "rebuild; default: the cluster preset's)",
    )
    parser.add_argument(
        "--store-data",
        action="store_true",
        help="generate and verify actual output bytes (slower)",
    )
    parser.add_argument(
        "--workload",
        help="load workload parameters from a JSON file (see "
        "repro.workload.save_workload)",
    )
    parser.add_argument(
        "--scenario",
        choices=sorted(SCENARIOS),
        help="apply a named historical scenario (mpiblast-1.2, pioblast, ...)",
    )
    parser.add_argument(
        "--fault-plan",
        help="inject faults from a FaultPlan JSON file (see repro.faults)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="fan independent simulation points out over N worker processes "
        "(sweep / fault-sweep; results are bit-identical to --jobs 1)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="audit cross-layer invariants during the run (repro.check); "
        "zero-cost in simulated time, aborts on the first violation",
    )
    parser.add_argument(
        "--arrival",
        choices=list(ARRIVAL_PROCESSES),
        default=None,
        help="serve mode: inject queries via this open-loop arrival process "
        "instead of the pre-loaded closed batch (default: batch mode)",
    )
    parser.add_argument(
        "--arrival-rate",
        type=float,
        default=20.0,
        metavar="QPS",
        help="serve mode: mean offered load in queries per second",
    )
    parser.add_argument(
        "--arrival-horizon",
        type=float,
        default=None,
        metavar="S",
        help="serve mode: stop generating arrivals after this many simulated "
        "seconds (default: stop after --nqueries arrivals)",
    )
    parser.add_argument(
        "--max-pending",
        type=int,
        default=64,
        metavar="N",
        help="serve mode: admission bound on queries admitted but not yet "
        "durable; arrivals beyond it are rejected or shed",
    )
    parser.add_argument(
        "--admission",
        choices=list(ADMISSION_POLICIES),
        default="reject",
        help="serve mode: what to do with an arrival when the pending queue "
        "is full (reject it, or shed the youngest unstarted query)",
    )
    parser.add_argument(
        "--priority-fraction",
        type=float,
        default=0.0,
        metavar="F",
        help="serve mode: fraction of arrivals tagged priority and queued "
        "ahead of normal work (ignored by ww-coll, whose collective "
        "writes require FIFO assignment)",
    )
    parser.add_argument(
        "--masters",
        type=int,
        default=1,
        metavar="M",
        help="serve mode: shard the ranks into M independent master/worker "
        "pools sharing the network and PVFS volume (1 = the seed's "
        "single-master topology, bit-identical)",
    )
    parser.add_argument(
        "--placement",
        choices=list(PLACEMENTS),
        default="hash",
        help="sharded serve mode: how arrivals map to masters (hash of the "
        "arrival index, or contiguous ranges — deliberately skewed, the "
        "work-stealing showcase)",
    )
    parser.add_argument(
        "--no-steal",
        action="store_true",
        help="sharded serve mode: disable work-stealing between masters",
    )


def _arrival_from(args: argparse.Namespace, process: str) -> ArrivalConfig:
    """The serve-mode arrival model and admission policy the flags give."""
    try:
        return ArrivalConfig(
            process=process,
            rate=args.arrival_rate,
            horizon_s=args.arrival_horizon,
            max_pending=args.max_pending,
            policy=args.admission,
            priority_fraction=args.priority_fraction,
        )
    except ValueError as exc:
        raise SystemExit(f"invalid arrival configuration: {exc}")


def _config_from(args: argparse.Namespace) -> SimulationConfig:
    if getattr(args, "jobs", 1) < 1:
        raise SystemExit(
            "--jobs must be >= 1 (1 = run inline, N = process pool of N)"
        )
    if getattr(args, "masters", 1) < 1:
        raise SystemExit("--masters must be >= 1 (1 = one master, unsharded)")
    preset = get_preset(args.cluster)
    pvfs_overrides = {}
    if getattr(args, "disk_sched", None) is not None:
        pvfs_overrides["disk_sched"] = args.disk_sched
    if getattr(args, "server_cache_mib", None) is not None:
        if args.server_cache_mib < 0:
            raise SystemExit("--server-cache-mib must be non-negative")
        pvfs_overrides["server_cache_B"] = int(args.server_cache_mib * 1024 * 1024)
    if getattr(args, "replicas", None) is not None:
        if args.replicas < 1:
            raise SystemExit("--replicas must be >= 1")
        pvfs_overrides["replicas"] = args.replicas
    if pvfs_overrides:
        preset = preset.with_pvfs(**pvfs_overrides)
    try:
        compute = ComputeModel(speed=args.compute_speed)
    except ValueError as exc:
        raise SystemExit(f"--compute-speed: {exc}")
    kwargs = dict(
        nprocs=args.nprocs,
        strategy=args.strategy,
        query_sync=args.query_sync,
        nqueries=args.nqueries,
        nfragments=args.nfragments,
        compute=compute,
        write_every=args.write_every,
        network=preset.network,
        pvfs=preset.pvfs,
        store_data=args.store_data,
        check=getattr(args, "check", False),
    )
    if args.seed is not None:
        kwargs["seed"] = args.seed
    if getattr(args, "arrival", None):
        kwargs["arrival"] = _arrival_from(args, args.arrival)
    if getattr(args, "masters", 1) > 1:
        if "arrival" not in kwargs:
            raise SystemExit(
                "--masters needs serve mode (give --arrival, or use "
                "`s3asim serve`)"
            )
        try:
            kwargs["shard"] = ShardConfig(
                nshards=args.masters,
                placement=getattr(args, "placement", "hash"),
                steal=not getattr(args, "no_steal", False),
            )
        except ValueError as exc:
            raise SystemExit(f"invalid shard configuration: {exc}")
    if getattr(args, "workload", None):
        with open(args.workload) as fh:
            loaded = load_workload_kwargs(fh)
        if args.seed is not None:
            loaded["seed"] = args.seed
        loaded["compute"] = loaded["compute"].with_speed(args.compute_speed)
        kwargs.update(loaded)
    if getattr(args, "fault_plan", None):
        kwargs["fault_plan"] = load_fault_plan(args.fault_plan)
    try:
        config = SimulationConfig(**kwargs)
    except ValueError as exc:
        raise SystemExit(str(exc))
    if getattr(args, "scenario", None):
        config = get_scenario(args.scenario, config)
    return config


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _config_from(args)
    if getattr(args, "save_workload", None):
        with open(args.save_workload, "w") as fh:
            save_workload(cfg, fh)
        print(f"workload parameters written to {args.save_workload}")
    app = S3aSim(cfg)
    result = app.run()
    print(result.summary_line())
    _print_check_summary(app)
    print()
    print(f"{'phase':>20s} {'master':>12s} {'worker mean':>12s}")
    wm = result.worker_mean
    for phase in Phase:
        print(
            f"{phase.value:>20s} {result.master[phase]:>12.3f} {wm[phase]:>12.3f}"
        )
    fstat = result.file_stats
    print()
    print(
        f"output file: {fstat.total_bytes} bytes in {fstat.nextents} extent(s), "
        f"expected {fstat.expected_bytes}, complete={fstat.complete}"
    )
    if result.serve_stats:
        print()
        _print_serve_stats(result.serve_stats)
    if result.fault_stats:
        print()
        print("faults/recovery:")
        for name in sorted(result.fault_stats):
            value = result.fault_stats[name]
            if value:
                print(f"  {name:24s} {value:g}")
    return 0 if fstat.complete else 1


def _print_check_summary(app: S3aSim) -> None:
    """The invariant checker's closing summary (nothing without --check).

    A serve-mode run reports its arrival law, any other run its wire and
    message ledgers; a replicated run adds the replica ledger.
    """
    checker = app.world.env.check
    if checker.enabled:
        summary = checker.summary()
        if app.config.arrival is not None:
            a = summary["arrivals"]
            law = (
                f"arrival law offered+stolen={a['offered']}+{a['stolen']} = "
                f"admitted+rejected={a['admitted']}+{a['rejected']}"
            )
        else:
            kinds = "  ".join(
                f"{kind}={sent}/{delivered}"
                for kind, (sent, _, delivered, _) in summary["messages"].items()
            )
            law = (
                f"wire {summary['tx_bytes']} B tx / {summary['rx_bytes']} B rx, "
                f"msgs sent/delivered {kinds}"
            )
        print(f"invariants: {summary['checks']} checks passed ({law})")
        if summary["replica_writes"]:
            print(
                f"replication: {summary['replica_writes']} replicated writes, "
                f"{summary['replica_acked_bytes']} B acked on live replicas, "
                f"{summary['replica_outstanding_bytes']} B durability gap open"
            )


def _print_serve_stats(serve: dict, indent: str = "") -> None:
    """Admission counters and completion-latency percentiles of one run.

    Latency fields are NaN when nothing completed (a cutoff before the
    first durable query); they print as ``-``, not a fabricated 0.000.
    """
    transfers = ""
    if serve.get("donated") or serve.get("stolen") or serve.get("steals"):
        stolen = serve.get("stolen", serve.get("steals", 0))
        transfers = (
            f" donated={serve.get('donated', 0):g} stolen={stolen:g}"
        )
    print(
        f"{indent}arrivals: offered={serve.get('offered', 0):g} "
        f"admitted={serve.get('admitted', 0):g} "
        f"rejected={serve.get('rejected', 0):g} "
        f"shed={serve.get('shed', 0):g} "
        f"completed={serve.get('completed', 0):g} "
        f"pending={serve.get('pending', 0):g}"
        f"{transfers}"
    )
    print(
        f"{indent}latency:  mean={format_latency(serve.get('latency_mean_s', 0.0))}s "
        f"p50={format_latency(serve.get('latency_p50_s', 0.0))}s "
        f"p95={format_latency(serve.get('latency_p95_s', 0.0))}s "
        f"p99={format_latency(serve.get('latency_p99_s', 0.0))}s "
        f"max={format_latency(serve.get('latency_max_s', 0.0))}s"
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    """Online service mode: open-loop arrivals against the running master."""
    if not getattr(args, "arrival", None):
        args.arrival = args.preset
    cfg = _config_from(args).with_(collect_metrics=True)
    app = S3aSim(cfg)
    result = app.run(until=args.until)
    print(result.summary_line())
    _print_serve_stats(result.serve_stats)
    if isinstance(result, ShardedRunResult):
        for index, shard_stats in enumerate(result.shard_serve_stats):
            print(f"shard {index}:")
            _print_serve_stats(shard_stats, indent="  ")
    _print_check_summary(app)
    if args.json:
        import json as _json

        with open(args.json, "w") as fh:
            _json.dump(result.as_dict(), fh, indent=2)
        print(f"result exported to {args.json}")
    if args.until is not None:
        return 0  # a horizon cutoff legitimately leaves pending queries
    return 0 if result.file_stats.complete else 1


def _print_latency_table(sweep, x_label: str = "rate qps") -> None:
    """x-vs-latency rows, one per (strategy, x) serve-mode point."""
    print(
        f"{'strategy':10s} {x_label:>9s} {'offered':>8s} {'admitted':>9s} "
        f"{'rejected':>9s} {'shed':>6s} {'p50 s':>8s} {'p95 s':>8s} {'p99 s':>8s}"
    )
    for strategy in sweep.strategies():
        for x, result in sweep.series(strategy, False):
            s = result.serve_stats
            print(
                f"{strategy:10s} {x:>9g} {s.get('offered', 0):>8g} "
                f"{s.get('admitted', 0):>9g} {s.get('rejected', 0):>9g} "
                f"{s.get('shed', 0):>6g} "
                f"{format_latency(s.get('latency_p50_s', 0.0)):>8s} "
                f"{format_latency(s.get('latency_p95_s', 0.0)):>8s} "
                f"{format_latency(s.get('latency_p99_s', 0.0)):>8s}"
            )


def _print_server_table(snapshot: MetricsSnapshot, strategy: str) -> None:
    servers = snapshot.label_values("pvfs.requests", "server")
    print(
        f"{'server':>6s} {'requests':>9s} {'regions':>9s} {'seeks':>7s} "
        f"{'seq':>7s} {'KiB written':>12s} {'syncs':>6s}"
    )
    want = {"strategy": strategy}
    for server in servers:
        print(
            f"{server:>6d} "
            f"{snapshot.counter_total('pvfs.requests', server=server, **want):>9g} "
            f"{snapshot.counter_total('pvfs.regions', server=server, **want):>9g} "
            f"{snapshot.counter_total('pvfs.seeks', server=server, **want):>7g} "
            f"{snapshot.counter_total('pvfs.sequential_runs', server=server, **want):>7g} "
            f"{snapshot.counter_total('pvfs.bytes_written', server=server, **want) / 1024:>12.1f} "
            f"{snapshot.counter_total('pvfs.syncs', server=server, **want):>6g}"
        )


def _print_server_stack(snapshot: MetricsSnapshot, strategy: str) -> None:
    """Metadata-server and I/O-stack lines (omitted when all zero)."""
    want = {"strategy": strategy}
    ops = snapshot.counter_total("pvfs.metadata_ops", **want)
    if ops:
        summary = snapshot.histogram_summary("pvfs.metadata_seconds", **want)
        mean_ms = summary.mean * 1000.0 if summary is not None else 0.0
        print(f"metadata: {ops:g} ops, mean {mean_ms:.3f} ms (incl. queueing)")
    hits = snapshot.counter_total("pvfs.cache_hits", **want)
    misses = snapshot.counter_total("pvfs.cache_misses", **want)
    flushes = snapshot.counter_total("pvfs.cache_flushes", **want)
    absorbed = snapshot.counter_total("pvfs.cache_absorbed_bytes", **want)
    if flushes or hits or misses or absorbed:
        flush_summary = snapshot.histogram_summary(
            "pvfs.cache_flush_bytes", **want
        )
        mean_flush_kib = (
            flush_summary.mean / 1024.0 if flush_summary is not None else 0.0
        )
        print(
            f"cache: absorbed {absorbed / 1024:.1f} KiB, "
            f"read hits={hits:g} misses={misses:g}, "
            f"flushes={flushes:g} (mean {mean_flush_kib:.1f} KiB)"
        )
    depth = snapshot.histogram_summary("pvfs.disk_queue_depth", **want)
    if depth is not None and depth.count:
        print(
            f"disk queue: {depth.count:g} requests, "
            f"mean depth {depth.mean:.2f}, max {depth.max:.0f}"
        )
    replica = snapshot.counter_total("pvfs.replica_bytes", **want)
    rebuild = snapshot.counter_total("pvfs.rebuild_bytes", **want)
    lost = snapshot.counter_total("pvfs.cache_lost_bytes", **want)
    if replica or rebuild or lost:
        print(
            f"replication: {replica / 1024:.1f} KiB replica copies, "
            f"{rebuild / 1024:.1f} KiB rebuilt, "
            f"{lost / 1024:.1f} KiB cache lost"
        )


def _print_phase_table(snapshot: MetricsSnapshot, strategy: str) -> None:
    ranks = snapshot.label_values("app.phase_seconds", "rank")
    phases = [p.value for p in Phase if p is not Phase.OTHER]
    header = " ".join(f"{p[:12]:>13s}" for p in phases)
    print(f"{'rank':>5s} {header}")
    for rank in ranks:
        row = " ".join(
            f"{snapshot.counter_total('app.phase_seconds', rank=rank, phase=p, strategy=strategy):>13.3f}"
            for p in phases
        )
        print(f"{rank:>5d} {row}")


def _print_mpi_summary(snapshot: MetricsSnapshot, strategy: str) -> None:
    kinds = snapshot.label_values("mpi.messages", "kind")
    parts = []
    for kind in kinds:
        messages = snapshot.counter_total("mpi.messages", kind=kind, strategy=strategy)
        mib = snapshot.counter_total("mpi.bytes", kind=kind, strategy=strategy) / (1024 * 1024)
        parts.append(f"{kind}={messages:g} msgs/{mib:.2f} MiB")
    print("mpi: " + "  ".join(parts))
    mpiio = [
        (name, snapshot.counter_total(name, strategy=strategy))
        for name in snapshot.counter_names()
        if name.startswith("mpiio.")
    ]
    if mpiio:
        print("mpiio: " + "  ".join(f"{n[6:]}={v:g}" for n, v in mpiio))


def _strategy_summary_row(snapshot: MetricsSnapshot, result, strategy: str) -> str:
    requests = snapshot.counter_total("pvfs.requests", strategy=strategy)
    regions = snapshot.counter_total("pvfs.regions", strategy=strategy)
    seeks = snapshot.counter_total("pvfs.seeks", strategy=strategy)
    syncs = snapshot.counter_total("pvfs.syncs", strategy=strategy)
    mib = snapshot.counter_total("pvfs.bytes_written", strategy=strategy) / (1024 * 1024)
    per_request = regions / requests if requests else 0.0
    return (
        f"{strategy:10s} {result.elapsed:>9.3f} {requests:>9g} {per_request:>11.1f} "
        f"{seeks:>8g} {syncs:>7g} {mib:>9.2f}"
    )


def _cmd_stats(args: argparse.Namespace) -> int:
    """Run with metrics enabled and report the per-layer counters."""
    cfg = _config_from(args).with_(collect_metrics=True)
    strategies = sorted(STRATEGIES) if args.compare else [cfg.strategy]
    specs = [
        PointSpec(key=(strategy,), config=cfg.with_(strategy=strategy))
        for strategy in strategies
    ]
    outcomes = run_points(specs, jobs=args.jobs)
    failed = [o for o in outcomes if not o.ok]
    for outcome in failed:
        print(f"{outcome.key[0]}: FAILED: {outcome.failure.error}", file=sys.stderr)
        print(outcome.failure.traceback, file=sys.stderr)
    ok = [o for o in outcomes if o.ok]

    if args.compare and ok:
        print(
            f"{'strategy':10s} {'elapsed s':>9s} {'requests':>9s} {'regions/req':>11s} "
            f"{'seeks':>8s} {'syncs':>7s} {'MiB out':>9s}"
        )
        for outcome in ok:
            print(
                _strategy_summary_row(
                    outcome.result.metrics, outcome.result, outcome.key[0]
                )
            )
        print()

    for outcome in ok:
        strategy = outcome.key[0]
        snapshot = outcome.result.metrics
        print(f"--- {strategy} ---")
        _print_server_table(snapshot, strategy)
        _print_server_stack(snapshot, strategy)
        if outcome.result.serve_stats:
            _print_serve_stats(outcome.result.serve_stats)
        print()
        print("per-rank phase seconds:")
        _print_phase_table(snapshot, strategy)
        _print_mpi_summary(snapshot, strategy)
        print()

    combined = aggregate_point_metrics(outcomes)
    if combined is not None:
        if args.json:
            with open(args.json, "w") as fh:
                export_metrics_json(combined, fh)
            print(f"metrics exported to {args.json}")
        if args.csv:
            with open(args.csv, "w") as fh:
                export_metrics_csv(combined, fh)
            print(f"metrics exported to {args.csv}")
    return 1 if failed else 0


def _cmd_fault_sweep(args: argparse.Namespace) -> int:
    """Per-strategy robustness comparison under one canned fault scenario."""
    cfg = _config_from(args)
    plan = FaultPlan.standard(
        crash_rank=args.crash_rank,
        crash_time=args.crash_time,
        downtime_s=args.downtime,
        server_id=args.slow_server,
        slow_start=args.slow_start,
        slow_duration=args.slow_duration,
        slow_factor=args.slow_factor,
    )
    if getattr(args, "fault_plan", None):
        plan = load_fault_plan(args.fault_plan)
    # Every (strategy, clean/faulted) pair is an independent run — fan them
    # out through the sweep engine (``--jobs``), then print in order.
    specs = [
        PointSpec(
            key=(strategy, variant),
            config=cfg.with_(
                strategy=strategy,
                fault_plan=FaultPlan.none() if variant == "clean" else plan,
            ),
        )
        for strategy in sorted(STRATEGIES)
        for variant in ("clean", "faulted")
    ]
    outcomes = {o.key: o for o in run_points(specs, jobs=args.jobs)}
    print(
        f"{'strategy':10s} {'clean s':>10s} {'faulted s':>10s} {'inflation':>10s} "
        f"{'reassigned':>10s} {'repairs':>8s} {'complete':>8s}"
    )
    status = 0
    for strategy in sorted(STRATEGIES):
        clean_o, faulted_o = outcomes[(strategy, "clean")], outcomes[(strategy, "faulted")]
        if not clean_o.ok or not faulted_o.ok:
            failure = clean_o.failure or faulted_o.failure
            print(f"{strategy:10s} FAILED: {failure.error}", file=sys.stderr)
            print(failure.traceback, file=sys.stderr)
            status |= 1
            continue
        clean, faulted = clean_o.result, faulted_o.result
        inflation = 100.0 * (faulted.elapsed / clean.elapsed - 1.0)
        complete = faulted.file_stats.complete
        status |= 0 if complete else 1
        print(
            f"{strategy:10s} {clean.elapsed:>10.3f} {faulted.elapsed:>10.3f} "
            f"{inflation:>9.1f}% "
            f"{faulted.fault_stats.get('tasks_reassigned', 0):>10g} "
            f"{faulted.fault_stats.get('repairs_issued', 0):>8g} "
            f"{str(complete):>8s}"
        )
    print("FAULT SWEEP", "PASSED" if status == 0 else "FAILED")
    return status


def _sweep_reporter(args: argparse.Namespace, total: int) -> Optional[ProgressReporter]:
    """Progress/ETA lines on stderr for parallel or verbose sweeps."""
    if args.jobs > 1 or args.verbose:
        return ProgressReporter(total=total, label=f"sweep/{args.axis}")
    return None


#: Sweep axis -> (sweep builder, flag holding its values, value type).
_SWEEP_AXES = {
    "processes": (process_scaling_sweep, "counts", int),
    "speed": (compute_speed_sweep, "speeds", float),
    "cache": (server_cache_sweep, "cache_mibs", float),  # MiB per server
    "arrival": (arrival_sweep, "rates", float),  # offered queries/s
    "masters": (masters_sweep, "master_counts", int),
    "replicas": (replica_sweep, "replica_counts", int),  # per stripe
}


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _config_from(args)
    strategies = [s.strip() for s in args.strategies.split(",") if s.strip()]
    valid = sorted(STRATEGIES) + [HYBRID_AUTO]
    unknown = [s for s in strategies if s not in valid]
    if unknown:
        print(
            f"unknown strategies {', '.join(unknown)}; "
            f"choose from {', '.join(valid)}",
            file=sys.stderr,
        )
        return 2
    progress = (
        (lambda p: print(p.result.summary_line(), file=sys.stderr))
        if args.verbose
        else None
    )
    serving_axis = args.axis in ("arrival", "masters")
    if serving_axis and cfg.arrival is None:
        # The common arrival flags still shape a serve sweep's base config
        # even when --arrival itself was omitted.
        cfg = cfg.with_(arrival=_arrival_from(args, "poisson"))
    builder, flag, kind = _SWEEP_AXES[args.axis]
    xs = [kind(x) for x in getattr(args, flag).split(",")]
    # Serve mode sweeps one sync option (sync gating is a batch-mode knob);
    # the others run the strategy × sync grid (hybrid-auto has no sync
    # series).
    grid = strategies if serving_axis else strategy_grid(strategies, (False, True))
    kwargs = dict(
        strategies=strategies,
        progress=progress,
        jobs=args.jobs,
        reporter=_sweep_reporter(args, len(xs) * len(grid)),
    )
    if args.axis != "processes":
        kwargs["nprocs"] = args.nprocs
    sweep = builder(cfg, xs, **kwargs)
    # Ratio tables against the paper's figures (the cache and replica axes
    # have no paper figure; the serve axes print a latency table instead).
    headline_x = float(max(xs)) if args.axis in ("processes", "speed") else None
    if serving_axis:
        _print_latency_table(
            sweep, x_label="masters" if args.axis == "masters" else "rate qps"
        )
        print()
    else:
        for query_sync in (False, True):
            print(overall_table(sweep, query_sync))
            print()
    if args.phases:
        for strategy in sweep.strategies():
            for query_sync in (False, True):
                print(phase_table(sweep, strategy, query_sync))
                print()
    if headline_x is not None:
        print(ratio_table(sweep, headline_x, paper_ratios=FIG2_RATIOS_PCT if args.axis == "processes" else None))
    if args.json:
        from .analysis import export_json as export_sweep_json

        with open(args.json, "w") as fh:
            export_sweep_json(sweep, fh)
        print(f"sweep exported to {args.json}")
    if args.csv:
        from .analysis import export_csv as export_sweep_csv

        with open(args.csv, "w") as fh:
            export_sweep_csv(sweep, fh)
        print(f"sweep exported to {args.csv}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    cfg = _config_from(args)
    recorder = TraceRecorder()
    S3aSim(cfg, recorder=recorder).run()
    print(render_timeline(recorder, width=args.width))
    if args.output:
        with open(args.output, "w") as fh:
            export_json(recorder, fh)
        print(f"trace written to {args.output}")
    return 0


def _cmd_hybrid(args: argparse.Namespace) -> int:
    cfg = _config_from(args)
    if cfg.arrival is not None:
        raise SystemExit(
            "hybrid mode pre-partitions the closed batch and cannot take "
            "open-loop arrivals; drop --arrival"
        )
    try:
        cfg = cfg.with_(
            shard=ShardConfig(
                nshards=args.partitions, placement="range", steal=False
            )
        )
    except ValueError as exc:
        raise SystemExit(f"invalid hybrid configuration: {exc}")
    app = S3aSim(cfg)
    result = app.run()
    print(result.summary_line())
    if isinstance(result, ShardedRunResult):
        for index in range(result.nshards):
            print(f"  partition {index}: {result.shard_summary_line(index)}")
    _print_check_summary(app)
    complete = result.file_stats.complete
    print("complete:", complete)
    return 0 if complete else 1


def _cmd_validate(args: argparse.Namespace) -> int:
    cfg = _config_from(args).with_(store_data=True)
    reference = None
    status = 0
    for strategy in sorted(STRATEGIES):
        app = S3aSim(cfg.with_(strategy=strategy))
        result = app.run()
        store = app.fh.file.bytestore
        if reference is None:
            reference, ref_name = store, strategy
            same = True
        else:
            same = reference.content_equal(store)
        ok = result.file_stats.complete and same
        status |= 0 if ok else 1
        print(
            f"{strategy:10s} complete={result.file_stats.complete} "
            f"matches[{ref_name}]={same}"
        )
    print("VALIDATION", "PASSED" if status == 0 else "FAILED")
    return status


def _cmd_check(args: argparse.Namespace) -> int:
    """Metamorphic differential harness (see repro.check.metamorphic)."""
    # Imported here, not at module top: the harness pulls in the whole
    # application stack and is only needed by this subcommand.
    from .check import metamorphic

    if args.replay:
        relation, case, recorded = metamorphic.load_artifact(args.replay)
        print(f"replaying {args.replay}: [{relation}] {case.label()}")
        if recorded:
            print(f"recorded error: {recorded}")
        error = metamorphic._evaluate(metamorphic.RELATIONS[relation], case)
        if error is None:
            print("relation now HOLDS (fixed, or environment-dependent)")
            return 0
        print(f"relation still FAILS: {error}")
        return 1

    relations = args.relations.split(",") if args.relations else None
    log = print if args.verbose else None
    report = metamorphic.run_harness(
        ncases=args.cases,
        seed=args.seed,
        relations=relations,
        artifact_dir=args.artifact_dir,
        shrink=not args.no_shrink,
        log=log,
    )
    print(
        f"check: {report.cases} cases x {len(report.relations)} relations "
        f"({', '.join(report.relations)}): {report.checks_run} checks, "
        f"{len(report.failures)} failure(s)"
    )
    for failure in report.failures:
        print(f"  [{failure.relation}] {failure.case.label()}: {failure.error}")
        if failure.artifact:
            print(f"    repro: s3asim check --replay {failure.artifact}")
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="s3asim",
        description="S3aSim: sequence-search I/O strategy simulator (HPDC'06 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one simulation")
    _add_common(p_run)
    p_run.add_argument(
        "--save-workload", help="write the run's workload parameters to a JSON file"
    )
    p_run.set_defaults(func=_cmd_run)

    p_serve = sub.add_parser(
        "serve",
        help="online service mode: open-loop arrivals with admission control",
    )
    _add_common(p_serve)
    p_serve.add_argument(
        "--preset",
        choices=list(ARRIVAL_PROCESSES),
        default="poisson",
        help="arrival process to use when --arrival is not given",
    )
    p_serve.add_argument(
        "--until",
        type=float,
        default=None,
        metavar="S",
        help="cut the run off at this simulated time (pending queries' "
        "latency is discarded, not fabricated)",
    )
    p_serve.add_argument("--json", help="export the full result to this JSON file")
    p_serve.set_defaults(func=_cmd_serve)

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep (Fig 2/5)")
    p_sweep.add_argument(
        "axis",
        choices=["processes", "speed", "cache", "replicas", "arrival", "masters"],
    )
    _add_common(p_sweep)
    p_sweep.add_argument(
        "--strategies",
        default=",".join(ALL_STRATEGIES),
        help="comma-separated strategy series to sweep; hybrid-auto joins "
        "the no-sync series only",
    )
    p_sweep.add_argument("--counts", default="2,4,8,16,32,48,64,96")
    p_sweep.add_argument("--speeds", default="0.1,0.2,0.4,0.8,1.6,3.2,6.4,12.8,25.6")
    p_sweep.add_argument(
        "--cache-mibs",
        default="0,1,4,16",
        help="per-server cache sizes (MiB) for the cache axis",
    )
    p_sweep.add_argument(
        "--replica-counts",
        default="1,2,3",
        help="per-stripe replica counts for the replicas axis",
    )
    p_sweep.add_argument(
        "--rates",
        default="5,10,20,40",
        help="offered loads (queries/s) for the arrival axis",
    )
    p_sweep.add_argument(
        "--master-counts",
        default="1,2,4,8",
        help="master counts for the masters axis (1 = unsharded seed)",
    )
    p_sweep.add_argument("--phases", action="store_true", help="print phase tables")
    p_sweep.add_argument("--verbose", action="store_true")
    p_sweep.add_argument("--json", help="export the sweep to this JSON file")
    p_sweep.add_argument("--csv", help="export the sweep to this CSV file")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_stats = sub.add_parser(
        "stats",
        help="run with metrics enabled and report per-layer counters",
    )
    _add_common(p_stats)
    p_stats.add_argument(
        "--compare",
        action="store_true",
        help="run all four strategies on the same workload and compare",
    )
    p_stats.add_argument("--json", help="export the metrics snapshot to this JSON file")
    p_stats.add_argument("--csv", help="export the metrics snapshot to this CSV file")
    p_stats.set_defaults(func=_cmd_stats)

    p_trace = sub.add_parser("trace", help="run once and render a timeline")
    _add_common(p_trace)
    p_trace.add_argument("--width", type=int, default=100)
    p_trace.add_argument("--output", help="write JSON trace to this path")
    p_trace.set_defaults(func=_cmd_trace)

    p_val = sub.add_parser(
        "validate", help="verify byte-identical output across strategies"
    )
    _add_common(p_val)
    p_val.set_defaults(func=_cmd_validate)

    p_faults = sub.add_parser(
        "fault-sweep",
        help="compare per-strategy resilience under a canned fault scenario",
    )
    _add_common(p_faults)
    p_faults.add_argument("--crash-rank", type=int, default=1)
    p_faults.add_argument("--crash-time", type=float, default=8.0)
    p_faults.add_argument("--downtime", type=float, default=2.0)
    p_faults.add_argument("--slow-server", type=int, default=0)
    p_faults.add_argument("--slow-start", type=float, default=3.0)
    p_faults.add_argument("--slow-duration", type=float, default=6.0)
    p_faults.add_argument("--slow-factor", type=float, default=4.0)
    p_faults.set_defaults(func=_cmd_fault_sweep)

    p_check = sub.add_parser(
        "check",
        help="metamorphic differential harness over random configurations",
    )
    p_check.add_argument(
        "--cases",
        type=int,
        default=None,
        help="random configurations to draw (default: $S3ASIM_CHECK_CASES or 5)",
    )
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument(
        "--relations",
        help="comma-separated relation subset (default: all); choose from "
        "strategies,query-sync,server-stack,replicas,jobs,empty-faults,"
        "arrivals,read-strategies,hybrid-auto",
    )
    p_check.add_argument(
        "--artifact-dir",
        help="write a replayable JSON repro artifact per failure here",
    )
    p_check.add_argument(
        "--no-shrink",
        action="store_true",
        help="skip greedy minimization of failing cases",
    )
    p_check.add_argument("--verbose", action="store_true")
    p_check.add_argument(
        "--replay",
        metavar="ARTIFACT",
        help="re-run one saved repro artifact instead of drawing cases",
    )
    p_check.set_defaults(func=_cmd_check)

    p_hybrid = sub.add_parser(
        "hybrid",
        help="hybrid query/database segmentation (paper future work)",
    )
    _add_common(p_hybrid)
    p_hybrid.add_argument("--partitions", type=int, default=2)
    p_hybrid.set_defaults(func=_cmd_hybrid)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
