"""Parameter sweeps: the experiment drivers behind the paper's figures.

Figure 2/3/4 sweep the process count at fixed compute speed; Figure 5/6/7
sweep the compute speed at 64 processes.  Each sweep point is one full
S3aSim run; results collect into a :class:`SweepResult` that the table and
figure formatters consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from ..core.config import SimulationConfig
from ..core.report import RunResult
from ..core.strategies import is_adaptive
from ..exec.engine import (
    PointOutcome,
    PointSpec,
    SweepExecutionError,
    run_points,
)

#: The paper's process-count axis (Section 3.3: "One suite of tests used 2
#: to 96 processors", figures show 2,4,8,16,32,48,64,96).
PAPER_PROCESS_COUNTS: Tuple[int, ...] = (2, 4, 8, 16, 32, 48, 64, 96)

#: The paper's compute-speed axis (0.1 to 25.6, doubling).
PAPER_COMPUTE_SPEEDS: Tuple[float, ...] = (0.1, 0.2, 0.4, 0.8, 1.6, 3.2, 6.4, 12.8, 25.6)

#: All four strategies in the paper's presentation order.
ALL_STRATEGIES: Tuple[str, ...] = ("mw", "ww-posix", "ww-list", "ww-coll")

#: Default cache-size axis (MiB per I/O server) for the server-cache sweep.
DEFAULT_CACHE_MIBS: Tuple[float, ...] = (0.0, 1.0, 4.0, 16.0)

_MIB = 1024 * 1024


def strategy_grid(
    strategies: Sequence[str], sync_options: Sequence[bool]
) -> List[Tuple[bool, str]]:
    """The (query_sync, strategy) product a sweep actually runs.

    ``hybrid-auto`` rejects ``query_sync`` (the per-query strategy choice
    is meaningless when every query gates on a barrier), so the adaptive
    strategy only joins the no-sync series; the statics fill the full
    grid.  Returned in (sync, strategy) nesting order to match the spec
    loops.
    """
    return [
        (query_sync, strategy)
        for query_sync in sync_options
        for strategy in strategies
        if not (query_sync and is_adaptive(strategy))
    ]


@dataclass(frozen=True)
class SweepPoint:
    """One run within a sweep."""

    strategy: str
    query_sync: bool
    x: float  # the swept value (process count or compute speed)
    result: RunResult


@dataclass
class SweepResult:
    """All runs of one sweep, indexable by (strategy, sync, x)."""

    axis_name: str
    points: List[SweepPoint] = field(default_factory=list)

    def add(self, point: SweepPoint) -> None:
        self.points.append(point)

    def series(self, strategy: str, query_sync: bool) -> List[Tuple[float, RunResult]]:
        """The (x, result) series of one strategy/sync combination.

        Sorted by x only (stable): two points may share an x (replicated
        runs, fault sweeps), and ``RunResult`` objects are not orderable.
        """
        return sorted(
            (
                (p.x, p.result)
                for p in self.points
                if p.strategy == strategy and p.query_sync == query_sync
            ),
            key=lambda pair: pair[0],
        )

    def lookup(self, strategy: str, query_sync: bool, x: float) -> RunResult:
        for p in self.points:
            if p.strategy == strategy and p.query_sync == query_sync and p.x == x:
                return p.result
        raise KeyError((strategy, query_sync, x))

    def xs(self) -> List[float]:
        return sorted({p.x for p in self.points})

    def strategies(self) -> List[str]:
        seen: List[str] = []
        for p in self.points:
            if p.strategy not in seen:
                seen.append(p.strategy)
        return seen


ProgressHook = Optional[Callable[[SweepPoint], None]]

#: Engine-level hook: sees every completed point, including failures
#: (e.g. :class:`repro.exec.ProgressReporter` for ETA lines).
OutcomeHook = Optional[Callable[[PointOutcome], None]]


def _sweep(
    axis_name: str,
    base: SimulationConfig,
    xs: Iterable[float],
    fields: Callable[[float], dict],
    strategies: Sequence[str],
    sync_options: Sequence[bool],
    nprocs: Optional[int],
    progress: ProgressHook,
    jobs: int,
    reporter: OutcomeHook,
) -> SweepResult:
    """The one spec loop behind every sweep builder.

    ``fields(x)`` validates one axis value and returns the config fields
    it sets; each value runs the (sync, strategy) grid, at ``nprocs``
    processes when given.  ``jobs > 1`` fans the points out across a
    process pool; every point carries the same workload seed (strategies
    must compare on identical inputs) and rebuilds its random streams
    from its own config, so the result is bit-identical to ``jobs=1``.

    Points land in the SweepResult in spec (submission) order whatever the
    parallel completion order was; ``progress`` fires per successful point
    in *completion* order.  If any point failed, the survivors still run to
    completion and a :class:`SweepExecutionError` aggregating the failures
    is raised at the end.
    """
    specs = []
    for x in xs:
        changes = fields(x)
        if nprocs is not None:
            changes["nprocs"] = nprocs
        for query_sync, strategy in strategy_grid(strategies, sync_options):
            specs.append(
                PointSpec(
                    key=(strategy, query_sync, float(x)),
                    config=base.with_(
                        strategy=strategy, query_sync=query_sync, **changes
                    ),
                )
            )

    def on_complete(outcome: PointOutcome) -> None:
        if outcome.ok and progress is not None:
            progress(SweepPoint(*outcome.key, outcome.result))
        if reporter is not None:
            reporter(outcome)

    outcomes = run_points(specs, jobs=jobs, progress=on_complete)
    failures = [o.failure for o in outcomes if o.failure is not None]
    if failures:
        raise SweepExecutionError(failures)
    return SweepResult(axis_name, [SweepPoint(*o.key, o.result) for o in outcomes])


def process_scaling_sweep(
    base: SimulationConfig,
    process_counts: Sequence[int] = PAPER_PROCESS_COUNTS,
    strategies: Sequence[str] = ALL_STRATEGIES,
    sync_options: Sequence[bool] = (False, True),
    progress: ProgressHook = None,
    jobs: int = 1,
    reporter: OutcomeHook = None,
) -> SweepResult:
    """Figure 2's experiment: overall time vs process count."""
    return _sweep(
        "processes", base, process_counts, lambda n: {"nprocs": n},
        strategies, sync_options, None, progress, jobs, reporter,
    )


def compute_speed_sweep(
    base: SimulationConfig,
    speeds: Sequence[float] = PAPER_COMPUTE_SPEEDS,
    strategies: Sequence[str] = ALL_STRATEGIES,
    sync_options: Sequence[bool] = (False, True),
    nprocs: int = 64,
    progress: ProgressHook = None,
    jobs: int = 1,
    reporter: OutcomeHook = None,
) -> SweepResult:
    """Figure 5's experiment: overall time vs compute speed at 64 procs."""
    return _sweep(
        "compute_speed", base, speeds,
        lambda speed: {"compute": replace(base.compute, speed=speed)},
        strategies, sync_options, nprocs, progress, jobs, reporter,
    )


def server_cache_sweep(
    base: SimulationConfig,
    cache_mibs: Sequence[float] = DEFAULT_CACHE_MIBS,
    strategies: Sequence[str] = ALL_STRATEGIES,
    sync_options: Sequence[bool] = (False, True),
    nprocs: Optional[int] = None,
    progress: ProgressHook = None,
    jobs: int = 1,
    reporter: OutcomeHook = None,
) -> SweepResult:
    """The new experiment axis: overall time vs per-server cache size.

    Sweeps the write-back cache capacity at the disk scheduler already
    set on ``base.pvfs`` (``disk_sched``; run once per scheduler to
    compare fifo vs elevator).  ``x`` is the cache size in MiB — 0 is the
    seed's cache-less daemon.
    """

    def fields(mib):
        if mib < 0:
            raise ValueError(f"cache size must be non-negative, got {mib}")
        return {"pvfs": replace(base.pvfs, server_cache_B=int(mib * _MIB))}

    return _sweep(
        "server_cache_mib", base, cache_mibs, fields,
        strategies, sync_options, nprocs, progress, jobs, reporter,
    )


def arrival_sweep(
    base: SimulationConfig,
    rates: Sequence[float],
    strategies: Sequence[str] = ALL_STRATEGIES,
    sync_options: Sequence[bool] = (False,),
    nprocs: Optional[int] = None,
    progress: ProgressHook = None,
    jobs: int = 1,
    reporter: OutcomeHook = None,
) -> SweepResult:
    """Serve-mode axis: completion latency vs offered load per strategy.

    ``base.arrival`` must be set (it supplies the arrival process,
    admission policy, and horizon); ``x`` is the offered rate in queries
    per second.  The interesting output is each point's
    ``result.serve_stats`` — admitted/rejected counts and the latency
    percentiles — which diverge across strategies as the rate approaches
    saturation.
    """
    if base.arrival is None:
        raise ValueError("arrival_sweep needs base.arrival set")

    def fields(rate):
        if rate <= 0:
            raise ValueError(f"arrival rate must be positive, got {rate}")
        return {"arrival": replace(base.arrival, rate=float(rate))}

    return _sweep(
        "arrival_rate", base, rates, fields,
        strategies, sync_options, nprocs, progress, jobs, reporter,
    )


def masters_sweep(
    base: SimulationConfig,
    master_counts: Sequence[int] = (1, 2, 4, 8),
    strategies: Sequence[str] = ALL_STRATEGIES,
    sync_options: Sequence[bool] = (False,),
    nprocs: Optional[int] = None,
    progress: ProgressHook = None,
    jobs: int = 1,
    reporter: OutcomeHook = None,
) -> SweepResult:
    """Sharding axis: latency and throughput vs number of masters.

    ``x`` is the master count — 1 is the seed's single-master topology
    (``shard=None``, bit-identical to every earlier run); each extra
    master splits the same ``nprocs`` into an independent shard with its
    own worker pool, sharing the network and the PVFS volume.  The
    interesting outputs are the merged latency percentiles (does sharding
    relieve the single master's admission bottleneck under saturating
    load?) and ``serve_stats["imbalance"]`` (how well placement plus
    work-stealing spreads the queries).

    ``base.arrival`` must be set; sharding only exists in serve mode.
    """
    if base.arrival is None:
        raise ValueError("masters_sweep needs base.arrival set")
    from ..shard.state import ShardConfig

    shard_base = base.shard or ShardConfig()

    def fields(masters):
        if masters < 1:
            raise ValueError(f"master count must be >= 1, got {masters}")
        shard = replace(shard_base, nshards=int(masters)) if masters > 1 else None
        return {"shard": shard}

    return _sweep(
        "masters", base, master_counts, fields,
        strategies, sync_options, nprocs, progress, jobs, reporter,
    )


def replica_sweep(
    base: SimulationConfig,
    replica_counts: Sequence[int] = (1, 2, 3),
    strategies: Sequence[str] = ALL_STRATEGIES,
    sync_options: Sequence[bool] = (False, True),
    nprocs: Optional[int] = None,
    progress: ProgressHook = None,
    jobs: int = 1,
    reporter: OutcomeHook = None,
) -> SweepResult:
    """ROADMAP's replication scale study: overall time vs replica count.

    ``x`` is the per-stripe replica count — 1 is the seed's unreplicated
    volume, each extra copy buys outage survival at the write-amplification
    cost the sweep measures.  Combine with ``base.fault_plan`` to measure
    the degraded-mode price instead of the healthy-path price.
    """

    def fields(replicas):
        if replicas < 1:
            raise ValueError(f"replica count must be >= 1, got {replicas}")
        return {"pvfs": replace(base.pvfs, replicas=int(replicas))}

    return _sweep(
        "replicas", base, replica_counts, fields,
        strategies, sync_options, nprocs, progress, jobs, reporter,
    )
