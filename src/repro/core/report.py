"""Run results: phase breakdowns, totals, and output-file statistics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..obs.metrics import MetricsSnapshot
from .phases import Phase, PhaseReport


@dataclass(frozen=True)
class FileStats:
    """What ended up in the simulated output file."""

    total_bytes: int
    expected_bytes: int
    nextents: int
    dense: bool

    @property
    def complete(self) -> bool:
        return self.dense and self.total_bytes == self.expected_bytes


def _summary_line(
    strategy: str,
    query_sync: bool,
    nprocs: int,
    compute_speed: float,
    elapsed: float,
    worker_mean: PhaseReport,
) -> str:
    parts = " ".join(
        f"{p.value}={worker_mean[p]:.2f}" for p in Phase if worker_mean[p] > 0.005
    )
    sync = "sync" if query_sync else "no-sync"
    return (
        f"{strategy:8s} {sync:7s} np={nprocs:<3d} "
        f"speed={compute_speed:<5g} total={elapsed:8.2f}s  [{parts}]"
    )


@dataclass(frozen=True)
class RunResult:
    """Everything one S3aSim run produced.

    ``master`` is rank 0's phase report; ``workers[i]`` is rank ``i+1``'s.
    ``elapsed`` is the wall-clock (simulated) span of the whole job — what
    Figure 2/5 plot as "overall execution time".
    """

    strategy: str
    query_sync: bool
    nprocs: int
    compute_speed: float
    elapsed: float
    master: PhaseReport
    workers: List[PhaseReport]
    file_stats: FileStats
    server_stats: Dict[str, float] = field(default_factory=dict)
    #: Aggregated fault/recovery counters (empty on fault-free runs):
    #: crashes, tasks_reassigned, repairs_issued, retransmits, retries, ...
    fault_stats: Dict[str, float] = field(default_factory=dict)
    #: Chronological injector log (worker-crash / server windows / ...).
    fault_events: List[dict] = field(default_factory=list)
    #: Full metrics snapshot, present iff the run collected metrics
    #: (``SimulationConfig.collect_metrics=True``).
    metrics: Optional[MetricsSnapshot] = None
    #: Serve-mode summary (empty on batch runs): offered/admitted/rejected/
    #: shed/completed/pending counts plus completion-latency mean and
    #: p50/p95/p99/max in seconds.
    serve_stats: Dict[str, float] = field(default_factory=dict)

    @property
    def worker_mean(self) -> PhaseReport:
        """Mean worker-process breakdown (what Figures 3/4/6/7 show)."""
        return PhaseReport.mean(self.workers)

    def phase_seconds(self, phase: Phase) -> float:
        return self.worker_mean[phase]

    def summary_line(self) -> str:
        return _summary_line(
            self.strategy, self.query_sync, self.nprocs, self.compute_speed,
            self.elapsed, self.worker_mean,
        )

    def as_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "query_sync": self.query_sync,
            "nprocs": self.nprocs,
            "compute_speed": self.compute_speed,
            "elapsed": self.elapsed,
            "worker_mean": self.worker_mean.as_dict(),
            "master": self.master.as_dict(),
            "file": {
                "total_bytes": self.file_stats.total_bytes,
                "expected_bytes": self.file_stats.expected_bytes,
                "dense": self.file_stats.dense,
            },
            "servers": self.server_stats,
            "faults": self.fault_stats,
            **({"serve": self.serve_stats} if self.serve_stats else {}),
            **(
                {"metrics": self.metrics.as_dict()}
                if self.metrics is not None
                else {}
            ),
        }


@dataclass(frozen=True)
class ShardedRunResult:
    """Everything one multi-shard run produced.

    Duck-types the parts of :class:`RunResult` the sweep/CLI layers consume
    (``elapsed``, ``serve_stats``, ``file_stats``, ``summary_line``,
    ``as_dict``); adds each shard's span, phase reports and serve
    statistics.  ``file_stats`` sums the shards' output files and is
    ``dense`` only if every file is.
    """

    strategy: str
    query_sync: bool
    nprocs: int
    nshards: int
    compute_speed: float
    elapsed: float
    file_stats: FileStats
    server_stats: Dict[str, float] = field(default_factory=dict)
    #: Serve mode only (empty on a closed batch).  Merged serve summary:
    #: global counters, merged-histogram latency percentiles, plus
    #: ``masters``, ``steals``, ``donated`` and the completion
    #: ``imbalance`` (max/mean of per-shard completions).
    serve_stats: Dict[str, float] = field(default_factory=dict)
    #: Serve mode only: one ``serve_stats([state])`` dict per shard.
    shard_serve_stats: List[Dict[str, float]] = field(default_factory=list)
    metrics: Optional[MetricsSnapshot] = None
    #: Per shard: when its slowest rank finished (each shard's final
    #: barrier is its own, so a fast shard really does finish early).
    shard_elapsed: List[float] = field(default_factory=list)
    #: Per shard: the phase reports of its ranks, master first.
    shard_reports: List[List[PhaseReport]] = field(default_factory=list)

    def summary_line(self) -> str:
        s = self.serve_stats
        if not s:
            # A closed batch: hybrid query/database segmentation.
            spans = " ".join(
                f"p{i}={span:.2f}s" for i, span in enumerate(self.shard_elapsed)
            )
            return f"hybrid k={self.nshards} total={self.elapsed:8.2f}s  [{spans}]"
        sync = "sync" if self.query_sync else "no-sync"
        return (
            f"{self.strategy:8s} {sync:7s} np={self.nprocs:<3d} "
            f"masters={self.nshards} total={self.elapsed:8.2f}s  "
            f"[completed={s.get('completed', 0.0):g} "
            f"steals={s.get('steals', 0.0):g} "
            f"imbalance={s.get('imbalance', 0.0):.2f}]"
        )

    def shard_summary_line(self, index: int) -> str:
        """One shard's line, in :meth:`RunResult.summary_line`'s format."""
        reports = self.shard_reports[index]
        return _summary_line(
            self.strategy, self.query_sync, len(reports), self.compute_speed,
            self.shard_elapsed[index], PhaseReport.mean(reports[1:]),
        )

    def as_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "query_sync": self.query_sync,
            "nprocs": self.nprocs,
            "masters": self.nshards,
            "compute_speed": self.compute_speed,
            "elapsed": self.elapsed,
            "file": {
                "total_bytes": self.file_stats.total_bytes,
                "expected_bytes": self.file_stats.expected_bytes,
                "dense": self.file_stats.dense,
            },
            "servers": self.server_stats,
            "serve": self.serve_stats,
            "shards": list(self.shard_serve_stats),
            **(
                {"metrics": self.metrics.as_dict()}
                if self.metrics is not None
                else {}
            ),
        }
