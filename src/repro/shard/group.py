"""MasterGroup: M independent masters sharing one cluster and volume.

The group partitions the MPI world into contiguous rank blocks (the hybrid
topology's arithmetic), one shard each: rank 0 of a block runs a
:class:`~repro.core.master.Master`, the rest its worker pool.  All shards
share the simulated network and the PVFS volume — their I/O genuinely
contends — but each writes its own output file (``<path>.shard<i>``),
because the offset ledger is a per-master, strictly-in-order structure.

A single global arrival process drives an :class:`_ArrivalRouter`, which
places each arrival on a shard (hash or range of the arrival index; the
placement consumes no randomness, so the arrival stream is bit-identical
to a single-master run at the same seed) and stamps it with its global
*content id*.  The workload is addressed by content id, so a query keeps
its identity when work-stealing moves it between shards.

Work stealing (``ShardConfig.steal``): a master whose pending queue drains
while workers are parked probes its peers round-robin over the
out-of-band channel (``Steal``/``Donate``); a donor ships the youngest
half of its unstarted, non-priority queries.  Latency is measured end to
end — a stolen query's clock starts at its original arrival.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..adapt.selector import StrategySelector
from ..check.invariants import InvariantChecker
from ..core.app import S3aSim
from ..core.config import SimulationConfig, Workload
from ..core.master import Master
from ..core.report import FileStats
from ..core.worker import Worker
from ..mpi.world import MpiWorld
from ..mpiio.file import MPIIOFile
from ..obs.metrics import MetricsRegistry
from ..pvfs.filesystem import FileSystem, PVFSFile
from ..serve.arrivals import arrival_process
from .state import ShardConfig, partition_ranks, place


class _ShardResults:
    """Result-generator view translating a shard's local query slots to
    global content ids (a live mapping — slots appear at admission and a
    stolen query brings its content id along)."""

    def __init__(self, results, content: Dict[int, int]) -> None:
        self._results = results
        self._content = content

    def batch(self, query_id: int, fragment_id: int):
        return self._results.batch(self._content[query_id], fragment_id)

    def query_total_bytes(self, query_id: int) -> int:
        return self._results.query_total_bytes(self._content[query_id])


class _ShardWorkload:
    """Workload view handed to one shard's workers."""

    def __init__(self, workload: Workload, content: Dict[int, int]) -> None:
        self.queries = workload.queries
        self.database = workload.database
        self.results = _ShardResults(workload.results, content)


class _ArrivalRouter:
    """The object the global arrival process drives.

    Quacks like a master (``on_arrival`` / ``arrivals_finished``) but only
    places: the ``i``-th arrival goes to ``place(i)`` with content id
    ``i``.  All masters learn of arrival exhaustion at the same instant.
    """

    def __init__(
        self, masters: List[Master], shard_cfg: ShardConfig, nqueries: int
    ) -> None:
        self._masters = masters
        self._shard_cfg = shard_cfg
        self._nqueries = nqueries
        self._index = 0

    def on_arrival(self, priority: bool) -> None:
        index = self._index
        self._index += 1
        shard = place(
            index, len(self._masters), self._shard_cfg.placement, self._nqueries
        )
        self._masters[shard].on_arrival(priority, content=index)

    def arrivals_finished(self) -> None:
        for master in self._masters:
            master.arrivals_finished()


@dataclass(frozen=True)
class ShardedRunResult:
    """Everything one multi-master run produced.

    Duck-types the parts of :class:`~repro.core.report.RunResult` the
    sweep/CLI layers consume (``elapsed``, ``serve_stats``,
    ``file_stats``, ``summary_line``, ``as_dict``); adds the per-shard
    serve statistics the imbalance analysis needs.
    """

    strategy: str
    query_sync: bool
    nprocs: int
    nshards: int
    compute_speed: float
    elapsed: float
    file_stats: FileStats
    server_stats: Dict[str, float] = field(default_factory=dict)
    #: Merged serve summary: global counters, merged-histogram latency
    #: percentiles, plus ``masters``, ``steals``, ``donated`` and the
    #: completion ``imbalance`` (max/mean of per-shard completions).
    serve_stats: Dict[str, float] = field(default_factory=dict)
    #: One ``ServeState.stats()`` dict per shard, in shard order.
    shard_serve_stats: List[Dict[str, float]] = field(default_factory=list)
    metrics: Optional[object] = None

    def summary_line(self) -> str:
        s = self.serve_stats
        sync = "sync" if self.query_sync else "no-sync"
        return (
            f"{self.strategy:8s} {sync:7s} np={self.nprocs:<3d} "
            f"masters={self.nshards} total={self.elapsed:8.2f}s  "
            f"[completed={s.get('completed', 0.0):g} "
            f"steals={s.get('steals', 0.0):g} "
            f"imbalance={s.get('imbalance', 0.0):.2f}]"
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


class MasterGroup:
    """One configured multi-master simulation (``shard.nshards >= 2``)."""

    def __init__(self, config: SimulationConfig, recorder=None) -> None:
        shard = config.shard
        if shard is None or shard.nshards < 2:
            raise ValueError("MasterGroup needs shard.nshards >= 2")
        if config.arrival is None:
            raise ValueError("MasterGroup needs serve mode (config.arrival)")
        self.config = config
        self.shard_cfg = shard
        self.recorder = recorder
        self.world = MpiWorld(
            nranks=config.nprocs,
            network=config.network,
        )
        if config.collect_metrics:
            self.world.env.metrics = MetricsRegistry(
                constant_labels={"strategy": config.strategy}
            )
        if config.check:
            self.world.env.check = InvariantChecker(self.world.env)
        self.fs = FileSystem(
            self.world.env,
            config.effective_pvfs(),
            client_nic=lambda rank: self.world.network.nic(rank),
            recorder=recorder,
        )
        self.workload: Workload = config.build_workload()

        nshards = shard.nshards
        self.partitions = [
            partition_ranks(config.nprocs, nshards, i) for i in range(nshards)
        ]
        # Master-to-master communicator: local rank == shard index.
        mcomm = self.world.comm.sub([ranks[0] for ranks in self.partitions])
        store = config.effective_pvfs().store_data
        strategy = config.io_strategy()
        self.masters: List[Master] = []
        self.workers: List[List[Worker]] = []
        self.files: List[PVFSFile] = []
        for i, ranks in enumerate(self.partitions):
            comm = self.world.comm.sub(ranks)
            wcomm = comm.sub(list(range(1, len(ranks))))
            path = f"{config.output_path}.shard{i}"
            file = PVFSFile(path, self.fs.layout, store)
            self.fs.files[path] = file
            self.files.append(file)
            fh = MPIIOFile(
                self.fs,
                file,
                strategy.hints(sync_after_write=config.sync_after_write),
            )
            sub_cfg = config.with_(
                nprocs=len(ranks), output_path=path, shard=None
            )
            selector = None
            if sub_cfg.adaptive:
                # Per-shard selector over the *global* result generator —
                # the master hands in the slot's content id at choice time,
                # so hit-count estimates survive work-stealing transfers.
                selector = StrategySelector(
                    self.workload.results, self.fs, nworkers=sub_cfg.nworkers
                )
            master = Master(
                comm.view(0), sub_cfg, fh, recorder=recorder, selector=selector
            )
            master.attach_shard(i, mcomm.view(i), shard)
            self.masters.append(master)
            pool = []
            for local in range(1, len(ranks)):
                worker = Worker(
                    comm.view(local),
                    wcomm.view(local - 1),
                    sub_cfg,
                    _ShardWorkload(self.workload, master.serve.content),
                    fh,
                    recorder=recorder,
                )
                worker.shard_id = i
                pool.append(worker)
            self.workers.append(pool)

    def run(self, until: Optional[float] = None) -> ShardedRunResult:
        cfg = self.config
        env = self.world.env
        for i, ranks in enumerate(self.partitions):
            master = self.masters[i]
            self.world.spawn(ranks[0], lambda _v, m=master: m.run())
            for local, worker in enumerate(self.workers[i], start=1):
                self.world.spawn(ranks[local], lambda _v, w=worker: w.run())
        router = _ArrivalRouter(self.masters, self.shard_cfg, cfg.nqueries)
        env.process(
            arrival_process(env, router, cfg.arrival, cfg.streams(), cfg.nqueries),
            name="arrivals",
        )

        reports = self.world.run(until=until)
        elapsed = env.now
        cutoff = any(report is None for report in reports.values())
        if cutoff and self.recorder is not None:
            for master in self.masters:
                rank = master.comm.global_rank
                for q in list(master.serve.arrival_t):
                    self.recorder.discard(rank, state=f"serve_q{q}")
            for rank in range(cfg.nprocs):
                self.recorder.abort(rank, elapsed)

        # Per-shard output files: each must hold exactly the bytes of the
        # queries its master completed locally (donated slots are zero-size
        # placeholders; the thief's file carries those bytes instead).
        total = expected_total = nextents = 0
        dense = True
        for i, master in enumerate(self.masters):
            s = master.serve
            expected = sum(
                self.workload.results.query_total_bytes(s.content[q])
                for q in range(s.admitted)
                if q not in s.donated_q
            )
            store = self.files[i].bytestore
            total += store.total_bytes()
            expected_total += expected
            nextents += len(store.extents())
            dense = dense and store.extents() == (
                [(0, expected)] if expected else []
            )
        file_stats = FileStats(
            total_bytes=total,
            expected_bytes=expected_total,
            nextents=nextents,
            dense=dense,
        )
        server_stats = {
            "requests": float(self.fs.total_requests()),
            "bytes_written": float(self.fs.total_bytes_written()),
            "syncs": float(self.fs.total_syncs()),
            "mean_busy_s": sum(s.stats.busy_s for s in self.fs.servers)
            / len(self.fs.servers),
        }
        shard_stats = [m.serve.stats() for m in self.masters]
        serve_stats = self._merged_serve_stats(shard_stats)

        metrics_registry = env.metrics
        if metrics_registry.enabled:
            metrics_registry.set_gauge("run.elapsed_seconds", elapsed)
            metrics_registry.set_gauge("run.nprocs", float(cfg.nprocs))
            metrics_registry.set_gauge(
                "shard.masters", float(self.shard_cfg.nshards)
            )
        metrics = metrics_registry.snapshot() if metrics_registry.enabled else None

        checker = env.check
        if checker.enabled:
            checker.finalize(
                now=elapsed,
                recorder=self.recorder,
                fault_free=not cutoff,
                open_queries={
                    i: m.serve.admitted - m.serve.completed - m.serve.donated
                    for i, m in enumerate(self.masters)
                },
            )
        return ShardedRunResult(
            strategy=cfg.strategy,
            query_sync=cfg.query_sync,
            nprocs=cfg.nprocs,
            nshards=self.shard_cfg.nshards,
            compute_speed=cfg.compute.speed,
            elapsed=elapsed,
            file_stats=file_stats,
            server_stats=server_stats,
            serve_stats=serve_stats,
            shard_serve_stats=shard_stats,
            metrics=metrics,
        )

    def _merged_serve_stats(self, shard_stats) -> Dict[str, float]:
        masters = self.masters
        merged = masters[0].serve.latency_summary()
        for master in masters[1:]:
            merged = merged.merged(master.serve.latency_summary())
        completions = [float(m.serve.completed) for m in masters]
        mean = sum(completions) / len(completions)
        completed = sum(completions)
        no_data = float("nan")
        return {
            "masters": float(len(masters)),
            "offered": float(sum(m.serve.offered for m in masters)),
            "admitted": float(sum(m.serve.admitted for m in masters)),
            "rejected": float(sum(m.serve.rejected for m in masters)),
            "shed": float(sum(m.serve.shed for m in masters)),
            "completed": completed,
            "pending": float(sum(m.serve.pending for m in masters)),
            "donated": float(sum(m.serve.donated for m in masters)),
            "steals": float(sum(m.serve.stolen for m in masters)),
            "imbalance": (max(completions) / mean) if mean else 0.0,
            "latency_mean_s": merged.mean if completed else no_data,
            "latency_p50_s": merged.quantile(0.50) if completed else no_data,
            "latency_p95_s": merged.quantile(0.95) if completed else no_data,
            "latency_p99_s": merged.quantile(0.99) if completed else no_data,
            "latency_max_s": merged.max if completed else no_data,
        }


def run_sharded(
    config: SimulationConfig, recorder=None, until: Optional[float] = None
):
    """Run a (possibly sharded) configuration.

    ``shard=None`` or a single shard degenerates to the plain
    single-master runner — bit-identical to the seed implementation.
    """
    if config.shard is None or config.shard.nshards < 2:
        return S3aSim(config.with_(shard=None), recorder=recorder).run(until=until)
    return MasterGroup(config, recorder=recorder).run(until=until)
