"""S3aSim application runner: wire everything together and run one job.

:class:`S3aSim` builds every run: a plain run, a closed batch over
shards and a serve run with one or more masters, under database or query
segmentation (``cfg.query_segmentation``, the paper's baseline, changes
only what one assignment holds and makes every worker read fragments from
the shared database file).  It builds the
simulated cluster (MPI world + PVFS2 volume sharing the same NICs), the
workload and the shared database file once, then splits the world into
``shard.nshards`` contiguous rank blocks (one block without a shard
config): rank 0 of a block runs a :class:`~repro.core.master.Master`, the
rest its worker pool.  All shards share the simulated network and the PVFS
volume — their I/O genuinely contends — but each writes its own output
file (``<path>.shard<i>`` when there is more than one), because the offset
ledger is a per-master, strictly-in-order structure.  After the run one
finalize validates every output file against the deterministic
expectation and collects the statistics.

A shard's master and workers work in *local* query ids; the shard's
results view (:class:`_ShardResults`) is the one place that translates
them to the global query whose results the workload holds:

* a **closed batch** over k shards (hybrid query/database segmentation,
  the paper's Section 5 future work) gives shard i the contiguous query
  block ``partition_ranks(nqueries, k, i)`` — a fixed map;
* **sharded serve mode** drives one global arrival process through an
  :class:`~repro.shard.state.ArrivalRouter`, which places each arrival
  on a shard's admission (hash or range of the arrival index; placement
  consumes no randomness, so the arrival stream is bit-identical to a
  single-master run at the same seed) and stamps it with its global
  *content id* — a live map, so a query keeps its identity when
  work-stealing moves it between shards.

Admission (:mod:`repro.serve.admission`) and work stealing
(:mod:`repro.shard.steal`) live outside the master; a master wires them
in, and this runner hands the arrival process its admission (or the
router) and collects the serve statistics with
:func:`~repro.serve.state.serve_stats`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..adapt.selector import StrategySelector
from ..check.invariants import InvariantChecker
from ..faults.injector import FaultInjector
from ..mpi.world import MpiWorld
from ..mpiio.file import MPIIOFile
from ..obs.metrics import MetricsRegistry
from ..pvfs.filesystem import FileSystem, PVFSFile
from ..serve.arrivals import arrival_process
from ..serve.state import serve_stats
from ..shard.state import ArrivalRouter, partition_ranks
from .config import SimulationConfig, Workload
from .master import Master
from .report import FileStats, RunResult, ShardedRunResult
from .worker import Worker


class _ShardResults:
    """Result-generator view translating a shard's local query slots to
    global query ids (``content``: fixed for a batch block, live in serve
    mode — slots appear at admission and a stolen query brings its
    content id along)."""

    def __init__(self, results, content: Dict[int, int]) -> None:
        self._results = results
        self._content = content

    def batch(self, query_id: int, fragment_id: int):
        return self._results.batch(self._content[query_id], fragment_id)

    def query_total_bytes(self, query_id: int) -> int:
        return self._results.query_total_bytes(self._content[query_id])

    def fragment_counts(self, query_id: int):
        return self._results.fragment_counts(self._content[query_id])


class _ShardWorkload:
    """Workload view handed to one shard's workers."""

    def __init__(self, workload: Workload, content: Dict[int, int]) -> None:
        self.queries = workload.queries
        self.database = workload.database
        self.results = _ShardResults(workload.results, content)


class _Shard:
    """One master/worker pool's world ranks, communicators and output file
    (its master and workers are built by ``S3aSim.run``)."""

    def __init__(self, index: int, ranks: List[int], comm, wcomm, fh) -> None:
        self.index = index
        self.ranks = ranks
        self.comm = comm
        #: Worker-only communicator (local rank i == shard rank i+1): the
        #: collective writes and query-sync barriers happen here.
        self.wcomm = wcomm
        self.fh = fh


class S3aSim:
    """One configured simulation instance (reusable pieces exposed for
    tests: ``world``, ``fs``, ``workload``, ``fh``)."""

    def __init__(self, config: SimulationConfig, recorder=None) -> None:
        self.config = config
        self.recorder = recorder
        self.world = MpiWorld(
            nranks=config.nprocs,
            network=config.network,
        )
        if config.collect_metrics:
            # Attach before the FileSystem exists: IOServer binds its
            # counter handles at construction time.
            self.world.env.metrics = MetricsRegistry(
                constant_labels={"strategy": config.strategy}
            )
        if config.check:
            # Same placement rule as metrics: before any layer caches the
            # environment hook.
            self.world.env.check = InvariantChecker(self.world.env)
        self.fs = FileSystem(
            self.world.env,
            config.effective_pvfs(),
            client_nic=lambda rank: self.world.network.nic(rank),
            recorder=recorder,
        )
        self.workload: Workload = config.build_workload()
        self.nshards = config.shard.nshards if config.shard is not None else 1
        # The output files are created up-front (rank 0 would
        # MPI_File_open with MODE_CREATE; the metadata cost is negligible
        # next to the run and keeping it out of the rank processes
        # simplifies handle sharing).
        store = config.effective_pvfs().store_data
        strategy = config.io_strategy()
        self.shards: List[_Shard] = []
        for i in range(self.nshards):
            if self.nshards == 1:
                path = config.output_path
                ranks = list(range(config.nprocs))
                comm = self.world.comm
            else:
                path = f"{config.output_path}.shard{i}"
                ranks = partition_ranks(config.nprocs, self.nshards, i)
                comm = self.world.comm.sub(ranks)
            file = PVFSFile(path, self.fs.layout, store)
            self.fs.files[path] = file
            fh = MPIIOFile(
                self.fs, file, strategy.hints(sync_after_write=config.sync_after_write)
            )
            wcomm = comm.sub(list(range(1, len(ranks))))
            self.shards.append(_Shard(i, ranks, comm, wcomm, fh))
        #: The output file handle of shard 0 (the only one of a plain run).
        self.fh = self.shards[0].fh
        #: Master-to-master communicator, local rank == shard index.
        self.mcomm = (
            self.world.comm.sub([s.ranks[0] for s in self.shards])
            if self.nshards > 1
            else None
        )
        # Shared database file for fragment reads (preloads, and every
        # query-segmentation run): densely-packed
        # fragments, read-only during the run (store_data off — only the
        # I/O timing matters, the sequence bytes carry no information).
        self.db_fh: Optional[MPIIOFile] = None
        if config.preload_fragments or config.query_segmentation:
            db_file = PVFSFile("/s3asim/db", self.fs.layout, False)
            self.fs.files["/s3asim/db"] = db_file
            self.db_fh = MPIIOFile(
                self.fs, db_file, strategy.hints(sync_after_write=False)
            )

    def _shard_view(self, shard: _Shard):
        """The shard's config, workload view and (batch) query content map.

        A plain run uses the run's own config and workload.  A batch shard
        runs its contiguous query block under local ids; a serve shard's
        content map fills in as its master admits (the master's own map).
        """
        cfg = self.config
        if self.nshards == 1:
            return cfg, self.workload, None
        if cfg.arrival is None:
            block = partition_ranks(cfg.nqueries, self.nshards, shard.index)
            content = dict(enumerate(block))
            sub_cfg = cfg.with_(
                nprocs=len(shard.ranks), nqueries=len(block), shard=None
            )
        else:
            content = {}
            sub_cfg = cfg.with_(nprocs=len(shard.ranks), shard=None)
        return sub_cfg, _ShardWorkload(self.workload, content), content

    def run(self, until: Optional[float] = None):
        """Execute the simulation and return the collected result.

        A plain run returns a :class:`RunResult`, a multi-shard run a
        :class:`ShardedRunResult`.  ``until`` cuts the run off at that
        simulated time (serve-mode horizon experiments); phase reports are
        then synthesized from the live timers and still-open trace
        intervals are cleaned up, so the partial result is still
        well-formed.
        """
        cfg = self.config
        env = self.world.env

        resume_block_sizes = None
        if cfg.resume_from_query:
            resume_block_sizes = [
                self.workload.results.query_total_bytes(q)
                for q in range(cfg.resume_from_query)
            ]
        injector = None
        if not cfg.fault_plan.empty:
            injector = FaultInjector(
                env,
                cfg.fault_plan,
                cfg.effective_fault_tolerance(),
                network=self.world.network,
                fs=self.fs,
                streams=cfg.streams(),
                recorder=self.recorder,
            )
        masters: List[Master] = []
        views = []  # per shard: its results view
        #: World rank -> its master or worker, masters before their workers.
        by_rank: Dict[int, object] = {}
        for shard in self.shards:
            sub_cfg, workload, content = self._shard_view(shard)
            views.append(workload.results)
            selector = None
            if sub_cfg.adaptive:
                selector = StrategySelector(
                    workload.results, self.fs, nworkers=sub_cfg.nworkers
                )
            master = Master(
                shard.comm.view(0), sub_cfg, shard.fh,
                recorder=self.recorder,
                resume_block_sizes=resume_block_sizes,
                selector=selector,
            )
            if self.mcomm is not None:
                master.attach_shard(
                    shard.index, self.mcomm.view(shard.index), cfg.shard, content
                )
            masters.append(master)
            by_rank[shard.ranks[0]] = master
            self.world.spawn(shard.ranks[0], lambda _view, m=master: m.run())
            for local in range(1, len(shard.ranks)):
                worker = Worker(
                    shard.comm.view(local),
                    shard.wcomm.view(local - 1),
                    sub_cfg,
                    workload,
                    shard.fh,
                    recorder=self.recorder,
                    db_fh=self.db_fh,
                )
                worker.shard_id = shard.index
                rank = shard.ranks[local]
                by_rank[rank] = worker
                process = self.world.spawn(rank, lambda _view, w=worker: w.run())
                if injector is not None:
                    injector.register_worker(rank, worker, process)
        if injector is not None:
            injector.start()

        if cfg.arrival is not None:
            target = (
                masters[0].serve
                if self.nshards == 1
                else ArrivalRouter(
                    [m.serve for m in masters], [m.steal for m in masters],
                    cfg.shard, cfg.nqueries,
                )
            )
            env.process(
                arrival_process(
                    env, target, cfg.arrival, cfg.streams(), cfg.nqueries
                ),
                name="arrivals",
            )

        reports = self.world.run(until=until)
        elapsed = env.now
        cutoff = any(report is None for report in reports.values())
        if cutoff:
            # ``until`` fired first: synthesize phase reports from the live
            # timers and close every dangling trace interval (still-pending
            # queries' latency bars are discarded, not fabricated).
            if self.recorder is not None:
                for master in masters:
                    if master.serve is not None:
                        master.serve.abandon()
                for rank in range(cfg.nprocs):
                    self.recorder.abort(rank, elapsed)
            reports = {
                rank: report if report is not None else by_rank[rank].timer.report()
                for rank, report in reports.items()
            }
        return self._finalize(
            elapsed, reports, cutoff, injector, masters, by_rank, views
        )

    def _finalize(self, elapsed, reports, cutoff, injector, masters, by_rank, views):
        """Check the output files and collect every statistic of the run."""
        cfg = self.config
        states = [m.serve.state for m in masters] if cfg.arrival is not None else []

        # Each output file must tile [base, base + expected) in one gapless
        # extent: base is the resumed prefix (plain runs only), expected
        # the bytes of the queries its master completed locally — in serve
        # mode only admitted queries produce bytes, and a donated slot is a
        # zero-size placeholder whose bytes the thief's file carries.
        total = expected_total = nextents = 0
        dense = True
        for shard, master, results in zip(self.shards, masters, views):
            if states:
                queries = master.serve.state.held()
            else:
                queries = range(cfg.resume_from_query, master.cfg.nqueries)
            expected = sum(results.query_total_bytes(q) for q in queries)
            base = master.resume_base
            store = shard.fh.file.bytestore
            extents = store.extents()
            total += store.total_bytes()
            expected_total += expected
            nextents += len(extents)
            dense = dense and extents == (
                [(base, base + expected)] if expected else []
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
        fault_stats: dict = {}
        fault_events: list = []
        if injector is not None or any(
            r.fault_counters for r in by_rank.values()
        ):
            for r in by_rank.values():
                for name, value in r.fault_counters.items():
                    fault_stats[name] = fault_stats.get(name, 0.0) + float(value)
            for name, value in self.fs.fault_stats.items():
                if value:
                    fault_stats[name] = fault_stats.get(name, 0.0) + float(value)
            if self.world.network.faults is not None:
                link = self.world.network.faults.stats
                fault_stats["messages_dropped"] = float(link.drops)
                fault_stats["retransmits"] = float(link.retransmits)
                fault_stats["link_failures"] = float(link.link_failures)
            if injector is not None:
                fault_stats.update(injector.stats())
                fault_events = list(injector.events)

        serve = serve_stats(states) if states else {}
        metrics_registry = self.world.env.metrics
        if metrics_registry.enabled:
            metrics_registry.set_gauge("run.elapsed_seconds", elapsed)
            if serve:
                # Run-wide admission counters (summed over the shards).
                for name in ("offered", "admitted", "rejected", "shed", "completed"):
                    metrics_registry.inc(f"serve.{name}", serve[name])
            metrics_registry.set_gauge("run.nprocs", float(cfg.nprocs))
            if self.nshards > 1:
                metrics_registry.set_gauge("shard.masters", float(self.nshards))
        metrics = metrics_registry.snapshot()
        checker = self.world.env.check
        if checker.enabled:
            # End-of-run audit: strict conservation equalities only hold on
            # fault-free runs (a crashed worker legitimately abandons
            # in-flight sends).
            checker.finalize(
                now=elapsed,
                recorder=self.recorder,
                # A cutoff legitimately strands in-flight messages, so the
                # strict equalities only apply to runs that finished.
                fault_free=cfg.fault_plan.empty and not cutoff,
                open_queries=(
                    {i: s.pending for i, s in enumerate(states)} if states else None
                ),
            )
        if self.nshards == 1:
            return RunResult(
                strategy=cfg.strategy,
                query_sync=cfg.query_sync,
                nprocs=cfg.nprocs,
                compute_speed=cfg.compute.speed,
                elapsed=elapsed,
                master=reports[0],
                workers=[reports[r] for r in range(1, cfg.nprocs)],
                file_stats=file_stats,
                server_stats=server_stats,
                fault_stats=fault_stats,
                fault_events=fault_events,
                metrics=metrics,
                serve_stats=serve,
            )
        shard_reports = [[reports[r] for r in shard.ranks] for shard in self.shards]
        return ShardedRunResult(
            strategy=cfg.strategy,
            query_sync=cfg.query_sync,
            nprocs=cfg.nprocs,
            nshards=self.nshards,
            compute_speed=cfg.compute.speed,
            elapsed=elapsed,
            file_stats=file_stats,
            server_stats=server_stats,
            serve_stats=serve,
            shard_serve_stats=[serve_stats([s]) for s in states],
            metrics=metrics,
            shard_elapsed=[max(r.total for r in rs) for rs in shard_reports],
            shard_reports=shard_reports,
        )


def run_simulation(config: SimulationConfig):
    """Convenience one-shot: build and run (a :class:`RunResult`, or a
    :class:`ShardedRunResult` for a multi-shard configuration)."""
    return S3aSim(config).run()
