"""S3aSim application runner: wire everything together and run one job.

Builds the simulated cluster (MPI world + PVFS2 volume sharing the same
NICs), generates the workload, spawns the master (rank 0) and the workers
(ranks 1..n-1), runs to completion, and validates the output file against
the deterministic expectation.
"""

from __future__ import annotations

from typing import Optional

from ..adapt.selector import StrategySelector
from ..check.invariants import InvariantChecker
from ..faults.injector import FaultInjector
from ..mpi.world import MpiWorld
from ..mpiio.file import MPIIOFile
from ..obs.metrics import MetricsRegistry
from ..pvfs.filesystem import FileSystem, PVFSFile
from ..serve.arrivals import arrival_process
from .config import SimulationConfig, Workload
from .master import Master
from .report import FileStats, RunResult
from .worker import Worker


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
        # The output file is created up-front (rank 0 would MPI_File_open
        # with MODE_CREATE; the metadata cost is negligible next to the
        # run and keeping it out of the rank processes simplifies handle
        # sharing).
        file = PVFSFile(
            config.output_path, self.fs.layout, config.effective_pvfs().store_data
        )
        self.fs.files[config.output_path] = file
        strategy = config.io_strategy()
        self.fh = MPIIOFile(
            self.fs, file, strategy.hints(sync_after_write=config.sync_after_write)
        )
        # Shared database file for fragment preloads: densely-packed
        # fragments, read-only during the run (store_data off — only the
        # I/O timing matters, the sequence bytes carry no information).
        self.db_fh: Optional[MPIIOFile] = None
        if config.preload_fragments:
            db_file = PVFSFile("/s3asim/db", self.fs.layout, False)
            self.fs.files["/s3asim/db"] = db_file
            self.db_fh = MPIIOFile(
                self.fs, db_file, strategy.hints(sync_after_write=False)
            )
        # Worker-only communicator (rank i of wcomm == world rank i+1): the
        # collective writes and query-sync barriers happen here.
        self.wcomm = self.world.comm.sub(list(range(1, config.nprocs)))

    def run(self, until: Optional[float] = None) -> RunResult:
        """Execute the simulation and return the collected result.

        ``until`` cuts the run off at that simulated time (serve-mode
        horizon experiments); phase reports are then synthesized from the
        live timers and still-open trace intervals are cleaned up, so the
        partial result is still well-formed.
        """
        cfg = self.config

        resume_block_sizes = None
        if cfg.resume_from_query:
            resume_block_sizes = [
                self.workload.results.query_total_bytes(q)
                for q in range(cfg.resume_from_query)
            ]
        selector = None
        if cfg.adaptive:
            selector = StrategySelector(
                self.workload.results, self.fs, nworkers=cfg.nworkers
            )
        master = Master(
            self.world.comm.view(0), cfg, self.fh,
            recorder=self.recorder,
            resume_block_sizes=resume_block_sizes,
            selector=selector,
        )
        self.world.spawn(0, lambda _view, m=master: m.run())
        workers = []
        injector = None
        if not cfg.fault_plan.empty:
            injector = FaultInjector(
                self.world.env,
                cfg.fault_plan,
                cfg.effective_fault_tolerance(),
                network=self.world.network,
                fs=self.fs,
                streams=cfg.streams(),
                recorder=self.recorder,
            )
        for rank in range(1, cfg.nprocs):
            worker = Worker(
                self.world.comm.view(rank),
                self.wcomm.view(rank - 1),
                cfg,
                self.workload,
                self.fh,
                recorder=self.recorder,
                db_fh=self.db_fh,
            )
            workers.append(worker)
            process = self.world.spawn(rank, lambda _view, w=worker: w.run())
            if injector is not None:
                injector.register_worker(rank, worker, process)
        if injector is not None:
            injector.start()

        if cfg.arrival is not None:
            self.world.env.process(
                arrival_process(
                    self.world.env,
                    master,
                    cfg.arrival,
                    cfg.streams(),
                    cfg.nqueries,
                ),
                name="arrivals",
            )

        reports = self.world.run(until=until)
        elapsed = self.world.env.now
        cutoff = any(report is None for report in reports.values())
        if cutoff:
            # ``until`` fired first: synthesize phase reports from the live
            # timers and close every dangling trace interval (still-pending
            # queries' latency bars are discarded, not fabricated).
            if self.recorder is not None:
                if master.serve is not None:
                    for q in list(master.serve.arrival_t):
                        self.recorder.discard(0, state=f"serve_q{q}")
                for rank in range(cfg.nprocs):
                    self.recorder.abort(rank, elapsed)
            reports = {
                0: reports[0] if reports[0] is not None else master.timer.report()
            } | {
                r: (
                    reports[r]
                    if reports[r] is not None
                    else workers[r - 1].timer.report()
                )
                for r in range(1, cfg.nprocs)
            }

        bytestore = self.fh.file.bytestore
        resume_base = sum(
            self.workload.results.query_total_bytes(q)
            for q in range(cfg.resume_from_query)
        )
        if master.serve is not None:
            # Serve mode: only the queries actually admitted produce bytes.
            expected = sum(
                self.workload.results.query_total_bytes(q)
                for q in range(master.serve.admitted)
            )
        else:
            expected = self.workload.results.run_total_bytes() - resume_base
        # A fresh run must tile [0, expected); a resumed run tiles
        # [resume_base, resume_base + expected) — one gapless extent either
        # way.
        dense = bytestore.extents() == (
            [(resume_base, resume_base + expected)] if expected else []
        )
        file_stats = FileStats(
            total_bytes=bytestore.total_bytes(),
            expected_bytes=expected,
            nextents=len(bytestore.extents()),
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
        if injector is not None or master.fault_counters or any(
            w.fault_counters for w in workers
        ):
            for name, value in master.fault_counters.items():
                fault_stats[name] = fault_stats.get(name, 0.0) + float(value)
            for worker in workers:
                for name, value in worker.fault_counters.items():
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
        serve_stats: dict = {}
        if master.serve is not None:
            serve_stats = master.serve.stats()
        metrics_registry = self.world.env.metrics
        if metrics_registry.enabled:
            metrics_registry.set_gauge("run.elapsed_seconds", elapsed)
            if master.serve is not None:
                s = master.serve
                metrics_registry.inc("serve.offered", float(s.offered))
                metrics_registry.inc("serve.admitted", float(s.admitted))
                metrics_registry.inc("serve.rejected", float(s.rejected))
                metrics_registry.inc("serve.shed", float(s.shed))
                metrics_registry.inc("serve.completed", float(s.completed))
            metrics_registry.set_gauge("run.nprocs", float(cfg.nprocs))
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
                    master.serve.admitted - master.serve.completed
                    if master.serve is not None
                    else None
                ),
            )
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
            serve_stats=serve_stats,
        )


def run_simulation(config: SimulationConfig):
    """Convenience one-shot: build and run.

    Dispatches on ``config.shard``: a multi-master configuration runs
    through :func:`repro.shard.group.run_sharded` and returns a
    :class:`~repro.shard.group.ShardedRunResult`; everything else takes
    the single-master path and returns a plain :class:`RunResult`.
    """
    if config.shard is not None and config.shard.nshards > 1:
        from ..shard.group import run_sharded

        return run_sharded(config)
    return S3aSim(config).run()
