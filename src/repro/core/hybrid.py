"""Hybrid query/database segmentation — the paper's future-work item.

"There are many other input variables that can significantly affect
overall application performance such as ... hybrid query
segmentation/database segmentation strategies" (Section 5).

The hybrid splits the machine into ``npartitions`` independent
master/worker partitions.  Queries are divided across partitions (query
segmentation between partitions); within a partition the database is
fragmented as usual (database segmentation).  All partitions share the
same network and the same PVFS2 volume, each writing its own output file
— so the partitions' I/O genuinely contends, which is the interesting
part of the trade-off:

* more partitions → smaller collective/offset scopes, masters serve fewer
  workers, and per-query write serialization shrinks;
* fewer partitions → better load balance across the whole query set (a
  partition stuck with expensive queries cannot steal work from another).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..mpi.world import MpiWorld
from ..mpiio.file import MPIIOFile
from ..pvfs.filesystem import FileSystem, PVFSFile
from ..workload.queries import Query, QuerySet
from .config import SimulationConfig, Workload
from .master import Master
from .report import FileStats, RunResult
from .worker import Worker


class _QuerySlice:
    """Workload view exposing a contiguous slice of the global queries
    under local ids 0..n-1 (each partition's master/worker protocol works
    in local query ids)."""

    def __init__(self, workload: Workload, lo: int, hi: int) -> None:
        self._workload = workload
        self._lo = lo
        self._hi = hi
        self.queries = QuerySet(
            [
                Query(local, workload.queries[lo + local].nbytes)
                for local in range(hi - lo)
            ]
        )
        self.database = workload.database
        self.results = _ResultSlice(workload, lo)


class _ResultSlice:
    """Result generator view translating local query ids to global ones."""

    def __init__(self, workload: Workload, lo: int) -> None:
        self._results = workload.results
        self._lo = lo

    def batch(self, query_id: int, fragment_id: int):
        return self._results.batch(self._lo + query_id, fragment_id)

    def query_total_bytes(self, query_id: int) -> int:
        return self._results.query_total_bytes(self._lo + query_id)


@dataclass(frozen=True)
class HybridResult:
    """Outcome of a hybrid run."""

    npartitions: int
    elapsed: float
    partition_results: List[RunResult]

    @property
    def complete(self) -> bool:
        return all(r.file_stats.complete for r in self.partition_results)

    def summary_line(self) -> str:
        per = " ".join(
            f"p{i}={r.elapsed:.2f}s" for i, r in enumerate(self.partition_results)
        )
        return (
            f"hybrid k={self.npartitions} total={self.elapsed:8.2f}s  [{per}]"
        )


class HybridS3aSim:
    """Run ``npartitions`` S3aSim partitions on one simulated machine."""

    def __init__(self, config: SimulationConfig, npartitions: int) -> None:
        if npartitions <= 0:
            raise ValueError("npartitions must be positive")
        if config.nprocs < 2 * npartitions:
            raise ValueError(
                "each partition needs at least 2 processes "
                f"({config.nprocs} procs for {npartitions} partitions)"
            )
        if config.nqueries < npartitions:
            raise ValueError("need at least one query per partition")
        if config.resume_from_query:
            raise ValueError("hybrid runs do not support resuming")
        self.config = config
        self.npartitions = npartitions
        self.world = MpiWorld(nranks=config.nprocs, network=config.network)
        self.fs = FileSystem(
            self.world.env,
            config.effective_pvfs(),
            client_nic=lambda rank: self.world.network.nic(rank),
        )
        self.workload = config.build_workload()

    # -- partitioning -------------------------------------------------------
    def partition_ranks(self, index: int) -> List[int]:
        """Contiguous rank block of one partition."""
        base = self.config.nprocs // self.npartitions
        extra = self.config.nprocs % self.npartitions
        start = index * base + min(index, extra)
        size = base + (1 if index < extra else 0)
        return list(range(start, start + size))

    def partition_queries(self, index: int) -> range:
        """Contiguous query slice of one partition."""
        base = self.config.nqueries // self.npartitions
        extra = self.config.nqueries % self.npartitions
        start = index * base + min(index, extra)
        size = base + (1 if index < extra else 0)
        return range(start, start + size)

    # -- execution --------------------------------------------------------------
    def run(self) -> HybridResult:
        cfg = self.config
        partition_meta = []

        for index in range(self.npartitions):
            ranks = self.partition_ranks(index)
            queries = self.partition_queries(index)
            sub_cfg = cfg.with_(
                nprocs=len(ranks),
                nqueries=len(queries),
                output_path=f"{cfg.output_path}.part{index}",
            )
            comm = self.world.comm.sub(ranks)
            wcomm = comm.sub(list(range(1, len(ranks))))

            file = PVFSFile(
                sub_cfg.output_path, self.fs.layout, cfg.store_data
            )
            self.fs.files[sub_cfg.output_path] = file
            strategy = sub_cfg.io_strategy()
            fh = MPIIOFile(
                self.fs, file,
                strategy.hints(sync_after_write=cfg.sync_after_write),
            )
            workload_view = _QuerySlice(
                self.workload, queries.start, queries.stop
            )

            master = Master(comm.view(0), sub_cfg, fh)
            self.world.spawn(ranks[0], lambda _v, m=master: m.run())
            worker_objs = []
            for local in range(1, len(ranks)):
                worker = Worker(
                    comm.view(local), wcomm.view(local - 1), sub_cfg,
                    workload_view, fh,
                )
                worker_objs.append(worker)
                self.world.spawn(ranks[local], lambda _v, w=worker: w.run())
            partition_meta.append((sub_cfg, fh, workload_view, ranks))

        reports = self.world.run()
        elapsed = self.world.env.now

        results = []
        for index, (sub_cfg, fh, workload_view, ranks) in enumerate(
            partition_meta
        ):
            bytestore = fh.file.bytestore
            expected = sum(
                workload_view.results.query_total_bytes(q)
                for q in range(sub_cfg.nqueries)
            )
            stats = FileStats(
                total_bytes=bytestore.total_bytes(),
                expected_bytes=expected,
                nextents=len(bytestore.extents()),
                dense=bytestore.is_dense(expected),
            )
            # A partition's own span: when its slowest rank finished.
            # (The final barrier is per-partition, so ranks of a fast
            # partition really do finish early.)
            partition_elapsed = max(reports[r].total for r in ranks)
            results.append(
                RunResult(
                    strategy=sub_cfg.strategy,
                    query_sync=sub_cfg.query_sync,
                    nprocs=sub_cfg.nprocs,
                    compute_speed=sub_cfg.compute.speed,
                    elapsed=partition_elapsed,
                    master=reports[ranks[0]],
                    workers=[reports[r] for r in ranks[1:]],
                    file_stats=stats,
                )
            )
        return HybridResult(
            npartitions=self.npartitions,
            elapsed=elapsed,
            partition_results=results,
        )


def run_hybrid(config: SimulationConfig, npartitions: int) -> HybridResult:
    """Convenience one-shot hybrid run."""
    return HybridS3aSim(config, npartitions).run()
