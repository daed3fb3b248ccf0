"""Simulation configuration: everything S3aSim lets the user customize.

Per the paper, S3aSim exposes "the total number of fragments of the
database, total number of input queries, a box histogram of input query
sizes, a box histogram of database sequence sizes, a min/max count of
results per input query, a minimum result size per query, variable
simulated compute speeds, MPI-IO hints, parallel I/O, write all data at the
end ..., and many others."  :class:`SimulationConfig` is that parameter
surface.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from ..faults.plan import FaultPlan, FaultToleranceConfig
from ..mpi.network import NetworkConfig
from ..pvfs.filesystem import PVFSConfig
from ..serve.arrivals import ArrivalConfig
from ..shard.state import ShardConfig
from ..sim.rng import RandomStreams
from ..workload.compute import ComputeModel, MergeModel
from ..workload.database import FragmentedDatabase
from ..workload.histogram import BoxHistogram
from ..workload.nt import NT_HISTOGRAM, NT_QUERY_HISTOGRAM
from ..workload.queries import LAZY_THRESHOLD, LazyQuerySet, QuerySet
from ..workload.results import ResultGenerator, ResultModel
from .strategies import ADAPTIVE_FALLBACK, IOStrategy, get_strategy, is_adaptive

GIB = 1024**3

#: Seed whose sampled 20-query workload best matches the paper's reported
#: constants (~86 KiB of queries, ~208 MB of output).
PAPER_SEED = 2006


@dataclass(frozen=True)
class SimulationConfig:
    """One S3aSim run's parameters.

    The defaults reproduce the paper's test setup (Section 3.3): 20 queries,
    128 fragments, 1000–2000 results per query, NT-shaped histograms,
    results written after every query, sync after every write, Feynman-like
    network and 16-server PVFS2.
    """

    nprocs: int = 16
    strategy: str = "ww-list"
    query_sync: bool = False

    nqueries: int = 20
    nfragments: int = 128
    seed: int = PAPER_SEED
    query_histogram: BoxHistogram = field(default_factory=lambda: NT_QUERY_HISTOGRAM)
    db_histogram: BoxHistogram = field(default_factory=lambda: NT_HISTOGRAM)
    db_total_bytes: int = 4 * GIB
    result_model: ResultModel = field(default_factory=ResultModel)

    compute: ComputeModel = field(default_factory=ComputeModel)
    merge: MergeModel = field(default_factory=MergeModel)

    #: Write results after every ``write_every`` queries (1 = the paper's
    #: experiments; ``nqueries`` = mpiBLAST-1.2 / pioBLAST write-at-end).
    write_every: int = 1
    sync_after_write: bool = True

    #: Resume a failed run at this query (must sit on a write-group
    #: boundary).  Queries before it are treated as already on disk from
    #: the previous run — the paper's stated reason for writing results
    #: frequently: "More frequently writing out the results also allows
    #: users to resume a failed application run at the appropriate input
    #: query."
    resume_from_query: int = 0

    network: NetworkConfig = field(default_factory=NetworkConfig.myrinet2000)
    pvfs: PVFSConfig = field(default_factory=PVFSConfig.feynman)

    #: Generate and verify actual file bytes (slower; tests use it).
    store_data: bool = False
    output_path: str = "/s3asim/results.out"

    #: Collect per-layer metrics (``repro.obs``) during the run.  Off by
    #: default: the disabled registry is a shared no-op and keeps runs
    #: bit-identical to an uninstrumented build; enabling it records the
    #: same events without perturbing their order.
    collect_metrics: bool = False

    #: Run the cross-layer invariant checker (``repro.check``) during the
    #: run.  Off by default: the null checker is a shared no-op and keeps
    #: runs bit-identical; enabling it audits conservation laws in zero
    #: virtual time and raises ``InvariantViolation`` on the first breach.
    check: bool = False

    #: Open-loop service mode: queries stream in from a seeded arrival
    #: process instead of being pre-loaded (``repro.serve``).  ``None``
    #: (the default) is the paper's closed batch, bit-identical to the
    #: seed; when set, ``nqueries`` bounds the number of *offered*
    #: arrivals and the admitted count is decided at run time.
    arrival: Optional[ArrivalConfig] = None

    #: Multi-master sharding (``repro.shard``): partition the ranks into
    #: ``shard.nshards`` master+worker pools that share the network and
    #: PVFS volume.  In serve mode, queries are placed at admission and
    #: masters may steal work; a closed batch (hybrid query/database
    #: segmentation) gives each pool a contiguous query block.  ``None``
    #: (the default) is the single-master runner, bit-identical to the
    #: seed.
    shard: Optional[ShardConfig] = None

    #: Read the database fragment from the shared volume before the first
    #: search against it on each worker (the real tools fault the fragment
    #: in from storage; the seed charged no read traffic for it).  Off by
    #: default — the seed's timing is bit-identical.
    preload_fragments: bool = False

    #: Query segmentation, the baseline of the paper's introduction: a
    #: worker's one assignment is every queued fragment of the head query,
    #: and workers always read fragments from the shared database file.
    #: Off by default (database segmentation, one fragment per task).
    query_segmentation: bool = False
    #: Bytes of database fragments a worker keeps in memory between
    #: searches; a fragment that does not fit is read again before every
    #: search against it.  ``None`` keeps every fragment read.
    worker_memory_B: Optional[int] = None

    #: On a resumed run, read back the previously-written prefix
    #: ``[0, resume_base)`` at startup before dispatching new work — the
    #: checkpoint-restart verification pass real resumable tools perform.
    #: Requires ``resume_from_query > 0``.
    verify_resume: bool = False

    #: The run's failure schedule.  The default (empty) plan injects
    #: nothing and keeps the simulation bit-identical to a fault-free
    #: build — the tolerance machinery only activates when needed.
    fault_plan: FaultPlan = field(default_factory=FaultPlan.none)
    #: Recovery-protocol knobs; ``None`` means "enable automatically with
    #: defaults iff the plan contains worker crashes".
    fault_tolerance: Optional[FaultToleranceConfig] = None

    def __post_init__(self) -> None:
        if self.nprocs < 2:
            raise ValueError("need at least 2 processes (1 master + 1 worker)")
        if self.nqueries <= 0:
            raise ValueError("nqueries must be positive")
        if self.nfragments <= 0:
            raise ValueError("nfragments must be positive")
        if not 1 <= self.write_every:
            raise ValueError("write_every must be >= 1")
        if not 0 <= self.resume_from_query < self.nqueries:
            raise ValueError("resume_from_query must be in [0, nqueries)")
        if self.resume_from_query % self.write_every != 0:
            raise ValueError(
                "resume_from_query must sit on a write-group boundary "
                f"(multiple of write_every={self.write_every})"
            )
        if is_adaptive(self.strategy):
            if self.query_sync:
                raise ValueError(
                    "hybrid-auto does not compose with query_sync: the "
                    "sync barrier protocol differs between the MW and WW "
                    "strategies a run may mix per query"
                )
        else:
            get_strategy(self.strategy)  # validates the name
        if self.worker_memory_B is not None and self.worker_memory_B <= 0:
            raise ValueError("worker_memory_B must be positive")
        if self.verify_resume and self.resume_from_query == 0:
            raise ValueError(
                "verify_resume needs a resumed run (resume_from_query > 0)"
            )
        if self.arrival is not None:
            if self.write_every != 1:
                raise ValueError(
                    "serve mode requires write_every=1 (each admitted "
                    "query is its own write group)"
                )
            if self.resume_from_query != 0:
                raise ValueError("serve mode cannot resume a partial run")
            if not self.fault_plan.empty or self.fault_tolerance is not None:
                raise ValueError(
                    "serve mode does not compose with fault injection yet"
                )
        if self.shard is not None and self.shard.nshards > 1:
            nshards = self.shard.nshards
            if self.arrival is None:
                if self.shard.placement != "range" or self.shard.steal:
                    raise ValueError(
                        "a multi-shard closed batch splits the queries into "
                        "contiguous blocks: it needs placement='range' and "
                        "steal=False (hash placement and work stealing "
                        "require serve mode: set arrival)"
                    )
                if self.nqueries < nshards:
                    raise ValueError(
                        f"{nshards} shards need at least {nshards} queries "
                        "(one query block each)"
                    )
            if self.nprocs < 2 * nshards:
                raise ValueError(
                    f"{nshards} shards need at least {2 * nshards} "
                    "processes (1 master + >= 1 worker each)"
                )
            if self.resume_from_query != 0:
                raise ValueError("multi-shard runs cannot resume a partial run")
            if not self.fault_plan.empty:
                raise ValueError(
                    "multi-shard runs do not compose with fault injection yet"
                )
        for crash in self.fault_plan.worker_crashes:
            if not 1 <= crash.rank < self.nprocs:
                raise ValueError(
                    f"crash rank {crash.rank} outside worker range "
                    f"[1, {self.nprocs})"
                )
        for spec in self.fault_plan.server_outages + self.fault_plan.server_slowdowns:
            if not 0 <= spec.server_id < self.pvfs.nservers:
                raise ValueError(
                    f"fault server_id {spec.server_id} outside "
                    f"[0, {self.pvfs.nservers})"
                )
        if self.fault_plan.server_kills:
            for kill in self.fault_plan.server_kills:
                if not 0 <= kill.server_id < self.pvfs.nservers:
                    raise ValueError(
                        f"kill server_id {kill.server_id} outside "
                        f"[0, {self.pvfs.nservers})"
                    )
            if self.pvfs.replicas < 2:
                raise ValueError(
                    "a ServerKill is permanent data loss on a replicas=1 "
                    "volume; set pvfs.replicas >= 2 to make the plan "
                    "survivable"
                )
            # No replica chain may lose every member: chain of primary p is
            # {(p + r) % nservers, r < replicas}.
            killed = {k.server_id for k in self.fault_plan.server_kills}
            n = self.pvfs.nservers
            for primary in range(n):
                chain = {(primary + r) % n for r in range(self.pvfs.replicas)}
                if chain <= killed:
                    raise ValueError(
                        f"fault plan kills every replica of chain "
                        f"{sorted(chain)} (primary {primary}) — the data "
                        "would be unrecoverable"
                    )

    # -- derived objects ------------------------------------------------------
    @property
    def nworkers(self) -> int:
        return self.nprocs - 1

    @property
    def ntasks(self) -> int:
        return self.nqueries * self.nfragments

    @property
    def ngroups(self) -> int:
        """Number of write groups."""
        return -(-self.nqueries // self.write_every)

    @property
    def resume_group(self) -> int:
        """First write group this run actually executes."""
        return self.resume_from_query // self.write_every

    def group_of(self, query_id: int) -> int:
        return query_id // self.write_every

    def queries_in_group(self, group: int) -> range:
        lo = group * self.write_every
        hi = min(lo + self.write_every, self.nqueries)
        return range(lo, hi)

    @property
    def adaptive(self) -> bool:
        """Whether per-query strategy selection (``repro.adapt``) is on."""
        return is_adaptive(self.strategy)

    def io_strategy(self) -> IOStrategy:
        """The run-level strategy descriptor: the one source of protocol
        facts that cannot vary per query (assignment gating, posted offset
        receives, the collective write, termination).

        Each query is still written under its own strategy, stamped at its
        first assignment: this descriptor in a static run, the selector's
        choice under hybrid-auto (where this is the worker-writing list-I/O
        shape, :data:`~repro.core.strategies.ADAPTIVE_FALLBACK`).
        """
        if self.adaptive:
            return ADAPTIVE_FALLBACK
        return get_strategy(self.strategy)

    def fault_tolerance_active(self) -> bool:
        """Whether heartbeats/reassignment run in this configuration.

        Active when explicitly configured or when the plan contains worker
        crashes.  Server/link faults alone don't need it (they are handled
        transparently below the application protocol), and keeping it off
        preserves bit-identical no-fault timing.
        """
        return self.fault_tolerance is not None or self.fault_plan.needs_tolerance

    def effective_fault_tolerance(self) -> FaultToleranceConfig:
        return (
            self.fault_tolerance
            if self.fault_tolerance is not None
            else FaultToleranceConfig()
        )

    def streams(self) -> RandomStreams:
        return RandomStreams(self.seed)

    def build_workload(self) -> "Workload":
        streams = self.streams()
        if self.arrival is not None and self.nqueries > LAZY_THRESHOLD:
            queries = LazyQuerySet(self.query_histogram, self.nqueries, streams)
        else:
            queries = QuerySet.generate(self.query_histogram, self.nqueries, streams)
        database = FragmentedDatabase(
            self.db_histogram, self.nfragments, self.db_total_bytes, streams
        )
        generator = ResultGenerator(queries, database, self.result_model, streams)
        return Workload(queries=queries, database=database, results=generator)

    def effective_pvfs(self) -> PVFSConfig:
        """PVFS config with the run's store_data flag applied."""
        return replace(self.pvfs, store_data=self.store_data)

    def with_(self, **kwargs) -> "SimulationConfig":
        """A copy with the given fields replaced."""
        return replace(self, **kwargs)


@dataclass(frozen=True)
class Workload:
    """The generated inputs of one run (all deterministic in the seed)."""

    queries: "QuerySet"  # or LazyQuerySet (interface-compatible) in serve mode
    database: FragmentedDatabase
    results: ResultGenerator
