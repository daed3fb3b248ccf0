"""S3aSim core: the simulator of parallel sequence-search I/O strategies."""

from .app import S3aSim, run_simulation
from .validate import (
    build_reference_bytestore,
    reference_layout,
    verify_against_reference,
)
from .config import PAPER_SEED, SimulationConfig, Workload
from .master import Master
from .offsets import OffsetLedger, ScoredBatchMeta, merge_query, validate_assignment
from .phases import Phase, PhaseReport, PhaseTimer
from .protocol import (
    MASTER_RANK,
    Heartbeat,
    OffsetEntry,
    OffsetMessage,
    Rejoin,
    ScoreMessage,
    TaskAssignment,
    WriteAck,
    WrittenNotice,
)
from .report import FileStats, RunResult, ShardedRunResult
from .scenarios import SCENARIOS, get_scenario
from .strategies import (
    LABELS,
    MASTER_WRITING,
    STRATEGIES,
    WORKER_COLLECTIVE,
    WORKER_LIST,
    WORKER_POSIX,
    IOStrategy,
    get_strategy,
)
from .worker import Worker

__all__ = [
    "FileStats",
    "Heartbeat",
    "IOStrategy",
    "LABELS",
    "MASTER_RANK",
    "MASTER_WRITING",
    "Master",
    "OffsetEntry",
    "OffsetLedger",
    "OffsetMessage",
    "PAPER_SEED",
    "Phase",
    "PhaseReport",
    "PhaseTimer",
    "Rejoin",
    "RunResult",
    "SCENARIOS",
    "S3aSim",
    "STRATEGIES",
    "ScoreMessage",
    "ScoredBatchMeta",
    "ShardedRunResult",
    "SimulationConfig",
    "TaskAssignment",
    "WORKER_COLLECTIVE",
    "WORKER_LIST",
    "WORKER_POSIX",
    "Worker",
    "WriteAck",
    "Workload",
    "WrittenNotice",
    "build_reference_bytestore",
    "get_scenario",
    "get_strategy",
    "merge_query",
    "reference_layout",
    "run_simulation",
    "validate_assignment",
    "verify_against_reference",
]
