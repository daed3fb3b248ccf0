"""The four I/O strategies of the paper (Section 2).

Each strategy is a small descriptor consumed by the master/worker
algorithms; the behavioural differences live in three axes:

=============  ==============  ===========================  =================
strategy       who writes      what workers ship to master  write method
=============  ==============  ===========================  =================
MW             master          scores + sizes + payloads    contiguous
WW-POSIX       each worker     scores + sizes               per-region writes
WW-List        each worker     scores + sizes               list I/O
WW-Coll        all workers     scores + sizes               two-phase
=============  ==============  ===========================  =================

WW-Coll additionally *gates task assignment*: the master withholds tasks of
the next write group until the current group's offsets are out, because
"the WW-Coll strategy cannot allow worker processes to begin upcoming
queries until after the I/O operation" — every worker must enter the
collective.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..mpiio.hints import IND_LIST, IND_POSIX, MPIIOHints


@dataclass(frozen=True)
class IOStrategy:
    """Descriptor of one result-writing strategy."""

    name: str
    master_writes: bool
    collective: bool
    ind_method: str  # meaningful only for individual worker-writing

    @property
    def parallel_io(self) -> bool:
        """Workers write (the paper's "Use Parallel I/O" flag)."""
        return not self.master_writes

    @property
    def workers_send_payload(self) -> bool:
        """Whether result payloads travel to the master (only MW)."""
        return self.master_writes

    @property
    def gates_assignment(self) -> bool:
        """Whether the master defers next-group tasks (only WW-Coll)."""
        return self.collective

    def hints(self, sync_after_write: bool = True) -> MPIIOHints:
        """MPI-IO hints implied by the strategy."""
        return MPIIOHints(
            ind_wr_method=self.ind_method,
            sync_after_write=sync_after_write,
        )

    def __str__(self) -> str:
        return self.name


MASTER_WRITING = IOStrategy(
    name="mw", master_writes=True, collective=False, ind_method=IND_LIST
)
WORKER_POSIX = IOStrategy(
    name="ww-posix", master_writes=False, collective=False, ind_method=IND_POSIX
)
WORKER_LIST = IOStrategy(
    name="ww-list", master_writes=False, collective=False, ind_method=IND_LIST
)
WORKER_COLLECTIVE = IOStrategy(
    name="ww-coll", master_writes=False, collective=True, ind_method=IND_LIST
)

STRATEGIES: Dict[str, IOStrategy] = {
    s.name: s
    for s in (MASTER_WRITING, WORKER_POSIX, WORKER_LIST, WORKER_COLLECTIVE)
}

#: The adaptive pseudo-strategy (``repro.adapt``): not a static descriptor
#: and deliberately *not* in :data:`STRATEGIES` — per-query selection picks
#: among real strategies at run time, and code that enumerates the static
#: strategy space (validation, metamorphic harness) must not see it.
HYBRID_AUTO = "hybrid-auto"

#: Hybrid-auto's run-level protocol shape, and nothing more: every query,
#: in every run, is written under its own per-query strategy.  The run-level
#: descriptor only decides what cannot vary per query (assignment gating,
#: posted offset receives, the collective write, termination).  Worker-
#: writing list I/O keeps those valid whatever mix the selector picks;
#: WW-Coll is excluded from the candidates because its gating is a
#: whole-run property.
ADAPTIVE_FALLBACK = WORKER_LIST


def is_adaptive(name: str) -> bool:
    """Whether ``name`` selects the per-query adaptive mode."""
    return name == HYBRID_AUTO


#: Display labels matching the paper's figures.
LABELS: Dict[str, str] = {
    "mw": "Master writing",
    "ww-posix": "Worker - POSIX I/O",
    "ww-list": "Worker - List I/O",
    "ww-coll": "Worker - Collective I/O",
    HYBRID_AUTO: "Hybrid (per-query adaptive)",
}


def get_strategy(name: str) -> IOStrategy:
    """Look up a strategy by its short name ('mw', 'ww-posix', ...)."""
    try:
        return STRATEGIES[name]
    except KeyError:
        raise ValueError(
            f"unknown strategy {name!r}; choose from {sorted(STRATEGIES)}"
        ) from None
