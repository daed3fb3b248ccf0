"""Named scenarios: the real tools each strategy configuration mirrors.

The paper anchors every strategy in a shipping sequence-search tool:

* **mpiBLAST 1.2** — master-writing, all results held until the end of the
  run ("the master wrote all its results at the end of the application
  run.  This limited the size of input queries and the target database").
* **mpiBLAST 1.4** — master-writing, results written immediately after
  each query ("the current design path ... has headed towards writing the
  results out immediately after a query is processed").
* **pioBLAST** — collective worker-writing ("The WW-Coll strategy,
  proposed by pioBLAST, uses MPI-IO collective writes").
* **proposed** — the paper's individual worker-writing list-I/O strategy.
* **query segmentation** — the introduction's baseline that database
  segmentation replaces: whole queries per worker, a replicated database.

Each scenario is a function from a base configuration to a concrete
:class:`~repro.core.config.SimulationConfig`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, Optional

from .config import SimulationConfig


def mpiblast_12(base: Optional[SimulationConfig] = None) -> SimulationConfig:
    """mpiBLAST 1.2: master writes everything at the end of the run."""
    base = base if base is not None else SimulationConfig()
    return base.with_(strategy="mw", write_every=base.nqueries)


def mpiblast_14(base: Optional[SimulationConfig] = None) -> SimulationConfig:
    """mpiBLAST 1.4: master writes after every query (resumable)."""
    base = base if base is not None else SimulationConfig()
    return base.with_(strategy="mw", write_every=1)


def pioblast(base: Optional[SimulationConfig] = None) -> SimulationConfig:
    """pioBLAST: collective worker writes, all results at the end."""
    base = base if base is not None else SimulationConfig()
    return base.with_(strategy="ww-coll", write_every=base.nqueries)


def proposed_ww_list(base: Optional[SimulationConfig] = None) -> SimulationConfig:
    """The paper's proposal: individual worker list-I/O per query."""
    base = base if base is not None else SimulationConfig()
    return base.with_(strategy="ww-list", write_every=1)


def proposed_ww_posix(base: Optional[SimulationConfig] = None) -> SimulationConfig:
    """The proposal's unoptimized variant (per-region POSIX writes)."""
    base = base if base is not None else SimulationConfig()
    return base.with_(strategy="ww-posix", write_every=1)


def preload(base: Optional[SimulationConfig] = None) -> SimulationConfig:
    """Read-dominated startup: every worker faults its fragments in from
    the shared database file before the first search, with server
    read-ahead turned on (sequential fragment scans are the best case for
    prefetch) and the adaptive per-query strategy handling the writes."""
    base = base if base is not None else SimulationConfig()
    return base.with_(
        strategy="hybrid-auto",
        query_sync=False,
        write_every=1,
        preload_fragments=True,
        pvfs=replace(base.pvfs, readahead_B=1024 * 1024),
    )


def query_segmentation(base: Optional[SimulationConfig] = None) -> SimulationConfig:
    """The introduction's baseline: each worker searches whole queries
    against the whole database, reading fragments from the shared volume
    and keeping what fits in 384 MiB (Feynman nodes had 1 GB RDRAM shared
    by two ranks; the rest is left to the application)."""
    base = base if base is not None else SimulationConfig()
    return base.with_(query_segmentation=True, worker_memory_B=384 * 1024 * 1024)


def checkpoint_restart(base: Optional[SimulationConfig] = None) -> SimulationConfig:
    """Restart after a mid-run server loss: the first half of the queries
    is assumed durable from the previous incarnation, the master re-reads
    and verifies that prefix before dispatching the rest, and a
    :class:`~repro.faults.plan.ServerKill` fires mid-run against a
    2-replica volume so the re-read survives the outage."""
    from ..faults.plan import FaultPlan, ServerKill

    base = base if base is not None else SimulationConfig()
    if base.nqueries < 2:
        raise ValueError("checkpoint-restart needs at least 2 queries")
    return base.with_(
        strategy="ww-list",
        write_every=1,
        resume_from_query=base.nqueries // 2,
        verify_resume=True,
        pvfs=replace(base.pvfs, replicas=2),
        fault_plan=FaultPlan(server_kills=(ServerKill(0, at_time=5.0),)),
    )


SCENARIOS: Dict[str, Callable[[Optional[SimulationConfig]], SimulationConfig]] = {
    "mpiblast-1.2": mpiblast_12,
    "mpiblast-1.4": mpiblast_14,
    "pioblast": pioblast,
    "proposed": proposed_ww_list,
    "proposed-posix": proposed_ww_posix,
    "preload": preload,
    "query-segmentation": query_segmentation,
    "checkpoint-restart": checkpoint_restart,
}


def get_scenario(
    name: str, base: Optional[SimulationConfig] = None
) -> SimulationConfig:
    """Build the configuration for a named historical scenario."""
    try:
        factory = SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}"
        ) from None
    return factory(base)
