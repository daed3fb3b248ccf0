"""The per-query strategy selector behind ``--strategy hybrid-auto``.

Selection happens at the master, once per query, at the moment the query's
first task is assigned (the strategy must be stamped into the assignment:
a worker processes an MW task and a WW task differently — ship the payload
vs. store the batch for a later offset list).  The decision is a pure
function of deterministic simulation state, so hybrid-auto runs are as
bit-reproducible as the static strategies.

The default :class:`ScoredPolicy` encodes the paper's findings:

* **MW** wins small queries — one contiguous master write, no offset
  round-trip — but funnels every payload byte through rank 0's NIC, so it
  is penalized as the estimated result volume, the server queue depth, and
  the fault-recovery backlog grow (a crashed worker's MW payloads must be
  reshipped through the same funnel).
* **WW-POSIX** issues one file-system request per result region; tolerable
  only for queries with very few results and lightly-loaded servers.
* **WW-List** is the paper's proposed robust default.

WW-Coll is *not* a candidate: its assignment gating ("workers cannot begin
upcoming queries until after the I/O") is a whole-run protocol property
that cannot be switched per query.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

#: Static strategies hybrid-auto picks among, in tie-break order.
CANDIDATES: Tuple[str, ...] = ("mw", "ww-posix", "ww-list")


@dataclass(frozen=True)
class QuerySignals:
    """The live observations one choice is scored on."""

    query_id: int
    #: Estimated output volume of the query: the deterministic per-fragment
    #: hit counts times the policy's calibrated mean result size.
    result_bytes: int
    #: Total result (region) count of the query across all fragments.
    result_count: int
    #: Mean disk-queue depth across the PVFS servers at choice time.
    queue_depth: float
    #: Dead workers plus unacknowledged reissues at choice time.
    outstanding_faults: int
    nworkers: int


class StrategyPolicy:
    """Pluggable scoring interface.

    ``score`` returns a comparable figure of merit for executing the query
    under ``name``; the selector picks the highest, breaking ties toward
    the earlier entry of :data:`CANDIDATES`.  Implementations must be
    deterministic functions of their inputs.
    """

    def score(self, name: str, signals: QuerySignals) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class PolicyWeights:
    """Calibration constants of :class:`ScoredPolicy`."""

    #: Calibrated mean bytes per result used to turn hit counts into a
    #: volume estimate (the true sizes are only known after the search).
    est_result_B: int = 8 * 1024
    #: Below roughly this estimated volume, MW's single contiguous write
    #: beats the worker-writing offset round-trip.
    small_query_B: int = 256 * 1024
    #: Below roughly this many regions, POSIX's per-region requests are
    #: tolerable.
    few_regions: int = 24
    #: Score subtracted from MW per outstanding fault (crashed workers'
    #: payloads re-funnel through the master).
    fault_penalty: float = 1.0
    #: Score subtracted from MW per unit of mean server queue depth; the
    #: POSIX candidate pays double (per-region requests pile up fastest).
    queue_penalty: float = 0.05
    mw_bias: float = 0.25
    posix_bias: float = 0.1
    list_bias: float = 0.75


@dataclass(frozen=True)
class ScoredPolicy(StrategyPolicy):
    """The default linear scoring policy."""

    weights: PolicyWeights = field(default_factory=PolicyWeights)

    def score(self, name: str, signals: QuerySignals) -> float:
        w = self.weights
        if name == "mw":
            small = 1.0 - min(1.0, signals.result_bytes / w.small_query_B)
            return (
                w.mw_bias
                + small
                - w.fault_penalty * signals.outstanding_faults
                - w.queue_penalty * signals.queue_depth
            )
        if name == "ww-posix":
            few = 0.8 * (1.0 - min(1.0, signals.result_count / w.few_regions))
            return w.posix_bias + few - 2.0 * w.queue_penalty * signals.queue_depth
        if name == "ww-list":
            return w.list_bias
        return float("-inf")


class StrategySelector:
    """Chooses and remembers one static strategy per query.

    ``results`` is the run's :class:`~repro.workload.results.ResultGenerator`,
    or in a multi-shard run the shard's view of it, which maps the master's
    query slots to global queries (hit counts are a pure function of the
    seed, so the estimate is free of look-ahead bias: the master would
    know them from the score messages anyway before any I/O decision takes
    effect); ``fs`` supplies the live server queue-depth gauge.
    """

    def __init__(
        self,
        results,
        fs,
        nworkers: int,
        policy: Optional[StrategyPolicy] = None,
    ) -> None:
        self.results = results
        self.fs = fs
        self.nworkers = nworkers
        self.policy = policy if policy is not None else ScoredPolicy()
        #: query id -> chosen strategy name (the selector's own ledger).
        self.choices: Dict[int, str] = {}

    def _queue_depth(self) -> float:
        servers = self.fs.servers
        if not servers:
            return 0.0
        return sum(s.queue_depth() for s in servers) / len(servers)

    def signals_for(self, query_id: int, outstanding_faults: int = 0) -> QuerySignals:
        """Assemble the live signal vector for one query."""
        count = int(self.results.fragment_counts(query_id).sum())
        est_B = getattr(self.policy, "weights", PolicyWeights()).est_result_B
        return QuerySignals(
            query_id=query_id,
            result_bytes=count * est_B,
            result_count=count,
            queue_depth=self._queue_depth(),
            outstanding_faults=outstanding_faults,
            nworkers=self.nworkers,
        )

    def choose(self, query_id: int, outstanding_faults: int = 0) -> str:
        """The strategy for ``query_id`` (sticky: chosen exactly once)."""
        prior = self.choices.get(query_id)
        if prior is not None:
            return prior
        signals = self.signals_for(query_id, outstanding_faults)
        best = CANDIDATES[0]
        best_score = self.policy.score(best, signals)
        for name in CANDIDATES[1:]:
            score = self.policy.score(name, signals)
            if score > best_score:
                best, best_score = name, score
        self.choices[query_id] = best
        m = self.fs.env.metrics
        if m.enabled:
            m.inc("adapt.choices", 1.0, chosen=best)
        return best
