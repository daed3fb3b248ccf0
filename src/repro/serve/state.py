"""Serve-mode bookkeeping and the serve statistics built from it.

:class:`ServeState` holds everything the open-loop service layer adds on
top of the batch master: admission counters, per-query arrival stamps, the
priority set, the outstanding-write map (worker-writing durability), and
the completion-latency histogram.  It is pure bookkeeping; the decisions
that edit it are :class:`~repro.serve.admission.Admission`'s.
:func:`serve_stats` turns one master's state, or a sharded run's states,
into the ``serve_stats`` dictionary of the run result.

Sharded (multi-master) runs add two transfer counters: ``donated`` counts
queries this shard handed to a thief, ``stolen`` counts queries admitted
here on behalf of another shard.  A donated slot stays allocated in the
donor's offset ledger (as a zero-size block) but leaves its pending count,
so admission capacity is freed the moment the query ships.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, Sequence, Set

from ..obs.metrics import DurationHistogram, HistogramSummary
from .arrivals import ArrivalConfig


class ServeState:
    """Mutable service-layer state of one run's master."""

    __slots__ = (
        "cfg",
        "arrival_t",
        "priority",
        "started",
        "outstanding",
        "offered",
        "admitted",
        "rejected",
        "shed",
        "completed",
        "donated",
        "stolen",
        "donated_q",
        "content",
        "arrivals_done",
        "latency",
    )

    def __init__(self, cfg: ArrivalConfig) -> None:
        self.cfg = cfg
        #: query id -> arrival time of its current owner (shed slots are
        #: re-stamped when a new arrival takes them over).
        self.arrival_t: Dict[int, float] = {}
        self.priority: Set[int] = set()
        #: Queries with at least one task already assigned (unsheddable).
        self.started: Set[int] = set()
        #: query id -> fragments issued but not yet acknowledged durable
        #: (worker-writing strategies only).
        self.outstanding: Dict[int, int] = {}
        self.offered = 0
        self.admitted = 0  # == next query id; slots, not admission events
        self.rejected = 0
        self.shed = 0
        self.completed = 0
        #: Sharded runs: queries shipped to / received from peer masters.
        self.donated = 0
        self.stolen = 0
        #: Local slots whose query was donated away (ledger placeholders).
        self.donated_q: Set[int] = set()
        #: Local slot -> global content id (sharded runs; the workload is a
        #: pure function of the content id, which survives a donation).
        self.content: Dict[int, int] = {}
        self.arrivals_done = False
        self.latency = DurationHistogram("serve.latency_seconds", ())

    @property
    def pending(self) -> int:
        """Admitted queries not yet durable (the admission-bounded count)."""
        return self.admitted - self.completed - self.donated

    def latency_summary(self) -> HistogramSummary:
        h = self.latency
        return HistogramSummary(
            count=h.count,
            total=h.total,
            min=h.min if h.count else 0.0,
            max=h.max if h.count else 0.0,
            buckets=tuple(h.buckets),
        )

    def held(self) -> Iterator[int]:
        """Admitted slots whose bytes this master writes (a donated slot
        is a zero-size placeholder; the thief's file carries its bytes)."""
        return (q for q in range(self.admitted) if q not in self.donated_q)


def serve_stats(states: Sequence[ServeState]) -> Dict[str, float]:
    """The serve statistics of one master, or the run-wide summary of a
    sharded run's masters.

    Counters are summed and latency percentiles come from the merged
    histograms.  One master reports ``donated``/``stolen`` when it moved
    work; a sharded summary always adds ``masters``, ``donated``,
    ``steals`` and the completion ``imbalance`` (max/mean of per-shard
    completions).

    With zero completions the latency fields are NaN, not 0.0 — a run
    cut off before its first durable query has *unknown* latency, and
    0.0 would be indistinguishable from a genuinely instant service.
    """
    sharded = len(states) > 1
    stats = {"masters": float(len(states))} if sharded else {}
    for name in ("offered", "admitted", "rejected", "shed", "completed", "pending"):
        stats[name] = float(sum(getattr(s, name) for s in states))
    completed = stats["completed"]
    if sharded:
        mean = completed / len(states)
        stats["donated"] = float(sum(s.donated for s in states))
        stats["steals"] = float(sum(s.stolen for s in states))
        stats["imbalance"] = max(s.completed for s in states) / mean if mean else 0.0
    summary = states[0].latency_summary()
    for s in states[1:]:
        summary = summary.merged(s.latency_summary())
    no_data = float("nan")
    stats["latency_mean_s"] = summary.mean if completed else no_data
    stats["latency_p50_s"] = summary.quantile(0.50) if completed else no_data
    stats["latency_p95_s"] = summary.quantile(0.95) if completed else no_data
    stats["latency_p99_s"] = summary.quantile(0.99) if completed else no_data
    stats["latency_max_s"] = summary.max if completed else no_data
    if not sharded and (states[0].donated or states[0].stolen):
        stats["donated"] = float(states[0].donated)
        stats["stolen"] = float(states[0].stolen)
    return stats


def format_latency(value: float) -> str:
    """CLI rendering of a latency stat: ``-`` when there is no data."""
    if isinstance(value, float) and math.isnan(value):
        return "-"
    return f"{value:.3f}"
