"""Open-loop admission for one master: admit, reject, shed, complete.

:class:`Admission` takes every admission decision of a serve-mode
master, synchronously at the arrival instant.  An arrival that finds the
pending queue full is either turned away (``reject``) or, under
``shed``, takes over the slot of the youngest not-yet-started
non-priority query and reuses its id.  The workload is a pure function of
the slot's content id, so the slot's content is unchanged; only its
arrival stamp and lane move.

It edits the master's task queue only through the queue's own methods,
and it stamps the invariant checker, the metrics and the trace (one
``serve_q<q>`` bar per query, arrival to result-durable).  A master wires
it in with the queue, the environment, the recorder, its trace rank and a
wake-up callback; it never sees the master itself.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from .arrivals import ArrivalConfig
from .state import ServeState


class Admission:
    """Admission control and completion latency of one master."""

    def __init__(
        self,
        cfg: ArrivalConfig,
        queue,
        env,
        *,
        nfragments: int,
        priority_lane: bool,
        recorder,
        rank: int,
        wake: Callable[[], None],
    ) -> None:
        self.state = ServeState(cfg)
        self.queue = queue
        self.env = env
        self.nfragments = nfragments
        #: Priority arrivals jump the unassigned queue.  Off under WW-Coll,
        #: whose group gate only opens in FIFO query order: front-inserting
        #: a later query's tasks would deadlock it.
        self.priority_lane = priority_lane
        self.recorder = recorder
        self.rank = rank
        #: The master's shard index (checker ledgers, metrics labels).
        self.shard = 0
        self.wake = wake

    def _check(self, outcome: str) -> None:
        c = self.env.check
        if c.enabled:
            c.arrival(outcome, shard=self.shard)

    def _stamp(self, q: int, at: float, priority: bool, content: int) -> None:
        """Open slot ``q``: the one path of a fresh admission, a shed
        takeover and a stolen query alike."""
        s = self.state
        s.arrival_t[q] = at
        s.content[q] = content
        if priority:
            s.priority.add(q)
        if self.recorder is not None:
            self.recorder.begin(self.rank, f"serve_q{q}", at)
        self.queue.add_query(q, self.nfragments, front=priority and self.priority_lane)
        self._check("admitted")

    def movable(self, q: int) -> bool:
        """May slot ``q`` still be shed or donated?  Pending, no task
        assigned yet, and not in the priority lane."""
        s = self.state
        return q in s.arrival_t and q not in s.started and q not in s.priority

    def _shed_victim(self) -> Optional[int]:
        """Under the shed policy, the youngest movable slot."""
        if self.state.cfg.policy == "shed":
            for q in range(self.state.admitted - 1, -1, -1):
                if self.movable(q):
                    return q
        return None

    def on_arrival(self, priority: bool, content: Optional[int] = None) -> None:
        """Admission decision for one arrival.

        ``content`` is the global content id in sharded runs (placement
        assigns each arrival a shard *and* a content id); ``None`` means
        "the slot id", the single-master identity mapping.
        """
        s = self.state
        s.offered += 1
        self._check("offered")
        if s.pending < s.cfg.max_pending:
            q = s.admitted
            s.admitted += 1
            self._stamp(q, self.env.now, priority, q if content is None else content)
        elif (victim := self._shed_victim()) is not None:
            s.shed += 1
            self._check("shed")
            self.queue.drop_queries((victim,))
            if self.recorder is not None:
                self.recorder.discard(self.rank, state=f"serve_q{victim}")
            self._stamp(victim, self.env.now, priority, s.content[victim])
        else:
            s.rejected += 1
            self._check("rejected")
        self.wake()

    def arrivals_finished(self) -> None:
        """The arrival process is done; the admitted count is now final."""
        self.state.arrivals_done = True
        self.wake()

    def start(self, q: int) -> None:
        """A task of ``q`` went out: it has work in flight and can no
        longer be shed or donated."""
        self.state.started.add(q)

    def writes_issued(self, q: int, n: int) -> None:
        """Worker-writing: ``n`` of ``q``'s batches await an on-disk ack."""
        outstanding = self.state.outstanding
        outstanding[q] = outstanding.get(q, 0) + n

    def write_acked(self, q: int) -> None:
        """One batch of ``q`` is on disk; ``q`` is result-durable once
        every batch is."""
        outstanding = self.state.outstanding
        left = outstanding.get(q)
        if left is None:
            return
        if left <= 1:
            del outstanding[q]
            self.durable(q)
        else:
            outstanding[q] = left - 1

    def durable(self, q: int) -> None:
        """Arrival → result-durable: stamp the completion latency."""
        s = self.state
        now = self.env.now
        latency = now - s.arrival_t.pop(q)
        s.latency.observe(latency)
        s.completed += 1
        s.started.discard(q)
        s.priority.discard(q)
        m = self.env.metrics
        if m.enabled:
            m.observe("serve.latency_seconds", latency)
        if self.recorder is not None:
            self.recorder.end(self.rank, f"serve_q{q}", now)
        c = self.env.check
        if c.enabled:
            c.arrival_completed(shard=self.shard)
        self.wake()

    def donate(self, queries: List[int]) -> List[Tuple[int, float]]:
        """Hand movable slots to a peer master: each leaves the pending
        count at once and stays behind as a ledger placeholder.  Returns
        each query's ``(content id, arrival time)``."""
        s = self.state
        self.queue.drop_queries(set(queries))
        shipped = []
        for q in queries:
            s.donated_q.add(q)
            s.donated += 1
            shipped.append((s.content[q], s.arrival_t.pop(q)))
            if self.recorder is not None:
                self.recorder.discard(self.rank, state=f"serve_q{q}")
            self._check("donated")
        return shipped

    def accept(self, content: int, arrival_t: float) -> None:
        """A query stolen from a peer enters as a fresh local slot that
        keeps its original arrival stamp (honest end-to-end latency) and
        its content id (the workload is a function of the content)."""
        s = self.state
        q = s.admitted
        s.admitted += 1
        s.stolen += 1
        self._check("stolen")
        self._stamp(q, arrival_t, False, content)
        self.wake()

    def abandon(self) -> None:
        """A cutoff run: drop the still-pending queries' open latency bars
        (their wait is unknown, so no bar is fabricated)."""
        if self.recorder is not None:
            for q in list(self.state.arrival_t):
                self.recorder.discard(self.rank, state=f"serve_q{q}")
