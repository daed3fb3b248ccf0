"""The master process — Algorithm 1 of the paper.

The master hands out (query, fragment) tasks on request (self-scheduling),
gathers sorted score lists (plus payloads under master-writing), merges
them, and — depending on the strategy — either writes completed queries
itself or answers workers with file-offset lists.

Completed write groups are dispatched strictly in query order because a
query's block base is only known once all earlier queries' sizes are in
(see :class:`~repro.core.offsets.OffsetLedger`).

Fault tolerance (active only when the run's
:class:`~repro.faults.plan.FaultPlan` contains worker crashes, or when
:class:`~repro.faults.plan.FaultToleranceConfig` is set explicitly) adds an
mpiBLAST-style recovery layer:

* a watchdog side-process receives worker heartbeats and declares a worker
  dead after ``detection_timeout_s`` of silence (or immediately on an
  explicit rejoin notice — whichever arrives first triggers recovery
  exactly once per crash);
* a dead worker's assigned-but-unscored tasks are requeued at the front of
  the task queue; its delivered-but-undispatched batches are invalidated
  (the recompute regenerates identical scores, so the eventual group merge
  is unchanged); its dispatched-but-unacknowledged offsets are moved to a
  reissue table and repaired out-of-band once a recompute arrives — the
  stored offsets are reused verbatim, never re-derived, because
  :meth:`OffsetLedger.base_for` is strictly once-per-query;
* workers acknowledge worker-writing disk writes (``WriteAck``), and the
  master refuses to terminate any worker while unacknowledged or
  reissueable bytes remain, which closes the crash-after-"no more work"
  window.

Every query is written under its own strategy, fixed at its first
assignment (:meth:`Master._query_strategy`): the run's strategy in a
static run, the selector's choice under hybrid-auto.  The run-level
descriptor (``cfg.io_strategy()``) still decides the protocol facts that
cannot vary per query: assignment gating, posted offset receives and the
collective write.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from .. import mpi
from ..mpiio.file import MPIIOFile
from ..serve.state import ServeState
from .config import SimulationConfig
from .offsets import OffsetLedger, ScoredBatchMeta, merge_query
from .phases import Phase, PhaseTimer
from .protocol import (
    ASSIGN_BYTES,
    Donate,
    DonatedQuery,
    NOTICE_BYTES,
    OffsetEntry,
    OffsetMessage,
    Release,
    ScoreMessage,
    STEAL_BYTES,
    Steal,
    TAG_ASSIGN,
    TAG_DONATE,
    TAG_HEARTBEAT,
    TAG_OFFSETS,
    TAG_REJOIN,
    TAG_REQUEST,
    TAG_SCORES,
    TAG_STEAL,
    TAG_WRITE_ACK,
    TAG_WRITTEN,
    TaskAssignment,
    WriteAck,
    WrittenNotice,
)
from .strategies import IOStrategy, get_strategy


class _Issued:
    """Offsets sent to a worker, awaiting its on-disk acknowledgement."""

    __slots__ = ("worker", "offsets", "group")

    def __init__(self, worker: int, offsets, group: int) -> None:
        self.worker = worker
        self.offsets = offsets
        self.group = group


class Master:
    """State machine of the master rank."""

    def __init__(
        self,
        comm,
        cfg: SimulationConfig,
        fh: MPIIOFile,
        recorder=None,
        resume_block_sizes: Optional[List[int]] = None,
        selector=None,
    ) -> None:
        self.comm = comm
        self.cfg = cfg
        self.fh = fh
        #: The run-level descriptor: gating, posted receives, collectives.
        self.strategy = cfg.io_strategy()
        #: Picks each query's strategy under hybrid-auto (``None`` in a
        #: static run, whose every query gets ``self.strategy``).
        self.selector = selector
        if cfg.adaptive and selector is None:
            raise ValueError(
                "hybrid-auto needs a StrategySelector (see repro.adapt)"
            )
        #: query -> the strategy it is written under (see _query_strategy).
        self.chosen: Dict[int, IOStrategy] = {}
        # Timer/trace rows are keyed by the *global* rank: in a sharded run
        # every shard's master is local rank 0 of its sub-communicator, and
        # per-rank rows must not collide.  Single-master runs use the world
        # communicator, where global == local.
        self.timer = PhaseTimer(comm.env, rank=comm.global_rank, recorder=recorder)
        self.recorder = recorder

        # Serve mode (open-loop arrivals): the task queue starts empty and
        # grows as queries are admitted; batch mode pre-loads it in
        # (query, fragment) order (a resumed run skips the queries already
        # written by the failed run).
        self.serve: Optional[ServeState] = (
            ServeState(cfg.arrival) if cfg.arrival is not None else None
        )
        #: Worker-writing serve runs need on-disk acknowledgements to stamp
        #: result-durable latency (MW knows at its own write return).
        self.serve_acks = self.serve is not None and self.strategy.parallel_io
        if self.serve is not None:
            self.tasks: List[TaskAssignment] = []
        else:
            self.tasks = [
                TaskAssignment(q, f)
                for q in range(cfg.resume_from_query, cfg.nqueries)
                for f in range(cfg.nfragments)
            ]
        self.next_task = 0

        # Gathered score metadata: query -> fragment -> meta.
        self.received: Dict[int, Dict[int, ScoredBatchMeta]] = {}
        self.payloads: Dict[Tuple[int, int], Optional[List[bytes]]] = {}
        self.task_owner: Dict[Tuple[int, int], int] = {}

        self.ledger = OffsetLedger(cfg.nqueries)
        if cfg.resume_from_query:
            # Pre-seed the ledger with the completed run's block sizes
            # (on a real resume the master reads them from the partial
            # output's index).
            if (
                resume_block_sizes is None
                or len(resume_block_sizes) != cfg.resume_from_query
            ):
                raise ValueError(
                    "resuming requires one prior block size per skipped query"
                )
            for q, size in enumerate(resume_block_sizes):
                self.ledger.base_for(q, size)
        #: Bytes the failed run already put on disk (the readback span of
        #: the checkpoint-restart verification pass).
        self.resume_base = sum(resume_block_sizes) if resume_block_sizes else 0
        self.groups_dispatched = cfg.resume_group
        self.pending_requests: deque = deque()
        #: Mirror of ``pending_requests`` membership: the deque preserves
        #: FIFO service order, the set answers "is this worker parked?" in
        #: O(1) — a deque ``in`` test is a linear scan, quadratic across a
        #: large worker pool's request stream.
        self._pending_set: Set[int] = set()
        self.done_set: Set[int] = set()
        self.pending_sends: List = []

        # -- multi-master sharding (attach_shard wires these) ---------------
        #: This master's shard index (0 in single-master runs).
        self.shard_id = 0
        #: Master-to-master communicator view (sharded runs only).
        self._mcomm = None
        self._shard_cfg = None
        #: True once this master's steal protocol has concluded (always
        #: true outside sharded runs, so the termination conditions below
        #: are untouched by default).
        self._steal_done = True
        self._steal_wake = None

        # -- fault tolerance ------------------------------------------------
        self.ft_active = cfg.fault_tolerance_active()
        self.fault_counters: Dict[str, int] = {}
        self.dead: Set[int] = set()
        #: Work requests that arrived from a worker while it was presumed
        #: dead; served once it rejoins (or turns out alive after all).
        self.dead_requests: Set[int] = set()
        #: Latest incarnation (reboot count) heard from each worker; score
        #: messages from older incarnations are stale and dropped.
        self.incarnations: Dict[int, int] = {}
        #: (q, f) -> _Issued: offsets sent, write not yet acknowledged.
        self.issued: Dict[Tuple[int, int], _Issued] = {}
        #: (q, f) -> _Issued: owner died before acking; awaiting recompute.
        self.reissue: Dict[Tuple[int, int], _Issued] = {}
        self.last_heard: Dict[int, float] = {}
        self._wake = None
        self._watchdog_stop = False

    @property
    def done_workers(self) -> int:
        return len(self.done_set)

    def _count(self, name: str, n: int = 1) -> None:
        self.fault_counters[name] = self.fault_counters.get(name, 0) + n
        m = self.comm.env.metrics
        if m.enabled:
            m.inc(f"faults.{name}", n, rank=self.comm.rank)

    def attach_shard(self, shard_id: int, mcomm, shard_cfg) -> None:
        """Wire this master into a multi-master group (before ``run``).

        ``mcomm`` is this master's view of the master-to-master
        communicator (local rank == shard index); the steal protocol only
        activates when the shard config enables it and peers exist.
        """
        self.shard_id = shard_id
        self._mcomm = mcomm
        self._shard_cfg = shard_cfg
        if shard_cfg.steal and shard_cfg.nshards > 1:
            self._steal_done = False

    # -- pending-request parking (FIFO deque + O(1) membership set) --------
    def _park(self, worker: int) -> None:
        self.pending_requests.append(worker)
        self._pending_set.add(worker)

    def _pop_parked(self) -> int:
        worker = self.pending_requests.popleft()
        self._pending_set.discard(worker)
        return worker

    # -- assignability ----------------------------------------------------
    def _task_assignable(self) -> bool:
        if self.next_task >= len(self.tasks):
            return False
        if not self.strategy.gates_assignment:
            return True
        # WW-Coll: only hand out tasks of the current write group.
        group = self.cfg.group_of(self.tasks[self.next_task].query_id)
        return group <= self.groups_dispatched

    def _tasks_exhausted(self) -> bool:
        return self.next_task >= len(self.tasks)

    def _groups_target(self) -> int:
        """Write groups this run must dispatch (dynamic in serve mode)."""
        if self.serve is not None:
            return self.serve.admitted
        return self.cfg.ngroups

    def _release_ok(self) -> bool:
        """May a worker be told "no more work"?

        Without fault tolerance: always (the exhaustion check suffices).
        In serve mode: only once the arrival process has finished — until
        then any arrival may create work, and the released worker would
        miss it.  With fault tolerance: only once nothing can ever create
        work again — all groups dispatched, every issued write
        acknowledged, nothing awaiting reissue.  Past this point any crash
        loses zero bytes, so a released worker never needs recalling.
        """
        if self.serve is not None:
            # Sharded: also hold releases until this master's steal
            # protocol concludes — a stolen query needs live workers.
            return self.serve.arrivals_done and self._steal_done
        if not self.ft_active:
            return True
        return (
            self.groups_dispatched >= self.cfg.ngroups
            and not self.issued
            and not self.reissue
        )

    def _finished(self) -> bool:
        base = (
            self.groups_dispatched >= self._groups_target()
            and self.done_workers >= self.cfg.nworkers
        )
        if self.serve is not None:
            return (
                base
                and self.serve.arrivals_done
                and not self.serve.outstanding
                and self._tasks_exhausted()
            )
        if not self.ft_active:
            return base
        return (
            base
            and not self.issued
            and not self.reissue
            and self._tasks_exhausted()
        )

    def _group_complete(self, group: int) -> bool:
        donated = self.serve.donated_q if self.serve is not None else ()
        for q in self.cfg.queries_in_group(group):
            if q in donated:
                continue  # donated away: a zero-size placeholder block
            got = self.received.get(q)
            if got is None or len(got) < self.cfg.nfragments:
                return False
        return True

    # -- main loop -------------------------------------------------------------
    def run(self):
        """Process fragment: the master's whole life."""
        comm, cfg, timer = self.comm, self.cfg, self.timer

        # Setup: distribute input variables to the workers (step 1).
        yield from timer.measure(
            Phase.SETUP,
            mpi.bcast(comm, 0, 256, {"nqueries": cfg.nqueries, "nfragments": cfg.nfragments}),
        )

        if cfg.verify_resume and self.resume_base:
            yield from self._verify_resume_prefix()

        request_recv = comm.irecv(tag=TAG_REQUEST)
        score_recv = comm.irecv(tag=TAG_SCORES)
        ack_recv = None
        if self.ft_active or self.serve_acks:
            ack_recv = comm.irecv(tag=TAG_WRITE_ACK)
        if self.ft_active:
            comm.env.process(self._watchdog(), name="master-watchdog")
        steal_recv = None
        if self._mcomm is not None and not self._steal_done:
            steal_recv = self._mcomm.irecv(tag=TAG_STEAL)
            comm.env.process(
                self._steal_loop(), name=f"steal-loop-{self.shard_id}"
            )

        while not self._finished():
            yield from self._make_progress()

            if self._finished():
                break

            # Wait for the next worker message (request or scores; plus
            # write acks and watchdog wake-ups under fault tolerance, and
            # arrival wake-ups in serve mode).
            events = [request_recv.done_event, score_recv.done_event]
            if ack_recv is not None:
                events.append(ack_recv.done_event)
            if steal_recv is not None:
                events.append(steal_recv.done_event)
            if self.ft_active or self.serve is not None:
                self._wake = comm.env.event()
                events.append(self._wake)
            start = comm.env.now
            yield comm.env.any_of(events)
            timer.add_span(Phase.DATA_DISTRIBUTION, start)

            if request_recv.completed:
                worker = request_recv.done_event.value
                request_recv = comm.irecv(tag=TAG_REQUEST)
                yield from self._handle_request(worker)

            if score_recv.completed:
                message: ScoreMessage = score_recv.done_event.value
                score_recv = comm.irecv(tag=TAG_SCORES)
                yield from self._handle_scores(message)

            if ack_recv is not None and ack_recv.completed:
                ack: WriteAck = ack_recv.done_event.value
                ack_recv = comm.irecv(tag=TAG_WRITE_ACK)
                self._handle_ack(ack)

            if steal_recv is not None and steal_recv.completed:
                probe: Steal = steal_recv.done_event.value
                steal_recv = self._mcomm.irecv(tag=TAG_STEAL)
                self._handle_steal(probe)

        self._watchdog_stop = True
        if steal_recv is not None:
            # Keep answering late probes (with empty donations) after this
            # master has finished: a hungry peer's termination protocol
            # waits on a reply from every shard.  A side process never
            # gates the run's own termination.
            comm.env.process(
                self._steal_responder(steal_recv),
                name=f"steal-responder-{self.shard_id}",
            )
        # Drain any in-flight offset/notice sends before the final barrier.
        for send in self.pending_sends:
            yield from timer.measure(Phase.GATHER, send.wait())
        yield from timer.measure(Phase.SYNC, mpi.barrier(comm))
        timer.finish()
        return timer.report()

    # -- progress: serve deferred requests, dispatch completed groups ---------
    def _make_progress(self):
        moved = True
        while moved:
            moved = False
            # Dispatch completed groups in order.
            while (
                self.groups_dispatched < self._groups_target()
                and self._group_complete(self.groups_dispatched)
            ):
                yield from self._dispatch_group(self.groups_dispatched)
                self.groups_dispatched += 1
                moved = True
            # Serve deferred work requests that became assignable.
            while self.pending_requests and self._task_assignable():
                yield from self._respond(self._pop_parked())
                moved = True
            # Terminate waiting workers once no tasks remain (and, under
            # fault tolerance, once no crash could ever create new work).
            while (
                self.pending_requests
                and self._tasks_exhausted()
                and self._release_ok()
            ):
                yield from self._send_no_more_work(self._pop_parked())
                moved = True
        self._steal_nudge()

    # -- request handling -----------------------------------------------------------
    def _handle_request(self, worker: int):
        if self.ft_active and worker in self.dead:
            # Request from a worker we presume dead.  Don't assign (the
            # response would be lost) and don't drop (the worker may be a
            # false positive that is very much alive and waiting): stash
            # it and serve it on revival.
            self.dead_requests.add(worker)
            self._count("requests_stashed")
            return
        if self._task_assignable():
            yield from self._respond(worker)
        elif self._tasks_exhausted() and self._release_ok():
            yield from self._send_no_more_work(worker)
        elif worker not in self._pending_set:
            # WW-Coll gating (or fault-tolerant release hold): park the
            # request until the group advances / release becomes safe.
            self._park(worker)
            self._steal_nudge()

    def _verify_resume_prefix(self):
        """Checkpoint-restart: read the failed run's prefix back before any
        new work goes out (the read-dominated startup phase of a resumed
        run; real resumable tools re-scan the partial output's tail)."""
        chunk = self.fh.hints.cb_buffer_size
        regions = [
            (off, min(chunk, self.resume_base - off))
            for off in range(0, self.resume_base, chunk)
        ]
        yield from self.timer.measure(
            Phase.IO,
            self.fh.read_at_list(self.comm.global_rank, regions),
        )

    # -- per-query strategy choice --------------------------------------------
    def _query_strategy(self, q: int) -> IOStrategy:
        """The strategy query ``q`` is written under, chosen now if unseen.

        A static run always answers its own strategy; hybrid-auto asks the
        selector.  Each choice is stamped into the checker's chosen and
        traced ledgers and onto the trace (a zero-length interval on the
        master's row at decision time), so the checker can assert chosen
        == executed == traced at finalize.
        """
        strategy = self.chosen.get(q)
        if strategy is not None:
            return strategy
        strategy = self.strategy
        if self.selector is not None:
            faults = len(self.dead) + len(self.reissue)
            strategy = get_strategy(self.selector.choose(q, faults))
        self.chosen[q] = strategy
        name = strategy.name
        if self.recorder is not None:
            now = self.comm.env.now
            self.recorder.record(
                self.comm.global_rank, f"adapt_q{q}_{name}", now, now
            )
        c = self.comm.env.check
        if c.enabled:
            c.strategy_chosen(q, name, shard=self.shard_id)
            c.strategy_traced(q, name, shard=self.shard_id)
        return strategy

    def _respond(self, worker: int):
        task = self.tasks[self.next_task]
        self.next_task += 1
        q = task.query_id
        task = TaskAssignment(q, task.fragment_id, self._query_strategy(q).name)
        self.task_owner[(task.query_id, task.fragment_id)] = worker
        if self.serve is not None:
            # A started query has work in flight and can no longer be shed.
            self.serve.started.add(task.query_id)
        yield from self.timer.measure(
            Phase.DATA_DISTRIBUTION,
            self.comm.send(worker, TAG_ASSIGN, ASSIGN_BYTES, task),
        )

    def _send_no_more_work(self, worker: int):
        self.done_set.add(worker)
        payload = (
            Release(final_groups=self.serve.admitted)
            if self.serve is not None
            else None
        )
        yield from self.timer.measure(
            Phase.DATA_DISTRIBUTION,
            self.comm.send(worker, TAG_ASSIGN, ASSIGN_BYTES, payload),
        )

    # -- score handling ---------------------------------------------------------------
    def _handle_scores(self, message: ScoreMessage):
        key = (message.query_id, message.fragment_id)
        if self.ft_active and message.worker in self.dead:
            # In-flight scores from a crashed worker; its task was already
            # requeued, so accepting would double-count.
            self._count("stale_scores_dropped")
            return
        if self.ft_active and message.incarnation < self.incarnations.get(
            message.worker, 0
        ):
            # Sent before a crash we already recovered from (the rejoin
            # overtook this message): the payload behind these scores died
            # with the old incarnation.
            self._count("stale_scores_dropped")
            return
        if self.ft_active and key in self.reissue:
            # Recompute of a batch whose offsets were issued before the
            # original owner died: repair out-of-band with the *original*
            # offsets (the ledger hands a query's base out exactly once).
            rec = self.reissue.pop(key)
            self.task_owner[key] = message.worker
            repair = OffsetMessage(
                group=rec.group,
                entries=(
                    OffsetEntry(
                        query_id=key[0], fragment_id=key[1], offsets=rec.offsets
                    ),
                ),
                repair=True,
            )
            self.issued[key] = _Issued(message.worker, rec.offsets, rec.group)
            self.pending_sends.append(
                self.comm.isend(
                    message.worker, TAG_OFFSETS, repair.wire_bytes(), repair
                )
            )
            self._count("repairs_issued")
            cost = self.cfg.merge.merge_time(len(message.scores), 16 * len(message.scores))
            yield from self.timer.sleep(Phase.GATHER, cost)
            return
        existing = self.received.get(message.query_id, {}).get(message.fragment_id)
        if existing is not None:
            # Duplicate delivery (e.g. a requeued task whose original
            # assignment was matched from the reborn worker's mailbox).
            # Drop it; under worker-writing also tell the sender to discard
            # its stranded stored batch so its termination condition can
            # still be met — unless the sender IS the accepted owner (a
            # worker can compute the same task twice), whose single stored
            # copy must survive for the group write.
            self._count("duplicate_scores_dropped")
            if (
                self.ft_active
                and self._query_strategy(message.query_id).parallel_io
                and self.task_owner.get(key) != message.worker
            ):
                discard = OffsetMessage(
                    group=-1,
                    entries=(
                        OffsetEntry(
                            query_id=key[0],
                            fragment_id=key[1],
                            offsets=np.empty(0, dtype=np.int64),
                        ),
                    ),
                    discard=True,
                )
                self.pending_sends.append(
                    self.comm.isend(
                        message.worker, TAG_OFFSETS, discard.wire_bytes(), discard
                    )
                )
                self._count("discards_issued")
            return
        meta = ScoredBatchMeta(
            query_id=message.query_id,
            fragment_id=message.fragment_id,
            scores=message.scores,
            sizes=message.sizes,
        )
        self.received.setdefault(message.query_id, {})[message.fragment_id] = meta
        if message.payloads is not None:
            self.payloads[key] = message.payloads
        if self.ft_active:
            self.task_owner[key] = message.worker
        # The master merges the ordered scores with its own ordered list.
        cost = self.cfg.merge.merge_time(meta.count, 16 * meta.count)
        yield from self.timer.sleep(Phase.GATHER, cost)

    def _handle_ack(self, ack: WriteAck) -> None:
        for key in ack.keys:
            key = tuple(key)
            if self.issued.pop(key, None) is not None:
                self._count("writes_acked")
            if self.reissue.pop(key, None) is not None:
                # The write raced its sender's death detection: the bytes
                # are on disk after all, so cancel the planned reissue (and
                # the recompute, if it hasn't been assigned yet — if it
                # has, the duplicate-score path discards its output).
                self._count("reissues_cancelled")
                self._unqueue(key)
            if self.serve is not None:
                # Worker-writing: a query is result-durable once every one
                # of its fragment batches has been acknowledged on disk.
                q = key[0]
                left = self.serve.outstanding.get(q)
                if left is not None:
                    if left <= 1:
                        del self.serve.outstanding[q]
                        self._query_durable(q)
                    else:
                        self.serve.outstanding[q] = left - 1

    # -- group dispatch ----------------------------------------------------------------
    def _dispatch_group(self, group: int):
        """Write out one completed group, each query under its strategy.

        A master-writing query is written inline by the master from the
        shipped payloads; a worker-writing query becomes offset entries for
        the workers holding its batches.  Both kinds mix freely within one
        group (hybrid-auto).  Then the workers hear about the group: in a
        static MW run a written notice, only under query sync; otherwise
        offset lists, to every worker when the run's strategy is collective
        or syncs per query, to the contributors only when not.
        """
        per_worker: Dict[int, List[OffsetEntry]] = {}
        c = self.comm.env.check
        for q in self.cfg.queries_in_group(group):
            if self._query_donated(q):
                self._ledger_placeholder(q)
                continue
            strategy = self._query_strategy(q)
            batches = list(self.received[q].values())
            base = self.ledger.base_for(q, sum(b.total_bytes for b in batches))
            offsets_by_frag, block_size = merge_query(batches, base)
            if c.enabled:
                c.offsets_assigned(
                    q, base, block_size, offsets_by_frag,
                    {b.fragment_id: b.sizes for b in batches},
                    shard=self.shard_id,
                )
            if strategy.master_writes:
                if c.enabled:
                    c.strategy_executed(q, strategy.name, shard=self.shard_id)
                data = self._assemble_block(q, base, block_size, offsets_by_frag)
                yield from self.timer.measure(
                    Phase.IO,
                    self.fh.write_at(
                        self.comm.global_rank, base, block_size, data
                    ),
                )
                if self.serve is not None:
                    # MW: the master's own write return is result-durable.
                    self._query_durable(q)
                continue
            for frag, offsets in offsets_by_frag.items():
                worker = self.task_owner[(q, frag)]
                per_worker.setdefault(worker, []).append(
                    OffsetEntry(query_id=q, fragment_id=frag, offsets=offsets)
                )
            if self.serve is not None:
                # WW: result-durable once every batch's write is acked.
                s = self.serve.outstanding
                s[q] = s.get(q, 0) + len(offsets_by_frag)
        # isend: the master moves on; completions are drained at exit.
        if self.strategy.master_writes:
            if self.cfg.query_sync:
                notice = WrittenNotice(group=group)
                for worker in range(1, self.cfg.nprocs):
                    self.pending_sends.append(
                        self.comm.isend(worker, TAG_WRITTEN, NOTICE_BYTES, notice)
                    )
            return
        broadcast = self.strategy.collective or self.cfg.query_sync
        targets = (
            range(1, self.cfg.nprocs) if broadcast else sorted(per_worker)
        )
        for worker in targets:
            entries = tuple(per_worker.get(worker, ()))
            if self.ft_active:
                for entry in entries:
                    self.issued[(entry.query_id, entry.fragment_id)] = _Issued(
                        worker, entry.offsets, group
                    )
            message = OffsetMessage(group=group, entries=entries)
            self.pending_sends.append(
                self.comm.isend(worker, TAG_OFFSETS, message.wire_bytes(), message)
            )

    def _assemble_block(
        self, q: int, base: int, block_size: int, offsets_by_frag
    ) -> Optional[bytes]:
        """The query's output block built from the shipped payloads
        (``None`` when the run stores no content)."""
        if not self.cfg.store_data:
            return None
        block = bytearray(block_size)
        for frag, offsets in offsets_by_frag.items():
            payloads = self.payloads.get((q, frag))
            if payloads is None:
                continue
            sizes = self.received[q][frag].sizes
            for off, size, chunk in zip(offsets, sizes, payloads):
                pos = int(off) - base
                block[pos : pos + int(size)] = chunk
        return bytes(block)

    # -- serve mode: arrivals, admission, latency --------------------------------
    def on_arrival(self, priority: bool, content: Optional[int] = None) -> None:
        """Admission decision for one arrival (synchronous, open loop).

        An arrival that finds the pending queue full is either turned away
        (``reject``) or — under ``shed`` — takes over the slot of the
        youngest not-yet-started non-priority query, whose id it reuses
        (the workload is a pure function of the query id — or of the slot's
        content id in sharded runs — so the slot's content is unchanged;
        only its arrival stamp and lane move).

        ``content`` is the global content id in sharded runs (placement
        assigns each arrival a shard *and* a content id); ``None`` means
        "the slot id", the single-master identity mapping.
        """
        s = self.serve
        env = self.comm.env
        s.offered += 1
        c = env.check
        if c.enabled:
            c.arrival("offered", shard=self.shard_id)
        if s.pending < s.cfg.max_pending:
            self._admit(priority, content)
        elif s.cfg.policy == "shed":
            victim = self._try_shed()
            if victim is None:
                s.rejected += 1
                if c.enabled:
                    c.arrival("rejected", shard=self.shard_id)
            else:
                s.shed += 1
                if c.enabled:
                    c.arrival("shed", shard=self.shard_id)
                s.arrival_t[victim] = env.now
                s.priority.discard(victim)
                if priority:
                    s.priority.add(victim)
                if self.recorder is not None:
                    rank = self.comm.global_rank
                    self.recorder.discard(rank, state=f"serve_q{victim}")
                    self.recorder.begin(rank, f"serve_q{victim}", env.now)
                self._enqueue_query(victim, priority)
                if c.enabled:
                    c.arrival("admitted", shard=self.shard_id)
        else:
            s.rejected += 1
            if c.enabled:
                c.arrival("rejected", shard=self.shard_id)
        self._wakeup()

    def arrivals_finished(self) -> None:
        """The arrival process is done; the admitted count is now final."""
        self.serve.arrivals_done = True
        self._wakeup()
        self._steal_nudge()

    def _admit(self, priority: bool, content: Optional[int] = None) -> None:
        s = self.serve
        q = s.admitted
        s.admitted += 1
        s.arrival_t[q] = self.comm.env.now
        s.content[q] = q if content is None else content
        if priority:
            s.priority.add(q)
        if self.recorder is not None:
            self.recorder.begin(
                self.comm.global_rank, f"serve_q{q}", self.comm.env.now
            )
        self._enqueue_query(q, priority)
        c = self.comm.env.check
        if c.enabled:
            c.arrival("admitted", shard=self.shard_id)

    def _enqueue_query(self, q: int, priority: bool) -> None:
        new = [TaskAssignment(q, f) for f in range(self.cfg.nfragments)]
        if priority and not self.strategy.gates_assignment:
            # Priority lane: jump the unassigned queue.  Suppressed under
            # WW-Coll, whose group gate only opens in FIFO query order —
            # front-inserting a later query's tasks would deadlock it.
            self.tasks[self.next_task : self.next_task] = new
        else:
            self.tasks.extend(new)

    def _try_shed(self) -> Optional[int]:
        """Pick and evict the youngest sheddable query; return its id."""
        s = self.serve
        for q in range(s.admitted - 1, -1, -1):
            if q in s.started or q in s.priority or q not in s.arrival_t:
                continue
            # Remove its (still unassigned) tasks from the queue.
            self.tasks = self.tasks[: self.next_task] + [
                t for t in self.tasks[self.next_task :] if t.query_id != q
            ]
            return q
        return None

    def _query_durable(self, q: int) -> None:
        """Arrival → result-durable: stamp the completion latency."""
        s = self.serve
        now = self.comm.env.now
        latency = now - s.arrival_t.pop(q)
        s.latency.observe(latency)
        s.completed += 1
        s.started.discard(q)
        s.priority.discard(q)
        m = self.comm.env.metrics
        if m.enabled:
            m.observe("serve.latency_seconds", latency)
        if self.recorder is not None:
            self.recorder.end(self.comm.global_rank, f"serve_q{q}", now)
        c = self.comm.env.check
        if c.enabled:
            c.arrival_completed(shard=self.shard_id)
        self._wakeup()

    # -- multi-master sharding: work stealing ------------------------------------
    def _query_donated(self, q: int) -> bool:
        return self.serve is not None and q in self.serve.donated_q

    def _ledger_placeholder(self, q: int) -> None:
        """Allocate a donated query's block: the offset ledger is strictly
        in-order, so the slot still occupies a zero-size span (the output
        file stays dense and later queries' bases are unchanged)."""
        base = self.ledger.base_for(q, 0)
        c = self.comm.env.check
        if c.enabled:
            c.offsets_assigned(q, base, 0, {}, {}, shard=self.shard_id)

    def _hungry(self) -> bool:
        """Starving: workers are asking and there is nothing to hand out."""
        return (
            not self._steal_done
            and self._tasks_exhausted()
            and bool(self.pending_requests)
        )

    def _steal_nudge(self) -> None:
        if (
            self._steal_wake is not None
            and not self._steal_wake.triggered
            and self._hungry()
        ):
            self._steal_wake.succeed()

    def _steal_loop(self):
        """Side process, the thief half of the protocol: when this shard
        starves, probe the peer masters round-robin for unstarted queries.

        One probe is in flight at a time (so a single posted Donate receive
        suffices).  A round in which every peer donates nothing is *final*
        once the global arrival process has finished — nothing can refill
        the peers, so the thief concludes (``_steal_done``) and unblocks
        the release path.  Before that, an empty round backs off
        ``steal_retry_s`` and tries again.
        """
        env = self.comm.env
        s = self.serve
        mcomm = self._mcomm
        nshards = self._shard_cfg.nshards
        peers = [(self.shard_id + k) % nshards for k in range(1, nshards)]
        donate_recv = mcomm.irecv(tag=TAG_DONATE)
        rr = 0
        while not self._steal_done:
            if not self._hungry():
                self._steal_wake = env.event()
                yield self._steal_wake
                continue
            final = s.arrivals_done
            got = 0
            for k in range(len(peers)):
                peer = peers[(rr + k) % len(peers)]
                capacity = self.cfg.nqueries - s.admitted
                if capacity <= 0:
                    break
                probe = Steal(shard=self.shard_id, capacity=capacity)
                req = mcomm.isend(peer, TAG_STEAL, STEAL_BYTES, probe, oob=True)
                yield from req.wait()
                yield donate_recv.done_event
                donate: Donate = donate_recv.done_event.value
                donate_recv = mcomm.irecv(tag=TAG_DONATE)
                for dq in donate.queries:
                    self._admit_stolen(dq)
                    got += 1
                if got and not self._hungry():
                    break
            rr = (rr + 1) % len(peers)
            if got:
                continue
            if final:
                self._steal_done = True
                self._wakeup()
                return
            yield env.timeout(self._shard_cfg.steal_retry_s)

    def _handle_steal(self, probe: Steal) -> None:
        """Donor half: answer a peer's probe with up to half of the
        unstarted, non-priority pending queries (possibly none).

        The youngest half goes — the oldest pending queries are next in
        line for local assignment, so shipping the tail minimizes wasted
        locality, mirroring the shed policy's victim preference.
        """
        s = self.serve
        queries: List[DonatedQuery] = []
        if s is not None:
            eligible = [
                q
                for q in range(s.admitted)
                if q in s.arrival_t
                and q not in s.started
                and q not in s.priority
                and q not in s.donated_q
            ]
            count = min((len(eligible) + 1) // 2, max(probe.capacity, 0))
            victims = eligible[len(eligible) - count :]
            if victims:
                doomed = set(victims)
                self.tasks = self.tasks[: self.next_task] + [
                    t
                    for t in self.tasks[self.next_task :]
                    if t.query_id not in doomed
                ]
                env = self.comm.env
                c = env.check
                m = env.metrics
                for q in victims:
                    at = s.arrival_t.pop(q)
                    s.donated_q.add(q)
                    s.donated += 1
                    queries.append(
                        DonatedQuery(content=s.content.get(q, q), arrival_t=at)
                    )
                    if self.recorder is not None:
                        self.recorder.discard(
                            self.comm.global_rank, state=f"serve_q{q}"
                        )
                    if c.enabled:
                        c.arrival("donated", shard=self.shard_id)
                    if m.enabled:
                        m.inc("shard.donated_queries", shard=self.shard_id)
        reply = Donate(shard=self.shard_id, queries=tuple(queries))
        self.pending_sends.append(
            self._mcomm.isend(
                probe.shard, TAG_DONATE, reply.wire_bytes(), reply, oob=True
            )
        )

    def _admit_stolen(self, dq: DonatedQuery) -> None:
        """Thief half: a donated query enters as a fresh local admission,
        keeping its original arrival stamp (honest end-to-end latency) and
        its global content id (the workload is a function of the content,
        which survives the transfer)."""
        s = self.serve
        q = s.admitted
        s.admitted += 1
        s.stolen += 1
        s.arrival_t[q] = dq.arrival_t
        s.content[q] = dq.content
        if self.recorder is not None:
            self.recorder.begin(
                self.comm.global_rank, f"serve_q{q}", dq.arrival_t
            )
        self._enqueue_query(q, False)
        env = self.comm.env
        c = env.check
        if c.enabled:
            c.arrival("stolen", shard=self.shard_id)
            c.arrival("admitted", shard=self.shard_id)
        m = env.metrics
        if m.enabled:
            m.inc("shard.steals", shard=self.shard_id)
        self._wakeup()

    def _steal_responder(self, steal_recv):
        """Post-exit donor: answer every late probe with an empty Donate."""
        mcomm = self._mcomm
        while True:
            if not steal_recv.completed:
                yield steal_recv.done_event
            probe: Steal = steal_recv.done_event.value
            steal_recv = mcomm.irecv(tag=TAG_STEAL)
            reply = Donate(shard=self.shard_id, queries=())
            req = mcomm.isend(
                probe.shard, TAG_DONATE, reply.wire_bytes(), reply, oob=True
            )
            yield from req.wait()

    # -- fault tolerance: detection and recovery --------------------------------
    def _watchdog(self):
        """Side process: heartbeat bookkeeping and death/rejoin handling."""
        comm = self.comm
        env = comm.env
        ftc = self.cfg.effective_fault_tolerance()
        hb_recv = comm.irecv(tag=TAG_HEARTBEAT)
        rejoin_recv = comm.irecv(tag=TAG_REJOIN)
        self.last_heard = {w: env.now for w in range(1, self.cfg.nprocs)}

        while not self._watchdog_stop:
            tick = env.timeout(ftc.heartbeat_interval_s)
            yield env.any_of(
                [hb_recv.done_event, rejoin_recv.done_event, tick]
            )
            if self._watchdog_stop:
                return
            if hb_recv.completed:
                beat = hb_recv.done_event.value
                hb_recv = comm.irecv(tag=TAG_HEARTBEAT)
                self.last_heard[beat.worker] = env.now
                self.incarnations[beat.worker] = max(
                    self.incarnations.get(beat.worker, 0), beat.incarnation
                )
                if beat.worker in self.dead:
                    # Either a false-positive detection (the worker was
                    # alive all along) or its rejoin notice is lagging;
                    # recovery already ran at detection, so just revive.
                    self._on_worker_rejoin(beat.worker)
            if rejoin_recv.completed:
                rejoin = rejoin_recv.done_event.value
                rejoin_recv = comm.irecv(tag=TAG_REJOIN)
                self.last_heard[rejoin.worker] = env.now
                self.incarnations[rejoin.worker] = max(
                    self.incarnations.get(rejoin.worker, 0), rejoin.incarnation
                )
                self._on_worker_rejoin(rejoin.worker)
            for worker, heard in self.last_heard.items():
                if (
                    worker not in self.dead
                    and worker not in self.done_set
                    and env.now - heard > ftc.detection_timeout_s
                ):
                    self._on_worker_death(worker)

    def _on_worker_death(self, worker: int) -> None:
        self.dead.add(worker)
        self._count("failures_detected")
        self._recover_lost_state(worker)
        self._wakeup()

    def _on_worker_rejoin(self, worker: int) -> None:
        self._count("rejoins")
        if worker in self.dead:
            # Recovery already ran at timeout detection; just revive.
            self.dead.discard(worker)
            if worker in self.dead_requests:
                self.dead_requests.discard(worker)
                if worker not in self._pending_set:
                    self._park(worker)
        else:
            # The crash went unnoticed (reboot beat the timeout): the
            # worker's volatile state is gone all the same — recover now.
            self._recover_lost_state(worker)
        self._wakeup()

    def _recover_lost_state(self, worker: int) -> None:
        """Requeue/invalidate/reissue everything the dead worker held."""
        try:
            self.pending_requests.remove(worker)
        except ValueError:
            pass
        self._pending_set.discard(worker)
        # NOTE: a released worker stays released — by the release gate, all
        # of its bytes were safe before the "no more work" went out, and it
        # will never request again, so pulling it out of ``done_set`` would
        # deadlock the termination condition.
        requeued = 0
        for key, owner in list(self.task_owner.items()):
            if owner != worker:
                continue
            q, f = key
            if key in self.reissue:
                # The reassigned recompute died too; queue it again (the
                # original offsets stay parked in the reissue table).
                requeued += self._requeue(key)
                continue
            rec = self.issued.get(key)
            if rec is not None:
                # Offsets sent, write never acknowledged: park the offsets
                # and recompute the batch.
                self.issued.pop(key)
                self.reissue[key] = rec
                requeued += self._requeue(key)
                continue
            meta = self.received.get(q, {}).get(f)
            if meta is None:
                # Assigned but no scores delivered: plain reassignment.
                requeued += self._requeue(key)
                continue
            if (
                self._query_strategy(q).parallel_io
                and self.cfg.group_of(q) >= self.groups_dispatched
            ):
                # Scores delivered but the payload (the worker's stored
                # batch) died with it before the group went out: invalidate
                # the entry so the group completes only after a recompute.
                del self.received[q][f]
                requeued += self._requeue(key)
            # Otherwise the bytes are safe: master-buffered (MW) or
            # written-and-acknowledged (WW).
        if requeued:
            self._count("tasks_reassigned", requeued)

    def _requeue(self, key: Tuple[int, int]) -> int:
        """Insert (q, f) at the head of the unassigned queue (idempotent)."""
        q, f = key
        for task in self.tasks[self.next_task :]:
            if task.query_id == q and task.fragment_id == f:
                return 0
        # Front insertion keeps the recompute inside the currently-gated
        # write group — appending would deadlock WW-Coll, whose gate never
        # opens past a group with a missing batch.
        self.tasks.insert(self.next_task, TaskAssignment(q, f))
        return 1

    def _unqueue(self, key: Tuple[int, int]) -> None:
        """Drop a not-yet-assigned requeued task again."""
        q, f = key
        for i in range(self.next_task, len(self.tasks)):
            task = self.tasks[i]
            if task.query_id == q and task.fragment_id == f:
                del self.tasks[i]
                return

    def _wakeup(self) -> None:
        if self._wake is not None and not self._wake.triggered:
            self._wake.succeed()
