"""The master process — Algorithm 1 of the paper.

The master hands out (query, fragment) tasks on request (self-scheduling;
under query segmentation a request gets every queued task of one query),
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

Serve mode and sharding plug in from outside.  Open-loop admission
(:class:`~repro.serve.admission.Admission`) fills the
:class:`~repro.core.tasks.TaskQueue` and stamps completion latency;
work stealing between shard masters
(:class:`~repro.shard.steal.Stealing`) moves unstarted queries.  The
master only asks them whether it may release workers or finish.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from .. import mpi
from ..mpiio.file import MPIIOFile
from ..serve.admission import Admission
from ..shard.steal import Stealing
from .config import SimulationConfig
from .offsets import OffsetLedger, ScoredBatchMeta, merge_query
from .phases import Phase, PhaseTimer
from .protocol import (
    ASSIGN_BYTES,
    NOTICE_BYTES,
    OffsetEntry,
    OffsetMessage,
    Release,
    ScoreMessage,
    TAG_ASSIGN,
    TAG_HEARTBEAT,
    TAG_OFFSETS,
    TAG_REJOIN,
    TAG_REQUEST,
    TAG_SCORES,
    TAG_WRITE_ACK,
    TAG_WRITTEN,
    TaskAssignment,
    WriteAck,
    WrittenNotice,
)
from .strategies import IOStrategy, get_strategy
from .tasks import TaskQueue


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

        # A closed batch pre-loads the task queue in (query, fragment)
        # order (a resumed run skips the queries the failed run wrote); in
        # serve mode it starts empty and admission fills it.
        self.queue = TaskQueue()
        if cfg.arrival is None:
            for q in range(cfg.resume_from_query, cfg.nqueries):
                self.queue.add_query(q, cfg.nfragments)
        #: Serve mode's open-loop admission (``None`` in a closed batch).
        self.serve: Optional[Admission] = None
        if cfg.arrival is not None:
            self.serve = Admission(
                cfg.arrival, self.queue, comm.env,
                nfragments=cfg.nfragments,
                priority_lane=not self.strategy.gates_assignment,
                recorder=recorder, rank=comm.global_rank, wake=self._wakeup,
            )
        #: Worker-writing serve runs need on-disk acknowledgements to stamp
        #: result-durable latency (MW knows at its own write return).
        self.serve_acks = self.serve is not None and self.strategy.parallel_io

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

        #: This master's shard index (0 in single-master runs).
        self.shard_id = 0
        #: Work stealing between shard masters (sharded serve runs only).
        self.steal: Optional[Stealing] = None

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

    def attach_shard(self, shard_id: int, mcomm, shard_cfg, content) -> None:
        """Wire this master into a multi-master group (before ``run``).

        ``mcomm`` is this master's view of the master-to-master
        communicator (local rank == shard index).  In serve mode admission
        and steals fill ``content``, the shard's slot -> content id map,
        and stealing starts when the shard config enables it.
        """
        self.shard_id = shard_id
        if self.serve is None:
            return
        self.serve.shard = shard_id
        self.serve.state.content = content
        if shard_cfg.steal:
            queue, parked = self.queue, self.pending_requests
            self.steal = Stealing(
                mcomm, shard_id, shard_cfg, self.cfg.nqueries, self.serve,
                starving=lambda: queue.exhausted() and bool(parked),
                wake=self._wakeup,
            )

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
        if self.queue.exhausted():
            return False
        if not self.strategy.gates_assignment:
            return True
        # WW-Coll: only hand out tasks of the current write group.
        group = self.cfg.group_of(self.queue.peek().query_id)
        return group <= self.groups_dispatched

    def _groups_target(self) -> int:
        """Write groups this run must dispatch (dynamic in serve mode)."""
        if self.serve is not None:
            return self.serve.state.admitted
        return self.cfg.ngroups

    def _donated(self):
        """Local slots whose query was donated to a peer master."""
        return self.serve.state.donated_q if self.serve is not None else ()

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
            # Sharded: also hold releases until this master's thief
            # concludes — a stolen query needs live workers.
            return self.serve.state.arrivals_done and (
                self.steal is None or self.steal.done
            )
        if not self.ft_active:
            return True
        return self.groups_dispatched >= self.cfg.ngroups and not (
            self.issued or self.reissue
        )

    def _finished(self) -> bool:
        if (
            self.groups_dispatched < self._groups_target()
            or self.done_workers < self.cfg.nworkers
        ):
            return False
        if self.serve is not None:
            s = self.serve.state
            return s.arrivals_done and not s.outstanding and self.queue.exhausted()
        if not self.ft_active:
            return True
        return not self.issued and not self.reissue and self.queue.exhausted()

    def _group_complete(self, group: int) -> bool:
        donated = self._donated()
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
        steal, probe_recv = self.steal, None
        if steal is not None:
            probe_recv = steal.listen()
            comm.env.process(steal.thief(), name=f"steal-loop-{self.shard_id}")

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
            if probe_recv is not None:
                events.append(probe_recv.done_event)
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

            if probe_recv is not None and probe_recv.completed:
                probe = probe_recv.done_event.value
                probe_recv = steal.listen()
                self.pending_sends.append(steal.donate(probe))

        self._watchdog_stop = True
        if steal is not None:
            # A side process never gates the run's own termination.
            comm.env.process(
                steal.responder(probe_recv),
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
                and self.queue.exhausted()
                and self._release_ok()
            ):
                yield from self._send_no_more_work(self._pop_parked())
                moved = True
        if self.steal is not None:
            self.steal.nudge()

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
        elif self.queue.exhausted() and self._release_ok():
            yield from self._send_no_more_work(worker)
        elif worker not in self._pending_set:
            # WW-Coll gating (or fault-tolerant release hold): park the
            # request until the group advances / release becomes safe.
            self._park(worker)
            if self.steal is not None:
                self.steal.nudge()

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
        """Assign the head task, or under query segmentation the head
        query's whole run of queued tasks, in one message."""
        queue = self.queue
        popped = queue.pop_query() if self.cfg.query_segmentation else (queue.pop(),)
        q = popped[0].query_id
        name = self._query_strategy(q).name
        tasks = tuple(TaskAssignment(q, t.fragment_id, name) for t in popped)
        for task in tasks:
            self.task_owner[(q, task.fragment_id)] = worker
        if self.serve is not None:
            self.serve.start(q)
        yield from self.timer.measure(
            Phase.DATA_DISTRIBUTION,
            self.comm.send(worker, TAG_ASSIGN, ASSIGN_BYTES, tasks),
        )

    def _send_no_more_work(self, worker: int):
        self.done_set.add(worker)
        payload = (
            Release(final_groups=self.serve.state.admitted)
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
                self.queue.unqueue(*key)
            if self.serve is not None:
                self.serve.write_acked(key[0])

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
        donated = self._donated()
        for q in self.cfg.queries_in_group(group):
            if q in donated:
                # The strictly in-order ledger still allocates a donated
                # query's block, at zero size: the file stays dense and
                # later queries' bases are unchanged.
                base = self.ledger.base_for(q, 0)
                if c.enabled:
                    c.offsets_assigned(q, base, 0, {}, {}, shard=self.shard_id)
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
                    self.serve.durable(q)
                continue
            for frag, offsets in offsets_by_frag.items():
                worker = self.task_owner[(q, frag)]
                per_worker.setdefault(worker, []).append(
                    OffsetEntry(query_id=q, fragment_id=frag, offsets=offsets)
                )
            if self.serve is not None:
                # WW: result-durable once every batch's write is acked.
                self.serve.writes_issued(q, len(offsets_by_frag))
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
                requeued += self.queue.requeue(q, f)
                continue
            rec = self.issued.get(key)
            if rec is not None:
                # Offsets sent, write never acknowledged: park the offsets
                # and recompute the batch.
                self.issued.pop(key)
                self.reissue[key] = rec
                requeued += self.queue.requeue(q, f)
                continue
            meta = self.received.get(q, {}).get(f)
            if meta is None:
                # Assigned but no scores delivered: plain reassignment.
                requeued += self.queue.requeue(q, f)
                continue
            if (
                self._query_strategy(q).parallel_io
                and self.cfg.group_of(q) >= self.groups_dispatched
            ):
                # Scores delivered but the payload (the worker's stored
                # batch) died with it before the group went out: invalidate
                # the entry so the group completes only after a recompute.
                del self.received[q][f]
                requeued += self.queue.requeue(q, f)
            # Otherwise the bytes are safe: master-buffered (MW) or
            # written-and-acknowledged (WW).
        if requeued:
            self._count("tasks_reassigned", requeued)

    def _wakeup(self) -> None:
        if self._wake is not None and not self._wake.triggered:
            self._wake.succeed()
