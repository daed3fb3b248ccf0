"""The worker process — Algorithm 2 of the paper.

Workers self-schedule: request work, search each task of the assignment
(simulated compute), locally merge and ship sorted scores (plus payloads
under master-writing), and — in worker-writing strategies — write their
results when the master's offset lists arrive.  Under the individual
strategies a worker keeps processing new tasks while offset lists are in
flight ("while workers wait for the location list from the master, they
can process additional queries"); under WW-Coll every worker must enter
the per-group collective write.

An assignment is one (query, fragment) task under database segmentation
and every queued fragment of one query under query segmentation; the
worker runs each task the same way.  A worker with a database file handle
reads a fragment's extent before searching it and keeps the fragment
while the kept fragments fit in ``cfg.worker_memory_B``; a fragment that
does not fit is read again before every search against it (query
segmentation's repeated I/O).

Each task arrives stamped with its query's strategy (see
:meth:`repro.core.master.Master._query_strategy`).  The stamp decides
whether the worker ships the payload (MW) or stores the batch for a later
offset list, and which individual method writes the stored batch; the
run-level descriptor decides the rest (posted receives, the collective
write, termination).

Fault tolerance adds a crash/reboot loop around the main protocol: a
:class:`~repro.faults.injector.WorkerCrashFault` interrupt wipes the
worker's volatile state (stored result batches, in-flight bookkeeping),
the worker sleeps through its downtime, announces itself with a ``Rejoin``
(incarnation bumped), and re-enters the protocol from a clean slate.  A
heartbeat side-process lets the master detect the silence.  Writes and
their acknowledgements happen inside crash-critical sections, so a batch
is either provably unwritten (and safely recomputed) or acknowledged on
disk — never half-written.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from .. import mpi
from ..faults.injector import WorkerCrashFault
from ..mpiio.file import MPIIOFile
from ..mpiio.hints import IND_LIST, IND_POSIX
from ..sim.errors import Interrupt
from ..workload.results import ResultBatch, result_payload
from .config import SimulationConfig, Workload
from .phases import Phase, PhaseTimer
from .protocol import (
    HEARTBEAT_BYTES,
    Heartbeat,
    MASTER_RANK,
    OffsetMessage,
    Release,
    REQUEST_BYTES,
    Rejoin,
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


class Worker:
    """State machine of one worker rank."""

    def __init__(
        self,
        comm,
        wcomm,
        cfg: SimulationConfig,
        workload: Workload,
        fh: MPIIOFile,
        recorder=None,
        db_fh: Optional[MPIIOFile] = None,
    ) -> None:
        self.comm = comm  # world communicator view (rank >= 1)
        self.wcomm = wcomm  # worker-only communicator view
        self.cfg = cfg
        self.workload = workload
        self.fh = fh
        #: The run-level descriptor: posted receives, collective writes.
        self.strategy = cfg.io_strategy()
        #: Shard index, for checker ledger keys (set by the run assembler).
        self.shard_id = 0
        # -- fragment preload -------------------------------------------------
        #: Database file handle; when set, the worker reads a fragment's
        #: extent before searching it unless it kept the fragment from an
        #: earlier read (mpiBLAST-style copy of the fragment to the node).
        self.db_fh = db_fh
        self.loaded_fragments: Set[int] = set()
        #: Bytes of the fragments in ``loaded_fragments``.
        self.resident_B = 0
        # Keyed by the *global* rank so sharded runs (where each shard's
        # workers restart local numbering at 1) get distinct timer/trace
        # rows; on the world communicator global == local.
        self.timer = PhaseTimer(comm.env, rank=comm.global_rank, recorder=recorder)

        #: (query, fragment) -> its batch awaiting an offset list, with the
        #: strategy its task was stamped with.
        self.stored: Dict[Tuple[int, int], Tuple[ResultBatch, IOStrategy]] = {}
        self.pending_sends: List = []
        self.no_more_work = False
        # Offset messages processed / barriers joined, counted in absolute
        # group ids (a resumed run starts past the already-written groups).
        self.groups_handled = cfg.resume_group
        self.groups_synced = cfg.resume_group

        # -- serve mode -------------------------------------------------------
        #: Worker-writing serve runs acknowledge writes so the master can
        #: stamp result-durable latency.
        self.serve_acks = cfg.arrival is not None and self.strategy.parallel_io
        #: Dynamic group count from the master's Release (serve mode); the
        #: static ``cfg.ngroups`` bound applies until it arrives.
        self.final_groups: Optional[int] = None

        self.offset_recv = None
        self.notice_recv = None
        self.assign_recv = None

        # -- fault tolerance ------------------------------------------------
        self.ft_active = cfg.fault_tolerance_active()
        self.fault_counters: Dict[str, int] = {}
        self.incarnation = 0
        self.crashed = False
        self._critical = 0
        self._hb_stop = False

    @property
    def in_critical_section(self) -> bool:
        """True while a crash must be deferred (see the injector)."""
        return self._critical > 0

    def _count(self, name: str, n: int = 1) -> None:
        self.fault_counters[name] = self.fault_counters.get(name, 0) + n
        m = self.comm.env.metrics
        if m.enabled:
            m.inc(f"faults.{name}", n, rank=self.comm.rank)

    def _critically(self, frag):
        """Run a process fragment with crash injection masked."""
        self._critical += 1
        try:
            result = yield from frag
        finally:
            self._critical -= 1
        return result

    # -- lifecycle ------------------------------------------------------------
    def run(self):
        """Process fragment: the worker's whole life."""
        comm, cfg, timer = self.comm, self.cfg, self.timer

        # Setup: receive input variables from the master (step 1).
        yield from self._critically(
            timer.measure(Phase.SETUP, mpi.bcast(comm, 0, 256, None))
        )

        if self.strategy.parallel_io:
            self.offset_recv = comm.irecv(source=MASTER_RANK, tag=TAG_OFFSETS)
        elif cfg.query_sync:
            self.notice_recv = comm.irecv(source=MASTER_RANK, tag=TAG_WRITTEN)

        if self.ft_active:
            comm.env.process(
                self._heartbeat_loop(), name=f"worker-{comm.rank}-heartbeat"
            )

        pending_downtime: Optional[float] = None
        while True:
            try:
                if pending_downtime is not None:
                    # Reboot: sit out the downtime, then rejoin the run.
                    yield comm.env.timeout(pending_downtime)
                    pending_downtime = None
                    self._rejoin()
                yield from self._main_loop()
                break
            except Interrupt as exc:
                if not self.ft_active or not isinstance(
                    exc.cause, WorkerCrashFault
                ):
                    self._hb_stop = True
                    raise
                pending_downtime = self._crash_cleanup(exc.cause)

        self._hb_stop = True
        # Make sure all score sends reached the master (step 15).
        self._critical += 1
        try:
            for send in self.pending_sends:
                yield from timer.measure(Phase.GATHER, send.wait())
            yield from timer.measure(Phase.SYNC, mpi.barrier(comm))
        finally:
            self._critical -= 1
        timer.finish()
        return timer.report()

    def _main_loop(self):
        comm, timer = self.comm, self.timer
        while True:
            yield from self._drain_io()

            if not self.no_more_work:
                yield from self._request_and_work()
            else:
                if self._io_finished():
                    return
                # Only offset lists / notices remain; wait for the next one.
                events = self._io_events()
                start = comm.env.now
                yield comm.env.any_of(events)
                timer.add_span(Phase.DATA_DISTRIBUTION, start)

    # -- crash / reboot ---------------------------------------------------------
    def _crash_cleanup(self, fault: WorkerCrashFault) -> float:
        """Model the loss of all volatile state; returns the downtime."""
        self.crashed = True
        self.incarnation += 1
        self._count("crashes")
        # Close any timeline intervals the dying incarnation left open —
        # otherwise the rebooted incarnation's begin() for the same state
        # raises "already open" (the open-interval leak).
        recorder = self.timer.recorder
        if recorder is not None and hasattr(recorder, "abort"):
            recorder.abort(self.comm.rank, self.comm.env.now)
        if self.stored:
            self._count("batches_lost", len(self.stored))
            self.stored.clear()
        # The fragment cache is volatile too: a rebooted worker must re-read
        # any fragment before searching it again.
        self.loaded_fragments.clear()
        self.resident_B = 0
        # In-flight sends survive (the NIC already has the bytes) but we
        # stop tracking them; an unserved assignment is dropped on the
        # floor — the master's recovery requeues whatever it had assigned.
        self.pending_sends = []
        if self.assign_recv is not None:
            if not self.assign_recv.matched:
                self.assign_recv.cancel()
            self.assign_recv = None
        return fault.downtime_s

    def _rejoin(self) -> None:
        self.crashed = False
        note = Rejoin(worker=self.comm.rank, incarnation=self.incarnation)
        self.comm.isend(MASTER_RANK, TAG_REJOIN, HEARTBEAT_BYTES, note, oob=True)

    def _heartbeat_loop(self):
        env = self.comm.env
        ftc = self.cfg.effective_fault_tolerance()
        while not self._hb_stop:
            yield env.timeout(ftc.heartbeat_interval_s)
            if self._hb_stop:
                return
            if self.crashed:
                continue
            beat = Heartbeat(worker=self.comm.rank, incarnation=self.incarnation)
            self.comm.isend(
                MASTER_RANK, TAG_HEARTBEAT, HEARTBEAT_BYTES, beat, oob=True
            )

    # -- task cycle --------------------------------------------------------------
    def _request_and_work(self):
        comm, timer = self.comm, self.timer

        request = comm.isend(MASTER_RANK, TAG_REQUEST, REQUEST_BYTES, comm.rank)
        self.assign_recv = comm.irecv(source=MASTER_RANK, tag=TAG_ASSIGN)

        while not self.assign_recv.completed:
            events = [self.assign_recv.done_event] + self._io_events()
            start = comm.env.now
            yield comm.env.any_of(events)
            timer.add_span(Phase.DATA_DISTRIBUTION, start)
            yield from self._drain_io()

        assignment = self.assign_recv.done_event.value
        self.assign_recv = None
        if assignment is None:
            self.no_more_work = True
            return
        if isinstance(assignment, Release):
            self.final_groups = assignment.final_groups
            self.no_more_work = True
            return
        for task in assignment:
            yield from self._do_task(task)

    def _preload_fragment(self, fragment_id: int):
        """Read the fragment's extent from the shared database file before
        a search against it; keep it only while it fits in memory."""
        offset, nbytes = self.workload.database.fragment_extent(fragment_id)
        yield from self.timer.measure(
            Phase.IO,
            self.db_fh.read_at(self.comm.global_rank, offset, nbytes),
        )
        memory = self.cfg.worker_memory_B
        if memory is None or self.resident_B + nbytes <= memory:
            self.loaded_fragments.add(fragment_id)
            self.resident_B += nbytes
        m = self.comm.env.metrics
        if m.enabled:
            m.inc("app.fragments_preloaded", 1.0, rank=self.comm.rank)

    def _do_task(self, task: TaskAssignment):
        cfg, timer = self.cfg, self.timer
        if self.db_fh is not None and task.fragment_id not in self.loaded_fragments:
            yield from self._preload_fragment(task.fragment_id)
        batch = self.workload.results.batch(task.query_id, task.fragment_id)

        # Compute: the simulated search (step 6).
        yield from timer.sleep(Phase.COMPUTE, cfg.compute.batch_time(batch))
        m = self.comm.env.metrics
        if m.enabled:
            m.inc("app.tasks_completed", 1.0, rank=self.comm.rank)

        # An unstamped task raises here: there is no default strategy.
        strategy = get_strategy(task.strategy)
        payload_bytes = 0
        payloads: Optional[List[bytes]] = None
        if strategy.parallel_io:
            # Merge with previous results for this query (step 8).
            cost = cfg.merge.merge_time(batch.count, batch.total_bytes)
            yield from timer.sleep(Phase.MERGE, cost)
            self.stored[(task.query_id, task.fragment_id)] = (batch, strategy)
        else:
            payload_bytes = batch.total_bytes
            if cfg.store_data:
                # Identity comes from the batch (its query id is global
                # even when this worker addresses queries through a
                # partition-local view, as in hybrid segmentation).
                payloads = [
                    result_payload(
                        batch.query_id, batch.fragment_id, i, int(size)
                    )
                    for i, size in enumerate(batch.sizes)
                ]

        message = ScoreMessage(
            query_id=task.query_id,
            fragment_id=task.fragment_id,
            worker=self.comm.rank,
            scores=batch.scores,
            sizes=batch.sizes,
            payload_bytes=payload_bytes,
            payloads=payloads,
            incarnation=self.incarnation,
        )
        # Nonblocking send of scores (and results if MW) — step 10.
        send = self.comm.isend(
            MASTER_RANK, TAG_SCORES, message.wire_bytes(), message
        )
        self.pending_sends.append(send)
        self.pending_sends = [s for s in self.pending_sends if not s.completed]

    # -- I/O-side message handling -------------------------------------------------
    def _io_events(self) -> List:
        events = []
        if self.offset_recv is not None:
            events.append(self.offset_recv.done_event)
        if self.notice_recv is not None:
            events.append(self.notice_recv.done_event)
        return events

    def _drain_io(self):
        while True:
            progressed = False
            if self.offset_recv is not None and self.offset_recv.completed:
                message: OffsetMessage = self.offset_recv.done_event.value
                self.offset_recv = self.comm.irecv(
                    source=MASTER_RANK, tag=TAG_OFFSETS
                )
                yield from self._critically(self._handle_offsets(message))
                progressed = True
            if self.notice_recv is not None and self.notice_recv.completed:
                notice: WrittenNotice = self.notice_recv.done_event.value
                self.notice_recv = self.comm.irecv(
                    source=MASTER_RANK, tag=TAG_WRITTEN
                )
                yield from self._critically(self._handle_notice(notice))
                progressed = True
            if not progressed:
                return

    def _handle_offsets(self, message: OffsetMessage):
        """Write the group's results (step 18) and sync if requested.

        Each stored batch is written with the individual method of the
        strategy its task was stamped with.  A repair writes a recomputed
        batch at its originally-issued offsets: always individually (even
        under WW-Coll — the group's collective already happened without
        these bytes), and it never advances the group counters.
        """
        cfg, timer = self.cfg, self.timer
        if message.discard:
            self._handle_discard(message)
            return
        # (offset, size, data) rows, bucketed by write method.
        buckets: Dict[str, List[Tuple[int, int, Optional[bytes]]]] = {}
        written: List[Tuple[int, int]] = []
        c = self.comm.env.check
        for entry in message.entries:
            key = (entry.query_id, entry.fragment_id)
            stored = self.stored.pop(key, None)
            if stored is None:
                if not self.ft_active:
                    raise KeyError(key)
                # The batch died in a crash after the master merged its
                # scores; recovery repairs it out-of-band (or reissues
                # the repair to the next recompute).
                self._count("entries_skipped")
                continue
            batch, strategy = stored
            written.append(key)
            if c.enabled:
                c.strategy_executed(
                    entry.query_id, strategy.name, shard=self.shard_id
                )
                c.entry_alignment(
                    entry.query_id, entry.fragment_id,
                    len(entry.offsets), len(batch.sizes),
                )
            rows = buckets.setdefault(strategy.ind_method, [])
            for i, (offset, size) in enumerate(zip(entry.offsets, batch.sizes)):
                data: Optional[bytes] = None
                if cfg.store_data:
                    data = result_payload(
                        batch.query_id, batch.fragment_id, i, int(size)
                    )
                rows.append((int(offset), int(size), data))

        if self.strategy.collective and not message.repair:
            # Everyone joins the collective write, data or not.
            rows = [row for bucket in buckets.values() for row in bucket]
            regions = [(o, s) for o, s, _ in rows]
            datas = [d for _, _, d in rows] if cfg.store_data else None
            yield from timer.measure(
                Phase.IO, self.fh.write_at_all(self.wcomm, regions, datas)
            )
        else:
            for method in (IND_POSIX, IND_LIST):
                rows = buckets.get(method)
                if not rows:
                    continue
                regions = [(o, s) for o, s, _ in rows]
                datas = [d for _, _, d in rows] if cfg.store_data else None
                yield from timer.measure(
                    Phase.IO,
                    self.fh.write_at_list(
                        self.comm.global_rank, regions, datas, method=method
                    ),
                )
        if message.repair:
            if written:
                self._count("repairs_written", len(written))
                self._send_ack(written)
            return
        self.groups_handled = max(self.groups_handled, message.group + 1)
        if (self.ft_active or self.serve_acks) and written:
            self._send_ack(written)

        if cfg.query_sync:
            yield from timer.measure(Phase.SYNC, mpi.barrier(self.wcomm))
            self.groups_synced = max(self.groups_synced, message.group + 1)

    def _handle_discard(self, message: OffsetMessage) -> None:
        """Drop stranded batches another worker already delivered."""
        for entry in message.entries:
            key = (entry.query_id, entry.fragment_id)
            if self.stored.pop(key, None) is not None:
                self._count("batches_discarded")

    def _send_ack(self, keys: List[Tuple[int, int]]) -> None:
        # OOB: an ack stuck behind bulk data could outlive its sender's
        # death detection and trigger a spurious (overlapping!) reissue.
        ack = WriteAck(worker=self.comm.rank, keys=tuple(keys))
        self.comm.isend(MASTER_RANK, TAG_WRITE_ACK, ack.wire_bytes(), ack, oob=True)

    def _handle_notice(self, notice: WrittenNotice):
        """MW + query sync: barrier once the master wrote the group."""
        yield from self.timer.measure(Phase.SYNC, mpi.barrier(self.wcomm))
        self.groups_synced = max(self.groups_synced, notice.group + 1)

    # -- termination -------------------------------------------------------------------
    def _effective_groups(self) -> int:
        """The run's final group count (dynamic in serve mode)."""
        if self.final_groups is not None:
            return self.final_groups
        return self.cfg.ngroups

    def _io_finished(self) -> bool:
        cfg = self.cfg
        ngroups = self._effective_groups()
        if self.strategy.master_writes:
            return (not cfg.query_sync) or self.groups_synced >= ngroups
        if self.strategy.collective or cfg.query_sync:
            # Every group produces a message to every worker.
            synced_ok = (not cfg.query_sync) or self.groups_synced >= ngroups
            return self.groups_handled >= ngroups and not self.stored and synced_ok
        # Individual, no sync: done once everything stored has been written.
        return not self.stored and self.no_more_work
