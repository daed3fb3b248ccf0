"""PVFS2 I/O server and metadata server models.

An I/O server has three contention points: an inbound network channel
(a :class:`~repro.sim.resources.Lane` — concurrent clients serialize
their data streams into the server), an outbound network channel (a lane
too: read responses serialize out, mirroring the NIC's TX/RX duplex
split), and the disk, serviced via :class:`~repro.pvfs.disk.DiskModel`
with persistent head tracking.  The service time depends on where the
head is when the disk is granted, so it is not known when the request
is made and the disk cannot be a lane.  The disk is a
:class:`~repro.pvfs.sched.DiskQueue`: a waiter's service starts, and is
priced, at the instant the disk frees up, in arrival order or in the
order of an optional elevator.  A
:class:`~repro.pvfs.cache.WriteBackCache` optionally fronts it.  A
*bare* server (FIFO, cache off) is the default configuration.

The stack is written once, as callbacks: :meth:`IOServer.serve`,
:meth:`IOServer.sync` and :meth:`IOServer.rebuild` take a ``then``
callable and call it when they are done, and every disk access (a
leg's service, a read-ahead prefetch, a cache flush, a rebuild chunk, a
sync) goes through :meth:`IOServer._claim_disk`.  No process and no
generator runs on the server side; an exception raised in the stack
leaves ``env.run()`` at the instant it is raised.

The metadata server serves open/create/resize ops with a fixed cost on
one lane.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from ..sim import Environment, Lane
from . import extents
from .cache import ABSORB_REGION_S, WriteBackCache
from .disk import DiskModel, ServiceDetail
from .sched import SCHEDULERS, DiskQueue, ElevatorPolicy

MIB = 1024 * 1024

Regions = List[Tuple[int, int]]


@dataclass
class ServerStats:
    """Per-server counters for observability and tests."""

    requests: int = 0
    regions: int = 0
    seeks: int = 0
    sequential: int = 0
    bytes_written: int = 0
    bytes_read: int = 0
    syncs: int = 0
    busy_s: float = 0.0
    outages: int = 0
    #: Bytes received as non-primary replica copies (chain forwarding) —
    #: the write-amplification cost of ``replicas > 1``.
    replica_bytes: int = 0
    #: Bytes re-driven onto this server by background rebuild after an
    #: outage (peer pull for replica copies, client re-drive for lost
    #: cache data).
    rebuild_bytes: int = 0
    #: Dirty write-back-cache bytes dropped when this server failed (a
    #: volatile cache loses its contents on crash).
    cache_lost_bytes: int = 0
    #: Sequential read-ahead accounting: bytes prefetched through the disk
    #: stack, read regions served from prefetched extents, and prefetched
    #: bytes thrown away unused (overwritten or lost to a failure).
    readahead_bytes: int = 0
    readahead_hits: int = 0
    readahead_wasted: int = 0


class IOServer:
    """One PVFS2 I/O daemon: network in/out + (cache +) disk queue."""

    def __init__(
        self,
        env: Environment,
        server_id: int,
        disk: DiskModel,
        sched: str = "fifo",
        sched_aging: int = 8,
        cache_B: int = 0,
        cache_watermark: float = 0.75,
        cache_idle_flush_s: float = 0.02,
        cache_mem_Bps: float = 800 * MIB,
        readahead_B: int = 0,
        recorder=None,
    ) -> None:
        self.env = env
        self.server_id = server_id
        self.disk = disk
        self.net_in = Lane(env)
        self.net_out = Lane(env)
        if sched not in SCHEDULERS:
            raise ValueError(
                f"unknown disk scheduler {sched!r}; choose from {SCHEDULERS}"
            )
        self.disk_queue = DiskQueue(
            ElevatorPolicy(sched_aging) if sched == "elevator" else None
        )
        self.head_position = 0
        self.stats = ServerStats()
        self.recorder = recorder
        #: Reachability flag — clients poll it and back off while False.
        #: Requests already past ``net_in`` when the server fails still
        #: complete (the daemon finishes in-flight work before dying in
        #: this model; a stricter model would replay them).
        self.up = True
        #: Permanently killed (``ServerKill`` fault): never restored, never
        #: rebuilt, excluded from replica chains from the kill onward.
        self.dead = False
        self.cache: Optional[WriteBackCache] = (
            WriteBackCache(
                self,
                capacity_B=cache_B,
                watermark=cache_watermark,
                idle_flush_s=cache_idle_flush_s,
                mem_Bps=cache_mem_Bps,
            )
            if cache_B > 0
            else None
        )
        #: FIFO and no cache: a disk claim starts its service inside the
        #: grant, with no grant event (see ``_claim_disk``), the load
        #: signal counts waiting claims only, and no queue-depth histogram
        #: is observed.
        self.bare = self.disk_queue.elevator is None and self.cache is None
        # Sequential-detection read-ahead (off at 0 — zero new events, the
        # seed's request path exactly).  ``_ra_runs`` holds the *clean*
        # prefetched extents as extent runs (see ``pvfs/extents.py``); they
        # are invalidated by any overlapping write (a prefetched range holds
        # pre-write disk state) and cleared outright by ``fail()``.
        # ``_ra_inflight`` maps each prefetch still holding the disk to the
        # extents it may store when its read lands; writes and ``fail()``
        # shrink those too, so a prefetch never stores what they outdated.
        self.readahead_B = readahead_B
        self._mem_Bps = cache_mem_Bps
        self._ra_next = 0
        self._ra_runs: List[Tuple[int, int]] = []
        self._ra_inflight: Dict[int, List[Tuple[int, int]]] = {}
        # Bind metric handles once (prometheus-client style) so the
        # per-request cost is a float add; with the null registry these are
        # shared no-op instruments and the enabled flag skips them anyway.
        m = env.metrics
        self._m_enabled = m.enabled
        self._c_requests = m.counter("pvfs.requests", server=server_id)
        self._c_regions = m.counter("pvfs.regions", server=server_id)
        self._c_seeks = m.counter("pvfs.seeks", server=server_id)
        self._c_sequential = m.counter("pvfs.sequential_runs", server=server_id)
        self._c_bytes_written = m.counter("pvfs.bytes_written", server=server_id)
        self._c_bytes_read = m.counter("pvfs.bytes_read", server=server_id)
        self._c_syncs = m.counter("pvfs.syncs", server=server_id)
        self._h_regions = m.histogram("pvfs.regions_per_request", server=server_id)
        self._h_service = m.histogram("pvfs.service_seconds", server=server_id)
        # Server-side I/O stack instruments (all zero in default runs).
        self._c_cache_hits = m.counter("pvfs.cache_hits", server=server_id)
        self._c_cache_misses = m.counter("pvfs.cache_misses", server=server_id)
        self._c_cache_absorbed = m.counter(
            "pvfs.cache_absorbed_bytes", server=server_id
        )
        self._c_cache_flushes = m.counter("pvfs.cache_flushes", server=server_id)
        self._g_cache_dirty = m.gauge("pvfs.cache_dirty_bytes", server=server_id)
        self._h_cache_flush = m.histogram("pvfs.cache_flush_bytes", server=server_id)
        self._h_queue_depth = m.histogram("pvfs.disk_queue_depth", server=server_id)
        # Replication / recovery instruments (all zero with replicas=1 and
        # no faults).
        self._c_cache_lost = m.counter("pvfs.cache_lost_bytes", server=server_id)
        self._c_replica_bytes = m.counter("pvfs.replica_bytes", server=server_id)
        self._c_rebuild_bytes = m.counter("pvfs.rebuild_bytes", server=server_id)
        # Read-ahead instruments (all zero with readahead_B=0).
        self._c_ra_bytes = m.counter("pvfs.readahead_bytes", server=server_id)
        self._c_ra_hits = m.counter("pvfs.readahead_hits", server=server_id)
        self._c_ra_wasted = m.counter("pvfs.readahead_wasted", server=server_id)

    def __repr__(self) -> str:
        state = "" if self.up else " DOWN"
        return (
            f"<IOServer {self.server_id}{state} queue={self.queue_depth()} "
            f"head={self.head_position}>"
        )

    def queue_depth(self) -> int:
        """Live gauge: disk requests waiting at this server right now.

        Reads the queue length without disturbing it — the adaptive
        strategy selector samples this as its server-load signal.  A
        stacked server counts the request in service too."""
        if self.bare:
            return len(self.disk_queue.waiting)
        return self.disk_queue.depth

    def fail(self, permanent: bool = False) -> List[Tuple[int, int]]:
        """Mark the server unreachable (an outage window — or forever).

        The write-back cache is *volatile*: a failing daemon drops every
        dirty extent on the floor.  The dropped ``[start, end)`` extents
        are returned so the :class:`~repro.pvfs.filesystem.FileSystem`
        can ledger them for re-drive/rebuild; the loss is counted in
        ``pvfs.cache_lost_bytes`` and the dirty-byte gauge zeroes.
        """
        already_down = not self.up
        self.up = False
        if permanent:
            self.dead = True
        if not already_down:
            self.stats.outages += 1
        dropped: List[Tuple[int, int]] = []
        if self.cache is not None and self.cache.dirty_bytes:
            lost_bytes = self.cache.dirty_bytes
            dropped = self.cache.drop_dirty()
            self.stats.cache_lost_bytes += lost_bytes
            if self._m_enabled:
                self._c_cache_lost.add(lost_bytes)
                self._g_cache_dirty.set(0.0)
            c = self.env.check
            if c.enabled:
                c.cache_lost(self.server_id, lost_bytes)
                c.cache_state(self.server_id, self.cache.dirty_runs, 0)
        # Prefetched extents die with the daemon's memory — a later read
        # must not be served from data prefetched before the failure, nor
        # from a prefetch whose disk read was still in flight.
        for pending in self._ra_inflight.values():
            pending.clear()
        self._ra_inflight.clear()
        if self._ra_runs:
            self._ra_count_wasted(sum(hi - lo for lo, hi in self._ra_runs))
            self._ra_runs = []
        self._ra_next = 0
        return dropped

    def restore(self) -> None:
        """Bring the server back; the daemon restarts from scratch.

        The disk head rehomes and the disk queue's scheduling state
        (elevator aging counters) resets — a rebooted daemon remembers
        nothing about the pass counts it owed pre-outage arrivals.  A
        permanently killed server stays down.
        """
        if self.dead:
            return
        self.up = True
        self.head_position = 0
        self._ra_next = 0
        self.disk_queue.reset()

    def _claim_disk(self, regions: Optional[Regions], is_read: bool, then) -> None:
        """Service ``regions`` on the disk (a sync when ``None``), then call
        ``then()``; every disk access of the stack comes through here.

        The claim queues at the first region's offset (the head for a
        sync), which orders an elevator's grant.  A stacked server
        observes the queue depth it joins."""
        start = partial(self._disk_granted, regions, is_read, then)
        if regions is None:
            offset = self.head_position
        else:
            if self._m_enabled and not self.bare:
                self._h_queue_depth.observe(float(self.disk_queue.depth))
            offset = regions[0][0] if regions else self.head_position
        if self.bare:
            self.disk_queue.claim(start, offset)
            return
        # A stacked server prices its service one queue entry later in the
        # granting instant (the slot its grant event took): the service
        # draws its queue id there, and same-instant ties are ordered as
        # the golden suites pin them.
        self.disk_queue.claim(partial(self.env.call_in, 0.0, start), offset)

    def _disk_granted(self, regions: Optional[Regions], is_read: bool, then) -> None:
        """The disk is ours: price the service from the head and disk model
        of this instant, move the head, and hold the disk that long."""
        if regions is None:
            detail = None
            seconds = self.disk.sync_time()
        else:
            detail = self.disk.service_detail(regions, self.head_position)
            self.head_position = detail.new_head
            seconds = detail.seconds
        self.env.call_in(
            seconds, partial(self._disk_done, regions, is_read, detail, seconds, then)
        )

    def _disk_done(self, regions, is_read: bool, detail, seconds: float, then) -> None:
        """Account the service, release the disk and call ``then()``."""
        if regions is None:
            self._sync_serviced(seconds)
        else:
            self._disk_serviced(regions, is_read, detail)
        self.disk_queue.release(self.head_position)
        then()

    def _disk_serviced(
        self, regions: Regions, is_read: bool, detail: ServiceDetail
    ) -> None:
        """Account a disk service once its time has passed."""
        if not is_read:
            c = self.env.check
            if c.enabled:
                c.server_disk_write(self.server_id, detail.bytes)
            # A prefetch the elevator served while this write waited for
            # the disk read the platter before the write landed.
            if self._ra_runs:
                self._ra_invalidate(regions, inflight=False)
        stats = self.stats
        stats.requests += 1
        stats.regions += detail.regions
        stats.seeks += detail.seeks
        stats.sequential += detail.sequential
        if is_read:
            stats.bytes_read += detail.bytes
        else:
            stats.bytes_written += detail.bytes
        stats.busy_s += detail.seconds
        if self._m_enabled:
            self._c_requests.add()
            self._c_regions.add(detail.regions)
            self._c_seeks.add(detail.seeks)
            self._c_sequential.add(detail.sequential)
            if is_read:
                self._c_bytes_read.add(detail.bytes)
            else:
                self._c_bytes_written.add(detail.bytes)
            self._h_regions.observe(detail.regions)
            self._h_service.observe(detail.seconds)

    def _sync_serviced(self, seconds: float) -> None:
        """Account a sync once its ``seconds`` on the disk have passed."""
        self.stats.syncs += 1
        self.stats.busy_s += seconds
        if self._m_enabled:
            self._c_syncs.add()

    def _write_in(self, regions: Regions) -> None:
        """A write's ``regions`` have crossed ``net_in``: check their bytes
        in and drop the prefetched extents they outdate."""
        c = self.env.check
        if c.enabled:
            c.server_write_in(self.server_id, sum(length for _, length in regions))
        if self._ra_runs or self._ra_inflight:
            self._ra_invalidate(regions)

    def serve(self, regions: Regions, is_read: bool, then: Callable) -> None:
        """Service a leg's ``regions`` through the I/O stack, then call
        ``then()``.

        Called once the request's bytes have crossed ``net_in``.  Writes
        land in the write-back cache when one is configured; reads fully
        covered by dirty extents are served from memory.  Dirty-run hits
        are checked *before* the read-ahead store: the cache holds the
        freshest bytes, and a write invalidates any overlapping prefetched
        extent, so a read can never be answered from pre-flush disk state.
        """
        cache = self.cache
        if not is_read:
            self._write_in(regions)
            if cache is not None:
                cache.absorb(regions, lambda: self._absorbed(regions, then))
                return
        elif cache is not None or self.readahead_B:
            span = extents.span(regions) if self.readahead_B else None
            if span is not None:
                done = then
                then = lambda: self._ra_after_read(span[0], span[1], done)
            if cache is None:
                self._read_uncached(regions, then)
                return
            hits, regions = extents.split(cache.dirty_runs, regions)

            def missed() -> None:
                if not regions:
                    then()
                    return
                cache.read_misses += len(regions)
                if self._m_enabled:
                    self._c_cache_misses.add(len(regions))
                self._read_uncached(regions, then)

            self._from_memory(hits, True, missed)
            return
        self._claim_disk(regions, is_read, then)

    def _absorbed(self, regions: Regions, then) -> None:
        # A prefetch that read these extents while the write was still
        # being copied in holds pre-write bytes.
        if self._ra_runs or self._ra_inflight:
            self._ra_invalidate(regions)
        then()

    def _read_uncached(self, regions: Regions, then) -> None:
        """A read past the cache: read-ahead hits, then the disk."""
        if not self.readahead_B:
            self._claim_disk(regions, True, then)
            return
        hits, regions = extents.split(self._ra_runs, regions)
        self._from_memory(
            hits,
            False,
            lambda: self._claim_disk(regions, True, then) if regions else then(),
        )

    def _from_memory(self, hits: Regions, cached: bool, then) -> None:
        """Copy read ``hits`` (dirty-run hits when ``cached``, read-ahead
        hits otherwise) out of memory, count them, then call ``then()``."""
        if not hits:
            then()
            return
        nbytes = sum(length for _, length in hits)

        def copied() -> None:
            if cached:
                self.cache.read_hits += len(hits)
            else:
                self.stats.readahead_hits += len(hits)
            self.stats.bytes_read += nbytes
            if self._m_enabled:
                (self._c_cache_hits if cached else self._c_ra_hits).add(len(hits))
                self._c_bytes_read.add(nbytes)
            then()

        seconds = ABSORB_REGION_S * len(hits) + nbytes / self._mem_Bps
        self.env.call_in(seconds, copied)

    # -- sequential read-ahead ----------------------------------------------
    def _ra_invalidate(self, regions: Regions, inflight: bool = True) -> None:
        """Drop prefetched extents overlapping a write (now stale).

        With ``inflight``, prefetches still waiting for or holding the disk
        lose the same extents; their bytes count as wasted when they land.
        """
        wasted = 0
        pending_sets = self._ra_inflight.values() if inflight else ()
        for offset, length in regions:
            end = offset + length
            wasted += extents.subtract(self._ra_runs, offset, end)
            for pending in pending_sets:
                extents.subtract(pending, offset, end)
        if wasted:
            self._ra_count_wasted(wasted)

    def _ra_count_wasted(self, nbytes: int) -> None:
        self.stats.readahead_wasted += nbytes
        if self._m_enabled:
            self._c_ra_wasted.add(nbytes)

    def _ra_gaps(self, start: int, end: int) -> List[Tuple[int, int]]:
        """Sub-extents of [start, end) not already prefetched or dirty."""
        gaps = extents.gaps(self._ra_runs, start, end)
        dirty = self.cache.dirty_runs if self.cache is not None else None
        if not dirty:
            return gaps
        # Never prefetch a dirty range: the platter holds pre-flush
        # state there and the cache already serves those reads.
        clipped: List[Tuple[int, int]] = []
        for g_lo, g_hi in gaps:
            clipped.extend(extents.gaps(dirty, g_lo, g_hi))
        return clipped

    def _ra_after_read(self, lo: int, hi: int, then) -> None:
        """Sequential detection + prefetch after a read, then ``then()``.

        A read starting exactly where the previous one ended continues a
        sequential stream; the next ``readahead_B`` bytes are pulled
        through the disk stack so the stream's next requests hit memory.
        Only the extents no write or failure outdated while the prefetch
        held the disk are stored; those bytes, and any an overlapping
        prefetch stored first, count as wasted.
        """
        sequential = lo == self._ra_next
        self._ra_next = hi
        gaps = self._ra_gaps(hi, hi + self.readahead_B) if sequential else None
        if not gaps:
            then()
            return
        nbytes = sum(g_hi - g_lo for g_lo, g_hi in gaps)
        self._ra_inflight[id(gaps)] = gaps

        def landed() -> None:
            self._ra_inflight.pop(id(gaps), None)
            stored = 0
            for g_lo, g_hi in gaps:
                stored += extents.add(self._ra_runs, g_lo, g_hi)
            self.stats.readahead_bytes += nbytes
            if self._m_enabled:
                self._c_ra_bytes.add(nbytes)
            if stored != nbytes:
                self._ra_count_wasted(nbytes - stored)
            then()

        self._claim_disk([(g_lo, g_hi - g_lo) for g_lo, g_hi in gaps], True, landed)

    def count_replica_bytes(self, nbytes: int) -> None:
        """Account ``nbytes`` received as a non-primary replica copy."""
        self.stats.replica_bytes += nbytes
        if self._m_enabled:
            self._c_replica_bytes.add(nbytes)

    def rebuild(self, regions: Regions, then: Callable) -> None:
        """Land re-driven recovery bytes on the platter, then ``then()``.

        Deliberately bypasses the write-back cache: recovery writes exist
        to close a durability gap, so staging them in the volatile buffer
        (where a second failure would lose them again) would defeat the
        point — real rebuilds use direct I/O for the same reason.
        """
        nbytes = sum(length for _, length in regions)
        self._write_in(regions)

        def landed() -> None:
            self.stats.rebuild_bytes += nbytes
            if self._m_enabled:
                self._c_rebuild_bytes.add(nbytes)
            then()

        self._claim_disk(regions, False, landed)

    def sync(self, then: Callable) -> None:
        """A flush request (one per MPI_File_sync), then ``then()``.

        With a write-back cache the dirty extents hit the platter before
        the sync cost is paid — MPI_File_sync's durability contract.
        """
        if self.cache is None:
            self._claim_disk(None, False, then)
        else:
            self.cache.flush(lambda: self._claim_disk(None, False, then))


class MetadataServer:
    """PVFS2 metadata daemon: namespace ops with a fixed service cost."""

    def __init__(self, env: Environment, op_cost_s: float = 3e-4) -> None:
        if op_cost_s < 0:
            raise ValueError("op_cost_s must be non-negative")
        self.env = env
        self.op_cost_s = op_cost_s
        self.queue = Lane(env)
        self.ops = 0
        m = env.metrics
        self._m_enabled = m.enabled
        self._c_ops = m.counter("pvfs.metadata_ops")
        self._h_service = m.histogram("pvfs.metadata_seconds")

    def operation(self):
        """Process fragment: one metadata operation (create/open/stat)."""
        entered = self.env.now
        yield self.queue.hold(self.op_cost_s)
        self.ops += 1
        if self._m_enabled:
            self._c_ops.add()
            # Queueing included: contention on the single metadata
            # daemon is exactly what this histogram is for.
            self._h_service.observe(self.env.now - entered)
