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

The metadata server serves open/create/resize ops with a fixed cost on
one lane.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..sim import Environment, Event, Lane
from . import extents
from .cache import ABSORB_REGION_S, WriteBackCache
from .disk import DiskModel, ServiceDetail
from .sched import SCHEDULERS, DiskQueue, ElevatorPolicy

MIB = 1024 * 1024


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
            env, ElevatorPolicy(sched_aging) if sched == "elevator" else None
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
        #: FIFO and no cache: the request path's callback fast path serves
        #: such a server (``_ServerRequest``), its load signal counts
        #: waiting claims only, and it observes no queue-depth histogram.
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
        self._ra_mem_Bps = cache_mem_Bps
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

    def _disk_begin(self, regions: List[Tuple[int, int]]) -> ServiceDetail:
        """Price ``regions`` from the current head and move the head there;
        the disk must be held."""
        detail = self.disk.service_detail(regions, self.head_position)
        self.head_position = detail.new_head
        return detail

    def _disk_serviced(
        self, regions: List[Tuple[int, int]], is_read: bool, detail: ServiceDetail
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

    def _disk_service(self, regions: List[Tuple[int, int]], is_read: bool):
        """Process fragment: service ``regions``; the disk must be held."""
        detail = self._disk_begin(regions)
        yield self.env.timeout(detail.seconds)
        self._disk_serviced(regions, is_read, detail)

    def _holding_disk(self, first_offset: int, service):
        """Process fragment: run the ``service`` fragment holding the disk;
        ``first_offset`` orders an elevator's grant."""
        grant = self.disk_queue.grant(first_offset)
        try:
            yield grant
            yield from service
        finally:
            self.disk_queue.release(self.head_position, grant)

    def _acquire_and_service(self, regions: List[Tuple[int, int]], is_read: bool):
        """Process fragment: take the disk, then service."""
        if self._m_enabled and not self.bare:
            self._h_queue_depth.observe(float(self.disk_queue.depth))
        first_offset = regions[0][0] if regions else self.head_position
        yield from self._holding_disk(
            first_offset, self._disk_service(regions, is_read)
        )

    def _write_in(self, regions: List[Tuple[int, int]], nbytes: int) -> None:
        """A write's ``nbytes`` in ``regions`` have crossed ``net_in``:
        check them in and drop the prefetched extents they outdate."""
        c = self.env.check
        if c.enabled:
            c.server_write_in(self.server_id, nbytes)
        if self._ra_runs or self._ra_inflight:
            self._ra_invalidate(regions)

    def service_write(self, regions: List[Tuple[int, int]], is_read: bool = False):
        """Process fragment: service ``regions`` through the I/O stack.

        Must be entered after the request's bytes have crossed ``net_in``.
        Writes land in the write-back cache when one is configured; reads
        fully covered by dirty extents are served from memory.  Dirty-run
        hits are checked *before* the read-ahead store: the cache holds the
        freshest bytes, and a write invalidates any overlapping prefetched
        extent, so a read can never be answered from pre-flush disk state.
        """
        if not is_read:
            self._write_in(regions, sum(length for _, length in regions))
        span = extents.span(regions) if is_read and self.readahead_B else None
        cache = self.cache
        if cache is not None:
            if not is_read:
                yield from cache.absorb(regions)
                # A prefetch that read these extents while the write was
                # still being copied in holds pre-write bytes.
                if self._ra_runs or self._ra_inflight:
                    self._ra_invalidate(regions)
                return
            hits, regions = cache.read_split(regions)
            if hits:
                hit_bytes = sum(length for _, length in hits)
                yield self.env.timeout(cache.memory_time(len(hits), hit_bytes))
                cache.read_hits += len(hits)
                self.stats.bytes_read += hit_bytes
                if self._m_enabled:
                    self._c_cache_hits.add(len(hits))
                    self._c_bytes_read.add(hit_bytes)
            if not regions:
                if span is not None:
                    yield from self._ra_after_read(*span)
                return
            cache.read_misses += len(regions)
            if self._m_enabled:
                self._c_cache_misses.add(len(regions))
        if is_read and self.readahead_B:
            ra_hits, regions = extents.split(self._ra_runs, regions)
            if ra_hits:
                hit_bytes = sum(length for _, length in ra_hits)
                yield self.env.timeout(
                    self._ra_memory_time(len(ra_hits), hit_bytes)
                )
                self.stats.readahead_hits += len(ra_hits)
                self.stats.bytes_read += hit_bytes
                if self._m_enabled:
                    self._c_ra_hits.add(len(ra_hits))
                    self._c_bytes_read.add(hit_bytes)
            if not regions:
                if span is not None:
                    yield from self._ra_after_read(*span)
                return
        yield from self._acquire_and_service(regions, is_read)
        if span is not None:
            yield from self._ra_after_read(*span)

    # -- sequential read-ahead ----------------------------------------------
    def _ra_memory_time(self, nregions: int, nbytes: int) -> float:
        return ABSORB_REGION_S * nregions + nbytes / self._ra_mem_Bps

    def _ra_invalidate(
        self, regions: List[Tuple[int, int]], inflight: bool = True
    ) -> None:
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

    def _ra_after_read(self, lo: int, hi: int):
        """Process fragment: sequential detection + prefetch after a read.

        A read starting exactly where the previous one ended continues a
        sequential stream; the next ``readahead_B`` bytes are pulled
        through the disk stack so the stream's next requests hit memory.
        Only the extents no write or failure outdated while the prefetch
        held the disk are stored; those bytes, and any an overlapping
        prefetch stored first, count as wasted.
        """
        sequential = lo == self._ra_next
        self._ra_next = hi
        if not sequential:
            return
        gaps = self._ra_gaps(hi, hi + self.readahead_B)
        if not gaps:
            return
        nbytes = sum(g_hi - g_lo for g_lo, g_hi in gaps)
        regions = [(g_lo, g_hi - g_lo) for g_lo, g_hi in gaps]
        self._ra_inflight[id(gaps)] = gaps
        try:
            yield from self._acquire_and_service(regions, is_read=True)
        finally:
            self._ra_inflight.pop(id(gaps), None)
        stored = 0
        for g_lo, g_hi in gaps:
            stored += extents.add(self._ra_runs, g_lo, g_hi)
        self.stats.readahead_bytes += nbytes
        if self._m_enabled:
            self._c_ra_bytes.add(nbytes)
        if stored != nbytes:
            self._ra_count_wasted(nbytes - stored)

    def count_replica_bytes(self, nbytes: int) -> None:
        """Account ``nbytes`` received as a non-primary replica copy."""
        self.stats.replica_bytes += nbytes
        if self._m_enabled:
            self._c_replica_bytes.add(nbytes)

    def service_rebuild(self, regions: List[Tuple[int, int]]):
        """Process fragment: land re-driven recovery bytes on the platter.

        Deliberately bypasses the write-back cache: recovery writes exist
        to close a durability gap, so staging them in the volatile buffer
        (where a second failure would lose them again) would defeat the
        point — real rebuilds use direct I/O for the same reason.
        """
        nbytes = sum(length for _, length in regions)
        self._write_in(regions, nbytes)
        yield from self._acquire_and_service(regions, is_read=False)
        self.stats.rebuild_bytes += nbytes
        if self._m_enabled:
            self._c_rebuild_bytes.add(nbytes)

    def service_sync(self):
        """Process fragment: flush request (one per MPI_File_sync).

        With a write-back cache the dirty extents hit the platter before
        the sync cost is paid — MPI_File_sync's durability contract.
        """
        if self.cache is not None:
            yield from self.cache.flush()
        yield from self._holding_disk(self.head_position, self._sync_disk())

    def _sync_disk(self):
        """Process fragment: the sync cost proper; the disk must be held."""
        seconds = self.disk.sync_time()
        yield self.env.timeout(seconds)
        self._sync_serviced(seconds)

    def _sync_serviced(self, seconds: float) -> None:
        """Account a sync once its ``seconds`` on the disk have passed."""
        self.stats.syncs += 1
        self.stats.busy_s += seconds
        if self._m_enabled:
            self._c_syncs.add()


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
