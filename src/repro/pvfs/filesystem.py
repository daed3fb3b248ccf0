"""PVFS2 facade: files, client operations, and the server farm.

Client operations are process fragments invoked from rank processes.  A
logical request is split by the striping layout into per-server subrequests
that proceed *in parallel* (PVFS2 clients talk to all servers directly; no
single funnel), each paying: client NIC serialization → wire latency →
server inbound channel → disk service → response latency.

Each server's leg of a sync, and each subrequest (a replica chain's
included), is a :class:`_ServerRequest` callback machine rather than a
process, started at the call; the caller waits on a
:class:`~repro.sim.Join` of them, or on the lone leg of a one-server
call.  The server side of a leg is :class:`~repro.pvfs.server.IOServer`'s
callback stack, and a background rebuild is a chain of callbacks too:
no process is started here.

PVFS2 characteristics modelled faithfully:

* native list I/O — many (offset, length) regions per request, up to
  ``listio_max_regions`` (64 in the PVFS2 listio wire protocol);
* no write atomicity/locking — concurrent non-overlapping writes never
  serialize against each other beyond physical contention (the paper's
  Section 3.1 point about PVFS2 avoiding false-sharing serialization);
* a single metadata server (first server also runs metadata duties on the
  Feynman deployment).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence

from ..sim import Environment, Event, Join, Lane, SimulationError, Timeout
from ..mpi.network import NetworkConfig, Nic, KIB, MIB
from .bytestore import ByteStore
from .disk import DiskModel
from .layout import Region, StripingLayout
from .replica import MissedLedger
from .sched import SCHEDULERS
from .server import IOServer, MetadataServer


@dataclass(frozen=True)
class PVFSConfig:
    """Deployment parameters for the simulated file system."""

    nservers: int = 16
    strip_size: int = 64 * KIB
    disk: DiskModel = field(default_factory=DiskModel)
    network: NetworkConfig = field(default_factory=NetworkConfig.myrinet2000)
    metadata_op_s: float = 3e-4
    request_header_B: int = 256
    listio_max_regions: int = 64
    #: Effective per-client streaming rate into the file system.  A single
    #: 2006 PVFS2 client could not come close to saturating a 16-server
    #: volume — client-side buffer copies, flow-control windows, and the
    #: sync-after-every-write discipline bound one process to a few MB/s,
    #: which is why "having more clients writing simultaneously provides
    #: better I/O throughput" (paper Section 2.2) and why master-writing
    #: cannot scale.  Aggregate bandwidth still scales with client count up
    #: to the servers' limits.
    client_pipeline_Bps: float = 3 * MIB
    store_data: bool = False
    #: Client retry policy when an I/O server is unreachable: first wait,
    #: multiplicative backoff, and the cap the backoff saturates at.
    #: PVFS2 clients of the era polled the BMI layer much the same way.
    retry_initial_s: float = 0.05
    retry_backoff: float = 2.0
    retry_cap_s: float = 1.0
    #: Per-server disk-queue scheduler: ``"fifo"`` (the seed behaviour —
    #: no reordering layer is even constructed) or ``"elevator"``
    #: (starvation-bounded C-SCAN over physical offsets; see
    #: :mod:`repro.pvfs.sched`).
    disk_sched: str = "fifo"
    #: Times an elevator may pass a waiting request over before it is
    #: serviced in arrival order regardless of offset.
    elevator_aging: int = 8
    #: Per-server write-back buffer cache in bytes; 0 disables it (the
    #: seed behaviour; see :mod:`repro.pvfs.cache`).
    server_cache_B: int = 0
    #: Dirty fraction of the cache that triggers a background flush.
    cache_watermark: float = 0.75
    #: Flush dirty extents after this long without a new write.
    cache_idle_flush_s: float = 0.02
    #: Memory-copy rate the cache absorbs writes and serves hits at.
    cache_mem_Bps: float = 800 * MIB
    #: Per-server sequential read-ahead window in bytes; 0 disables it
    #: (the seed behaviour).  A read continuing a sequential stream
    #: prefetches this many further bytes through the disk stack; later
    #: reads fully covered by the prefetched extents are served at memory
    #: speed (see :class:`~repro.pvfs.server.IOServer`).
    readahead_B: int = 0
    #: Copies of every strip, on ``replicas`` consecutive servers (rotated
    #: placement; see :meth:`StripingLayout.replica_chain`).  1 — the seed
    #: behaviour, bit-identical — means no redundancy: an outage stalls
    #: clients and a kill loses data.  With 2+ the volume rides through
    #: outages in degraded mode and rebuilds in the background.
    replicas: int = 1
    #: Redundancy code.  Only ``"none"`` (full copies) is modelled; parity
    #: schemes change the small-write path fundamentally (read-modify-write
    #: cycles) and are rejected rather than silently approximated.
    parity: str = "none"
    #: Rate the background rebuild pulls missed bytes from peer replicas
    #: (or re-drives lost cache data from clients) at.
    rebuild_Bps: float = 32 * MIB
    #: Rebuild transfer granularity: extents are drained from the missed
    #: ledger in chunks of at most this many bytes, so rebuild traffic
    #: interleaves with foreground I/O instead of monopolising the disk.
    rebuild_chunk_B: int = 1 * MIB

    def __post_init__(self) -> None:
        if not math.isfinite(self.retry_initial_s) or self.retry_initial_s <= 0:
            raise ValueError("retry_initial_s must be positive and finite")
        if not math.isfinite(self.retry_backoff) or self.retry_backoff < 1.0:
            raise ValueError("retry_backoff must be >= 1 and finite")
        if not math.isfinite(self.retry_cap_s) or self.retry_cap_s <= 0:
            raise ValueError("retry_cap_s must be positive and finite")
        if self.nservers <= 0:
            raise ValueError("nservers must be positive")
        if self.strip_size <= 0:
            raise ValueError("strip_size must be positive")
        if self.listio_max_regions <= 0:
            raise ValueError("listio_max_regions must be positive")
        if self.request_header_B < 0:
            raise ValueError("request_header_B must be non-negative")
        if self.client_pipeline_Bps <= 0:
            raise ValueError("client_pipeline_Bps must be positive")
        if self.disk_sched not in SCHEDULERS:
            raise ValueError(
                f"disk_sched must be one of {SCHEDULERS}, got {self.disk_sched!r}"
            )
        if self.elevator_aging < 1:
            raise ValueError("elevator_aging must be >= 1")
        if self.server_cache_B < 0:
            raise ValueError("server_cache_B must be non-negative")
        if not 0.0 < self.cache_watermark <= 1.0:
            raise ValueError("cache_watermark must be in (0, 1]")
        if self.cache_idle_flush_s <= 0:
            raise ValueError("cache_idle_flush_s must be positive")
        if self.cache_mem_Bps <= 0:
            raise ValueError("cache_mem_Bps must be positive")
        if self.readahead_B < 0:
            raise ValueError("readahead_B must be non-negative")
        if not 1 <= self.replicas <= self.nservers:
            raise ValueError(
                f"replicas must be in [1, nservers={self.nservers}], "
                f"got {self.replicas}"
            )
        if self.parity != "none":
            raise ValueError(
                f"parity={self.parity!r} is not modelled: parity codes turn "
                "small writes into read-modify-write cycles, which this "
                "replication layer does not capture; only 'none' (full "
                "copies) is supported"
            )
        if not math.isfinite(self.rebuild_Bps) or self.rebuild_Bps <= 0:
            raise ValueError("rebuild_Bps must be positive and finite")
        if self.rebuild_chunk_B <= 0:
            raise ValueError("rebuild_chunk_B must be positive")

    @classmethod
    def feynman(cls, store_data: bool = False) -> "PVFSConfig":
        """The paper's deployment: 16 servers, 64 KiB strips."""
        return cls(store_data=store_data)

    def layout(self) -> StripingLayout:
        return StripingLayout(
            strip_size=self.strip_size,
            nservers=self.nservers,
            replicas=self.replicas,
        )


class PVFSFile:
    """A file in the simulated PVFS2 namespace."""

    def __init__(self, name: str, layout: StripingLayout, store_data: bool) -> None:
        self.name = name
        self.layout = layout
        self.bytestore = ByteStore(store_data=store_data)

    def __repr__(self) -> str:
        return f"<PVFSFile {self.name!r} size={self.size}>"

    @property
    def size(self) -> int:
        return self.bytestore.size()


class FileSystem:
    """The PVFS2 volume: I/O servers, metadata server, namespace.

    ``client_nic`` optionally maps a client id (MPI rank) to its
    :class:`~repro.mpi.network.Nic` so file-system traffic contends with
    MPI traffic on the same host adapter — on the Feynman cluster both
    rode the same Myrinet.
    """

    def __init__(
        self,
        env: Environment,
        config: Optional[PVFSConfig] = None,
        client_nic: Optional[Callable[[int], Nic]] = None,
        recorder=None,
    ) -> None:
        self.env = env
        self.config = config if config is not None else PVFSConfig()
        self.layout = self.config.layout()
        cfg = self.config
        self.servers: List[IOServer] = [
            IOServer(
                env,
                i,
                cfg.disk,
                sched=cfg.disk_sched,
                sched_aging=cfg.elevator_aging,
                cache_B=cfg.server_cache_B,
                cache_watermark=cfg.cache_watermark,
                cache_idle_flush_s=cfg.cache_idle_flush_s,
                cache_mem_Bps=cfg.cache_mem_Bps,
                readahead_B=cfg.readahead_B,
                recorder=recorder,
            )
            for i in range(cfg.nservers)
        ]
        self.metadata = MetadataServer(env, self.config.metadata_op_s)
        self.files: Dict[str, PVFSFile] = {}
        self._client_nic = client_nic
        # Fallback per-client serialization when no NIC is wired in: the
        # client pipeline is a host-wide bottleneck, so concurrent
        # subrequests from one client must not each get full rate.
        self._client_locks: Dict[int, Lane] = {}
        # Pristine disk models, kept so a degradation window can be lifted
        # exactly (degrade_server compounds and is permanent by design).
        self._pristine_disks: List[DiskModel] = [s.disk for s in self.servers]
        self.fault_stats: Dict[str, float] = {
            "retries": 0.0,
            "retry_wait_s": 0.0,
            "degraded_writes": 0.0,
            "degraded_write_bytes": 0.0,
            "read_failovers": 0.0,
            "dead_replica_skips": 0.0,
            "sync_skips": 0.0,
            "rebuilds": 0.0,
            "rebuild_bytes": 0.0,
            "cache_lost_bytes": 0.0,
            "abandoned_bytes": 0.0,
        }
        self.recorder = recorder
        self.nreplicas = cfg.replicas
        #: Per-server ledgers of bytes acked to clients but not durable on
        #: that server (degraded writes + lost cache data), created lazily
        #: so healthy replicas=1 runs never touch them.
        self.missed: Dict[int, MissedLedger] = {}
        self._rebuild_active: set = set()

    def __repr__(self) -> str:
        return f"<FileSystem servers={len(self.servers)} files={len(self.files)}>"

    # -- fault/degradation injection --------------------------------------
    def degrade_server(self, server_id: int, factor: float) -> None:
        """Slow one I/O server down by ``factor`` (a straggler disk).

        Every striped request touches most servers, so a single straggler
        throttles the whole volume — a classic parallel-file-system
        failure mode.  ``factor`` scales service times (>1 = slower) and
        compounds across calls; use :meth:`set_degraded` /
        :meth:`clear_degraded` for a revertible window instead.
        """
        if not isinstance(factor, (int, float)) or isinstance(factor, bool):
            raise ValueError(f"factor must be a number, got {factor!r}")
        if not math.isfinite(factor):
            raise ValueError(f"factor must be finite, got {factor!r}")
        if factor <= 0:
            raise ValueError(f"factor must be positive, got {factor!r}")
        server = self.servers[server_id]
        disk = server.disk
        server.disk = replace(
            disk,
            op_overhead_s=disk.op_overhead_s * factor,
            region_overhead_s=disk.region_overhead_s * factor,
            seek_penalty_s=disk.seek_penalty_s * factor,
            bandwidth_Bps=disk.bandwidth_Bps / factor,
            sync_s=disk.sync_s * factor,
        )

    def set_degraded(self, server_id: int, factor: float) -> None:
        """Enter a degraded window: ``factor``× slower relative to pristine."""
        self.servers[server_id].disk = self._pristine_disks[server_id]
        self.degrade_server(server_id, factor)

    def clear_degraded(self, server_id: int) -> None:
        """Leave a degraded window: restore the pristine disk model exactly."""
        self.servers[server_id].disk = self._pristine_disks[server_id]

    def fail_server(self, server_id: int) -> None:
        """Begin an outage: clients back off and retry until restore.

        With ``replicas > 1`` clients instead fail over to the other
        members of each strip's chain, and the skipped copies are recorded
        for background rebuild.  Dirty write-back-cache data on the failed
        server is *lost* (the buffer is volatile) and ledgered the same
        way, so the restored daemon re-drives it from clients.
        """
        server = self.servers[server_id]
        if server.dead:
            return
        dropped = server.fail()
        self._ledger_extents(server_id, [(lo, hi - lo) for lo, hi in dropped])
        if dropped:
            self.fault_stats["cache_lost_bytes"] += sum(
                hi - lo for lo, hi in dropped
            )

    def kill_server(self, server_id: int) -> None:
        """Remove a server permanently (hardware death, not an outage).

        Requires ``replicas >= 2`` to be survivable — the config layer
        enforces that for planned kills; callers poking a replicas=1
        volume lose whatever lived there.  The dead server's missed ledger
        is abandoned: no rebuild will ever run, the surviving chain
        members are the data's only home.
        """
        server = self.servers[server_id]
        if server.dead:
            return
        dropped = server.fail(permanent=True)
        # Cache data dropped at kill time passes through the ledger (so the
        # checker's missed/abandoned accounting stays exact) and is then
        # abandoned with everything else.
        self._ledger_extents(server_id, [(lo, hi - lo) for lo, hi in dropped])
        if dropped:
            self.fault_stats["cache_lost_bytes"] += sum(
                hi - lo for lo, hi in dropped
            )
        ledger = self.missed.get(server_id)
        abandoned = ledger.abandon() if ledger is not None else 0
        if abandoned:
            self.fault_stats["abandoned_bytes"] += abandoned
        c = self.env.check
        if c.enabled:
            c.server_dead(server_id, abandoned)

    def restore_server(self, server_id: int) -> None:
        """End an outage; start a background rebuild if bytes are missing."""
        server = self.servers[server_id]
        server.restore()
        if not server.up:  # permanently dead — restore is a no-op
            return
        ledger = self.missed.get(server_id)
        if ledger is not None and not ledger.empty:
            if server_id not in self._rebuild_active:
                self._rebuild_active.add(server_id)
                self._rebuild(server)

    def _ledger_extents(self, server_id: int, regions: List[Region]) -> None:
        """Record regions acked-but-not-durable on ``server_id``."""
        regions = [(o, l) for o, l in regions if l > 0]
        if not regions:
            return
        ledger = self.missed.get(server_id)
        if ledger is None:
            ledger = self.missed[server_id] = MissedLedger()
        grown = ledger.record(regions)
        if grown:
            c = self.env.check
            if c.enabled:
                c.replica_missed(server_id, grown)

    def _rebuild(self, server: IOServer) -> None:
        """Close ``server``'s durability gap in the background, as callbacks.

        Missed extents drain in rate-limited chunks — each chunk pays a
        transfer delay (peer pull for replica copies, client re-send for
        lost cache data) and then lands through the normal disk stack,
        bypassing the volatile cache.  A second outage mid-rebuild requeues
        the in-flight chunk and stops; the next restore resumes.
        """
        sid = server.server_id
        ledger = self.missed[sid]
        cfg = self.config
        env = self.env
        started = env.now
        moved = 0
        self.fault_stats["rebuilds"] += 1.0
        c = env.check

        def next_chunk() -> None:
            if server.up and not ledger.empty:
                chunk = ledger.drain(cfg.rebuild_chunk_B)
                nbytes = sum(length for _, length in chunk)
                Timeout(env, nbytes / cfg.rebuild_Bps).callbacks.append(
                    lambda _event: pulled(chunk, nbytes)
                )
                return
            self._rebuild_active.discard(sid)
            if moved and self.recorder is not None:
                self.recorder.record(-(sid + 1), "server_rebuild", started, env.now)

        def pulled(chunk: List[Region], nbytes: int) -> None:
            if server.up:
                server.rebuild(chunk, lambda: landed(nbytes))
                return
            ledger.requeue(chunk)
            if server.dead:
                # Killed mid-rebuild: the kill already abandoned the
                # ledger, so the requeued in-flight chunk follows it.
                dropped = ledger.abandon()
                if dropped:
                    self.fault_stats["abandoned_bytes"] += dropped
                    if c.enabled:
                        c.server_dead(sid, dropped)
            next_chunk()  # the server is down: the rebuild stops

        def landed(nbytes: int) -> None:
            nonlocal moved
            ledger.mark_rebuilt(nbytes)
            moved += nbytes
            self.fault_stats["rebuild_bytes"] += nbytes
            if c.enabled:
                c.replica_rebuilt(sid, nbytes)
            next_chunk()

        next_chunk()

    # -- namespace ------------------------------------------------------------
    def open(self, client: int, path: str, create: bool = True):
        """Process fragment: open (and maybe create) a file; returns it."""
        yield from self._round_trip_metadata()
        if path not in self.files:
            if not create:
                raise FileNotFoundError(path)
            yield from self._round_trip_metadata()
            # Re-check: another client may have raced us to the create while
            # we waited on the metadata server (which arbitrates for real);
            # both openers must end up with the same file object.
            if path not in self.files:
                self.files[path] = PVFSFile(
                    path, self.layout, self.config.store_data
                )
        return self.files[path]

    def lookup(self, path: str) -> PVFSFile:
        """Zero-cost namespace lookup for assertions in tests."""
        return self.files[path]

    # -- data operations ---------------------------------------------------------
    def write(
        self,
        client: int,
        file: PVFSFile,
        offset: int,
        length: int,
        data: Optional[bytes] = None,
    ):
        """Process fragment: one contiguous write."""
        yield from self.write_list(
            client, file, [(offset, length)], [data] if data is not None else None
        )

    def write_list(
        self,
        client: int,
        file: PVFSFile,
        regions: Sequence[Region],
        datas: Optional[Sequence[Optional[bytes]]] = None,
    ):
        """Process fragment: a PVFS2 list-I/O write of many regions.

        :meth:`_list_io` (shared with :meth:`read_list`) decomposes the
        request per server; each server receives at most
        ``listio_max_regions`` regions per wire request (additional requests
        are pipelined to the same server).  Subrequests to distinct servers
        run concurrently.
        """
        regions = list(regions)
        if datas is not None and len(datas) != len(regions):
            raise ValueError("datas must align with regions")
        for idx, (offset, length) in enumerate(regions):
            file.bytestore.write(
                offset, length, datas[idx] if datas is not None else None
            )

        yield from self._list_io(client, regions, is_read=False)

    def read(self, client: int, file: PVFSFile, offset: int, length: int):
        """Process fragment: one contiguous read; returns bytes when stored."""
        result = yield from self.read_list(client, file, [(offset, length)])
        return result[0] if result is not None else None

    def read_list(self, client: int, file: PVFSFile, regions: Sequence[Region]):
        """Process fragment: list-I/O read; returns per-region bytes or None.

        Split into per-server wire requests by :meth:`_list_io`, the
        helper :meth:`write_list` uses too.
        """
        regions = list(regions)
        yield from self._list_io(client, regions, is_read=True)
        if file.bytestore.store_data:
            return [file.bytestore.read(offset, length) for offset, length in regions]
        return None

    def sync(self, client: int, file: PVFSFile):
        """Process fragment: flush on every server (MPI_File_sync target).

        With ``replicas > 1`` a down server is skipped rather than waited
        for — its data already rode the surviving chain members and its
        own copy is in the missed ledger, so stalling the sync would buy
        nothing.  Dead servers are always skipped.  With the seed config
        (``replicas=1``) the seed behaviour — wait out the outage — is
        preserved exactly.
        """
        legs = []
        for server in self.servers:
            if server.dead or (not server.up and self.nreplicas > 1):
                self.fault_stats["sync_skips"] += 1.0
                continue
            legs.append(_ServerRequest(self, client, server, _SYNC))
        if legs:
            yield legs[0] if len(legs) == 1 else Join(self.env, *legs)

    # -- internals -----------------------------------------------------------------
    def _round_trip_metadata(self):
        net = self.config.network
        yield self.env.timeout(net.latency_s)
        yield from self.metadata.operation()
        yield self.env.timeout(net.latency_s)

    def _client_hold(self, client: int, nbytes: int):
        """Client-side serialization of ``nbytes`` into the file system.

        Rate-limited by the slower of the NIC and the PVFS2 client
        pipeline; holds the host NIC so file-system and MPI traffic
        contend, as they did on Feynman's shared Myrinet.  Returns the
        hold's done event and the NIC (None on the per-client lane
        fallback), to hand to :meth:`_count_tx` once the hold ends.
        """
        net = self.config.network
        rate = min(net.bandwidth_Bps, self.config.client_pipeline_Bps)
        seconds = nbytes / rate + net.cpu_overhead_s
        nic = self._client_nic(client) if self._client_nic is not None else None
        if nic is not None:
            return nic.tx.hold(seconds), nic
        lane = self._client_locks.get(client)
        if lane is None:
            lane = self._client_locks[client] = Lane(self.env)
        return lane.hold(seconds), None

    def _count_tx(self, nic: Nic, client: int, nbytes: int) -> None:
        nic.stats.tx_messages += 1
        nic.stats.tx_bytes += nbytes
        m = self.env.metrics
        if m.enabled:
            # A shared adapter (ranks_per_nic > 1) carries several
            # ranks' traffic — label by both so neither attribution
            # is lost.
            m.inc("mpi.nic_tx_bytes", float(nbytes), nic=nic.nic_id, rank=client)

    def _list_io(self, client: int, regions: List[Region], is_read: bool):
        """Process fragment: the wire side of a list-I/O call.

        The layout's per-server lists are sorted to ascending physical
        offset (the order the server services them) and cut into chunks
        of at most ``listio_max_regions``.  Each chunk is one subrequest
        that carries its byte count; subrequests to distinct servers run
        concurrently, as :class:`_ServerRequest` machines, which walk
        the strip's replica chain when ``replicas > 1``.  The checker
        compares the logical total with the sum of the chunk
        counts, i.e. with what the mapping actually produced.
        """
        cap = self.config.listio_max_regions
        subrequests = []
        for server_id, phys in self.layout.map_regions(regions).items():
            phys.sort()
            server = self.servers[server_id]
            for start in range(0, len(phys), cap):
                chunk = phys[start : start + cap]
                subrequests.append(
                    (server, chunk, sum(length for _, length in chunk))
                )
        c = self.env.check
        if c.enabled:
            c.layout_mapped(
                sum(length for _, length in regions),
                sum(nbytes for _, _, nbytes in subrequests),
            )
        if not subrequests:
            return
        kind = _READ if is_read else _WRITE
        legs = [
            _ServerRequest(self, client, server, kind, chunk, nbytes)
            for server, chunk, nbytes in subrequests
        ]
        yield legs[0] if len(legs) == 1 else Join(self.env, *legs)

    def _retry(self, delay: float, server: int) -> float:
        """Count one back-off of ``delay`` seconds, labelled with ``server``,
        and return the next delay (bounded exponential)."""
        self.fault_stats["retries"] += 1.0
        self.fault_stats["retry_wait_s"] += delay
        m = self.env.metrics
        if m.enabled:
            m.inc("pvfs.retries", 1.0, server=server)
        cfg = self.config
        return min(delay * cfg.retry_backoff, cfg.retry_cap_s)

    # -- aggregate stats ------------------------------------------------------------
    def total_bytes_written(self) -> int:
        return sum(s.stats.bytes_written for s in self.servers)

    def total_requests(self) -> int:
        return sum(s.stats.requests for s in self.servers)

    def total_syncs(self) -> int:
        return sum(s.stats.syncs for s in self.servers)


_READ, _WRITE, _SYNC = 0, 1, 2


class _ServerRequest(Event):
    """One server's leg of a list-I/O call or a sync, as callbacks.

    Every subrequest and every per-server sync leg runs here instead of
    in a generator process.  The first step (admission, then the client
    TX hold or the first back-off) runs in the constructor, at the call,
    as every send's does (see :class:`~repro.mpi.communicator._Send`).
    Each later step is a callback on the event the process would have
    yielded, scheduled in the order the process scheduled it: the outage
    back-off timeouts, the client TX hold (NIC stats counted after it),
    the wire latency, the server's ``net_in`` hold (writes), the server
    side, the ``net_out`` hold (reads), and this event itself, NORMAL,
    ``latency_s`` after the reply leaves.  The process's start event, the
    relay timeout of the reply's flight and its completion event are
    gone; every result stays bit-identical (``docs/MODELING.md`` §1).

    Admission picks the members the leg serves, at the call and again
    after each back-off.  A sync or a one-copy leg serves its server once
    it is up.  With ``replicas > 1`` a write serves every live member of
    the strip's chain in chain order, each copy store-and-forwarded from
    the previous member (its ``net_out`` hold, the wire latency, the next
    ``net_in`` hold), and a read serves the first clean live member.  A
    chain whose members are all permanently dead fails this event.

    Server side: :meth:`IOServer.sync` for a sync and
    :meth:`IOServer.serve` for anything else, each calling back
    :meth:`_served` when the member is done.  An exception raised there
    leaves ``env.run()`` at the instant it is raised.
    """

    __slots__ = (
        "fs", "client", "server", "kind", "regions", "nbytes", "tx_B",
        "nic", "delay", "chain", "members", "at",
    )

    def __init__(
        self,
        fs: FileSystem,
        client: int,
        server: IOServer,
        kind: int,
        regions: Optional[List[Region]] = None,
        nbytes: int = 0,
    ) -> None:
        super().__init__(fs.env)
        self.fs = fs
        self.client = client
        self.server = server
        self.kind = kind
        self.regions = regions
        self.nbytes = nbytes
        header = fs.config.request_header_B
        if kind == _SYNC:
            self.tx_B = header
        else:
            header += 16 * len(regions)
            # A read sends its header only; the data comes back.
            self.tx_B = header + nbytes if kind == _WRITE else header
        self.chain = (
            fs.layout.replica_chain(server.server_id)
            if kind != _SYNC and fs.nreplicas > 1
            else None
        )
        self.members = None
        self.delay = fs.config.retry_initial_s
        # The first step runs at the call, so every leg and send a rank
        # issues at one instant reaches its NIC lane in issue order.
        self._admit()

    # -- client: admission, outage back-off, TX, wire -------------------------
    def _admit(self, _event: Optional[Event] = None) -> None:
        """Pick the members to serve and transmit, or back off."""
        chain = self.chain
        if chain is None:
            admitted = self.server.up
        else:
            members = (
                self._live_copies() if self.kind == _WRITE else self._clean_copy()
            )
            admitted = members is not None
            if admitted:
                self.members = members
                self.at = 0
                self.server, self.regions = members[0]
            elif all(self.fs.servers[sid].dead for sid in chain):
                self.fail(
                    SimulationError(
                        f"replica chain {chain} is entirely dead — data lost"
                    )
                )
                return
        if admitted:
            self._transmit()
        else:
            self._back_off()

    def _live_copies(self) -> Optional[List[tuple]]:
        """A replicated write's members: every live one, in chain order.

        Liveness is snapshotted at admission: a member that goes down
        mid-chain still completes its copy, as in-flight work does
        everywhere.  A down-but-alive member's copy is ledgered for
        rebuild (degraded mode); a dead member is skipped outright.
        """
        fs = self.fs
        chain = self.chain
        live = []
        missed = []
        for slot, sid in enumerate(chain):
            member = fs.servers[sid]
            copy = StripingLayout.replica_regions(self.regions, slot)
            if member.up:
                live.append((member, copy))
            elif not member.dead:
                missed.append((sid, copy))
        if not live:
            return None
        ndead = len(chain) - len(live) - len(missed)
        nbytes = self.nbytes
        if missed:
            for sid, copy in missed:
                fs._ledger_extents(sid, copy)
            fs.fault_stats["degraded_writes"] += 1.0
            fs.fault_stats["degraded_write_bytes"] += float(nbytes * len(missed))
            m = self.env.metrics
            if m.enabled:
                m.inc("pvfs.degraded_writes", 1.0, server=chain[0])
        if ndead:
            fs.fault_stats["dead_replica_skips"] += float(ndead)
        c = self.env.check
        if c.enabled:
            c.replica_write(chain[0], nbytes, len(live), len(missed), ndead)
        return live

    def _clean_copy(self) -> Optional[List[tuple]]:
        """A replicated read's member: the first live one that is clean,
        i.e. whose missed ledger (degraded writes it has not rebuilt yet)
        does not overlap the regions."""
        fs = self.fs
        for slot, sid in enumerate(self.chain):
            member = fs.servers[sid]
            if not member.up:
                continue
            regions = StripingLayout.replica_regions(self.regions, slot)
            ledger = fs.missed.get(sid)
            if ledger is not None and ledger.overlaps(regions):
                continue
            if slot:
                fs.fault_stats["read_failovers"] += 1.0
                m = self.env.metrics
                if m.enabled:
                    m.inc("pvfs.read_failovers", 1.0, server=sid)
            return [(member, regions)]
        return None

    def _back_off(self) -> None:
        wait = self.delay
        self.delay = self.fs._retry(wait, self.server.server_id)
        Timeout(self.env, wait).callbacks.append(self._admit)

    def _transmit(self) -> None:
        done, self.nic = self.fs._client_hold(self.client, self.tx_B)
        done.callbacks.append(self._sent)

    def _sent(self, _event: Event) -> None:
        if self.nic is not None:
            self.fs._count_tx(self.nic, self.client, self.tx_B)
        self._fly(_event)

    def _fly(self, _event: Event) -> None:
        Timeout(self.env, self.fs.config.network.latency_s).callbacks.append(
            self._arrived
        )

    def _arrived(self, _event: Event) -> None:
        if self.kind == _WRITE:
            self.server.net_in.hold(
                self.fs.config.network.serialization_time(self.tx_B)
            ).callbacks.append(self._serve)
        else:
            self._serve(_event)

    # -- server ---------------------------------------------------------------
    def _serve(self, _event: Event) -> None:
        if self.kind == _SYNC:
            self.server.sync(self._served)
        else:
            self.server.serve(self.regions, self.kind == _READ, self._served)

    # -- chain hop, reply ------------------------------------------------------
    def _served(self) -> None:
        members = self.members
        if members is not None:
            at = self.at
            if at:
                self.server.count_replica_bytes(self.nbytes)
            if at + 1 < len(members):
                # Store-and-forward hop: this member serializes the copy
                # out of its NIC before the next one takes it in.
                self.server.net_out.hold(
                    self.fs.config.network.serialization_time(self.tx_B)
                ).callbacks.append(self._fly)
                self.at = at + 1
                self.server, self.regions = members[at + 1]
                return
        if self.kind == _READ:
            # The response leaves on the server's *outbound* channel — read
            # replies must not queue behind incoming write payloads on
            # ``net_in`` (full duplex, like a NIC's TX/RX split).
            self.server.net_out.hold(
                self.fs.config.network.serialization_time(self.nbytes)
            ).callbacks.append(self._replied)
        else:
            self._replied(None)

    def _replied(self, _event: Optional[Event]) -> None:
        # The reply's flight ends the leg: no relay event in between.
        self._value = None
        self.env.schedule(self, delay=self.fs.config.network.latency_s)
