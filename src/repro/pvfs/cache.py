"""Write-back buffer cache for one PVFS2 I/O daemon.

The 2006 daemon did not push every incoming region straight to the
platter: small writes landed in the server's buffer cache at memory
speed, adjacent dirty pages coalesced, and the disk saw large contiguous
runs at flush time.  That staging is what softens the WW-POSIX penalty
(thousands of tiny interleaved regions) relative to list I/O — the server
merges what the client failed to.

Model (every step a callback: :meth:`~WriteBackCache.absorb` and
:meth:`~WriteBackCache.flush` call ``then()`` when done):

* :meth:`WriteBackCache.absorb` accepts a write's regions at memory
  speed (``mem_Bps`` plus a per-region copy overhead) and merges them
  into a sorted list of disjoint dirty extents (adjacent extents fuse —
  byte ``[a, b)`` + ``[b, c)`` becomes ``[a, c)``).
* Dirty data reaches the disk through the owning server's disk queue in
  one request per flush, one region per contiguous run — so an elevator
  beneath the cache sweeps large runs instead of client-sized fragments.
* Flush triggers: ``sync`` (client called MPI_File_sync — the flush
  completes *before* the sync cost is paid), high watermark (dirty bytes
  crossed ``watermark × capacity``; background), idle timeout (no new
  write for ``idle_flush_s``; background, a chain of timeouts while
  anything is dirty), and capacity (an absorb that would overflow the
  buffer flushes synchronously first — the client stalls, exactly the
  back-pressure a full daemon cache applied).  Background flushes start
  at the write that triggers them.
* Reads fully covered by one dirty extent are served from memory (the
  owning server splits them off) — this is what lets data-sieving
  pre-reads hit data that never reached the platter.  Partial coverage
  goes to disk whole, as the daemon would rather issue one disk read
  than stitch a response from two sources.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple

from ..sim import Event, Request, Resource, Timeout
from .extents import add

if TYPE_CHECKING:  # pragma: no cover
    from .server import IOServer

MIB = 1024 * 1024

#: Buffer-copy setup cost per absorbed region (descriptor handling).
ABSORB_REGION_S = 5e-6


class WriteBackCache:
    """Per-server dirty-extent buffer with watermark/idle/sync flushing."""

    def __init__(
        self,
        server: "IOServer",
        capacity_B: int,
        watermark: float = 0.75,
        idle_flush_s: float = 0.02,
        mem_Bps: float = 800 * MIB,
    ) -> None:
        if capacity_B <= 0:
            raise ValueError("capacity_B must be positive")
        if not 0.0 < watermark <= 1.0:
            raise ValueError("watermark must be in (0, 1]")
        if idle_flush_s <= 0:
            raise ValueError("idle_flush_s must be positive")
        if mem_Bps <= 0:
            raise ValueError("mem_Bps must be positive")
        self.server = server
        self.env = server.env
        self.capacity_B = int(capacity_B)
        self.watermark_B = watermark * capacity_B
        self.idle_flush_s = idle_flush_s
        self.mem_Bps = mem_Bps
        #: Dirty extents as sorted, disjoint, non-adjacent [start, end)
        #: runs (``pvfs/extents.py``), updated in place.
        self.dirty_runs: List[Tuple[int, int]] = []
        self.dirty_bytes = 0
        # One flush at a time; sync waits on an in-flight background flush
        # through this lock, which is what orders flush-before-sync.
        self._flush_lock = Resource(server.env, capacity=1)
        self._watching = False
        self._last_write = 0.0
        # Counters (mirrored into the obs registry by the server).
        self.read_hits = 0
        self.read_misses = 0
        self.absorbed_bytes = 0
        self.flushes = 0
        self.flushed_bytes = 0

    def __repr__(self) -> str:
        return (
            f"<WriteBackCache s{self.server.server_id} "
            f"dirty={self.dirty_bytes}/{self.capacity_B} "
            f"runs={len(self.dirty_runs)}>"
        )

    def memory_time(self, nregions: int, nbytes: int) -> float:
        """Cost of moving ``nbytes`` in ``nregions`` pieces through RAM."""
        return ABSORB_REGION_S * nregions + nbytes / self.mem_Bps

    # -- write path ---------------------------------------------------------
    def absorb(self, regions: Sequence[Tuple[int, int]], then: Callable) -> None:
        """Accept a write's regions into the buffer, then call ``then()``."""
        live = [(o, l) for o, l in regions if l > 0]
        nbytes = sum(l for _, l in live)
        if self.dirty_bytes + nbytes > self.capacity_B:
            # Back-pressure: the buffer cannot hold this write, so the
            # client stalls behind a synchronous flush.
            self.flush(lambda: self._copy_in(live, nbytes, then))
        else:
            self._copy_in(live, nbytes, then)

    def _copy_in(self, live: List[Tuple[int, int]], nbytes: int, then) -> None:
        Timeout(self.env, self.memory_time(len(live), nbytes)).callbacks.append(
            lambda _event: self._absorbed(live, nbytes, then)
        )

    def _absorbed(self, live: List[Tuple[int, int]], nbytes: int, then) -> None:
        dirty_before = self.dirty_bytes
        for offset, length in live:
            self.dirty_bytes += add(self.dirty_runs, offset, offset + length)
        self.absorbed_bytes += nbytes
        self._last_write = self.env.now
        server = self.server
        if server._m_enabled:
            server._c_cache_absorbed.add(nbytes)
            server._g_cache_dirty.set(float(self.dirty_bytes))
        c = self.env.check
        if c.enabled:
            # Bytes that fused into existing dirty runs (overlap) are
            # "merged away": absorbed but never individually flushed.
            c.cache_absorb(
                server.server_id, nbytes, nbytes - (self.dirty_bytes - dirty_before)
            )
            c.cache_state(server.server_id, self.dirty_runs, self.dirty_bytes)
        if self.dirty_bytes >= self.watermark_B:
            self.flush(lambda: None)  # background: nobody waits on it
        elif self.dirty_bytes and not self._watching:
            self._watching = True
            self._watch_idle()
        then()

    # -- flushing -----------------------------------------------------------
    def flush(self, then: Callable) -> None:
        """Push every dirty extent to the disk, then call ``then()``.

        Serialized by the flush lock; calls back once data queued *before
        the call* is on the platter (an in-flight flush is waited out, then
        any remainder is flushed).
        """
        slot = self._flush_lock.request()
        slot.callbacks.append(lambda _event: self._flush_granted(slot, then))

    def _flush_granted(self, slot: Request, then) -> None:
        if not self.dirty_runs:
            self._flush_lock.release(slot)
            then()
            return
        runs, self.dirty_runs = self.dirty_runs, []
        nbytes, self.dirty_bytes = self.dirty_bytes, 0
        server = self.server
        c = self.env.check
        if c.enabled:
            c.cache_flush(server.server_id, runs, nbytes)
            c.cache_state(server.server_id, self.dirty_runs, self.dirty_bytes)
        start = self.env.now

        def flushed() -> None:
            self.flushes += 1
            self.flushed_bytes += nbytes
            if server._m_enabled:
                server._c_cache_flushes.add()
                server._g_cache_dirty.set(float(self.dirty_bytes))
                server._h_cache_flush.observe(float(nbytes))
            if server.recorder is not None:
                server.recorder.record(
                    -(server.server_id + 1), "server_flush", start, self.env.now
                )
            self._flush_lock.release(slot)
            then()

        server._claim_disk([(lo, hi - lo) for lo, hi in runs], False, flushed)

    def drop_dirty(self) -> List[Tuple[int, int]]:
        """Discard every dirty extent without flushing (server crash).

        The buffer cache is volatile: when the daemon dies its dirty data
        is simply gone.  Returns the dropped ``[start, end)`` extents so
        the file system can record them for client re-drive / rebuild.
        Pure bookkeeping — no events, no disk traffic; an in-flight flush
        that already detached its runs is unaffected (those bytes were
        heading to the platter when the model says in-flight work
        completes).
        """
        dropped, self.dirty_runs = self.dirty_runs, []
        self.dirty_bytes = 0
        return dropped

    def _watch_idle(self, _event: Optional[Event] = None) -> None:
        """Flush once writes stop arriving: a chain of timeouts (and
        flushes) that ends when nothing is dirty."""
        if not self.dirty_bytes:
            self._watching = False
            return
        wake_at = self._last_write + self.idle_flush_s
        if self.env.now >= wake_at:
            self.flush(self._watch_idle)
        else:
            Timeout(self.env, wake_at - self.env.now).callbacks.append(
                self._watch_idle
            )
