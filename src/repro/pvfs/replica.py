"""Degraded-write bookkeeping for the replicated PVFS model.

When an I/O server is unreachable, writes destined for it are *not*
stalled behind the outage: the surviving replicas of the chain absorb
them and the skipped copy is recorded here as a **missed extent**.  The
same ledger absorbs dirty cache extents a failing server dropped (a
volatile buffer cache loses its contents on crash) — both gaps are closed
the same way, by the background rebuild that runs when the server
returns.

The ledger is pure bookkeeping: it schedules no events and draws no
randomness, so it can be consulted from the read-failover path (a replica
with an outstanding miss overlapping a read must not serve it) without
perturbing determinism.
"""

from __future__ import annotations

from typing import List, Tuple

from . import extents as runs

Region = Tuple[int, int]  # (offset, length)
Extent = Tuple[int, int]  # (start, end) half-open


class MissedLedger:
    """Per-server record of bytes acked to clients but not yet durable here.

    Extents are kept sorted/disjoint ([start, end) in the server's own
    physical address space, replica partitions included).  ``recorded_bytes``
    and ``rebuilt_bytes`` are cumulative; ``abandoned_bytes`` counts
    extents discarded because the server was killed permanently (no
    rebuild will ever run — the live replicas are the data's only home).
    """

    __slots__ = (
        "extents",
        "inflight",
        "recorded_bytes",
        "rebuilt_bytes",
        "abandoned_bytes",
    )

    def __init__(self) -> None:
        self.extents: List[Extent] = []
        # Regions drained by the rebuild but not yet landed on disk: still
        # stale for readers, no longer queued for a second drain.
        self.inflight: List[Extent] = []
        self.recorded_bytes = 0
        self.rebuilt_bytes = 0
        self.abandoned_bytes = 0

    def __repr__(self) -> str:
        return (
            f"<MissedLedger outstanding={self.outstanding_bytes()} "
            f"recorded={self.recorded_bytes} rebuilt={self.rebuilt_bytes}>"
        )

    def outstanding_bytes(self) -> int:
        """Bytes still missing from this server."""
        return sum(end - start for start, end in self.extents)

    @property
    def empty(self) -> bool:
        return not self.extents

    def record(self, regions: List[Region]) -> int:
        """Add missed ``(offset, length)`` regions; returns bytes newly missing.

        Overlaps with already-missed extents (a second outage re-losing
        partially re-driven data) merge rather than double-count.
        """
        grown = 0
        for offset, length in regions:
            grown += runs.add(self.extents, offset, offset + length)
        self.recorded_bytes += grown
        return grown

    def drain(self, max_bytes: int) -> List[Region]:
        """Pop up to ``max_bytes`` of missed extents from the front.

        Returns ``(offset, length)`` regions in ascending offset order —
        the shape the disk stack services.  Splits the last extent when it
        straddles the budget, so rebuild chunks are exactly rate-sized.
        The drained regions stay **in flight** (stale for readers) until
        :meth:`mark_rebuilt` lands them or :meth:`requeue` aborts them.
        """
        if max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        taken: List[Region] = []
        budget = max_bytes
        while self.extents and budget > 0:
            start, end = self.extents[0]
            size = end - start
            if size <= budget:
                taken.append((start, size))
                budget -= size
                self.extents.pop(0)
            else:
                taken.append((start, budget))
                self.extents[0] = (start + budget, end)
                budget = 0
        for offset, length in taken:
            runs.add(self.inflight, offset, offset + length)
        return taken

    def mark_rebuilt(self, nbytes: int) -> None:
        self.rebuilt_bytes += nbytes
        self.inflight = []

    def requeue(self, regions: List[Region]) -> None:
        """Put drained-but-not-landed regions back (rebuild aborted).

        Unlike :meth:`record` this does not touch ``recorded_bytes`` —
        the bytes were already counted when first missed.
        """
        self.inflight = []
        for offset, length in regions:
            runs.add(self.extents, offset, offset + length)

    def abandon(self) -> int:
        """Discard all outstanding extents (permanent kill); returns bytes.

        An in-flight rebuild chunk is cleared but *not* counted: the
        still-running rebuild process requeues and abandons it itself when
        it wakes to find the server dead (counting it here too would
        double-book the same bytes).
        """
        dropped = self.outstanding_bytes()
        self.extents = []
        self.inflight = []
        self.abandoned_bytes += dropped
        return dropped

    def overlaps(self, regions: List[Region]) -> bool:
        """True when any region intersects a missed extent, queued or in flight."""
        if not (self.extents or self.inflight):
            return False
        return any(
            runs.overlaps(self.extents, offset, offset + length)
            or runs.overlaps(self.inflight, offset, offset + length)
            for offset, length in regions
        )
