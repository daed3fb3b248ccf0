"""File striping: mapping logical file extents onto I/O servers.

PVFS2 round-robin striping (``simple_stripe``): the file is cut into strips
of ``strip_size`` bytes; strip ``i`` lives on server ``i % nservers`` at
physical position ``(i // nservers) * strip_size`` plus the in-strip offset.
The paper's deployment: 16 servers, 64 KiB strips, i.e. a 1 MiB stripe.

:meth:`StripingLayout.map_regions` turns a list-I/O request into what a
PVFS2 client sends each server: one ``(physical_offset, length)`` list per
server, one entry per strip a region touches.

Replication (``replicas > 1``) uses *rotated placement* (chained
declustering): copy ``r`` of every strip whose primary lives on server
``p`` is stored on server ``(p + r) % nservers``, inside a per-chain-slot
partition of that server's address space (``r * REPLICA_SLOT_B`` plus the
primary physical offset).  Rotation spreads each server's replica load
evenly over its successors, so losing one server raises every survivor's
load by ``1/(replicas-1)`` of the victim's — the classic argument for
chained declustering over mirrored pairs.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

Region = Tuple[int, int]  # (offset, length) in bytes

#: Per-chain-slot partition stride on each server's disk.  Replica copies
#: live at ``r * REPLICA_SLOT_B + primary_physical_offset`` so chain slot
#: ``r`` never collides with primary data or with other slots.  The disk
#: model charges seeks by discontiguity, not distance, so the stride's
#: magnitude costs nothing; it only has to exceed any primary offset.
REPLICA_SLOT_B = 1 << 40


class StripingLayout:
    """Round-robin strip placement over ``nservers`` servers."""

    def __init__(
        self,
        strip_size: int = 64 * 1024,
        nservers: int = 16,
        replicas: int = 1,
    ) -> None:
        if strip_size <= 0:
            raise ValueError("strip_size must be positive")
        if nservers <= 0:
            raise ValueError("nservers must be positive")
        if not 1 <= replicas <= nservers:
            raise ValueError(
                f"replicas must be in [1, nservers={nservers}], got {replicas}"
            )
        self.strip_size = strip_size
        self.nservers = nservers
        self.replicas = replicas

    def __repr__(self) -> str:
        extra = f", replicas={self.replicas}" if self.replicas > 1 else ""
        return (
            f"StripingLayout(strip_size={self.strip_size}, "
            f"nservers={self.nservers}{extra})"
        )

    @property
    def stripe_size(self) -> int:
        """One full round across all servers."""
        return self.strip_size * self.nservers

    def server_of(self, offset: int) -> int:
        """The server holding the byte at logical ``offset``."""
        if offset < 0:
            raise ValueError("offset must be non-negative")
        return (offset // self.strip_size) % self.nservers

    def physical_offset(self, offset: int) -> int:
        """Server-local offset of the byte at logical ``offset``."""
        if offset < 0:
            raise ValueError("offset must be non-negative")
        strip = offset // self.strip_size
        return (strip // self.nservers) * self.strip_size + offset % self.strip_size

    def map_regions(self, regions: Iterable[Region]) -> Dict[int, List[Region]]:
        """Each server's ``(physical_offset, length)`` list for ``regions``.

        One entry per strip a region touches.  Servers appear in the order
        the regions first touch them; each server's entries keep region
        order, then strip order.  A region's strips on one server sit in
        consecutive rows, so they are cut from one physical run by
        arithmetic rather than by walking the strips.
        """
        size = self.strip_size
        nservers = self.nservers
        by_server: Dict[int, List[Region]] = {}
        for offset, length in regions:
            if offset < 0 or length < 0:
                raise ValueError(f"region ({offset}, {length}) must be non-negative")
            if not length:
                continue
            first, in_first = divmod(offset, size)
            last, in_last = divmod(offset + length - 1, size)
            for strip in range(first, min(last, first + nservers - 1) + 1):
                row, server = divmod(strip, nservers)
                # This server holds strips strip, strip + nservers, ... up
                # to ``last``: rows ``row`` to ``row + rows``.
                rows, rest = divmod(last - strip, nservers)
                tail = (row + rows) * size
                hi = tail + (size if rest else in_last + 1)
                lo = row * size + (in_first if strip == first else 0)
                entries = by_server.get(server)
                if entries is None:
                    entries = by_server[server] = []
                if lo < tail:
                    cut = (row + 1) * size
                    entries.append((lo, cut - lo))
                    entries.extend([(p, size) for p in range(cut, tail, size)])
                    lo = tail
                entries.append((lo, hi - lo))
        return by_server

    # -- replication ----------------------------------------------------------
    def replica_chain(self, primary: int) -> List[int]:
        """Ordered replica set for strips whose primary is ``primary``.

        Slot 0 is the primary itself; slot ``r`` is the rotated successor
        ``(primary + r) % nservers``.  Every strip with the same primary
        shares one chain, so a per-server subrequest replicates as a unit.
        """
        if not 0 <= primary < self.nservers:
            raise ValueError(f"primary {primary} outside [0, {self.nservers})")
        return [(primary + r) % self.nservers for r in range(self.replicas)]

    @staticmethod
    def replica_physical(physical_offset: int, slot: int) -> int:
        """Server-local offset of chain slot ``slot``'s copy of a byte."""
        if slot < 0:
            raise ValueError("slot must be non-negative")
        return slot * REPLICA_SLOT_B + physical_offset

    @classmethod
    def replica_regions(
        cls, regions: Iterable[Region], slot: int
    ) -> List[Region]:
        """Physical regions shifted into chain slot ``slot``'s partition.

        Slot 0 is the identity (primary data stays where the plain layout
        put it — which is what keeps ``replicas=1`` bit-identical).
        """
        if slot == 0:
            return list(regions)
        return [
            (cls.replica_physical(offset, slot), length)
            for offset, length in regions
        ]
