"""Sparse byte storage backing a simulated file.

Stores written extents (optionally with their actual bytes) so tests can
assert the three correctness properties the paper's output format implies:
no overlaps between writers, no gaps in the final file, and byte-identical
content across I/O strategies.
"""

from __future__ import annotations

import bisect
from typing import List, Optional, Tuple

Extent = Tuple[int, int]  # (start, end) half-open


def merge_extents(extents: List[Extent]) -> List[Extent]:
    """Coalesce [start, end) extents: sorted, disjoint, adjacency fused.

    A public utility (the live sets use ``pvfs/extents.py``); empty and
    inverted inputs are dropped rather than raising (callers feed raw
    region lists).
    """
    live = sorted(e for e in extents if e[1] > e[0])
    merged: List[Extent] = []
    for start, end in live:
        if merged and start <= merged[-1][1]:
            last_start, last_end = merged[-1]
            merged[-1] = (last_start, max(last_end, end))
        else:
            merged.append((start, end))
    return merged


class OverlapError(ValueError):
    """Raised when a write overlaps previously written bytes."""


class ByteStore:
    """Write-once sparse byte container.

    ``store_data=False`` keeps only extent bookkeeping (cheap mode for large
    benchmark runs); ``store_data=True`` also keeps the payload bytes for
    content comparison.  Overlapping writes raise — S3aSim's output file has
    mutually exclusive locations by construction, so an overlap is a bug in
    the offset assignment, not a legal state.
    """

    def __init__(self, store_data: bool = True) -> None:
        self.store_data = store_data
        self._starts: List[int] = []  # sorted segment starts
        self._segments: List[Tuple[int, int, Optional[bytearray]]] = []

    def __repr__(self) -> str:
        return (
            f"<ByteStore segments={len(self._segments)} "
            f"bytes={self.total_bytes()}>"
        )

    # -- writing -------------------------------------------------------------
    def write(self, offset: int, length: int, data: Optional[bytes] = None) -> None:
        """Record ``length`` bytes at ``offset``; merge adjacent segments."""
        if offset < 0:
            raise ValueError("offset must be non-negative")
        if length < 0:
            raise ValueError("length must be non-negative")
        if length == 0:
            return
        if data is not None and len(data) != length:
            raise ValueError(f"data length {len(data)} != {length}")

        end = offset + length
        idx = bisect.bisect_right(self._starts, offset)
        # Overlap with the previous segment?
        if idx > 0:
            p_start, p_end, _ = self._segments[idx - 1]
            if p_end > offset:
                raise OverlapError(
                    f"write [{offset}, {end}) overlaps [{p_start}, {p_end})"
                )
        # Overlap with the next segment?
        if idx < len(self._segments):
            n_start, n_end, _ = self._segments[idx]
            if n_start < end:
                raise OverlapError(
                    f"write [{offset}, {end}) overlaps [{n_start}, {n_end})"
                )

        payload: Optional[bytearray]
        if self.store_data:
            payload = bytearray(data) if data is not None else bytearray(length)
        else:
            payload = None

        # Try to merge with neighbours to keep the segment list short.
        merged_prev = False
        if idx > 0 and self._segments[idx - 1][1] == offset:
            p_start, p_end, p_data = self._segments[idx - 1]
            if self.store_data:
                p_data.extend(payload)  # type: ignore[union-attr]
            self._segments[idx - 1] = (p_start, end, p_data)
            merged_prev = True
            idx -= 1
        if not merged_prev:
            self._segments.insert(idx, (offset, end, payload))
            self._starts.insert(idx, offset)
        # Merge with the following segment if now adjacent.
        if idx + 1 < len(self._segments) and self._segments[idx][1] == self._segments[idx + 1][0]:
            s, e, d = self._segments[idx]
            ns, ne, nd = self._segments[idx + 1]
            if self.store_data:
                d.extend(nd)  # type: ignore[union-attr]
            self._segments[idx] = (s, ne, d)
            del self._segments[idx + 1]
            del self._starts[idx + 1]

    # -- reading ---------------------------------------------------------------
    def read(self, offset: int, length: int) -> bytes:
        """Bytes at [offset, offset+length); unwritten holes read as zero."""
        if not self.store_data:
            raise RuntimeError("ByteStore was created with store_data=False")
        out = bytearray(length)
        end = offset + length
        idx = max(bisect.bisect_right(self._starts, offset) - 1, 0)
        for s, e, d in self._segments[idx:]:
            if s >= end:
                break
            lo = max(s, offset)
            hi = min(e, end)
            if lo < hi:
                out[lo - offset : hi - offset] = d[lo - s : hi - s]  # type: ignore[index]
        return bytes(out)

    # -- inspection --------------------------------------------------------------
    def extents(self) -> List[Extent]:
        """Sorted merged written extents."""
        return [(s, e) for s, e, _ in self._segments]

    def total_bytes(self) -> int:
        return sum(e - s for s, e, _ in self._segments)

    def size(self) -> int:
        """End of the last written byte (file size if densely written)."""
        return self._segments[-1][1] if self._segments else 0

    def is_dense(self, expected_size: Optional[int] = None) -> bool:
        """True if written extents form one gapless run starting at 0."""
        if len(self._segments) != 1:
            return not self._segments and (expected_size in (None, 0))
        start, end, _ = self._segments[0]
        if start != 0:
            return False
        return expected_size is None or end == expected_size

    def gaps(self) -> List[Extent]:
        """Holes between written extents (excluding beyond-EOF space)."""
        holes: List[Extent] = []
        prev_end = 0
        for s, e, _ in self._segments:
            if s > prev_end:
                holes.append((prev_end, s))
            prev_end = e
        return holes

    def content_equal(self, other: "ByteStore") -> bool:
        """Same extents and (when stored) same bytes."""
        if self.extents() != other.extents():
            return False
        if self.store_data and other.store_data:
            return all(
                bytes(a[2]) == bytes(b[2])  # type: ignore[arg-type]
                for a, b in zip(self._segments, other._segments)
            )
        return True
