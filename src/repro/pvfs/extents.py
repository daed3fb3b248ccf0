"""Sorted extent runs: the one representation behind every PVFS extent set.

A *runs* list is a plain ``list[tuple[int, int]]`` of half-open
``[lo, hi)`` byte extents that is sorted, disjoint and non-touching
(``lo < hi``, and each run ends strictly before the next one starts, so
``[a, b)`` + ``[b, c)`` is always stored as ``[a, c)``).  The write-back
cache's dirty runs, the read-ahead store and the replica missed-extent
ledger all keep one.

Every function finds its position with :mod:`bisect` and mutates the list
in place, so one call costs O(log n + runs touched) — list I/O hands a
server hundreds of regions per request, and each region is one call.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import List, Optional, Sequence, Tuple

Extent = Tuple[int, int]  # [lo, hi)
Region = Tuple[int, int]  # (offset, length)

# Larger than any ``hi``: ``(x, _END)`` sorts after every run starting at x.
_END = float("inf")


def _first_ending_after(runs: List[Extent], start: int) -> int:
    """Index of the first run with ``hi > start``."""
    i = bisect_right(runs, (start, _END))
    if i and runs[i - 1][1] > start:
        return i - 1
    return i


def covers(runs: List[Extent], start: int, end: int) -> bool:
    """True when one run holds all of ``[start, end)``."""
    i = bisect_right(runs, (start, _END))
    return i > 0 and runs[i - 1][1] >= end


def overlaps(runs: List[Extent], start: int, end: int) -> bool:
    """True when some run shares at least one byte with ``[start, end)``."""
    if end <= start:
        return False
    i = _first_ending_after(runs, start)
    return i < len(runs) and runs[i][0] < end


def split(
    runs: List[Extent], regions: Sequence[Region]
) -> Tuple[List[Region], List[Region]]:
    """Partition ``(offset, length)`` regions into (hits, misses), in order.

    A region is a hit only when one run covers it whole; zero-length
    regions are always misses.  The position in ``runs`` carries over, so
    ascending regions (a server's list request) bisect only on leaving the
    current run; a region that goes backwards bisects the runs before it.
    """
    if not runs:
        return [], list(regions)
    hits: List[Region] = []
    misses: List[Region] = []
    n = len(runs)
    # ``i == bisect_right(runs, (offset, _END))`` while ``floor <= offset <
    # ceiling``: only ``runs[i - 1]`` can cover the region.
    i, floor, ceiling = 0, -1, runs[0][0]
    for region in regions:
        offset, length = region
        if length > 0:
            if not floor <= offset < ceiling:
                if offset < floor:
                    i = bisect_right(runs, (offset, _END), 0, i)
                else:
                    i = bisect_right(runs, (offset, _END), i, n)
                floor = runs[i - 1][0] if i else -1
                ceiling = runs[i][0] if i < n else _END
            if i and runs[i - 1][1] >= offset + length:
                hits.append(region)
                continue
        misses.append(region)
    return hits, misses


def span(regions: Sequence[Region]) -> Optional[Extent]:
    """Lowest start to highest end of the non-empty regions, in one pass."""
    lo = hi = None
    for offset, length in regions:
        if length > 0:
            end = offset + length
            if lo is None or offset < lo:
                lo = offset
            if hi is None or end > hi:
                hi = end
    return None if lo is None else (lo, hi)


def add(runs: List[Extent], start: int, end: int) -> int:
    """Merge ``[start, end)`` into ``runs``; returns the newly covered bytes.

    Runs that overlap or touch the new extent fuse with it.
    """
    if end <= start:
        return 0
    i = bisect_right(runs, (start, _END))
    if i and runs[i - 1][1] >= start:
        i -= 1
    j = bisect_right(runs, (end, _END), i)
    if i == j:
        runs.insert(i, (start, end))
        return end - start
    lo = min(start, runs[i][0])
    hi = max(end, runs[j - 1][1])
    before = 0
    for r_lo, r_hi in runs[i:j]:
        before += r_hi - r_lo
    runs[i:j] = [(lo, hi)]
    return hi - lo - before


def subtract(runs: List[Extent], start: int, end: int) -> int:
    """Remove ``[start, end)`` from ``runs``; returns the removed bytes."""
    if end <= start:
        return 0
    i = _first_ending_after(runs, start)
    j = bisect_left(runs, (end,), i)
    if i == j:
        return 0
    removed = 0
    for r_lo, r_hi in runs[i:j]:
        removed += min(r_hi, end) - max(r_lo, start)
    keep: List[Extent] = []
    first_lo = runs[i][0]
    last_hi = runs[j - 1][1]
    if first_lo < start:
        keep.append((first_lo, start))
    if end < last_hi:
        keep.append((end, last_hi))
    runs[i:j] = keep
    return removed


def gaps(runs: List[Extent], start: int, end: int) -> List[Extent]:
    """The sub-extents of ``[start, end)`` no run covers, in order."""
    out: List[Extent] = []
    cursor = start
    i = _first_ending_after(runs, start)
    n = len(runs)
    while cursor < end and i < n:
        lo, hi = runs[i]
        if lo >= end:
            break
        if lo > cursor:
            out.append((cursor, lo))
        cursor = hi
        i += 1
    if cursor < end:
        out.append((cursor, end))
    return out
