"""Shard-level configuration and query placement for multi-master runs.

A sharded run partitions the MPI world into ``nshards`` contiguous rank
blocks; each block runs one independent master (its rank 0) plus a worker
pool, all sharing the simulated network and PVFS volume.  Placement
decides, at the arrival instant, which shard admits a query; the
work-stealing protocol (see :mod:`repro.shard.steal`) rebalances later if
placement turns out skewed.

Placement consumes no randomness — it is a pure function of the global
arrival index — so the arrival *stream* (times, priorities) of a sharded
run is bit-identical to the single-master run at the same seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

#: Supported placement functions, in documentation order.
PLACEMENTS: Tuple[str, ...] = ("hash", "range")


@dataclass(frozen=True)
class ShardConfig:
    """One run's master-sharding layout and steal policy."""

    #: Number of shards (masters).  1 degenerates to the plain runner.
    nshards: int = 1
    #: Query placement at admission: ``hash`` spreads arrivals via an
    #: integer mix (uniform, the default); ``range`` assigns contiguous
    #: arrival-index blocks per shard (deliberately skewed under open-loop
    #: arrivals — the work-stealing showcase).
    placement: str = "hash"
    #: Allow masters with drained pending queues to steal unstarted
    #: queries from loaded peers.
    steal: bool = True
    #: Thief back-off between unsuccessful steal rounds while arrivals are
    #: still open (simulated seconds).
    steal_retry_s: float = 0.05

    def __post_init__(self) -> None:
        if self.nshards < 1:
            raise ValueError(f"nshards must be >= 1, got {self.nshards}")
        if self.placement not in PLACEMENTS:
            raise ValueError(
                f"placement must be one of {PLACEMENTS}, got {self.placement!r}"
            )
        if not self.steal_retry_s > 0:
            raise ValueError(
                f"steal_retry_s must be positive, got {self.steal_retry_s}"
            )


def partition_ranks(nprocs: int, nshards: int, index: int) -> List[int]:
    """World ranks of shard ``index``: contiguous blocks, remainder spread
    over the first shards (the same arithmetic as the hybrid topology)."""
    base = nprocs // nshards
    extra = nprocs % nshards
    start = index * base + min(index, extra)
    size = base + (1 if index < extra else 0)
    return list(range(start, start + size))


def _mix(x: int) -> int:
    """splitmix64 finalizer: a cheap, well-spread integer hash."""
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


def place(arrival_index: int, nshards: int, placement: str, nqueries: int) -> int:
    """Owning shard of the ``arrival_index``-th arrival."""
    if nshards <= 1:
        return 0
    if placement == "hash":
        return _mix(arrival_index) % nshards
    # range: contiguous arrival-index blocks (skewed under open arrivals:
    # early shards fill first and later shards sit idle until their block).
    return min(arrival_index * nshards // max(nqueries, 1), nshards - 1)


class ArrivalRouter:
    """What the global arrival process drives in sharded serve mode.

    Offers the ``i``-th arrival to shard ``place(i)``'s admission with
    content id ``i``.  Every shard learns of arrival exhaustion at the
    same instant, and its thief (when stealing) gets a nudge.
    """

    def __init__(
        self, admissions, thieves, shard_cfg: ShardConfig, nqueries: int
    ) -> None:
        self._admissions = admissions
        self._thieves = thieves
        self._shard_cfg = shard_cfg
        self._nqueries = nqueries
        self._index = 0

    def on_arrival(self, priority: bool) -> None:
        index = self._index
        self._index += 1
        shard = place(
            index, len(self._admissions), self._shard_cfg.placement, self._nqueries
        )
        self._admissions[shard].on_arrival(priority, content=index)

    def arrivals_finished(self) -> None:
        for admission, thief in zip(self._admissions, self._thieves):
            admission.arrivals_finished()
            if thief is not None:
                thief.nudge()
