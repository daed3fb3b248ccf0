"""Wire protocol between the S3aSim master and workers.

Message kinds and their (simulated) wire sizes.  The paper's Algorithms 1
and 2 exchange: work requests, task assignments / termination notices,
score (+result) messages, offset lists, and — for master-writing with the
query-sync option — write-completion notices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

MASTER_RANK = 0

TAG_REQUEST = 1  # worker -> master: "give me work"
TAG_ASSIGN = 2  # master -> worker: tuple of TaskAssignment, None or Release
TAG_SCORES = 3  # worker -> master: ScoreMessage
TAG_OFFSETS = 4  # master -> worker: OffsetMessage (parallel-I/O modes)
TAG_WRITTEN = 5  # master -> worker: WrittenNotice (MW + query sync)
TAG_HEARTBEAT = 6  # worker -> master: Heartbeat (fault tolerance only)
TAG_REJOIN = 7  # worker -> master: Rejoin after a crash reboot
TAG_WRITE_ACK = 8  # worker -> master: WriteAck (WW results on disk)
TAG_STEAL = 9  # master -> master: Steal probe (sharded runs only)
TAG_DONATE = 10  # master -> master: Donate reply (sharded runs only)

REQUEST_BYTES = 16
ASSIGN_BYTES = 16
NOTICE_BYTES = 16
HEARTBEAT_BYTES = 16
STEAL_BYTES = 16
_HEADER_BYTES = 32


@dataclass(frozen=True)
class TaskAssignment:
    """One unit of work: search ``query_id`` against ``fragment_id``.

    ``strategy`` names the query's strategy.  The master always stamps it
    when it hands the task out, in static runs too: the worker needs it to
    decide whether to ship the payload (MW) or store the batch for a later
    offset list (WW), and which method writes that batch.  Only tasks
    still queued at the master are unstamped; a worker rejects one."""

    query_id: int
    fragment_id: int
    strategy: Optional[str] = None


@dataclass(frozen=True)
class ScoreMessage:
    """Worker → master after finishing a task.

    Under worker-writing strategies only the sorted scores and sizes
    travel; under master-writing the result payload rides along (its bytes
    are charged on the wire even when content generation is disabled).
    """

    query_id: int
    fragment_id: int
    worker: int
    scores: np.ndarray
    sizes: np.ndarray
    payload_bytes: int = 0
    payloads: Optional[List[bytes]] = None
    #: Sender's reboot count (fault-tolerant runs); lets the master drop
    #: messages that raced a crash the sender already recovered from.
    incarnation: int = 0

    @property
    def count(self) -> int:
        return len(self.scores)

    def wire_bytes(self) -> int:
        return _HEADER_BYTES + 16 * self.count + self.payload_bytes


@dataclass(frozen=True)
class OffsetEntry:
    """File offsets for one (query, fragment) batch, in batch order."""

    query_id: int
    fragment_id: int
    offsets: np.ndarray


@dataclass(frozen=True)
class OffsetMessage:
    """Master → worker: where to write the worker's results of one write
    group.  ``entries`` may be empty — the worker still needs the message
    as a group boundary for collective writes and query-sync barriers.

    Two out-of-band variants exist only under fault tolerance:
    ``repair=True`` carries previously-issued offsets for a recomputed
    batch (written individually, never part of a group collective);
    ``discard=True`` tells the worker to drop stranded stored batches
    whose (query, fragment) was already delivered by another worker."""

    group: int
    entries: Tuple[OffsetEntry, ...]
    repair: bool = False
    discard: bool = False

    def wire_bytes(self) -> int:
        return _HEADER_BYTES + sum(16 + 8 * len(e.offsets) for e in self.entries)

    @property
    def count(self) -> int:
        return sum(len(e.offsets) for e in self.entries)


@dataclass(frozen=True)
class Release:
    """Master → worker: "no more work" in serve mode.

    The batch protocol terminates workers with a bare ``None``; under
    open-loop arrivals the worker also needs the *dynamic* final group
    count (the number of admitted queries, unknowable from the config) so
    its I/O termination condition can close over the right bound."""

    final_groups: int


@dataclass(frozen=True)
class WrittenNotice:
    """Master → worker: group's results are on disk (MW + query sync)."""

    group: int


@dataclass(frozen=True)
class Heartbeat:
    """Worker → master liveness ping (fault-tolerant runs only)."""

    worker: int
    incarnation: int


@dataclass(frozen=True)
class Rejoin:
    """Worker → master: "I crashed, lost my state, and am back".

    ``incarnation`` counts reboots; the master uses the rejoin (or a
    heartbeat timeout, whichever comes first) to trigger recovery of the
    worker's lost work exactly once per crash."""

    worker: int
    incarnation: int


@dataclass(frozen=True)
class Steal:
    """Master → master: "my pending queue drained — share some work".

    Sent out-of-band between shard masters in multi-master runs.
    ``capacity`` bounds the reply: the thief's free query slots (its
    ledger can hold at most ``nqueries`` per shard), so a donation can
    never overflow the thief's offset ledger."""

    shard: int
    capacity: int


@dataclass(frozen=True)
class DonatedQuery:
    """One transferred query: its content id and original arrival stamp.

    The arrival time rides along so the thief's completion latency stays
    honest end-to-end (arrival at the donor → durable at the thief)."""

    content: int
    arrival_t: float


@dataclass(frozen=True)
class Donate:
    """Master → master: reply to a :class:`Steal` (possibly empty).

    Carries up to half of the donor's unstarted, non-priority pending
    queries.  An empty reply doubles as the "I have nothing" signal the
    thief's termination protocol counts."""

    shard: int
    queries: Tuple[DonatedQuery, ...]

    def wire_bytes(self) -> int:
        return _HEADER_BYTES + 16 * len(self.queries)


@dataclass(frozen=True)
class WriteAck:
    """Worker → master: these (query, fragment) batches are on disk.

    Only sent under fault tolerance in worker-writing strategies; the
    master holds a batch's offsets as reissueable until the ack lands."""

    worker: int
    keys: Tuple[Tuple[int, int], ...]

    def wire_bytes(self) -> int:
        return _HEADER_BYTES + 8 * len(self.keys)
