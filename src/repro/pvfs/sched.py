"""Disk-queue scheduling for the PVFS2 I/O daemon model.

The seed model serviced the disk in plain arrival order (today a bare
:class:`~repro.pvfs.server.DiskFifo`); a real 2006 I/O daemon sat on top
of an elevator — requests waiting for the disk were *reordered* by
physical offset so a sweep of the head serviced them with far fewer
seeks.  This module is that layer: a :class:`DiskQueue` (a unit-capacity
disk whose wait queue is granted by a pluggable policy) and two policies:

``fifo``
    Arrival order — exactly the seed behaviour.  The default; with it the
    queue is never even constructed, so default runs stay bit-identical.

``elevator``
    Starvation-bounded C-SCAN: pick the waiting request with the lowest
    offset at or ahead of the current head; when the upward sweep
    exhausts, wrap to the lowest waiting offset (circular scan, so
    low-offset requests are not systematically favoured).

Starvation bound: every grant increments a pass counter on the requests
left waiting.  Once a request has been passed over ``aging_limit`` times
it is *overdue*, and overdue requests are serviced in arrival order
before any sweep choice.  A request can therefore be passed over at most
``aging_limit + e`` times, where ``e`` is the number of earlier arrivals
still waiting when it becomes overdue — the property test in
``tests/pvfs/test_sched.py`` asserts exactly this bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Sequence

from ..sim import Event, SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from ..sim import Environment

#: Scheduler names accepted by :func:`make_policy` / ``PVFSConfig.disk_sched``.
SCHEDULERS = ("fifo", "elevator")


@dataclass
class QueuedRequest:
    """One request waiting for the disk."""

    offset: int  #: first physical offset — the sort key of the elevator
    order: int  #: arrival sequence number (FIFO tiebreak + overdue order)
    event: Event  #: succeeds when the disk is granted
    passes: int = 0  #: times another request was granted ahead of this one


class SchedulerPolicy:
    """Chooses which waiting request the freed disk services next."""

    name = "?"

    def select(self, waiting: Sequence[QueuedRequest], head: int) -> int:
        """Index into ``waiting`` of the next request to grant."""
        raise NotImplementedError


class FifoPolicy(SchedulerPolicy):
    """Arrival order — the seed daemon's (non-)policy."""

    name = "fifo"

    def select(self, waiting: Sequence[QueuedRequest], head: int) -> int:
        return min(range(len(waiting)), key=lambda i: waiting[i].order)


class ElevatorPolicy(SchedulerPolicy):
    """Starvation-bounded C-SCAN over physical offsets."""

    name = "elevator"

    def __init__(self, aging_limit: int = 8) -> None:
        if aging_limit < 1:
            raise ValueError("aging_limit must be >= 1")
        self.aging_limit = aging_limit

    def select(self, waiting: Sequence[QueuedRequest], head: int) -> int:
        overdue = [
            i for i, w in enumerate(waiting) if w.passes >= self.aging_limit
        ]
        if overdue:
            return min(overdue, key=lambda i: waiting[i].order)
        ahead = [i for i, w in enumerate(waiting) if w.offset >= head]
        pool = ahead if ahead else range(len(waiting))
        return min(pool, key=lambda i: (waiting[i].offset, waiting[i].order))


def make_policy(name: str, aging_limit: int = 8) -> SchedulerPolicy:
    """Build the policy for a ``disk_sched`` config value."""
    if name == "fifo":
        return FifoPolicy()
    if name == "elevator":
        return ElevatorPolicy(aging_limit=aging_limit)
    raise ValueError(f"unknown disk scheduler {name!r}; choose from {SCHEDULERS}")


class DiskQueue:
    """A unit-capacity disk whose waiters are granted by a policy.

    Unlike the arrival order of the bare
    :class:`~repro.pvfs.server.DiskFifo`, the grant order is chosen at
    *release* time — the policy sees every request that
    queued while the disk was busy plus the head position the finished
    request left behind, which is exactly the information the daemon's
    elevator had.

    Usage from a process fragment::

        yield queue.acquire(first_offset)
        try:
            ... service, updating head ...
        finally:
            queue.release(new_head)
    """

    def __init__(self, env: "Environment", policy: SchedulerPolicy) -> None:
        self.env = env
        self.policy = policy
        self.waiting: List[QueuedRequest] = []
        self.busy = False
        self._order = 0
        #: Longest wait-queue observed (depth histogram feeds from callers).
        self.max_waiting = 0

    def __repr__(self) -> str:
        state = "busy" if self.busy else "idle"
        return f"<DiskQueue {self.policy.name} {state} waiting={len(self.waiting)}>"

    @property
    def depth(self) -> int:
        """Requests in the system (waiting + in service)."""
        return len(self.waiting) + (1 if self.busy else 0)

    def acquire(self, offset: int) -> Event:
        """Request the disk for a run starting at physical ``offset``."""
        event = Event(self.env)
        if not self.busy:
            self.busy = True
            event.succeed()
        else:
            self._order += 1
            self.waiting.append(
                QueuedRequest(offset=int(offset), order=self._order, event=event)
            )
            if len(self.waiting) > self.max_waiting:
                self.max_waiting = len(self.waiting)
        return event

    def release(self, head: int) -> None:
        """Finish service at ``head`` and grant the policy's next choice."""
        if not self.busy:
            raise SimulationError("DiskQueue.release without a matching acquire")
        if not self.waiting:
            self.busy = False
            return
        index = self.policy.select(self.waiting, head)
        chosen = self.waiting.pop(index)
        for waiter in self.waiting:
            waiter.passes += 1
        chosen.event.succeed()

    def reset(self) -> None:
        """Forget pre-restart scheduling state (daemon restart).

        A rebooted daemon's elevator starts from scratch: aging counters
        accumulated before the outage are gone, so the post-restart grant
        order for the surviving waiters must match what a *fresh* elevator
        would choose given the same waiting set.  Relative arrival order
        (the FIFO tiebreak) is a property of the requests, not the daemon,
        so ``order`` values are left alone — a fresh queue would number
        the same arrivals in the same relative order.
        """
        for waiter in self.waiting:
            waiter.passes = 0
