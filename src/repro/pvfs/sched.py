"""The disk of a PVFS2 I/O daemon and its optional elevator.

Every I/O server has one :class:`DiskQueue`: a unit-capacity disk whose
waiters are served in arrival order, as the seed model's daemon served
them, unless an :class:`ElevatorPolicy` reorders them.  A real 2006 I/O
daemon sat on top of an elevator: requests waiting for the disk were
*reordered* by physical offset so a sweep of the head serviced them with
far fewer seeks.  ``PVFSConfig.disk_sched`` picks one of:

``fifo``
    Arrival order, exactly the seed behaviour.  The default.

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
from typing import Callable, List, Optional, Sequence

from ..sim import SimulationError

#: Scheduler names accepted by ``PVFSConfig.disk_sched``.
SCHEDULERS = ("fifo", "elevator")


@dataclass
class QueuedRequest:
    """One claim waiting for the disk."""

    offset: int  #: first physical offset — the sort key of the elevator
    order: int  #: arrival sequence number (FIFO tiebreak + overdue order)
    start: Callable[[], object]  #: called when the disk is granted
    passes: int = 0  #: times another request was granted ahead of this one


class ElevatorPolicy:
    """Starvation-bounded C-SCAN over physical offsets."""

    def __init__(self, aging_limit: int = 8) -> None:
        if aging_limit < 1:
            raise ValueError("aging_limit must be >= 1")
        self.aging_limit = aging_limit

    def select(self, waiting: Sequence[QueuedRequest], head: int) -> int:
        """Index into ``waiting`` of the next request to grant."""
        overdue = [
            i for i, w in enumerate(waiting) if w.passes >= self.aging_limit
        ]
        if overdue:
            return min(overdue, key=lambda i: waiting[i].order)
        ahead = [i for i, w in enumerate(waiting) if w.offset >= head]
        pool = ahead if ahead else range(len(waiting))
        return min(pool, key=lambda i: (waiting[i].offset, waiting[i].order))


class DiskQueue:
    """A server's disk: capacity 1, waiters granted in arrival order or by
    an ``elevator``.

    ``claim(start, offset)`` calls ``start()`` at once when the disk is
    free and queues it otherwise; ``release(head)`` grants a waiter at
    the release instant.  So a waiter prices its service when the disk is
    granted, from the head and disk model of that instant.  The elevator
    chooses at release time too: it sees every request that queued while
    the disk was busy plus the head position the finished request left
    behind, which is exactly the information the daemon's elevator had.
    Every claim runs to its release: no waiter leaves the queue early.
    """

    def __init__(self, elevator: Optional[ElevatorPolicy] = None) -> None:
        self.elevator = elevator
        self.waiting: List[QueuedRequest] = []
        self.busy = False
        self._order = 0

    def __repr__(self) -> str:
        name = "fifo" if self.elevator is None else "elevator"
        state = "busy" if self.busy else "idle"
        return f"<DiskQueue {name} {state} waiting={len(self.waiting)}>"

    @property
    def depth(self) -> int:
        """Requests in the system (waiting + in service)."""
        return len(self.waiting) + (1 if self.busy else 0)

    def claim(self, start: Callable[[], object], offset: int = 0) -> None:
        """Call ``start()`` once the disk is granted to a run starting at
        physical ``offset``."""
        if self.busy:
            self._order += 1
            self.waiting.append(QueuedRequest(offset, self._order, start))
        else:
            self.busy = True
            start()

    def release(self, head: int) -> None:
        """Finish service at ``head`` and grant the next waiter."""
        waiting = self.waiting
        if not waiting:
            if not self.busy:
                raise SimulationError("DiskQueue.release without a matching claim")
            self.busy = False
        elif self.elevator is None:
            waiting.pop(0).start()
        else:
            chosen = waiting.pop(self.elevator.select(waiting, head))
            for waiter in waiting:
                waiter.passes += 1
            chosen.start()

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
