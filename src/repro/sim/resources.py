"""Shared-resource primitives: Resource, Lane, Store.

These model contention points in the simulated system — NIC and server
channels, the metadata server, the write-back cache's flush lock.  (A
server's disk is a :class:`~repro.pvfs.sched.DiskQueue`: its service is
priced when it is granted.)  :class:`Resource` is the classic request/release
slot pool: a request is an event that a process yields, and it works
as a context manager for exception-safe release.  :class:`Lane` is
the cheaper special case the model's serial channels need: FIFO,
capacity 1, and a hold whose length is known when it is asked for, so
one queue entry per hold replaces a grant event plus a timeout.
:class:`Store` is a buffer of Python objects with filtered gets.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Deque,
    Generic,
    List,
    Optional,
    Tuple,
    TypeVar,
)

from .events import NORMAL, Event, Timeout

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .environment import Environment

_INF = float("inf")

T = TypeVar("T")


class Request(Event):
    """A pending claim on a :class:`Resource` slot."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.env)
        self.resource = resource
        resource._do_request(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc_val, exc_tb) -> None:
        self.resource.release(self)

    def cancel(self) -> None:
        """Withdraw an unfulfilled request (no-op if already granted)."""
        self.resource._cancel(self)


class Resource:
    """A resource with ``capacity`` identical slots and a FIFO wait queue.

    The wait queue is a deque: at scale a single contention point (the
    master's NIC RX channel with a thousand senders queued on it) grants
    thousands of times from the queue head, and ``list.pop(0)`` there is
    O(waiters) per grant — quadratic over a run.
    """

    def __init__(self, env: "Environment", capacity: int = 1) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.users: List[Request] = []
        self.queue: Deque[Request] = deque()

    def __repr__(self) -> str:
        return (
            f"<{self.__class__.__name__} capacity={self.capacity} "
            f"users={len(self.users)} queued={len(self.queue)}>"
        )

    @property
    def in_use(self) -> int:
        return len(self.users)

    @property
    def available(self) -> int:
        return self.capacity - len(self.users)

    def request(self) -> Request:
        """Claim a slot; the returned event fires when granted."""
        return Request(self)

    def release(self, request: Request) -> None:
        """Return a slot claimed by ``request`` and wake the next waiter."""
        try:
            self.users.remove(request)
        except ValueError:
            # Releasing an unfulfilled request equals cancelling it.
            self._cancel(request)
            return
        self._grant_next()

    # -- internals ----------------------------------------------------------
    def _do_request(self, request: Request) -> None:
        if len(self.users) < self.capacity:
            self.users.append(request)
            request.succeed()
        else:
            self.queue.append(request)

    def _cancel(self, request: Request) -> None:
        try:
            self.queue.remove(request)
        except ValueError:
            pass

    def _grant_next(self) -> None:
        if self.queue and len(self.users) < self.capacity:
            nxt = self.queue.popleft()
            self.users.append(nxt)
            nxt.succeed()


class Lane:
    """A FIFO, capacity-1 channel whose holds have a known length.

    ``hold(seconds)`` queues one hold and returns the event that fires
    when it ends; there is no request object, no grant event and no
    release call.  Holds run one at a time in the order they were asked
    for and end at the instants ``request`` / ``timeout(seconds)`` /
    ``release`` on a ``Resource(capacity=1)`` would end them.  The lane is
    lazy so that every event lands where that cycle put it:

    * an idle lane schedules the done event at ``now + seconds`` at once
      (where the grant would have fired and started the timeout);
    * a busy lane queues ``(seconds, done)``.  The first callback of every
      done event is the lane's own :meth:`_free`, which starts the next
      queued hold at ``now + its seconds`` before the holder's callbacks
      run — where ``Resource.release`` would have granted it.

    Only the done event's insertion id is drawn earlier than the
    timeout's was (at the request or the free-up, not at the grant), so
    an event scheduled in between for the very same instant can swap
    order with it.  ``tests/integration/test_perf_digests.py`` shows that
    no benchmark workload has such a tie.

    :meth:`hold` is the form a process yields.  A callback machine uses
    :meth:`hold_then` instead: the same hold on the same FIFO, whose end
    is a bare callable in the queue (``Environment.call_in``) that frees
    the lane, exactly as ``_free`` does, and then calls the machine.

    A hold cannot be cancelled or cut short.  A process interrupted while
    it waits on a hold stops waiting, but the hold still occupies the
    lane to its end (a ``Resource`` would free the slot at once).  The
    simulator never interrupts a process that waits on a hold: the fault
    injector interrupts only worker processes, and the holds a worker's
    sends and PVFS legs issue at its call are callback holds of their
    machines.
    """

    __slots__ = ("env", "_busy", "_waiting", "_then")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self._busy = False
        # Most lanes never queue a hold (a thousand-rank run builds
        # thousands of them), so the wait queue is made on first use.
        # Its items are ``(seconds, done event or then callable)``.
        self._waiting: Optional[Deque[Tuple[float, Any]]] = None
        # The running callback hold's ``then`` (one hold runs at a time).
        self._then: Optional[Callable[[], Any]] = None

    def __repr__(self) -> str:
        return f"<Lane busy={self._busy} queued={self.queued}>"

    @property
    def busy(self) -> bool:
        """True while a hold is running."""
        return self._busy

    @property
    def queued(self) -> int:
        """Holds waiting behind the running one."""
        return len(self._waiting) if self._waiting else 0

    def hold(self, seconds: float) -> Event:
        """Occupy the lane for ``seconds`` after the holds queued before
        this one; the returned event fires when this hold ends."""
        if self._busy:
            if not 0.0 <= seconds < _INF:
                raise ValueError(f"hold must be finite and >= 0, got {seconds!r}")
            done = Event(self.env)
            done.callbacks.append(self._free)  # type: ignore[union-attr]
            if self._waiting is None:
                self._waiting = deque()
            self._waiting.append((seconds, done))
            return done
        done = Timeout(self.env, seconds)
        done.callbacks.append(self._free)
        self._busy = True
        return done

    def hold_then(self, seconds: float, then: Callable[[], Any]) -> None:
        """:meth:`hold` for a callback machine: call ``then()`` when the
        hold ends, right after the lane has started the next queued hold,
        and schedule no event."""
        if not 0.0 <= seconds < _INF:
            raise ValueError(f"hold must be finite and >= 0, got {seconds!r}")
        if self._busy:
            if self._waiting is None:
                self._waiting = deque()
            self._waiting.append((seconds, then))
            return
        self._busy = True
        self._then = then
        env = self.env
        heappush(env._queue, (env._now + seconds, NORMAL, next(env._eid), self._ended))

    def _ended(self) -> None:
        then = self._then
        # An idle lane must not keep its last holder alive.
        self._then = None
        self._free(None)
        then()

    def _free(self, _event: Optional[Event]) -> None:
        if not self._waiting:
            self._busy = False
            return
        seconds, holder = self._waiting.popleft()
        if isinstance(holder, Event):
            holder._value = None
        else:
            self._then = holder
            holder = self._ended
        env = self.env
        heappush(env._queue, (env._now + seconds, NORMAL, next(env._eid), holder))


class StoreGet(Event):
    __slots__ = ("filter",)

    def __init__(self, store: "Store", filter: Optional[Callable[[Any], bool]] = None) -> None:
        super().__init__(store.env)
        self.filter = filter
        store._get_arrived(self)


class StorePut(Event):
    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any) -> None:
        super().__init__(store.env)
        self.item = item
        store._putters.append(self)
        store._rebalance()


class Store(Generic[T]):
    """An unordered buffer of Python objects with optional capacity.

    ``get`` may take a filter predicate; the first matching item is removed
    (FilterStore semantics folded in — the simulated MPI matching queues
    rely on this).
    """

    def __init__(self, env: "Environment", capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.items: List[T] = []
        self._getters: List[StoreGet] = []
        self._putters: Deque[StorePut] = deque()

    def __repr__(self) -> str:
        return f"<Store items={len(self.items)} getters={len(self._getters)}>"

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: T) -> StorePut:
        return StorePut(self, item)

    def get(self, filter: Optional[Callable[[T], bool]] = None) -> StoreGet:
        return StoreGet(self, filter)

    def peek(self, filter: Optional[Callable[[T], bool]] = None) -> Optional[T]:
        """Non-destructively find the first matching item (or None)."""
        for item in self.items:
            if filter is None or filter(item):
                return item
        return None

    # Dispatch maintains the invariant that no waiting getter matches any
    # stored item, so the old fixpoint loop's full getters × items rescan
    # on *every* operation collapses to targeted work: a new getter scans
    # the items once, and newly admitted items are offered only to the
    # waiting getters (which by the invariant cannot match older items).
    # The grant order — FIFO putter admission, then getters in FIFO order
    # each taking their first match by item position — is unchanged
    # (property-tested against the reference fixpoint implementation).

    def _get_arrived(self, getter: StoreGet) -> None:
        flt = getter.filter
        items = self.items
        for idx, item in enumerate(items):
            if flt is None or flt(item):
                items.pop(idx)
                getter.succeed(item)
                # The freed slot may admit a queued putter.
                if self._putters:
                    self._rebalance()
                return
        self._getters.append(getter)

    def _rebalance(self) -> None:
        items = self.items
        putters = self._putters
        capacity = self.capacity
        while putters and len(items) < capacity:
            # Admit as many queued putters as capacity allows (FIFO) ...
            new_lo = len(items)
            while putters and len(items) < capacity:
                put = putters.popleft()
                items.append(put.item)
                put.succeed()
            # ... then offer only the new items to the waiting getters.
            if len(items) > new_lo and self._getters:
                getters = self._getters
                remaining: List[StoreGet] = []
                for gi, getter in enumerate(getters):
                    if new_lo >= len(items):
                        # No new items left; the rest keep waiting.
                        remaining.extend(getters[gi:])
                        break
                    flt = getter.filter
                    for idx in range(new_lo, len(items)):
                        if flt is None or flt(items[idx]):
                            getter.succeed(items.pop(idx))
                            break
                    else:
                        remaining.append(getter)
                self._getters = remaining
