"""The simulation environment: event queue, virtual clock, run loop."""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from typing import Any, Iterable, List, Optional, Tuple, Union

from ..check.invariants import NULL_CHECKER
from ..obs.metrics import NULL_METRICS
from .errors import EmptySchedule, SimulationError, StopSimulation
from .events import AnyOf, Event, Join, NORMAL, Timeout
from .process import Process, ProcessGenerator

_INF = float("inf")


class Environment:
    """Execution environment for a discrete-event simulation.

    Time is a float in *seconds* throughout this project.  The event queue
    is a single binary heap (``heapq``) of ``(time, priority, eid, event)``
    entries: events run in time order, same-time events by priority
    (URGENT before NORMAL), then FIFO by the monotonically increasing
    insertion id ``eid``.  That key is total, so a run's event order — and
    every simulated result — depends only on what was scheduled, never on
    the heap's internal layout.
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._queue: List[Tuple[float, int, int, Event]] = []
        self._eid = count()
        self._active_proc: Optional[Process] = None
        # Observability hook: layers emit counters/histograms here.  The
        # null registry makes every metric call a no-op; the kernel itself
        # never reads it, so metrics cannot perturb event ordering.
        self.metrics = NULL_METRICS
        # Invariant-checking hook (``--check``): the null checker has no
        # hooks, so every call site guards on ``check.enabled``; an enabled
        # checker is pure bookkeeping, so the event order is untouched.
        self.check = NULL_CHECKER

    def __repr__(self) -> str:
        return f"<Environment now={self._now:.9g} queued={self.queue_size}>"

    # -- clock & introspection ----------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed (None between events)."""
        return self._active_proc

    @property
    def queue_size(self) -> int:
        return len(self._queue)

    # -- factories -----------------------------------------------------------
    def event(self) -> Event:
        """Create a fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: ProcessGenerator, name: Optional[str] = None) -> Process:
        """Start a new process running ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> Join:
        return Join(self, *events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling ------------------------------------------------------------
    def schedule(self, event: Event, priority: int = NORMAL, delay: float = 0.0) -> None:
        """Insert ``event`` into the queue ``delay`` seconds from now.

        ``delay`` must be finite and non-negative: a NaN timestamp breaks
        the queue's ordering invariant and silently corrupts it, and an
        infinite one can never be reached.  Zero (the overwhelmingly common
        case — every succeed/fail) takes the comparison-free path.
        """
        if delay:
            # Truthy delay: NaN and negatives fail the left comparison,
            # +inf fails the right one.
            if not 0.0 < delay < _INF:
                raise SimulationError(
                    f"Cannot schedule with non-finite or negative delay {delay!r}"
                )
            t = self._now + delay
        else:
            t = self._now
        heappush(self._queue, (t, priority, next(self._eid), event))

    def peek(self) -> float:
        """Time of the next scheduled event, or +inf if none."""
        return self._queue[0][0] if self._queue else _INF

    def step(self) -> None:
        """Process the next event: advance the clock, run callbacks."""
        queue = self._queue
        if not queue:
            raise EmptySchedule()
        self._now, _, _, event = heappop(queue)

        callbacks = event.callbacks
        if callbacks is None:  # pragma: no cover - defensive
            raise SimulationError(f"{event!r} processed twice")
        event.callbacks = None
        for callback in callbacks:
            callback(event)

        if not event._ok and not event._defused:
            # Nobody handled this failure; crash the simulation loudly.
            exc = event._value
            raise exc if isinstance(exc, BaseException) else SimulationError(repr(exc))

    # -- run loop ---------------------------------------------------------------
    def run(self, until: Union[None, float, Event] = None) -> Any:
        """Run until the queue drains, a time is reached, or an event fires.

        * ``until is None`` — run to exhaustion, return None.
        * ``until`` is a number — run to that time, return None.
        * ``until`` is an :class:`Event` — run until it is processed and
          return its value (raising if it failed).
        """
        if until is not None:
            if isinstance(until, Event):
                if until.callbacks is None:
                    # Already processed: return/raise exactly as the
                    # waiter path would.  A failed event is defused here
                    # for the same reason _stop_simulation defuses it —
                    # the caller of run() took responsibility for the
                    # failure by receiving the raised exception.
                    if until._ok:
                        return until._value
                    until._defused = True
                    raise until._value  # type: ignore[misc]
                until.callbacks.append(_stop_simulation)
            else:
                at = float(until)
                # Inverted comparison so a NaN ``until`` is rejected too.
                if not at >= self._now:
                    raise ValueError(f"until ({at}) must not be before now ({self._now})")
                stopper = Event(self)
                stopper._ok = True
                stopper._value = None
                stopper.callbacks = [_stop_simulation]
                heappush(self._queue, (at, NORMAL, next(self._eid), stopper))

        step = self.step
        try:
            while True:
                step()
        except StopSimulation as stop:
            return stop.value
        except EmptySchedule:
            if isinstance(until, Event) and not until.triggered:
                raise SimulationError(
                    "Simulation ended before the awaited event was triggered"
                ) from None
            return None


def _stop_simulation(event: Event) -> None:
    if event._ok:
        raise StopSimulation(event._value)
    event._defused = True
    raise event._value  # type: ignore[misc]
