"""Core event types for the discrete-event simulation kernel.

The kernel follows the familiar process-interaction style (as popularised by
SimPy, re-implemented here from scratch): simulation logic lives in generator
functions that ``yield`` :class:`Event` objects; the
:class:`~repro.sim.environment.Environment` advances virtual time and resumes
processes when the events they wait on are processed.

Events move through three states:

``untriggered`` → ``triggered`` (scheduled, has a value) → ``processed``
(callbacks ran).

Waits compose two ways, and only two: :class:`Join` (all of a set of
events; the collectives and the PVFS fan-outs) and :class:`AnyOf` (the
first of them; the master's and the workers' message loops).  Neither
carries a value: the waiter reads each sub-event's own ``value``.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, Iterable, List, Optional

from .errors import SimulationError

_INF = float("inf")

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .environment import Environment

# Sentinel distinguishing "no value yet" from a legitimate ``None`` value.
_PENDING = object()

# Scheduling priorities: URGENT events at the same timestamp are processed
# before NORMAL ones.  Used internally (e.g. process initialisation).
URGENT = 0
NORMAL = 1


class Event:
    """An event that may happen at some point in simulated time.

    Callbacks are callables of one argument (the event).  They run when the
    environment processes the event.  After processing, adding a callback is
    an error — tests rely on this to catch misuse early.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: bool = True
        self._defused: bool = False

    def __repr__(self) -> str:
        return f"<{self.__class__.__name__} {self._desc()}>"

    def _desc(self) -> str:
        if not self.triggered:
            return "pending"
        state = "processed" if self.processed else "triggered"
        return f"{state} ok={self._ok}"

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value and is scheduled."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been invoked."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if not self.triggered:
            raise SimulationError("Event value not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception instance if it failed)."""
        if self._value is _PENDING:
            raise SimulationError("Event value not yet available")
        return self._value

    # -- triggering --------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Schedule the event as successful with ``value``."""
        if self.triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Schedule the event as failed with ``exception``.

        If no waiter "defuses" the failure by the time it is processed, the
        environment re-raises it to surface programming errors instead of
        silently swallowing them.
        """
        if self.triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env.schedule(self)
        return self


class Timeout(Event):
    """An event that fires ``delay`` units of simulated time after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        # One comparison rejects NaN (all comparisons false), negatives,
        # and +inf — any of which would corrupt the heap or hang the run.
        if not 0.0 <= delay < _INF:
            raise ValueError(f"Timeout delay must be finite and >= 0, got {delay!r}")
        # Timeouts are the kernel's hottest allocation (one per modeled
        # latency), so Event.__init__ and Environment.schedule are inlined
        # here: _ok/_value are written once instead of twice and the
        # already-validated delay skips schedule()'s re-check.
        self.env = env
        self.callbacks = []
        self._defused = False
        self.delay = delay
        self._ok = True
        self._value = value
        heappush(env._queue, (env._now + delay, NORMAL, next(env._eid), self))

    def _desc(self) -> str:
        return f"delay={self.delay}"


class Initialize(Event):
    """Initialises a process.  Internal; processed before same-time events."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Event") -> None:
        super().__init__(env)
        self.callbacks = [process._resume]  # type: ignore[attr-defined]
        self._ok = True
        self._value = None
        env.schedule(self, priority=URGENT)


class Join(Event):
    """Waits for all of ``events``: ``env.all_of``.

    Succeeds (value ``None``) when the last sub-event is processed; callers
    read the sub-events' own values.  A failed sub-event is defused and
    fails the join; a failed straggler after the join has fired is defused
    too, since the join is its waiter.
    """

    __slots__ = ("_waiting",)

    def __init__(self, env: "Environment", *events: Event) -> None:
        if not events:
            raise ValueError("Join needs at least one event")
        if any(event.env is not env for event in events):
            raise ValueError("Events from different environments cannot be mixed")
        super().__init__(env)
        self._waiting = len(events)
        for event in events:
            if event.callbacks is None:
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _desc(self) -> str:
        return f"join({self._waiting} waiting)"

    def _check(self, event: Event) -> None:
        if not event._ok:
            event._defused = True
            if self._value is _PENDING:
                self.fail(event._value)
        elif self._value is _PENDING:
            self._waiting -= 1
            if not self._waiting:
                self.succeed()


class AnyOf(Event):
    """Waits for the first of ``events``: ``env.any_of``.

    Succeeds (value ``None``) when the first sub-event is processed, or
    fails with it if it failed, defusing it.  A failed straggler processed
    before the any-of itself is defused too.  Once processed, the any-of
    removes its check from the sub-events still pending, so a loop that
    re-waits on the same pending event leaves no callbacks behind on it.
    """

    __slots__ = ("_events",)

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        self._events = events = list(events)
        if not events:
            raise ValueError("AnyOf needs at least one event")
        if any(event.env is not env for event in events):
            raise ValueError("Events from different environments cannot be mixed")
        super().__init__(env)
        for event in events:
            if event.callbacks is None:
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _desc(self) -> str:
        return f"any_of({len(self._events)} events)"

    def _check(self, event: Event) -> None:
        if not event._ok:
            event._defused = True
        if self._value is _PENDING:
            if event._ok:
                self.succeed()
            else:
                self.fail(event._value)
            # First, so the waiter resumes with no check left on the
            # sub-events still pending.
            self.callbacks.insert(0, self._detach)  # type: ignore[union-attr]

    def _detach(self, _event: Event) -> None:
        check = self._check
        for event in self._events:
            if event.callbacks is not None:
                event.callbacks.remove(check)
