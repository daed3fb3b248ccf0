"""Core event types for the discrete-event simulation kernel.

The kernel follows the familiar process-interaction style (as popularised by
SimPy, re-implemented here from scratch): simulation logic lives in generator
functions that ``yield`` :class:`Event` objects; the
:class:`~repro.sim.environment.Environment` advances virtual time and resumes
processes when the events they wait on are processed.

Events move through three states:

``untriggered`` → ``triggered`` (scheduled, has a value) → ``processed``
(callbacks ran).
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

    def trigger(self, event: "Event") -> None:
        """Copy state from ``event`` and schedule.  Usable as a callback."""
        if self.triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = event._ok
        self._value = event._value
        self.env.schedule(self)

    # -- composition -------------------------------------------------------
    def __and__(self, other: "Event") -> "Condition":
        return Condition(self.env, Condition.all_events, [self, other])

    def __or__(self, other: "Event") -> "Condition":
        return Condition(self.env, Condition.any_event, [self, other])


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


class ConditionValue:
    """Result of a condition: ordered mapping of triggered events to values."""

    __slots__ = ("events",)

    def __init__(self) -> None:
        self.events: List[Event] = []

    def __getitem__(self, key: Event) -> Any:
        if key not in self.events:
            raise KeyError(repr(key))
        return key._value

    def __contains__(self, key: Event) -> bool:
        return key in self.events

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ConditionValue):
            return self.todict() == other.todict()
        if isinstance(other, dict):
            return self.todict() == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"<ConditionValue {self.todict()}>"

    def __iter__(self):
        return iter(self.events)

    def keys(self) -> List[Event]:
        return list(self.events)

    def values(self) -> List[Any]:
        return [e._value for e in self.events]

    def items(self):
        return [(e, e._value) for e in self.events]

    def todict(self) -> dict:
        return {e: e._value for e in self.events}


class Condition(Event):
    """Waits for a boolean combination of events (``&`` / ``|``).

    ``evaluate`` receives the list of sub-events and the count of processed
    ones and returns True when the condition holds.  Failed sub-events
    propagate their exception to the condition.
    """

    __slots__ = ("_evaluate", "_events", "_count")

    def __init__(
        self,
        env: "Environment",
        evaluate: Callable[[List[Event], int], bool],
        events: Iterable[Event],
    ) -> None:
        super().__init__(env)
        self._evaluate = evaluate
        self._events = list(events)
        self._count = 0

        for event in self._events:
            if event.env is not env:
                raise ValueError("Events from different environments cannot be mixed")

        for event in self._events:
            if event.processed:
                self._check(event)
            else:
                event.callbacks.append(self._check)  # type: ignore[union-attr]

        # Register a callback that collects the values of triggered
        # sub-events (in declaration order) once the condition fires.
        if not self.triggered and self._evaluate(self._events, self._count):
            self.succeed(ConditionValue())
        if self.triggered and self._build_value not in self.callbacks:
            # Must run before any waiter's callback so the waiter sees a
            # populated ConditionValue.
            self.callbacks.insert(0, self._build_value)  # type: ignore[union-attr]

    def _desc(self) -> str:
        return f"{self._evaluate.__name__}({len(self._events)} events)"

    def _check(self, event: Event) -> None:
        if self.triggered:
            # The condition already fired (e.g. an AnyOf satisfied by a
            # sibling at this same timestamp).  A *failed* straggler still
            # needs defusing: the condition is the event's waiter, and
            # without this the environment re-raises the failure as
            # unhandled and kills the whole run.
            if not event._ok:
                event._defused = True
            return
        self._count += 1
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            self.callbacks.insert(0, self._build_value)  # type: ignore[union-attr]
        elif self._evaluate(self._events, self._count):
            self.succeed(ConditionValue())
            self.callbacks.insert(0, self._build_value)  # type: ignore[union-attr]

    def _build_value(self, event: Event) -> None:
        self._remove_callbacks()
        if event._ok:
            value: ConditionValue = event._value
            for sub in self._events:
                if sub.triggered and sub._ok and sub not in value.events:
                    value.events.append(sub)

    def _remove_callbacks(self) -> None:
        for sub in self._events:
            if not sub.processed and sub.callbacks is not None:
                try:
                    sub.callbacks.remove(self._check)
                except ValueError:
                    pass

    @staticmethod
    def all_events(events: List[Event], count: int) -> bool:
        return len(events) == count

    @staticmethod
    def any_event(events: List[Event], count: int) -> bool:
        return count > 0 or not events


class AllOf(Condition):
    """Fires when every given event has fired."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env, Condition.all_events, events)


class AnyOf(Condition):
    """Fires as soon as any given event fires (immediately if empty)."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env, Condition.any_event, events)


class Join(Event):
    """``a & b & ...`` without the :class:`Condition` machinery.

    Succeeds (value ``None``) when the last sub-event is processed — the
    same schedule call, hence the same ``(time, priority, eid)`` position,
    as ``AllOf`` — but builds no :class:`ConditionValue`: callers read the
    sub-events' own values.  A failed sub-event is defused and fails the
    join; a failed straggler after the join has fired is defused too.
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
