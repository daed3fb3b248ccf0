"""Nonblocking communication requests (``MPI_Request`` analogue).

A request wraps a kernel event.  ``test()`` polls without blocking (the
pattern Algorithms 1 and 2 of the paper lean on: *"it will only test for
completion (MPI_Test()) instead of blocking on completion (MPI_Wait()) to
allow the process to continue to make progress"*); ``wait()`` is a process
fragment that suspends until completion.
"""

from __future__ import annotations

from typing import Any, Optional

from ..sim import Environment, Event, SimulationError
from .message import Envelope, Status


class Request:
    """Base class for send/receive requests."""

    __slots__ = ("env", "_done", "_cancelled")

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._done: Event = env.event()
        self._cancelled = False

    def __repr__(self) -> str:
        state = (
            "cancelled"
            if self._cancelled
            else ("complete" if self.completed else "pending")
        )
        return f"<{self.__class__.__name__} {state}>"

    @property
    def completed(self) -> bool:
        """True once the operation has finished (``MPI_Test`` analogue)."""
        return self._done.triggered

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @property
    def done_event(self) -> Event:
        """The kernel event to yield on (for any_of/all_of composition)."""
        return self._done

    def test(self) -> bool:
        """Nonblocking completion check."""
        return self.completed

    def wait(self):
        """Process fragment: suspend until complete, return the value."""
        value = yield self._done
        return value

    def _complete(self, value: Any = None) -> None:
        if self._cancelled:
            return
        self._done.succeed(value)

    def _fail(self, exc: BaseException) -> None:
        self._done.fail(exc)


class SendRequest(Request):
    """Completion of a send (eager: buffered; rendezvous: delivered)."""

    __slots__ = ("dst", "tag", "nbytes")

    def __init__(self, env: Environment, dst: int, tag: int, nbytes: int) -> None:
        super().__init__(env)
        self.dst = dst
        self.tag = tag
        self.nbytes = nbytes


class RecvRequest(Request):
    """A posted receive.  Completes with the message payload.

    The mailbox hands over the matched envelope; a :class:`Status` is
    built only when :attr:`status` is read, since most receives are never
    asked for one."""

    __slots__ = ("source", "tag", "_envelope", "_mailbox", "_matched")

    def __init__(self, env: Environment, source: int, tag: int, mailbox) -> None:
        super().__init__(env)
        self.source = source
        self.tag = tag
        self._envelope: Optional[Envelope] = None
        self._mailbox = mailbox
        self._matched = False

    @property
    def status(self) -> Status:
        """The receive status; only valid once completed."""
        if self._envelope is None:
            raise SimulationError("Receive has not completed; no status available")
        return self._envelope.status

    @property
    def matched(self) -> bool:
        """True once an incoming message has been paired with this receive."""
        return self._matched

    def cancel(self) -> None:
        """Withdraw the posted receive (error if already matched)."""
        if self._matched:
            raise SimulationError("Cannot cancel a matched receive")
        self._cancelled = True
        self._mailbox.unpost(self)

    def _deliver(self, payload: Any, envelope: Envelope) -> None:
        self._envelope = envelope
        self._complete(payload)
