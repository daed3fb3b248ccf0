"""Per-rank message matching: posted receives vs. unexpected messages.

Matching follows MPI semantics: a receive posted for ``(source, tag)`` (with
wildcards) pairs with the earliest-arrived matching envelope; an arriving
envelope pairs with the earliest-posted matching receive.  Because envelopes
from one sender arrive in the order they were sent (the sender's TX channel
serializes them), the MPI non-overtaking guarantee holds.

A posted receive is a :class:`~repro.mpi.request.RecvRequest` or a
stand-in with the same four members: ``source`` and ``tag`` to match on,
``_matched`` (set on the match) and ``_deliver(payload, envelope)``
(called when the payload is here).  The collectives' machines post
themselves that way.
"""

from __future__ import annotations

from typing import Any, List, Optional

from ..sim import Environment
from .constants import EAGER, RENDEZVOUS_RTS
from .message import Envelope, Status


class Mailbox:
    """Matching engine for a single rank."""

    def __init__(self, env: Environment, rank: int) -> None:
        self.env = env
        self.rank = rank
        self.unexpected: List[Envelope] = []
        self.posted: List[Any] = []

    def __repr__(self) -> str:
        return (
            f"<Mailbox rank={self.rank} unexpected={len(self.unexpected)} "
            f"posted={len(self.posted)}>"
        )

    # -- arrival side ------------------------------------------------------
    def deliver(self, envelope: Envelope) -> None:
        """An envelope arrived from the network."""
        if envelope.dst != self.rank:
            raise ValueError(
                f"Envelope for rank {envelope.dst} delivered to mailbox {self.rank}"
            )
        for recv in self.posted:
            if envelope.matches(recv.source, recv.tag):
                self.posted.remove(recv)
                self._match(recv, envelope)
                return
        self.unexpected.append(envelope)

    # -- receive side ------------------------------------------------------
    def post(self, recv: Any) -> None:
        """A receive was posted; match against unexpected messages first."""
        for envelope in self.unexpected:
            if envelope.matches(recv.source, recv.tag):
                self.unexpected.remove(envelope)
                self._match(recv, envelope)
                return
        self.posted.append(recv)

    def unpost(self, recv: Any) -> None:
        try:
            self.posted.remove(recv)
        except ValueError:
            pass

    def probe(self, source: int, tag: int) -> Optional[Status]:
        """Nonblocking probe: status of the first matching arrived envelope."""
        for envelope in self.unexpected:
            if envelope.matches(source, tag):
                return envelope.status
        return None

    # -- internals ---------------------------------------------------------
    def _match(self, recv: Any, envelope: Envelope) -> None:
        recv._matched = True
        if envelope.kind == EAGER:
            # Payload already buffered here; the receive completes now.
            recv._deliver(envelope.payload, envelope)
        elif envelope.kind == RENDEZVOUS_RTS:
            # Unblock the sender's payload transfer; complete the receive
            # once the payload actually lands.
            assert envelope.data_event is not None and envelope.cts_event is not None

            def on_data(event) -> None:
                recv._deliver(event.value, envelope)

            envelope.data_event.callbacks.append(on_data)
            envelope.cts_event.succeed()
        else:  # pragma: no cover - defensive
            raise ValueError(f"Unknown envelope kind {envelope.kind!r}")
