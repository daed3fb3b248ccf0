"""Message envelopes and completion status for the simulated MPI layer."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

from .constants import ANY_SOURCE, ANY_TAG, EAGER

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim import Event


@dataclass(frozen=True)
class Status:
    """Completion status of a receive (mirrors ``MPI_Status``)."""

    source: int
    tag: int
    nbytes: int


class Envelope:
    """A message (or rendezvous header) as seen by the matching engine.

    ``kind`` is either :data:`~repro.mpi.constants.EAGER` (payload has
    already been buffered at the receiver) or
    :data:`~repro.mpi.constants.RENDEZVOUS_RTS` (only the header arrived;
    ``cts_event`` unblocks the sender's payload transfer and ``data_event``
    fires once the payload lands).  One is made per message, so it is a
    plain ``__slots__`` class; two envelopes are equal only if they are
    the same message.
    """

    __slots__ = (
        "src", "dst", "tag", "nbytes", "payload", "kind", "seq",
        "cts_event", "data_event",
    )

    def __init__(
        self,
        src: int,
        dst: int,
        tag: int,
        nbytes: int,
        payload: Any,
        kind: str = EAGER,
        seq: int = 0,
        cts_event: Optional["Event"] = None,
        data_event: Optional["Event"] = None,
    ) -> None:
        self.src = src
        self.dst = dst
        self.tag = tag
        self.nbytes = nbytes
        self.payload = payload
        self.kind = kind
        self.seq = seq
        self.cts_event = cts_event
        self.data_event = data_event

    def __repr__(self) -> str:
        return (
            f"Envelope(src={self.src}, dst={self.dst}, tag={self.tag}, "
            f"nbytes={self.nbytes}, kind={self.kind!r}, seq={self.seq})"
        )

    def matches(self, source: int, tag: int) -> bool:
        """Does this envelope satisfy a receive posted for (source, tag)?

        ``ANY_TAG`` matches user tags only (>= 0): the collectives' reserved
        negative tags are never received by a wildcard user receive."""
        source_ok = source == ANY_SOURCE or source == self.src
        tag_ok = tag == self.tag or (tag == ANY_TAG and self.tag >= 0)
        return source_ok and tag_ok

    @property
    def status(self) -> Status:
        return Status(source=self.src, tag=self.tag, nbytes=self.nbytes)
