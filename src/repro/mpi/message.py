"""Message envelopes and completion status for the simulated MPI layer."""

from __future__ import annotations

from dataclasses import dataclass, field
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


@dataclass
class Envelope:
    """A message (or rendezvous header) as seen by the matching engine.

    ``kind`` is either :data:`~repro.mpi.constants.EAGER` (payload has
    already been buffered at the receiver) or
    :data:`~repro.mpi.constants.RENDEZVOUS_RTS` (only the header arrived;
    ``cts_event`` unblocks the sender's payload transfer and ``data_event``
    fires once the payload lands).
    """

    src: int
    dst: int
    tag: int
    nbytes: int
    payload: Any
    kind: str = EAGER
    seq: int = 0
    cts_event: Optional["Event"] = field(default=None, repr=False)
    data_event: Optional["Event"] = field(default=None, repr=False)

    def matches(self, source: int, tag: int) -> bool:
        """Does this envelope satisfy a receive posted for (source, tag)?"""
        source_ok = source == ANY_SOURCE or source == self.src
        tag_ok = tag == ANY_TAG or tag == self.tag
        return source_ok and tag_ok

    @property
    def status(self) -> Status:
        return Status(source=self.src, tag=self.tag, nbytes=self.nbytes)
