"""The simulated communicator: point-to-point operations per rank.

Each rank gets its own :class:`RankComm` handle (as in real MPI, where every
process holds its own view of the communicator).  Sends move bytes through
the :class:`~repro.mpi.network.Network` as small callback-driven state
machines that start at the call: OOB and loopback sends pay one fixed
delay; eager and rendezvous sends share one wire crossing (TX hold, wire
latency, loss and retransmission, RX hold), which a rendezvous send
makes for its RTS header and again for its payload.  Receives go through
the rank's :class:`~repro.mpi.mailbox.Mailbox`.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..sim import Environment, Event, Timeout
from .constants import ANY_SOURCE, ANY_TAG, EAGER, RENDEZVOUS_RTS
from .mailbox import Mailbox
from .message import Envelope, Status
from .network import LinkFailure, LinkFaults, Network
from .request import RecvRequest, SendRequest

# Size of a rendezvous RTS/CTS control message on the wire.
HEADER_BYTES = 64


class Communicator:
    """Shared state: one mailbox per rank plus the network.

    ``ranks`` maps communicator-local rank → global rank (NIC owner); the
    default identity mapping is the world communicator.  Sub-communicators
    (e.g. the worker-only communicator WW-Coll's collective write runs on)
    share the network but have their own matching space, exactly like real
    MPI communicators isolate message traffic.
    """

    def __init__(
        self,
        env: Environment,
        network: Network,
        ranks: Optional[list] = None,
    ) -> None:
        self.env = env
        self.network = network
        if ranks is None:
            ranks = list(range(network.nranks))
        if len(set(ranks)) != len(ranks):
            raise ValueError("ranks must be distinct")
        for g in ranks:
            if not 0 <= g < network.nranks:
                raise ValueError(f"global rank {g} outside network of {network.nranks}")
        self.ranks = list(ranks)
        self.size = len(self.ranks)
        self.mailboxes: Dict[int, Mailbox] = {
            r: Mailbox(env, r) for r in range(self.size)
        }
        self._send_seq = 0

    def __repr__(self) -> str:
        return f"<Communicator size={self.size}>"

    def global_rank(self, local_rank: int) -> int:
        """Translate a communicator-local rank to the global/network rank."""
        return self.ranks[local_rank]

    def sub(self, ranks_local: list) -> "Communicator":
        """A sub-communicator over the given local ranks (in that order)."""
        return Communicator(
            self.env, self.network, [self.ranks[r] for r in ranks_local]
        )

    def view(self, rank: int) -> "RankComm":
        """The rank-local handle used inside that rank's process."""
        if not 0 <= rank < self.size:
            raise ValueError(f"rank {rank} out of range [0, {self.size})")
        return RankComm(self, rank)

    # -- sends -----------------------------------------------------------------
    def _start_send(
        self, src: int, dst: int, tag: int, nbytes: int, payload: Any,
        oob: bool = False,
    ) -> SendRequest:
        if not 0 <= dst < self.size:
            raise ValueError(f"destination rank {dst} out of range [0, {self.size})")
        if tag < 0 and tag > -1000:
            raise ValueError(f"user tags must be >= 0 (got {tag})")
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")

        request = SendRequest(self.env, dst, tag, nbytes)
        self._send_seq += 1
        seq = self._send_seq
        config = self.network.config

        if oob and src != dst:
            # Out-of-band control channel (management network): pays the
            # wire latency but never competes with bulk data for NIC
            # bandwidth and is exempt from injected link faults.  Used for
            # liveness traffic (heartbeats, rejoin notices, write acks) — a
            # cluster's fault detector must not suffocate under the very
            # congestion it watches.
            kind = "oob"
            _ShortSend(
                self, src, dst, tag, nbytes, payload, seq, request,
                kind, config.latency_s,
            )
        elif src == dst:
            # A memcpy-like cost, as a node-local rendezvous payload pays.
            kind = "loopback"
            _ShortSend(
                self, src, dst, tag, nbytes, payload, seq, request,
                kind, config.cpu_overhead_s + config.serialization_time(nbytes) / 4,
            )
        elif nbytes <= config.eager_threshold_B:
            kind = "eager"
            _EagerSend(self, src, dst, tag, nbytes, payload, seq, request)
        else:
            kind = "rendezvous"
            _RendezvousSend(self, src, dst, tag, nbytes, payload, seq, request)
        m = self.env.metrics
        if m.enabled:
            m.counter("mpi.messages", kind=kind, src=self.ranks[src]).add()
            m.counter("mpi.bytes", kind=kind, src=self.ranks[src]).add(float(nbytes))
        c = self.env.check
        if c.enabled:
            c.msg_sent(kind, nbytes)
        return request


class _Send:
    """A send whose protocol steps are callbacks, not a process.

    The first step runs in the constructor, at the call.  Every send and
    every PVFS leg starts at its call, so the operations a rank issues at
    one instant reach its NIC in issue order (``docs/MODELING.md`` §1).
    Each later step is a callback on the event a protocol process would
    have yielded, scheduled in the order the process scheduled it; what
    a process adds on top, its ``Initialize`` and completion events, had
    no callbacks.  NIC holds go through
    :class:`~repro.sim.resources.Lane`, whose one event per hold stands
    for the grant and the timeout of a ``Resource`` (see its docstring).
    """

    __slots__ = ("comm", "env", "src", "dst", "tag", "nbytes", "payload", "seq", "request")

    def __init__(
        self, comm: Communicator, src: int, dst: int, tag: int, nbytes: int,
        payload: Any, seq: int, request: SendRequest,
    ) -> None:
        self.comm = comm
        self.env = comm.env
        self.src = src
        self.dst = dst
        self.tag = tag
        self.nbytes = nbytes
        self.payload = payload
        self.seq = seq
        self.request = request
        self._start()

    def _start(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _land(self, kind: str) -> None:
        """The payload is buffered at the receiver: hand it to matching."""
        self.comm.mailboxes[self.dst].deliver(
            Envelope(
                src=self.src, dst=self.dst, tag=self.tag, nbytes=self.nbytes,
                payload=self.payload, kind=EAGER, seq=self.seq,
            )
        )
        c = self.env.check
        if c.enabled:
            c.msg_delivered(kind, self.nbytes)


class _ShortSend(_Send):
    """Loopback or OOB send: one fixed delay, then the send completes and
    the message lands.  Neither touches a NIC or the loss model."""

    __slots__ = ("kind", "delay")

    def __init__(self, comm, src, dst, tag, nbytes, payload, seq, request, kind, delay):
        self.kind = kind
        self.delay = delay
        super().__init__(comm, src, dst, tag, nbytes, payload, seq, request)

    def _start(self) -> None:
        Timeout(self.env, self.delay).callbacks.append(self._arrived)

    def _arrived(self, _event: Event) -> None:
        self.request._complete()
        self._land(self.kind)


class _WireSend(_Send):
    """A send that crosses the wire: the one copy of the loss loop.

    A crossing of ``wire_B`` bytes holds the sender's TX lane (the first
    hold at the call) → wire latency → holds the receiver's RX lane →
    :meth:`_landed`.  With :class:`LinkFaults` installed a crossing may
    be dropped: the sender backs off, queues a fresh TX hold behind
    whatever the lane holds by then, and crosses again, until the retry
    budget runs out.  ``attempt`` counts the current crossing's drops.
    """

    __slots__ = ("network", "gsrc", "gdst", "tx_nic", "rx_nic", "wire_B", "hold_s", "attempt")

    def __init__(self, comm, src, dst, tag, nbytes, payload, seq, request, wire_B):
        network = comm.network
        self.network = network
        self.gsrc = comm.ranks[src]
        self.gdst = comm.ranks[dst]
        self.tx_nic = network.nic(self.gsrc)
        self.rx_nic = network.nic(self.gdst)
        self._aim(wire_B)
        super().__init__(comm, src, dst, tag, nbytes, payload, seq, request)

    def _aim(self, wire_B: int) -> None:
        """Make the next crossing carry ``wire_B`` bytes."""
        config = self.network.config
        self.wire_B = wire_B
        self.hold_s = config.serialization_time(wire_B) + config.cpu_overhead_s
        self.attempt = 0

    def _landed(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    # -- TX: serialize on the sender's lane -----------------------------------
    def _start(self) -> None:
        self.tx_nic.tx.hold(self.hold_s).callbacks.append(self._tx_done)

    def _tx_done(self, _event: Event) -> None:
        self.network.count_tx(self.tx_nic, self.gsrc, self.wire_B)
        Timeout(self.env, self.network.config.latency_s).callbacks.append(self._crossed)

    # -- the wire: delivered, or dropped and retransmitted --------------------
    def _crossed(self, _event: Event) -> None:
        network = self.network
        spec = network._dropped_by(self.gsrc, self.gdst, self.wire_B)
        if spec is None:
            self.rx_nic.rx.hold(self.hold_s).callbacks.append(self._rx_done)
            return
        self.attempt += 1
        try:
            network._check_retry_budget(
                spec, self.attempt, self.gsrc, self.gdst, self.wire_B
            )
        except LinkFailure as failure:
            # Fail an event rather than raise inside a callback: env.run()
            # raises it at the position a dying process's event would hold.
            Event(self.env).fail(failure)
            return
        Timeout(
            self.env, LinkFaults.retransmit_delay(spec, self.attempt)
        ).callbacks.append(self._retransmit)

    def _retransmit(self, _event: Event) -> None:
        self.network._count_retransmit(self.gsrc, self.gdst)
        self._start()

    # -- RX: serialize on the receiver's lane ---------------------------------
    def _rx_done(self, _event: Event) -> None:
        self.network.count_rx(self.rx_nic, self.gdst, self.wire_B)
        self._landed()


class _EagerSend(_WireSend):
    """Eager send: the payload crosses once and lands in the receiver's
    buffer.  The sender is locally complete once its first TX hold ends."""

    __slots__ = ()

    def __init__(self, comm, src, dst, tag, nbytes, payload, seq, request):
        super().__init__(comm, src, dst, tag, nbytes, payload, seq, request, nbytes)

    def _tx_done(self, event: Event) -> None:
        if not self.attempt:
            self.request._complete()
        _WireSend._tx_done(self, event)

    def _landed(self) -> None:
        self._land("eager")


class _RendezvousSend(_WireSend):
    """Rendezvous send: RTS header, CTS, payload.

    The ``HEADER_BYTES`` RTS crosses and lands as a ``RENDEZVOUS_RTS``
    envelope; the matching receive succeeds its ``cts``.  The CTS flies
    back (``latency_s``), then the payload streams: node-mates (one NIC)
    copy it through shared memory at the loopback cost, everyone else
    sends it across the wire in a second crossing.  Once it lands the
    send completes and ``data`` hands the payload to the receive.
    """

    __slots__ = ("data",)

    def __init__(self, comm, src, dst, tag, nbytes, payload, seq, request):
        self.data: Optional[Event] = None  # made when the RTS lands
        super().__init__(
            comm, src, dst, tag, nbytes, payload, seq, request, HEADER_BYTES
        )

    def _landed(self) -> None:
        if self.data is not None:
            self._delivered()
            return
        env = self.env
        cts = Event(env)
        self.data = Event(env)
        self.comm.mailboxes[self.dst].deliver(
            Envelope(
                src=self.src, dst=self.dst, tag=self.tag, nbytes=self.nbytes,
                payload=None, kind=RENDEZVOUS_RTS, seq=self.seq,
                cts_event=cts, data_event=self.data,
            )
        )
        # Delivered once the receiver holds the RTS envelope: the payload
        # stream is driven by the matched receive from here on.
        c = env.check
        if c.enabled:
            c.msg_delivered("rendezvous", self.nbytes)
        cts.callbacks.append(self._cleared)

    def _cleared(self, _event: Event) -> None:
        Timeout(self.env, self.network.config.latency_s).callbacks.append(self._stream)

    def _stream(self, _event: Event) -> None:
        if self.tx_nic is self.rx_nic:
            config = self.network.config
            Timeout(
                self.env,
                config.cpu_overhead_s + config.serialization_time(self.nbytes) / 4,
            ).callbacks.append(self._delivered)
            return
        self._aim(self.nbytes)
        self._start()

    def _delivered(self, _event: Optional[Event] = None) -> None:
        self.request._complete()
        self.data.succeed(self.payload)


class RankComm:
    """Rank-local communicator handle (the object rank code talks to)."""

    def __init__(self, comm: Communicator, rank: int) -> None:
        self._comm = comm
        self.rank = rank
        self.mailbox = comm.mailboxes[rank]
        # Per-rank collective sequence number: collectives must be invoked
        # in the same order on every rank (an MPI correctness requirement),
        # so identical counters yield matching reserved tags.
        self._coll_seq = 0

    def __repr__(self) -> str:
        return f"<RankComm rank={self.rank}/{self.size}>"

    @property
    def env(self) -> Environment:
        return self._comm.env

    @property
    def size(self) -> int:
        return self._comm.size

    @property
    def global_rank(self) -> int:
        """The network/world rank behind this communicator-local rank."""
        return self._comm.ranks[self.rank]

    @property
    def network(self) -> Network:
        return self._comm.network

    # -- nonblocking p2p -----------------------------------------------------
    def isend(
        self, dst: int, tag: int, nbytes: int, payload: Any = None,
        oob: bool = False,
    ) -> SendRequest:
        """Start a nonblocking send of ``nbytes`` (``payload`` rides along).

        ``oob=True`` routes the message over the out-of-band management
        channel (wire latency only — no NIC contention, no link faults);
        reserved for tiny liveness/control messages."""
        return self._comm._start_send(self.rank, dst, tag, nbytes, payload, oob=oob)

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> RecvRequest:
        """Post a nonblocking receive."""
        if source != ANY_SOURCE and not 0 <= source < self._comm.size:
            # A receive no rank can match would only fail much later, as a
            # deadlock far from its cause.
            raise ValueError(
                f"source rank {source} out of range [0, {self._comm.size})"
            )
        request = RecvRequest(self.env, source, tag, self.mailbox)
        self.mailbox.post(request)
        return request

    # -- blocking p2p (process fragments) -------------------------------------
    def send(self, dst: int, tag: int, nbytes: int, payload: Any = None):
        """Process fragment: blocking send."""
        request = self.isend(dst, tag, nbytes, payload)
        yield from request.wait()

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Process fragment: blocking receive, returns ``(payload, status)``."""
        request = self.irecv(source, tag)
        payload = yield from request.wait()
        return payload, request.status

    # -- probing ---------------------------------------------------------------
    def iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Optional[Status]:
        """Nonblocking probe of the unexpected-message queue."""
        return self.mailbox.probe(source, tag)
