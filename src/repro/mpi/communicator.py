"""The simulated communicator: point-to-point operations per rank.

Each rank gets its own :class:`RankComm` handle (as in real MPI, where every
process holds its own view of the communicator).  Sends move bytes through
the :class:`~repro.mpi.network.Network` — eager, OOB and loopback sends as
small callback-driven state machines, rendezvous sends as a protocol
process whose RTS hold is issued at the call; receives go through the
rank's :class:`~repro.mpi.mailbox.Mailbox`.
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
            # The same memcpy-like cost Network.transfer charges loopback.
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
            # The RTS header's TX hold is issued at the call, like an eager
            # send's, so the rank's operations reach its NIC in issue order.
            rts = self.network.nic(self.ranks[src]).tx.hold(
                config.serialization_time(HEADER_BYTES) + config.cpu_overhead_s
            )
            self.env.process(
                self._rendezvous(src, dst, tag, nbytes, payload, seq, request, rts),
                name=f"rndv-{src}->{dst}",
            )
        m = self.env.metrics
        if m.enabled:
            m.counter("mpi.messages", kind=kind, src=self.ranks[src]).add()
            m.counter("mpi.bytes", kind=kind, src=self.ranks[src]).add(float(nbytes))
        c = self.env.check
        if c.enabled:
            c.msg_sent(kind, nbytes)
        return request

    def _rendezvous(self, src, dst, tag, nbytes, payload, seq, request, rts):
        cts = self.env.event()
        data = self.env.event()
        header = Envelope(
            src=src, dst=dst, tag=tag, nbytes=nbytes, payload=None,
            kind=RENDEZVOUS_RTS, seq=seq, cts_event=cts, data_event=data,
        )
        # RTS header to the receiver, once its TX hold ``rts`` ends.
        network = self.network
        gsrc = self.ranks[src]
        yield rts
        network.count_tx(network.nic(gsrc), gsrc, HEADER_BYTES)
        yield from network.deliver(gsrc, self.ranks[dst], HEADER_BYTES)
        self.mailboxes[dst].deliver(header)
        # Delivered once the receiver holds the RTS envelope: the payload
        # stream is driven by the matched receive from here on.
        c = self.env.check
        if c.enabled:
            c.msg_delivered("rendezvous", nbytes)
        # Wait for the matching receive (CTS), pay the CTS flight time,
        # then stream the payload.
        yield cts
        yield from self.network.wire_latency()
        yield from self.network.transfer(self.ranks[src], self.ranks[dst], nbytes)
        request._complete()
        data.succeed(payload)


class _Send:
    """A send whose protocol steps are callbacks, not a process.

    The first step runs in the constructor, at the call, where a protocol
    process would have run it, in its ``Initialize`` event.  Every
    send, every rendezvous RTS hold and every PVFS leg starts at its call,
    so the operations a rank issues at one instant still reach its NIC in
    issue order, and the results stay bit-identical (``docs/MODELING.md``
    §1).  Each later step is a callback on the event the process would
    have yielded, scheduled in the order the process scheduled it.  The
    events dropped are the start event and the process's completion
    event, which had no callbacks.  NIC holds go through
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


class _EagerSend(_Send):
    """Eager send: TX serialization, wire latency, RX serialization.

    The steps: hold the sender's TX lane (at the call) → wire latency →
    hold the receiver's RX lane → land.  The sender is locally complete once its first TX hold ends
    (the payload is buffered at the receiver).  With :class:`LinkFaults`
    installed a crossing may be dropped: the sender backs off, queues a
    fresh TX hold behind whatever the lane holds by then, and crosses
    again, until the retry budget runs out.
    """

    __slots__ = ("network", "gsrc", "gdst", "tx_nic", "rx_nic", "hold_s", "attempt")

    def __init__(self, comm, src, dst, tag, nbytes, payload, seq, request):
        network = comm.network
        self.network = network
        self.gsrc = comm.ranks[src]
        self.gdst = comm.ranks[dst]
        self.tx_nic = network.nic(self.gsrc)
        self.rx_nic = network.nic(self.gdst)
        config = network.config
        self.hold_s = config.serialization_time(nbytes) + config.cpu_overhead_s
        self.attempt = 0
        super().__init__(comm, src, dst, tag, nbytes, payload, seq, request)

    # -- TX: serialize on the sender's lane -----------------------------------
    def _start(self) -> None:
        self.tx_nic.tx.hold(self.hold_s).callbacks.append(self._tx_done)

    def _tx_done(self, _event: Event) -> None:
        self.network.count_tx(self.tx_nic, self.gsrc, self.nbytes)
        if not self.attempt:
            self.request._complete()
        Timeout(self.env, self.network.config.latency_s).callbacks.append(self._crossed)

    # -- the wire: delivered, or dropped and retransmitted --------------------
    def _crossed(self, _event: Event) -> None:
        network = self.network
        spec = network._dropped_by(self.gsrc, self.gdst, self.nbytes)
        if spec is None:
            self.rx_nic.rx.hold(self.hold_s).callbacks.append(self._rx_done)
            return
        self.attempt += 1
        try:
            network._check_retry_budget(
                spec, self.attempt, self.gsrc, self.gdst, self.nbytes
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

    # -- RX: serialize on the receiver's lane, land ---------------------------
    def _rx_done(self, _event: Event) -> None:
        self.network.count_rx(self.rx_nic, self.gdst, self.nbytes)
        self._land("eager")


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
