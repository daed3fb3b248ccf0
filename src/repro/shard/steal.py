"""Work stealing between shard masters (serve mode).

A master whose pending queue drains while its workers are parked probes
its peers round-robin over the out-of-band master-to-master channel
(``Steal``); a donor answers every probe with a ``Donate`` carrying the
youngest half of its unstarted, non-priority queries, possibly none.  The
oldest pending queries are next in line for local assignment, so
shipping the tail wastes the least locality, mirroring the shed policy's
victim preference.  A stolen query keeps its content id and its original
arrival stamp, so its latency is measured end to end.

:class:`Stealing` holds both halves for one master.  The master wires it
in with the master-to-master communicator view, its shard index, its
:class:`~repro.serve.admission.Admission`, a "starving" predicate and a
wake-up callback, and it keeps answering probes after its own exit.
"""

from __future__ import annotations

from typing import Callable

from ..core.protocol import (
    STEAL_BYTES, TAG_DONATE, TAG_STEAL, Donate, DonatedQuery, Steal,
)
from .state import ShardConfig


class Stealing:
    """One master's thief and donor halves of the steal protocol."""

    def __init__(
        self,
        mcomm,
        shard: int,
        cfg: ShardConfig,
        nqueries: int,
        admission,
        starving: Callable[[], bool],
        wake: Callable[[], None],
    ) -> None:
        self.mcomm = mcomm
        self.shard = shard
        self.cfg = cfg
        #: The thief's ledger holds at most this many slots.
        self.nqueries = nqueries
        self.admission = admission
        self._starving = starving
        self._wake_master = wake
        #: True once the thief has concluded: every peer came back empty
        #: after the arrival process had finished.
        self.done = False
        self._wake = None

    def hungry(self) -> bool:
        """Starving and still stealing: workers are asking and there is
        nothing to hand out."""
        return not self.done and self._starving()

    def nudge(self) -> None:
        """Wake the thief if it sleeps while this shard starves."""
        if self._wake is not None and not self._wake.triggered and self.hungry():
            self._wake.succeed()

    def listen(self):
        """Post the receive for the next peer probe."""
        return self.mcomm.irecv(tag=TAG_STEAL)

    def thief(self):
        """Side process: when this shard starves, probe the peers
        round-robin for unstarted queries.

        One probe is in flight at a time (so a single posted Donate receive
        suffices).  A round in which every peer donates nothing is *final*
        once the global arrival process has finished — nothing can refill
        the peers, so the thief concludes (``done``) and unblocks the
        master's release path.  Before that, an empty round backs off
        ``steal_retry_s`` and tries again.
        """
        env = self.mcomm.env
        s = self.admission.state
        nshards = self.cfg.nshards
        peers = [(self.shard + k) % nshards for k in range(1, nshards)]
        donate_recv = self.mcomm.irecv(tag=TAG_DONATE)
        rr = 0
        while not self.done:
            if not self.hungry():
                self._wake = env.event()
                yield self._wake
                continue
            final = s.arrivals_done
            got = 0
            for k in range(len(peers)):
                peer = peers[(rr + k) % len(peers)]
                capacity = self.nqueries - s.admitted
                if capacity <= 0:
                    break
                probe = Steal(shard=self.shard, capacity=capacity)
                req = self.mcomm.isend(peer, TAG_STEAL, STEAL_BYTES, probe, oob=True)
                yield from req.wait()
                yield donate_recv.done_event
                donate: Donate = donate_recv.done_event.value
                donate_recv = self.mcomm.irecv(tag=TAG_DONATE)
                m = env.metrics
                for dq in donate.queries:
                    self.admission.accept(dq.content, dq.arrival_t)
                    if m.enabled:
                        m.inc("shard.steals", shard=self.shard)
                    got += 1
                if got and not self.hungry():
                    break
            rr = (rr + 1) % len(peers)
            if got:
                continue
            if final:
                self.done = True
                self._wake_master()
                return
            yield env.timeout(self.cfg.steal_retry_s)

    def donate(self, probe: Steal):
        """Donor half: answer a peer's probe with up to half of the
        movable queries, the youngest ones (possibly none).  Returns the
        reply's send request."""
        admission = self.admission
        movable = [q for q in range(admission.state.admitted) if admission.movable(q)]
        count = min((len(movable) + 1) // 2, max(probe.capacity, 0))
        victims = movable[len(movable) - count :]
        queries = ()
        if victims:
            queries = tuple(
                DonatedQuery(content=content, arrival_t=at)
                for content, at in admission.donate(victims)
            )
            m = self.mcomm.env.metrics
            if m.enabled:
                m.inc("shard.donated_queries", float(len(victims)), shard=self.shard)
        reply = Donate(shard=self.shard, queries=queries)
        return self.mcomm.isend(
            probe.shard, TAG_DONATE, reply.wire_bytes(), reply, oob=True
        )

    def responder(self, probe_recv):
        """Side process after the master's exit: keep answering late probes
        (a hungry peer's termination waits on a reply from every shard)."""
        while True:
            if not probe_recv.completed:
                yield probe_recv.done_event
            probe: Steal = probe_recv.done_event.value
            probe_recv = self.listen()
            yield from self.donate(probe).wait()
