"""Network timing model for the simulated MPI layer.

The model is deliberately first-order but captures the contention structure
that drives the paper's results:

* every rank owns a NIC with one transmit (TX) and one receive (RX) channel,
  each a :class:`~repro.sim.resources.Lane` (FIFO, capacity 1, one event
  per hold) — concurrent messages to/from the same rank serialize (this
  is what makes the master-writing strategy a funnel);
* a point-to-point crossing costs ``latency + nbytes / bandwidth`` on the
  wire plus per-message CPU overhead on both ends;
* the fabric itself never contends: Myrinet-2000 on <100 nodes was far
  from bisection-limited for this workload.

The crossing itself (TX hold, latency, loss and retransmission, RX hold)
is one callback machine in :mod:`repro.mpi.communicator`; this module
holds the NICs, their counters and the loss model it consults.

Defaults correspond to the Feynman cluster's Myrinet-2000 interconnect.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from ..sim import Environment, Lane, SimulationError

KIB = 1024
MIB = 1024 * 1024


class LinkFailure(SimulationError):
    """A message exhausted its retransmission budget (link declared dead)."""


@dataclass(frozen=True)
class NetworkConfig:
    """Parameters of the interconnect timing model.

    Attributes
    ----------
    latency_s:
        One-way small-message latency in seconds.
    bandwidth_Bps:
        Per-link bandwidth in bytes/second.
    eager_threshold_B:
        Messages at or below this size use the eager protocol (buffered at
        the receiver); larger ones use rendezvous (sender blocks until the
        matching receive is posted).
    cpu_overhead_s:
        Per-message host CPU cost charged on each side (packetization,
        matching).
    """

    latency_s: float = 7e-6
    bandwidth_Bps: float = 245 * MIB
    eager_threshold_B: int = 64 * KIB
    cpu_overhead_s: float = 1e-6
    #: Ranks sharing one physical adapter.  Feynman ran two compute
    #: processes per dual-CPU node over a single Myrinet card ("Since each
    #: of compute nodes had dual CPUs, we ran two compute processes per
    #: node"); 1 gives every rank its own NIC.
    ranks_per_nic: int = 1

    def __post_init__(self) -> None:
        if self.latency_s < 0:
            raise ValueError("latency_s must be non-negative")
        if self.bandwidth_Bps <= 0:
            raise ValueError("bandwidth_Bps must be positive")
        if self.eager_threshold_B < 0:
            raise ValueError("eager_threshold_B must be non-negative")
        if self.ranks_per_nic <= 0:
            raise ValueError("ranks_per_nic must be positive")

    @classmethod
    def myrinet2000(cls) -> "NetworkConfig":
        """The Feynman cluster's interconnect (paper test environment)."""
        return cls()

    @classmethod
    def instant(cls) -> "NetworkConfig":
        """A nearly free network — isolates non-network costs in tests."""
        return cls(latency_s=1e-12, bandwidth_Bps=1e18, cpu_overhead_s=0.0)

    def serialization_time(self, nbytes: int) -> float:
        """Time to push ``nbytes`` through one NIC channel."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        return nbytes / self.bandwidth_Bps

    def transfer_time(self, nbytes: int) -> float:
        """Uncontended end-to-end time for a single message."""
        return self.latency_s + self.serialization_time(nbytes)


@dataclass
class LinkFaultStats:
    """Counters of the drop/ARQ model (observability and tests)."""

    drops: int = 0
    retransmits: int = 0
    link_failures: int = 0


class LinkFaults:
    """Message-loss model with timeout/exponential-backoff retransmission.

    ``specs`` are the plan's :class:`~repro.faults.plan.MessageLoss`
    windows; a message crossing the wire while a window is active is
    dropped with that window's probability, and the sender retransmits
    after a timeout that doubles (``backoff``) per attempt, up to
    ``max_retries`` before the transfer fails with :class:`LinkFailure`.

    Drops draw from a single seeded stream *in event order*, so a fixed
    (seed, plan) pair yields the same loss pattern every run.
    """

    def __init__(self, specs: Sequence, rng) -> None:
        if not specs:
            raise ValueError("LinkFaults needs at least one MessageLoss window")
        self.specs = tuple(specs)
        self.rng = rng
        self.stats = LinkFaultStats()

    def _active_spec(self, now: float):
        for spec in self.specs:
            if spec.drop_prob > 0 and spec.start <= now < spec.end:
                return spec
        return None

    def drop_spec(self, now: float):
        """The window that drops this message, or None to deliver it."""
        spec = self._active_spec(now)
        if spec is None:
            return None
        if float(self.rng.random()) < spec.drop_prob:
            return spec
        return None

    @staticmethod
    def retransmit_delay(spec, attempt: int) -> float:
        """Backoff before retransmission ``attempt`` (1-based)."""
        return spec.retransmit_timeout_s * spec.backoff ** (attempt - 1)


@dataclass
class NicStats:
    """Byte/message counters for one rank's NIC (observability hooks)."""

    tx_messages: int = 0
    rx_messages: int = 0
    tx_bytes: int = 0
    rx_bytes: int = 0


class Nic:
    """A network adapter: serialized TX and RX channels.

    With ``ranks_per_nic > 1`` one adapter is shared by several node-mate
    ranks, so ``nic_id`` is the adapter's index in the fabric — *not* a
    rank.  Traffic attribution to ranks happens in the obs layer, which
    labels NIC byte counters by both ``nic`` and ``rank``.
    """

    def __init__(self, env: Environment, nic_id: int) -> None:
        self.nic_id = nic_id
        self.tx = Lane(env)
        self.rx = Lane(env)
        self.stats = NicStats()

    def __repr__(self) -> str:
        return f"<Nic id={self.nic_id} tx_q={self.tx.queued} rx_q={self.rx.queued}>"


class Network:
    """Owns the NICs, their counters and the loss model.

    The MPI layer's sends hold the NIC lanes and call the counting and
    loss hooks here; the network itself knows nothing about matching.
    """

    def __init__(self, env: Environment, nranks: int, config: NetworkConfig) -> None:
        if nranks <= 0:
            raise ValueError("nranks must be positive")
        self.env = env
        self.nranks = nranks
        self.config = config
        # With ranks_per_nic > 1, node-mates share one adapter object.
        nnics = -(-nranks // config.ranks_per_nic)
        self.nics: Dict[int, Nic] = {n: Nic(env, n) for n in range(nnics)}
        self.faults: Optional[LinkFaults] = None

    def install_faults(self, faults: LinkFaults) -> None:
        """Attach a message-loss model (None of these costs exist without it)."""
        self.faults = faults

    def nic(self, rank: int) -> Nic:
        if not 0 <= rank < self.nranks:
            raise ValueError(f"rank {rank} not in network of size {self.nranks}")
        return self.nics[rank // self.config.ranks_per_nic]

    def count_tx(self, nic: Nic, src: int, nbytes: int) -> None:
        """Account one message that left ``nic`` for rank ``src``: its
        :class:`NicStats`, ``mpi.nic_tx_bytes`` and the checker's ledger."""
        stats = nic.stats
        stats.tx_messages += 1
        stats.tx_bytes += nbytes
        m = self.env.metrics
        if m.enabled:
            m.inc("mpi.nic_tx_bytes", float(nbytes), nic=nic.nic_id, rank=src)
        c = self.env.check
        if c.enabled:
            c.nic_tx(nbytes)

    def count_rx(self, nic: Nic, dst: int, nbytes: int) -> None:
        """Account one message that landed at ``nic`` for rank ``dst``."""
        stats = nic.stats
        stats.rx_messages += 1
        stats.rx_bytes += nbytes
        m = self.env.metrics
        if m.enabled:
            m.inc("mpi.nic_rx_bytes", float(nbytes), nic=nic.nic_id, rank=dst)
        c = self.env.check
        if c.enabled:
            c.nic_rx(nbytes)

    def _dropped_by(self, src: int, dst: int, nbytes: int):
        """The loss window that dropped this crossing, or None; counts it."""
        faults = self.faults
        if faults is None:
            return None
        spec = faults.drop_spec(self.env.now)
        if spec is None:
            return None
        faults.stats.drops += 1
        m = self.env.metrics
        if m.enabled:
            m.inc("mpi.drops", 1.0, src=src, dst=dst)
        c = self.env.check
        if c.enabled:
            c.wire_drop(nbytes)
        return spec

    def _check_retry_budget(
        self, spec, attempt: int, src: int, dst: int, nbytes: int
    ) -> None:
        """Raise :class:`LinkFailure` once ``attempt`` exhausts the budget."""
        if attempt <= spec.max_retries:
            return
        self.faults.stats.link_failures += 1
        m = self.env.metrics
        if m.enabled:
            m.inc("mpi.link_failures", 1.0, src=src, dst=dst)
        raise LinkFailure(
            f"message {src}->{dst} ({nbytes} B) lost {attempt} times; giving up"
        )

    def _count_retransmit(self, src: int, dst: int) -> None:
        self.faults.stats.retransmits += 1
        m = self.env.metrics
        if m.enabled:
            m.inc("mpi.retransmits", 1.0, src=src, dst=dst)
