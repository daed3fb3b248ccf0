"""Unit tests for the network timing model.

Messages cross the network through the communicator's sends, issued from
the test itself with their receives posted (``isend`` / ``irecv`` on an
:class:`MpiWorld`).  ``WIRE`` raises the eager threshold to 1 MiB so a
1 MiB message crosses the wire once, as one eager send.
"""

import pytest

from repro.faults import MessageLoss
from repro.mpi import MIB, MpiWorld, Network, NetworkConfig
from repro.mpi.communicator import HEADER_BYTES
from repro.mpi.network import LinkFailure, LinkFaults
from repro.sim import Environment

#: Free latency and CPU, 1 s per MiB on a NIC lane, 1 MiB still eager.
WIRE = dict(
    latency_s=0, bandwidth_Bps=1 * MIB, cpu_overhead_s=0, eager_threshold_B=1 * MIB
)


@pytest.fixture
def env():
    return Environment()


def world(nranks, **config):
    """An :class:`MpiWorld` on a network with these ``NetworkConfig`` fields."""
    return MpiWorld(nranks, NetworkConfig(**config))


def arrivals(w, pairs, nbytes):
    """Send ``nbytes`` along each ``(src, dst)`` of ``pairs`` now, with the
    receive posted; the returned list collects each receive's completion
    instant as the run proceeds."""
    env = w.env
    landed = []
    for tag, (src, dst) in enumerate(pairs):
        w.comm.view(src).isend(dst, tag, nbytes, payload=(src, tag))
        recv = w.comm.view(dst).irecv(source=src, tag=tag)
        recv.done_event.callbacks.append(lambda _event: landed.append(env.now))
    return landed


class TestNetworkConfig:
    def test_defaults_are_myrinet(self):
        cfg = NetworkConfig.myrinet2000()
        assert cfg.latency_s == pytest.approx(7e-6)
        assert cfg.bandwidth_Bps == pytest.approx(245 * MIB)

    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkConfig(latency_s=-1)
        with pytest.raises(ValueError):
            NetworkConfig(bandwidth_Bps=0)
        with pytest.raises(ValueError):
            NetworkConfig(eager_threshold_B=-1)

    def test_transfer_time(self):
        cfg = NetworkConfig(latency_s=1e-5, bandwidth_Bps=100 * MIB)
        assert cfg.transfer_time(0) == pytest.approx(1e-5)
        assert cfg.transfer_time(100 * MIB) == pytest.approx(1 + 1e-5)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            NetworkConfig().serialization_time(-1)


class TestNetwork:
    def test_bad_sizes(self, env):
        with pytest.raises(ValueError):
            Network(env, 0, NetworkConfig())
        net = Network(env, 2, NetworkConfig())
        with pytest.raises(ValueError):
            net.nic(2)

    def test_transfer_advances_clock(self):
        w = world(2, **dict(WIRE, latency_s=1e-3))
        landed = arrivals(w, [(0, 1)], 1 * MIB)
        w.env.run()
        # 1 MiB serializes through TX and RX (1s each) plus latency.
        assert landed == [pytest.approx(2 + 1e-3, rel=1e-6)]

    def test_loopback_is_cheap(self):
        w = world(2, **dict(WIRE, latency_s=1e-3))
        landed = arrivals(w, [(0, 0)], 1 * MIB)
        w.env.run()
        assert landed[0] < 0.5  # far less than the network path

    def test_tx_serializes_concurrent_sends(self):
        w = world(3, **WIRE)
        env = w.env
        done = []
        for dst in (1, 2):
            send = w.comm.view(0).isend(dst, 0, 1 * MIB)
            send.done_event.callbacks.append(lambda _e, d=dst: done.append((env.now, d)))
            w.comm.view(dst).irecv(source=0, tag=0)
        env.run()
        # An eager send completes when its TX hold ends.
        times = sorted(t for t, _ in done)
        assert times[0] == pytest.approx(1.0)
        assert times[1] == pytest.approx(2.0)  # second waits for the NIC

    def test_rx_serializes_concurrent_receives(self):
        w = world(3, **WIRE)
        landed = arrivals(w, [(1, 0), (2, 0)], 1 * MIB)
        w.env.run()
        # Each sender pays 1s TX (in parallel), then rank 0's RX channel
        # serializes the two arrivals: completions at 2s and 3s.
        assert sorted(landed) == [pytest.approx(2.0), pytest.approx(3.0)]

    def test_distinct_paths_proceed_in_parallel(self):
        w = world(4, **WIRE)
        landed = arrivals(w, [(0, 1), (2, 3)], 1 * MIB)
        w.env.run()
        assert landed == [pytest.approx(2.0), pytest.approx(2.0)]

    def test_nic_stats_accumulate(self):
        w = world(2, **WIRE)
        arrivals(w, [(0, 1)], 1000)
        arrivals(w, [(0, 1)], 2000)
        w.env.run()
        net = w.network
        assert net.nic(0).stats.tx_messages == 2
        assert net.nic(0).stats.tx_bytes == 3000
        assert net.nic(1).stats.rx_bytes == 3000


class TestSharedNics:
    """Feynman-style dual-rank nodes: two ranks share one adapter."""

    def test_nic_sharing_map(self, env):
        cfg = NetworkConfig(ranks_per_nic=2)
        net = Network(env, 5, cfg)
        assert net.nic(0) is net.nic(1)
        assert net.nic(2) is net.nic(3)
        assert net.nic(4) is not net.nic(0)
        assert len(net.nics) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkConfig(ranks_per_nic=0)

    def test_node_local_transfer_skips_the_wire(self):
        # A rendezvous payload between node-mates: only its RTS header
        # crosses the shared adapter.
        w = world(
            4, latency_s=1e-3, bandwidth_Bps=1 * MIB, cpu_overhead_s=0,
            ranks_per_nic=2,
        )
        landed = arrivals(w, [(0, 1)], 1 * MIB)  # node-mates
        w.env.run()
        assert landed[0] < 0.5  # shared-memory path, not 2s of wire time
        assert w.network.nic(0).stats.tx_bytes == HEADER_BYTES

    def test_node_mates_contend_on_shared_nic(self):
        w = world(4, **dict(WIRE, ranks_per_nic=2))
        # Ranks 0 and 1 share NIC 0.
        landed = arrivals(w, [(0, 2), (1, 3)], 1 * MIB)
        w.env.run()
        # TX of the shared adapter serializes: 1s then 2s (plus RX).
        assert max(landed) >= 2.0


class _ScriptedRng:
    """Deterministic stand-in for the loss stream: pops scripted draws."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


class TestNicIdentity:
    """A Nic is an adapter, not a rank (regression: shared adapters used
    to expose their index as ``.rank``)."""

    def test_nic_id_is_the_adapter_index(self, env):
        net = Network(env, 5, NetworkConfig(ranks_per_nic=2))
        assert net.nic(0).nic_id == 0
        assert net.nic(2).nic_id == 1  # ranks 2,3 share adapter 1
        assert net.nic(3).nic_id == 1
        assert net.nic(4).nic_id == 2

    def test_repr_names_the_adapter(self, env):
        net = Network(env, 4, NetworkConfig(ranks_per_nic=2))
        assert "id=1" in repr(net.nic(2))
        assert "rank" not in repr(net.nic(2))

    def test_metrics_label_by_nic_and_rank(self):
        from repro.obs import MetricsRegistry

        w = world(4, **dict(WIRE, ranks_per_nic=2))
        env = w.env
        env.metrics = MetricsRegistry()
        arrivals(w, [(1, 2)], 1000)  # adapter 0 -> adapter 1
        env.run()
        snap = env.metrics.snapshot()
        # The shared adapter's traffic is attributed to the sending rank
        # *and* the adapter, so neither view lies.
        assert snap.counter_total("mpi.nic_tx_bytes", nic=0, rank=1) == 1000
        assert snap.counter_total("mpi.nic_rx_bytes", nic=1, rank=2) == 1000
        assert snap.counter_total("mpi.nic_tx_bytes", nic=0, rank=0) == 0


class TestOverlappingLossWindows:
    """Pin the LinkFaults contract for overlapping windows: the *first
    active spec in declaration order* governs a crossing — its drop
    probability, its backoff schedule, and its retry budget — even when a
    later-declared window is also active (and even when that one is
    harsher).  MODELING.md documents this contract; changing it silently
    would change every multi-window fault plan's timing.
    """

    def _two_window_world(self, rng_values, first, second):
        w = world(2, **WIRE)
        w.network.install_faults(
            LinkFaults([first, second], _ScriptedRng(rng_values))
        )
        return w

    def test_first_declared_window_governs_overlap(self):
        # Both windows active at t=0; the first has a tame 10% drop rate,
        # the second drops (almost) everything.  A draw of 0.5 would be a
        # drop under the second window but must NOT drop under the first.
        first = MessageLoss(drop_prob=0.1, start=0.0, end=10.0)
        second = MessageLoss(drop_prob=0.99, start=0.0, end=10.0)
        w = self._two_window_world([0.5], first, second)
        arrivals(w, [(0, 1)], 1000)
        w.env.run()
        assert w.network.faults.stats.drops == 0

    def test_first_active_window_sets_backoff_schedule(self):
        # The first-declared window is over by t=0.5; the second (slow
        # retransmit timer) is the first *active* spec and must provide
        # the backoff schedule for a drop inside it.
        early = MessageLoss(
            drop_prob=0.5, start=0.0, end=0.5, retransmit_timeout_s=1e-3
        )
        late = MessageLoss(
            drop_prob=0.5, start=1.0, end=10.0, retransmit_timeout_s=3.0
        )
        w = self._two_window_world([0.0, 0.9], early, late)
        w.env.run(until=2.0)  # inside the late window only
        landed = arrivals(w, [(0, 1)], 1000)
        w.env.run()
        assert w.network.faults.stats.drops == 1
        # Dropped at ~2.0, retransmitted after the LATE window's 3.0 s
        # timeout (not the early window's 1 ms), delivered after that.
        assert landed == [pytest.approx(5.0, abs=0.01)]

    def test_zero_prob_window_is_skipped(self):
        # A drop_prob=0 window never governs: the active-spec scan skips
        # it, so the later lossy window still applies.
        inert = MessageLoss(drop_prob=0.0, start=0.0, end=10.0)
        lossy = MessageLoss(
            drop_prob=0.5, start=0.0, end=10.0, retransmit_timeout_s=1e-3
        )
        w = self._two_window_world([0.0, 0.9], inert, lossy)
        arrivals(w, [(0, 1)], 1000)
        w.env.run()
        assert w.network.faults.stats.drops == 1
        assert w.network.faults.stats.retransmits == 1


class TestLossyCrossings:
    """Every crossing, the rendezvous RTS and payload included, goes
    through the one drop → back-off → retransmit loop, with a retry
    budget per crossing."""

    LATENCY = 1e-3
    TIMEOUT = 0.01
    PAYLOAD = 128 * 1024  # above the default 64 KiB eager threshold

    def _lossy_world(self, rng_values, max_retries=12):
        w = world(
            2, latency_s=self.LATENCY, bandwidth_Bps=1 * MIB, cpu_overhead_s=0
        )
        # drop_prob < 1 is required; the scripted draws decide each crossing.
        loss = MessageLoss(
            drop_prob=0.5, retransmit_timeout_s=self.TIMEOUT,
            max_retries=max_retries,
        )
        w.network.install_faults(LinkFaults([loss], _ScriptedRng(rng_values)))
        return w

    def test_rendezvous_header_and_payload_retransmit(self):
        # Draws: RTS dropped, RTS delivered, payload dropped, payload
        # delivered.
        w = self._lossy_world([0.0, 0.9, 0.0, 0.9])
        env = w.env
        recv = w.comm.view(1).irecv(source=0, tag=7)
        send = w.comm.view(0).isend(1, tag=7, nbytes=self.PAYLOAD, payload="big")
        sent = []
        send.done_event.callbacks.append(lambda _e: sent.append(env.now))
        env.run()
        h = HEADER_BYTES / MIB  # one header hold
        p = self.PAYLOAD / MIB  # one payload hold
        lat, rto = self.LATENCY, self.TIMEOUT
        rts_landed = (h + lat + rto) + (h + lat) + h  # dropped, resent, RX
        payload_landed = rts_landed + lat + (p + lat + rto) + (p + lat) + p
        assert sent == [pytest.approx(payload_landed, rel=1e-12)]
        assert recv.completed and recv.done_event.value == "big"
        stats = w.network.faults.stats
        assert stats.drops == stats.retransmits == 2
        assert stats.link_failures == 0
        tx = w.network.nic(0).stats
        assert tx.tx_messages == 4
        assert tx.tx_bytes == 2 * HEADER_BYTES + 2 * self.PAYLOAD
        rx = w.network.nic(1).stats
        assert (rx.rx_messages, rx.rx_bytes) == (2, HEADER_BYTES + self.PAYLOAD)

    def test_rendezvous_payload_exhausts_its_own_budget(self):
        # One retry per crossing: the RTS survives one drop, the payload
        # crossing starts a fresh count and dies on its second drop.
        w = self._lossy_world([0.0, 0.9, 0.0, 0.0], max_retries=1)
        w.comm.view(1).irecv(source=0, tag=7)
        w.comm.view(0).isend(1, tag=7, nbytes=self.PAYLOAD)
        with pytest.raises(
            LinkFailure, match=rf"0->1 \({self.PAYLOAD} B\) lost 2 times"
        ):
            w.env.run()
        stats = w.network.faults.stats
        assert (stats.drops, stats.retransmits, stats.link_failures) == (3, 2, 1)

    def test_lossy_send_still_counts_budget(self):
        # Every crossing drops and the window outlasts every retry: the
        # retry budget ends the send.
        w = self._lossy_world([0.0] * 16, max_retries=3)
        arrivals(w, [(0, 1)], 1000)
        with pytest.raises(LinkFailure):
            w.env.run()
        assert w.network.faults.stats.link_failures == 1
        assert w.network.faults.stats.drops == 4  # initial attempt + 3 retries
