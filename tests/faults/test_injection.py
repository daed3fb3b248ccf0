"""Unit tests of the fault mechanisms in the network and file system."""

import pytest

from repro.faults import MessageLoss, WorkerCrashFault
from repro.mpi import MpiWorld
from repro.mpi.network import LinkFailure, LinkFaults, NetworkConfig
from repro.pvfs import FileSystem
from repro.sim import Environment
from repro.sim.rng import RandomStreams


class _AlwaysDrop:
    def random(self) -> float:
        return 0.0


class _NeverDrop:
    def random(self) -> float:
        return 1.0


@pytest.fixture
def env():
    return Environment()


class TestLinkFaults:
    def test_requires_a_window(self):
        with pytest.raises(ValueError):
            LinkFaults([], _NeverDrop())

    def test_certain_loss_exhausts_retries(self):
        w = MpiWorld(2, NetworkConfig())
        net = w.network
        net.install_faults(
            LinkFaults(
                [MessageLoss(drop_prob=0.99, max_retries=3)], _AlwaysDrop()
            )
        )
        w.comm.view(0).isend(1, tag=0, nbytes=4096)
        with pytest.raises(LinkFailure):
            w.env.run()
        assert w.env.now > 0
        assert net.faults.stats.drops == 4  # initial + 3 retransmissions
        assert net.faults.stats.retransmits == 3
        assert net.faults.stats.link_failures == 1

    def test_drops_outside_window_never_happen(self):
        w = MpiWorld(2, NetworkConfig())
        net = w.network
        net.install_faults(
            LinkFaults(
                [MessageLoss(drop_prob=0.99, start=100.0, end=200.0)],
                _AlwaysDrop(),
            )
        )
        w.comm.view(0).isend(1, tag=0, nbytes=4096)
        recv = w.comm.view(1).irecv(source=0, tag=0)
        w.env.run()
        assert recv.completed
        assert net.faults.stats.drops == 0

    def test_seeded_drops_are_recovered(self):
        w = MpiWorld(2, NetworkConfig())
        env, net = w.env, w.network
        rng = RandomStreams(1234).stream("link-faults")
        net.install_faults(
            LinkFaults([MessageLoss(drop_prob=0.5, max_retries=50)], rng)
        )
        delivered = []

        def sender(i):
            yield env.timeout(i * 1e-3)
            w.comm.view(0).isend(1, tag=i, nbytes=8192)
            yield from w.comm.view(1).irecv(source=0, tag=i).wait()
            delivered.append(i)

        for i in range(20):
            env.process(sender(i))
        env.run()
        stats = net.faults.stats
        assert sorted(delivered) == list(range(20))
        assert stats.drops > 0
        # Every drop was healed by exactly one retransmission.
        assert stats.retransmits == stats.drops
        assert stats.link_failures == 0

    def test_backoff_is_exponential(self):
        spec = MessageLoss(
            drop_prob=0.5, retransmit_timeout_s=1e-3, backoff=2.0
        )
        delays = [LinkFaults.retransmit_delay(spec, a) for a in (1, 2, 3)]
        assert delays == [1e-3, 2e-3, 4e-3]


class TestServerDegradation:
    @pytest.mark.parametrize(
        "factor", [0.0, -1.0, float("nan"), float("inf"), True]
    )
    def test_degrade_rejects_bad_factor(self, env, factor):
        fs = FileSystem(env)
        with pytest.raises(ValueError):
            fs.degrade_server(0, factor)

    def test_degraded_window_restores_exactly(self, env):
        fs = FileSystem(env)
        pristine = fs.servers[0].disk
        fs.set_degraded(0, 4.0)
        degraded = fs.servers[0].disk
        assert degraded.bandwidth_Bps == pytest.approx(pristine.bandwidth_Bps / 4)
        # Re-entering a window does not compound (unlike degrade_server).
        fs.set_degraded(0, 4.0)
        assert fs.servers[0].disk == degraded
        fs.clear_degraded(0)
        assert fs.servers[0].disk == pristine

    def test_degraded_server_slows_the_volume(self):
        def timed(slow: float) -> float:
            env = Environment()
            fs = FileSystem(env)
            if slow > 1:
                fs.set_degraded(0, slow)
            done = {}

            def client(env):
                f = yield from fs.open(0, "/out")
                yield from fs.write(0, f, 0, 4 << 20)
                done["at"] = env.now

            env.process(client(env))
            env.run()
            return done["at"]

        # The straggler must be severe enough to outlast the client-side
        # network serialization it otherwise hides behind.
        assert timed(1000.0) > timed(1.0)


class TestServerOutageRetry:
    def test_write_blocks_and_retries_until_restore(self, env):
        fs = FileSystem(env)
        fs.fail_server(0)
        done = {}

        def client(env):
            f = yield from fs.open(0, "/out")
            yield from fs.write(0, f, 0, 1 << 20)
            done["at"] = env.now

        def healer(env):
            yield env.timeout(1.0)
            fs.restore_server(0)

        env.process(client(env))
        env.process(healer(env))
        env.run()
        assert done["at"] >= 1.0
        assert fs.fault_stats["retries"] > 0
        assert fs.fault_stats["retry_wait_s"] > 0

    def test_healthy_run_counts_no_retries(self, env):
        fs = FileSystem(env)
        done = {}

        def client(env):
            f = yield from fs.open(0, "/out")
            yield from fs.write(0, f, 0, 1 << 20)
            done["ok"] = True

        env.process(client(env))
        env.run()
        assert done["ok"]
        assert fs.fault_stats["retries"] == 0


class TestCrashFault:
    def test_repr_names_rank_and_downtime(self):
        fault = WorkerCrashFault(rank=3, downtime_s=2.5)
        text = repr(fault)
        assert "3" in text and "2.5" in text
