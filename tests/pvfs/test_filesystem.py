"""FileSystem: client ops, parallelism, contention, stats, namespace."""

from dataclasses import replace

import pytest

from repro.core import S3aSim, SimulationConfig
from repro.faults import FaultPlan, ServerOutage
from repro.mpi.network import NetworkConfig
from repro.pvfs import DiskModel, FileSystem, PVFSConfig
from repro.sim import Environment, Process

KIB, MIB = 1024, 1024 * 1024


def fast_net():
    return NetworkConfig(latency_s=1e-6, bandwidth_Bps=1000 * MIB, cpu_overhead_s=0)


def make_fs(env, **kwargs):
    defaults = dict(
        nservers=4,
        strip_size=64 * KIB,
        network=fast_net(),
        store_data=True,
        client_pipeline_Bps=1000 * MIB,
    )
    defaults.update(kwargs)
    return FileSystem(env, PVFSConfig(**defaults))


#: The failure test's server stacks: bare, elevator, and elevator with a
#: write-back cache and read-ahead.
SERVER_STACKS = {
    "fifo": {},
    "elevator": dict(disk_sched="elevator"),
    "elevator-cache-readahead": dict(
        disk_sched="elevator", server_cache_B=1 * MIB, readahead_B=64 * KIB
    ),
}


def run(env, fragment):
    return env.run(env.process(fragment))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            PVFSConfig(nservers=0)
        with pytest.raises(ValueError):
            PVFSConfig(strip_size=0)
        with pytest.raises(ValueError):
            PVFSConfig(listio_max_regions=0)
        with pytest.raises(ValueError):
            PVFSConfig(client_pipeline_Bps=0)

    def test_feynman_preset(self):
        cfg = PVFSConfig.feynman()
        assert cfg.nservers == 16
        assert cfg.strip_size == 64 * KIB


class TestNamespace:
    def test_open_creates(self):
        env = Environment()
        fs = make_fs(env)

        def proc():
            f = yield from fs.open(0, "/a")
            return f

        f = run(env, proc())
        assert fs.lookup("/a") is f

    def test_open_no_create_missing(self):
        env = Environment()
        fs = make_fs(env)

        def proc():
            with pytest.raises(FileNotFoundError):
                yield from fs.open(0, "/missing", create=False)

        run(env, proc())

    def test_metadata_ops_counted(self):
        env = Environment()
        fs = make_fs(env)

        def proc():
            yield from fs.open(0, "/a")   # lookup + create
            yield from fs.open(0, "/a")   # lookup only

        run(env, proc())
        assert fs.metadata.ops == 3


class TestWrites:
    def test_write_records_bytes(self):
        env = Environment()
        fs = make_fs(env)

        def proc():
            f = yield from fs.open(0, "/a")
            yield from fs.write(0, f, 0, 1000, b"x" * 1000)
            return f

        f = run(env, proc())
        assert f.bytestore.read(0, 4) == b"xxxx"
        assert fs.total_bytes_written() == 1000

    def test_write_list_spans_servers(self):
        env = Environment()
        fs = make_fs(env, nservers=4, strip_size=1000)

        def proc():
            f = yield from fs.open(0, "/a")
            yield from fs.write_list(0, f, [(0, 4000)])
            return f

        run(env, proc())
        for server in fs.servers:
            assert server.stats.bytes_written == 1000

    def test_listio_chunking(self):
        env = Environment()
        fs = make_fs(env, nservers=1, listio_max_regions=4)

        def proc():
            f = yield from fs.open(0, "/a")
            regions = [(i * 100, 10) for i in range(10)]
            yield from fs.write_list(0, f, regions)

        run(env, proc())
        # 10 regions on one server at 4 per wire request => 3 requests.
        assert fs.servers[0].stats.requests == 3
        assert fs.servers[0].stats.regions == 10

    def test_datas_alignment_enforced(self):
        env = Environment()
        fs = make_fs(env)

        def proc():
            f = yield from fs.open(0, "/a")
            with pytest.raises(ValueError):
                yield from fs.write_list(0, f, [(0, 10), (20, 10)], [b"x" * 10])

        run(env, proc())

    def test_empty_region_list_is_noop(self):
        env = Environment()
        fs = make_fs(env)

        def proc():
            f = yield from fs.open(0, "/a")
            yield from fs.write_list(0, f, [])

        run(env, proc())
        assert fs.total_requests() == 0


class TestReads:
    def test_read_returns_written_data(self):
        env = Environment()
        fs = make_fs(env)

        def proc():
            f = yield from fs.open(0, "/a")
            yield from fs.write(0, f, 100, 8, b"abcdefgh")
            data = yield from fs.read(0, f, 100, 8)
            return data

        assert run(env, proc()) == b"abcdefgh"

    def test_read_without_store_returns_none(self):
        env = Environment()
        fs = make_fs(env, store_data=False)

        def proc():
            f = yield from fs.open(0, "/a")
            yield from fs.write(0, f, 0, 8)
            return (yield from fs.read(0, f, 0, 8))

        assert run(env, proc()) is None

    def test_read_counts_bytes(self):
        env = Environment()
        fs = make_fs(env)

        def proc():
            f = yield from fs.open(0, "/a")
            yield from fs.write(0, f, 0, 5000)
            yield from fs.read(0, f, 0, 5000)

        run(env, proc())
        assert sum(s.stats.bytes_read for s in fs.servers) == 5000


class TestSync:
    def test_sync_touches_every_server(self):
        env = Environment()
        fs = make_fs(env, nservers=6)

        def proc():
            f = yield from fs.open(0, "/a")
            yield from fs.sync(0, f)

        run(env, proc())
        assert fs.total_syncs() == 6
        assert all(s.stats.syncs == 1 for s in fs.servers)


class TestServerRequestLegs:
    @pytest.mark.parametrize(
        "strategy,replicas,stacked",
        [
            pytest.param("ww-list", 1, False, id="ww-list-1"),
            pytest.param("ww-posix", 1, False, id="ww-posix-1"),
            pytest.param("ww-list", 2, False, id="ww-list-2"),
            pytest.param("ww-list", 2, True, id="ww-list-2-stacked-outage"),
        ],
    )
    def test_no_leg_starts_a_process(self, monkeypatch, strategy, replicas, stacked):
        """Per-server legs of list I/O, replica chains included, and syncs
        are callback machines: the ranks are the only processes.

        The stacked input puts an elevator, a write-back cache small
        enough to reach its watermark and read-ahead on every server, and
        takes server 0 down for a second: its cache flushes (watermark,
        back-pressure, idle and sync) and the rebuild after the outage
        start no process either; the outage is the injector's own."""
        names = []
        init = Process.__init__

        def recording_init(self, env, generator, name=None):
            init(self, env, generator, name)
            names.append(self.name)

        monkeypatch.setattr(Process, "__init__", recording_init)
        cfg = SimulationConfig(strategy=strategy, nprocs=4, nqueries=2, nfragments=4)
        pvfs = replace(cfg.pvfs, replicas=replicas)
        expected = [f"rank-{rank}" for rank in range(4)]
        if stacked:
            pvfs = replace(
                pvfs, disk_sched="elevator", server_cache_B=64 * KIB,
                readahead_B=128 * KIB,
            )
            cfg = cfg.with_(
                fault_plan=FaultPlan(
                    server_outages=(ServerOutage(0, start=7.0, duration=1.0),)
                )
            )
            expected = ["fault-outage-s0"] + expected
        result = S3aSim(cfg.with_(pvfs=pvfs)).run()
        assert result.file_stats.complete
        assert sorted(names) == expected
        if stacked:
            assert result.fault_stats["rebuilds"] == 1

    @pytest.mark.parametrize("stack", ["fifo", "elevator", "elevator-cache-readahead"])
    def test_server_side_failure_reaches_the_caller(self, stack):
        """An exception raised in the server stack leaves ``env.run()`` at
        the instant it is raised, on the bare stack as on the others: no
        leg turns it into a failed event."""
        env = Environment()
        fs = make_fs(env, **SERVER_STACKS[stack])
        raised = []

        def broken(*_args):
            raised.append(env.now)
            raise RuntimeError("disk on fire")

        fs.servers[1]._disk_serviced = broken
        finished = []

        def proc():
            f = yield from fs.open(0, "/a")
            yield from fs.read_list(0, f, [(0, 4 * 64 * KIB)])
            finished.append(env.now)

        env.process(proc())
        with pytest.raises(RuntimeError, match="disk on fire"):
            env.run()
        assert len(raised) == 1 and env.now == raised[0] > 0
        assert finished == []


class TestContention:
    def test_many_clients_beat_one_client(self):
        """Aggregate bandwidth scales with writers (paper Section 2.2)."""
        volume = 64 * MIB

        def one_client_time():
            env = Environment()
            fs = make_fs(env, store_data=False, client_pipeline_Bps=10 * MIB)

            def proc():
                f = yield from fs.open(0, "/a")
                yield from fs.write(0, f, 0, volume)

            run(env, proc())
            return env.now

        def four_client_time():
            env = Environment()
            fs = make_fs(env, store_data=False, client_pipeline_Bps=10 * MIB)
            share = volume // 4

            def client(c):
                f = yield from fs.open(c, "/a")
                yield from fs.write(c, f, c * share, share)

            procs = [env.process(client(c)) for c in range(4)]
            env.run(env.all_of(procs))
            return env.now

        assert four_client_time() < one_client_time() / 2

    def test_server_disk_serializes(self):
        env = Environment()
        # Single server; two clients write disjoint 8 MiB extents.
        fs = make_fs(env, nservers=1, store_data=False,
                     disk=DiskModel(bandwidth_Bps=10 * MIB))

        def client(c):
            f = yield from fs.open(c, "/a")
            yield from fs.write(c, f, c * 8 * MIB, 8 * MIB)

        procs = [env.process(client(c)) for c in range(2)]
        env.run(env.all_of(procs))
        # Disk alone needs 1.6s serialized; parallel clients cannot beat it.
        assert env.now >= 1.6

    def test_client_nic_contention_hook(self):
        """With a shared NIC, FS traffic serializes per client."""
        from repro.mpi.network import Nic

        env = Environment()
        nic = Nic(env, 0)
        fs = FileSystem(
            env,
            PVFSConfig(
                nservers=4,
                network=fast_net(),
                client_pipeline_Bps=10 * MIB,
                store_data=False,
            ),
            client_nic=lambda rank: nic,
        )

        def writer(offset):
            f = yield from fs.open(0, "/a")
            yield from fs.write(0, f, offset, 10 * MIB)

        procs = [env.process(writer(0)), env.process(writer(64 * MIB))]
        env.run(env.all_of(procs))
        # Two 1s client-side serializations through one NIC: >= 2s.
        assert env.now >= 2.0
        assert nic.stats.tx_bytes > 20 * MIB


class TestStragglerInjection:
    def test_validation(self):
        env = Environment()
        fs = make_fs(env)
        with pytest.raises(ValueError):
            fs.degrade_server(0, 0)

    def test_degraded_server_slows_the_volume(self):
        def run_with(factor):
            env = Environment()
            fs = make_fs(env, nservers=4, store_data=False)
            if factor is not None:
                fs.degrade_server(2, factor)

            def proc():
                f = yield from fs.open(0, "/a")
                regions = [(i * 50_000, 5_000) for i in range(64)]
                yield from fs.write_list(0, f, regions)

            env.run(env.process(proc()))
            return env.now

        healthy = run_with(None)
        degraded = run_with(8.0)
        assert degraded > healthy * 2

    def test_only_target_server_is_slowed(self):
        env = Environment()
        fs = make_fs(env, nservers=4)
        original = fs.servers[0].disk
        fs.degrade_server(2, 4.0)
        assert fs.servers[0].disk is original
        assert fs.servers[2].disk.bandwidth_Bps == pytest.approx(
            original.bandwidth_Bps / 4
        )


class TestServerChannels:
    """Regression: read responses used to serialize behind write payloads
    on the server's single ``net_in`` channel."""

    def test_read_response_rides_net_out(self):
        env = Environment()
        fs = make_fs(env, nservers=1, store_data=False)
        assert fs.servers[0].net_out is not fs.servers[0].net_in

    def test_read_and_write_to_same_server_overlap(self):
        # Slow wire so the network term dominates; one server so both
        # operations fight over the same daemon's channels.
        net = NetworkConfig(latency_s=1e-6, bandwidth_Bps=10 * MIB, cpu_overhead_s=0)
        nbytes = 1 * MIB

        def run_pair(concurrent):
            env = Environment()
            fs = make_fs(env, nservers=1, store_data=False, network=net)

            def writer():
                f = yield from fs.open(0, "/a")
                yield from fs.write(0, f, 0, nbytes)

            def reader():
                f = yield from fs.open(1, "/a")
                yield from fs.read(1, f, 0, nbytes)

            if concurrent:
                procs = [env.process(writer()), env.process(reader())]
                env.run(env.all_of(procs))
            else:
                def serial():
                    yield from writer()
                    yield from reader()

                env.run(env.process(serial()))
            return env.now

        overlapped = run_pair(concurrent=True)
        serialized = run_pair(concurrent=False)
        # Full duplex: the response leaves on TX while the payload is
        # still arriving on RX, so the pair beats back-to-back by a
        # clear margin (each direction alone is ~0.1 s of wire time).
        assert overlapped < serialized - 0.05


class TestMetadataMetrics:
    def test_open_counts_metadata_ops(self):
        from repro.obs import MetricsRegistry

        env = Environment()
        env.metrics = MetricsRegistry()
        fs = make_fs(env)

        def proc():
            yield from fs.open(0, "/a")
            yield from fs.open(1, "/b")

        run(env, proc())
        snap = env.metrics.snapshot()
        # The counter agrees with the daemon's own tally (an open is a
        # lookup plus a create, so one client open is two metadata ops).
        assert fs.metadata.ops == 4
        assert snap.counter_total("pvfs.metadata_ops") == fs.metadata.ops
        hist = snap.histogram_summary("pvfs.metadata_seconds")
        assert hist.count == fs.metadata.ops
        assert hist.mean > 0

    def test_metadata_metrics_silent_when_disabled(self):
        env = Environment()
        fs = make_fs(env)
        run(env, fs.open(0, "/a"))
        # Default null registry: ops still tallied, nothing recorded.
        assert not env.metrics.enabled
        assert fs.metadata.ops > 0
