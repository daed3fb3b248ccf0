"""Write-back cache: merging, flush triggers, read hits, sync ordering."""

import pytest

from repro.mpi.network import NetworkConfig
from repro.pvfs import DiskModel, FileSystem, IOServer, PVFSConfig
from repro.pvfs.cache import WriteBackCache
from repro.sim import Environment, Event

from tests.pvfs.calls import served, synced

KIB, MIB = 1024, 1024 * 1024


def make_server(env, cache_B=1 * MIB, **kwargs):
    defaults = dict(
        sched="elevator",
        cache_B=cache_B,
        cache_watermark=0.75,
        cache_idle_flush_s=0.02,
    )
    defaults.update(kwargs)
    return IOServer(env, 0, DiskModel(), **defaults)


def run(env, fragment):
    return env.run(env.process(fragment))


class TestValidation:
    def test_cache_params(self):
        env = Environment()
        server = make_server(env)
        with pytest.raises(ValueError):
            WriteBackCache(server, capacity_B=0)
        with pytest.raises(ValueError):
            WriteBackCache(server, capacity_B=1024, watermark=0.0)
        with pytest.raises(ValueError):
            WriteBackCache(server, capacity_B=1024, idle_flush_s=0)
        with pytest.raises(ValueError):
            WriteBackCache(server, capacity_B=1024, mem_Bps=0)

    def test_config_params(self):
        with pytest.raises(ValueError):
            PVFSConfig(disk_sched="deadline")
        with pytest.raises(ValueError):
            IOServer(Environment(), 0, DiskModel(), sched="deadline")
        with pytest.raises(ValueError):
            PVFSConfig(elevator_aging=0)
        with pytest.raises(ValueError):
            PVFSConfig(server_cache_B=-1)
        with pytest.raises(ValueError):
            PVFSConfig(cache_watermark=1.5)
        with pytest.raises(ValueError):
            PVFSConfig(cache_idle_flush_s=0)

    def test_default_config_builds_no_stack(self):
        env = Environment()
        server = IOServer(env, 0, DiskModel())
        assert server.disk_queue.elevator is None
        assert server.cache is None


class TestDirtyExtentMerging:
    def test_adjacent_and_overlapping_regions_fuse(self):
        env = Environment()
        server = make_server(env)

        def proc():
            yield served(server, [(0, 100), (200, 50)])
            yield served(server, [(100, 100)])  # bridges the gap
            yield served(server, [(240, 100)])  # overlaps the tail

        run(env, proc())
        assert server.cache.dirty_runs == [(0, 340)]
        assert server.cache.dirty_bytes == 340
        # Nothing hit the disk: the write was absorbed at memory speed.
        assert server.stats.requests == 0
        assert server.stats.bytes_written == 0

    def test_disjoint_regions_stay_separate(self):
        env = Environment()
        server = make_server(env)
        env.run(served(server, [(0, 10), (100, 10)]))
        # Runs are stored as [start, end) extents.
        assert server.cache.dirty_runs == [(0, 10), (100, 110)]

    def test_absorb_is_memory_speed(self):
        env = Environment()
        server = make_server(env, cache_idle_flush_s=1000.0)
        env.run(served(server, [(0, 64 * KIB)]))
        # Far cheaper than the disk op overhead alone (8e-4 s).
        assert env.now < 2e-4


class TestReadHits:
    def test_covered_read_served_from_memory(self):
        env = Environment()
        server = make_server(env)

        def proc():
            yield served(server, [(100, 200)])
            yield served(server, [(120, 50)], True)

        run(env, proc())
        assert server.cache.read_hits == 1
        assert server.cache.read_misses == 0
        assert server.stats.bytes_read == 50
        assert server.stats.requests == 0  # never touched the disk

    def test_uncovered_read_goes_to_disk(self):
        env = Environment()
        server = make_server(env)

        def proc():
            yield served(server, [(100, 200)])
            # Partially covered: the daemon reads the whole region from disk.
            yield served(server, [(250, 100)], True)

        run(env, proc())
        assert server.cache.read_hits == 0
        assert server.cache.read_misses == 1
        assert server.stats.requests == 1


class TestFlushTriggers:
    def test_flush_on_sync_orders_data_before_sync(self):
        env = Environment()
        server = make_server(env, cache_idle_flush_s=1000.0)

        def proc():
            yield served(server, [(0, 100), (200, 100)])
            assert server.stats.bytes_written == 0  # still only in memory
            yield synced(server)

        run(env, proc())
        # The sync drained the cache first, then paid the sync cost: the
        # dirty extents are on the platter and accounted as one request.
        assert server.cache.dirty_bytes == 0
        assert server.cache.dirty_runs == []
        assert server.stats.bytes_written == 200
        assert server.stats.requests == 1
        assert server.stats.syncs == 1
        assert server.cache.flushes == 1
        # Ordering in time, not just state: the run lasted at least the
        # flush's disk service plus the sync cost.
        disk = server.disk
        flush_s = disk.service_detail([(0, 100), (200, 100)], 0).seconds
        assert env.now >= flush_s + disk.sync_time()

    def test_sync_with_clean_cache_only_pays_sync(self):
        env = Environment()
        server = make_server(env)
        env.run(synced(server))
        assert server.stats.syncs == 1
        assert server.stats.requests == 0
        assert server.cache.flushes == 0

    def test_watermark_triggers_background_flush(self):
        env = Environment()
        server = make_server(
            env, cache_B=100 * KIB, cache_watermark=0.5, cache_idle_flush_s=1000.0
        )
        env.run(served(server, [(0, 60 * KIB)]))  # > 50 KiB watermark
        env.run()  # let the background flush drain
        assert server.cache.flushes == 1
        assert server.cache.dirty_bytes == 0
        assert server.stats.bytes_written == 60 * KIB

    def test_idle_timeout_flushes(self):
        env = Environment()
        server = make_server(env, cache_idle_flush_s=0.5)
        env.run(served(server, [(0, 1 * KIB)]))
        assert server.cache.dirty_bytes == 1 * KIB
        env.run()  # idle watcher fires at ~0.5 s
        assert server.cache.flushes == 1
        assert server.cache.dirty_bytes == 0
        assert env.now >= 0.5

    def test_capacity_overflow_forces_synchronous_flush(self):
        env = Environment()
        server = make_server(env, cache_B=64 * KIB, cache_idle_flush_s=1000.0)

        done = Event(env)
        # At the instant the first write is absorbed, the second would
        # overflow: the client stalls behind a flush first.
        server.serve(
            [(0, 48 * KIB)],
            False,
            lambda: server.serve([(100 * KIB, 48 * KIB)], False, done.succeed),
        )
        env.run(done)
        assert server.cache.flushes >= 1
        assert server.stats.bytes_written >= 48 * KIB
        assert server.cache.dirty_bytes <= 64 * KIB


class TestEndToEnd:
    def make_fs(self, env, **overrides):
        defaults = dict(
            nservers=4,
            strip_size=64 * KIB,
            network=NetworkConfig(
                latency_s=1e-6, bandwidth_Bps=1000 * MIB, cpu_overhead_s=0
            ),
            store_data=True,
            client_pipeline_Bps=1000 * MIB,
            disk_sched="elevator",
            server_cache_B=1 * MIB,
        )
        defaults.update(overrides)
        return FileSystem(env, PVFSConfig(**defaults))

    def test_cached_volume_write_sync_read_roundtrip(self):
        env = Environment()
        fs = self.make_fs(env)
        payload = bytes(range(256)) * 1024  # 256 KiB across all 4 servers

        def proc():
            f = yield from fs.open(0, "/out")
            yield from fs.write(0, f, 0, len(payload), payload)
            yield from fs.sync(0, f)
            data = yield from fs.read(0, f, 0, len(payload))
            return data

        data = run(env, proc())
        assert data == payload
        assert fs.total_bytes_written() == len(payload)
        assert all(s.cache.dirty_bytes == 0 for s in fs.servers)
        assert fs.total_syncs() == 4

    def test_interleaved_small_writes_seek_less_with_stack(self):
        """The benchmark's claim in miniature: merged flushes beat
        region-at-a-time FIFO service for a WW-POSIX-like pattern."""

        def run_variant(**overrides):
            env = Environment()
            fs = self.make_fs(env, store_data=False, **overrides)

            def client(c, lo):
                f = yield from fs.open(c, "/out")
                # Strided 4 KiB regions, interleaved across clients.
                for i in range(64):
                    yield from fs.write(c, f, lo + i * 16 * KIB, 4 * KIB)
                yield from fs.sync(c, f)

            procs = [
                env.process(client(c, c * 4 * KIB)) for c in range(4)
            ]
            env.run(env.all_of(procs))
            return sum(s.stats.seeks for s in fs.servers), env.now

        stack_seeks, stack_t = run_variant()
        seed_seeks, seed_t = run_variant(disk_sched="fifo", server_cache_B=0)
        assert stack_seeks < seed_seeks
        assert stack_t < seed_t
