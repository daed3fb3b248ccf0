"""Per-stripe replication: placement, ledger, degraded I/O, rebuild.

The golden rule throughout: ``replicas=1`` is the seed volume bit for bit
(the replicated paths are gated on ``replicas > 1`` and construct zero
events otherwise); ``replicas >= 2`` buys outage survival — degraded-mode
writes, replica-aware read failover, and a background rebuild that closes
the durability gap — at a write-amplification cost the stats expose.
"""

import pytest

from repro.mpi.network import NetworkConfig
from repro.pvfs import (
    REPLICA_SLOT_B,
    FileSystem,
    MissedLedger,
    PVFSConfig,
    StripingLayout,
    merge_extents,
)
from repro.sim import Environment, SimulationError

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


def run(env, fragment):
    return env.run(env.process(fragment))


class TestConfig:
    def test_replicas_bounds(self):
        with pytest.raises(ValueError):
            PVFSConfig(nservers=4, replicas=0)
        with pytest.raises(ValueError):
            PVFSConfig(nservers=4, replicas=5)
        assert PVFSConfig(nservers=4, replicas=4).replicas == 4

    def test_parity_is_honestly_rejected(self):
        with pytest.raises(ValueError, match="read-modify-write"):
            PVFSConfig(parity="raid5")

    def test_rebuild_knobs_validated(self):
        with pytest.raises(ValueError):
            PVFSConfig(rebuild_Bps=0)
        with pytest.raises(ValueError):
            PVFSConfig(rebuild_chunk_B=0)

    def test_layout_carries_replicas(self):
        assert PVFSConfig(nservers=8, replicas=3).layout().replicas == 3


class TestPlacement:
    def test_rotated_chains(self):
        layout = StripingLayout(nservers=4, replicas=3)
        assert layout.replica_chain(0) == [0, 1, 2]
        assert layout.replica_chain(3) == [3, 0, 1]

    def test_replica_partitions_never_collide_with_primary(self):
        # Slot-shifted copies land 1 TiB apart per chain slot — far beyond
        # any primary offset the model produces.
        assert StripingLayout.replica_physical(123, 0) == 123
        assert StripingLayout.replica_physical(123, 2) == 2 * REPLICA_SLOT_B + 123

    def test_replica_regions_preserve_order_and_lengths(self):
        regions = [(0, 10), (100, 20)]
        shifted = StripingLayout.replica_regions(regions, 1)
        assert shifted == [(REPLICA_SLOT_B, 10), (REPLICA_SLOT_B + 100, 20)]
        assert StripingLayout.replica_regions(regions, 0) == regions


class TestMissedLedger:
    def test_record_merges_and_counts_growth(self):
        ledger = MissedLedger()
        assert ledger.record([(0, 10)]) == 10
        assert ledger.record([(5, 10)]) == 5  # overlap does not double-count
        assert ledger.outstanding_bytes() == 15
        assert ledger.recorded_bytes == 15

    def test_drain_respects_budget_and_splits(self):
        ledger = MissedLedger()
        ledger.record([(0, 10), (20, 10)])
        assert ledger.drain(12) == [(0, 10), (20, 2)]
        assert ledger.extents == [(22, 30)]

    def test_requeue_restores_without_recounting(self):
        ledger = MissedLedger()
        ledger.record([(0, 10)])
        chunk = ledger.drain(4)
        ledger.requeue(chunk)
        assert ledger.outstanding_bytes() == 10
        assert ledger.recorded_bytes == 10

    def test_abandon_clears(self):
        ledger = MissedLedger()
        ledger.record([(0, 10)])
        assert ledger.abandon() == 10
        assert ledger.empty and ledger.abandoned_bytes == 10

    def test_overlaps(self):
        ledger = MissedLedger()
        ledger.record([(10, 10)])
        assert ledger.overlaps([(15, 1)])
        assert not ledger.overlaps([(0, 10)]) and not ledger.overlaps([(20, 5)])

    def test_merge_extents_utility(self):
        assert merge_extents([(5, 10), (0, 5), (20, 30), (8, 12)]) == [
            (0, 12),
            (20, 30),
        ]


class TestReplicatedWrites:
    def test_write_amplification_counted(self):
        env = Environment()
        fs = make_fs(env, replicas=2)

        def proc():
            f = yield from fs.open(0, "/a")
            yield from fs.write(0, f, 0, 256 * KIB)

        run(env, proc())
        total = sum(s.stats.bytes_written for s in fs.servers)
        replica = sum(s.stats.replica_bytes for s in fs.servers)
        assert replica == 256 * KIB  # one extra copy of every byte
        assert total == 2 * 256 * KIB

    def test_replica_copies_live_in_shifted_partition(self):
        env = Environment()
        fs = make_fs(env, replicas=2)

        def proc():
            f = yield from fs.open(0, "/a")
            yield from fs.write(0, f, 0, 64 * KIB)

        run(env, proc())
        # Strip 0's primary is server 0; its copy rides server 1 at the
        # slot-1 partition, leaving server 1's own primary space untouched.
        assert fs.servers[1].stats.replica_bytes == 64 * KIB

    def test_degraded_write_skips_down_replica_and_ledgers_it(self):
        env = Environment()
        fs = make_fs(env, replicas=2)
        fs.fail_server(1)

        def proc():
            f = yield from fs.open(0, "/a")
            yield from fs.write(0, f, 0, 64 * KIB)  # chain [0, 1]

        run(env, proc())
        assert fs.fault_stats["degraded_writes"] == 1.0
        assert fs.fault_stats["degraded_write_bytes"] == 64 * KIB
        assert fs.missed[1].outstanding_bytes() == 64 * KIB

    def test_all_replicas_down_backs_off_until_restore(self):
        env = Environment()
        fs = make_fs(env, replicas=2)
        fs.fail_server(0)
        fs.fail_server(1)

        def restore_later():
            yield env.timeout(0.5)
            fs.restore_server(0)
            fs.restore_server(1)

        def proc():
            f = yield from fs.open(0, "/a")
            yield from fs.write(0, f, 0, 64 * KIB)

        env.process(restore_later())
        run(env, proc())
        assert env.now > 0.5  # the write waited the outage out
        assert fs.fault_stats["retries"] > 0

    def test_rebuild_closes_the_gap(self):
        env = Environment()
        fs = make_fs(env, replicas=2)
        fs.fail_server(1)

        def proc():
            f = yield from fs.open(0, "/a")
            yield from fs.write(0, f, 0, 128 * KIB)
            fs.restore_server(1)
            # Give the background rebuild room to drain.
            yield env.timeout(60.0)

        run(env, proc())
        # Server 1 missed both the replica copy of strip 0 and its own
        # primary strip 1 (a chain head can be down too): 128 KiB total.
        assert fs.missed[1].empty
        assert fs.servers[1].stats.rebuild_bytes == 128 * KIB
        assert fs.fault_stats["rebuild_bytes"] == 128 * KIB

    def test_replicas_one_never_creates_ledgers(self):
        env = Environment()
        fs = make_fs(env, replicas=1)

        def proc():
            f = yield from fs.open(0, "/a")
            yield from fs.write(0, f, 0, 256 * KIB)

        run(env, proc())
        assert fs.missed == {}
        assert all(s.stats.replica_bytes == 0 for s in fs.servers)


class TestReplicatedReads:
    def test_read_fails_over_to_clean_replica(self):
        env = Environment()
        fs = make_fs(env, replicas=2)

        def proc():
            f = yield from fs.open(0, "/a")
            yield from fs.write(0, f, 0, 64 * KIB)
            fs.fail_server(0)  # primary of strip 0 goes dark
            yield from fs.read(0, f, 0, 64 * KIB)
            fs.restore_server(0)

        run(env, proc())
        assert fs.fault_stats["read_failovers"] == 1.0
        assert fs.servers[1].stats.bytes_read == 64 * KIB

    def test_read_avoids_replica_with_outstanding_miss(self):
        env = Environment()
        # Rebuild crawls at 1 B/s so the stale window stays open for the
        # whole test — otherwise the background rebuild cleans server 1's
        # copy during the read's backoff and serving it becomes legal.
        fs = make_fs(env, replicas=2, rebuild_Bps=1.0)

        def proc():
            f = yield from fs.open(0, "/a")
            fs.fail_server(1)  # strip 0's copy on server 1 will be missed
            yield from fs.write(0, f, 0, 64 * KIB)
            fs.fail_server(0)

            def restore_later():
                yield env.timeout(0.3)
                fs.restore_server(0)

            env.process(restore_later())
            # Server 1 is up again but its copy is stale (missed extent
            # overlapping the read): the read must wait for server 0, not
            # serve the stale replica.
            fs.restore_server(1)
            before = fs.servers[1].stats.bytes_read
            yield from fs.read(0, f, 0, 64 * KIB)
            assert fs.servers[1].stats.bytes_read == before
            assert fs.servers[0].stats.bytes_read == 64 * KIB

        run(env, proc())
        assert fs.fault_stats["retries"] > 0


class TestServerKill:
    def test_kill_is_permanent_and_abandons_ledger(self):
        env = Environment()
        fs = make_fs(env, replicas=2)
        fs.fail_server(1)

        def proc():
            f = yield from fs.open(0, "/a")
            yield from fs.write(0, f, 0, 128 * KIB)

        run(env, proc())
        assert not fs.missed[1].empty
        fs.kill_server(1)
        assert fs.servers[1].dead
        assert fs.missed[1].empty
        # 128 KiB: the missed replica copy of strip 0 plus missed primary
        # strip 1 (server 1 heads that chain and was down for the write).
        assert fs.fault_stats["abandoned_bytes"] == 128 * KIB
        fs.restore_server(1)  # must be a no-op
        assert not fs.servers[1].up

    def test_writes_skip_dead_replica(self):
        env = Environment()
        fs = make_fs(env, replicas=2)
        fs.kill_server(1)

        def proc():
            f = yield from fs.open(0, "/a")
            yield from fs.write(0, f, 0, 64 * KIB)

        run(env, proc())
        assert fs.fault_stats["dead_replica_skips"] == 1.0
        assert fs.fault_stats["degraded_writes"] == 0.0  # dead != degraded
        assert 1 not in fs.missed  # nothing ledgered for a corpse

    @pytest.mark.parametrize("op", ["write", "read"])
    def test_fully_dead_chain_raises(self, op):
        """With every chain member permanently dead a write has nowhere to
        land and a read nothing to read: either fails the caller."""
        env = Environment()
        fs = make_fs(env, nservers=2, replicas=2)

        def proc():
            f = yield from fs.open(0, "/a")
            if op == "read":
                yield from fs.write(0, f, 0, 64 * KIB)
            fs.kill_server(0)
            fs.kill_server(1)
            yield from getattr(fs, op)(0, f, 0, 64 * KIB)

        with pytest.raises(SimulationError, match="entirely dead"):
            run(env, proc())


class TestSyncUnderReplication:
    def test_sync_skips_down_server_when_replicated(self):
        env = Environment()
        fs = make_fs(env, replicas=2)
        fs.fail_server(2)

        def proc():
            f = yield from fs.open(0, "/a")
            yield from fs.sync(0, f)
            fs.restore_server(2)

        run(env, proc())
        assert fs.fault_stats["sync_skips"] == 1.0
        assert fs.servers[2].stats.syncs == 0
        assert all(
            s.stats.syncs == 1 for s in fs.servers if s.server_id != 2
        )
