"""Multi-master sharding: placement, stealing, conservation, bit-identity.

The load-bearing guarantee mirrors serve mode's: a single-master
configuration (``--masters 1`` or no shard config at all) must reproduce
the seed bit-for-bit.  On top of that the sharded path itself must
conserve queries globally *and* per shard (the checker's extended ledger
runs on every test here), keep every shard's output file dense, and
actually steal when placement is skewed.
"""

import pytest

from repro.analysis import masters_sweep
from repro.core import S3aSim, SimulationConfig, get_scenario
from repro.core.app import run_simulation
from repro.serve import ArrivalConfig
from repro.shard import PLACEMENTS, MasterGroup, ShardConfig, partition_ranks, place
from tests.small_golden import GOLDEN, SMALL

STRATEGIES = tuple(GOLDEN)


def sharded_config(strategy="ww-list", masters=2, placement="range", **kwargs):
    params = dict(
        nprocs=8,
        nqueries=20,
        nfragments=5,
        check=True,
        arrival=ArrivalConfig(process="poisson", rate=5.0),
        shard=ShardConfig(nshards=masters, placement=placement),
    )
    params.update(kwargs)
    return SimulationConfig(strategy=strategy, **params)


class TestUnsharded:
    """shard=None and nshards=1 are the seed, bit for bit."""

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_batch_golden_through_both_entrypoints(self, strategy):
        cfg = SimulationConfig(strategy=strategy, check=True, **SMALL)
        assert run_simulation(cfg).elapsed == GOLDEN[strategy]
        single = cfg.with_(shard=ShardConfig(nshards=1))
        assert run_simulation(single).elapsed == GOLDEN[strategy]

    def test_single_shard_serve_matches_unsharded(self):
        arrival = ArrivalConfig(process="poisson", rate=10.0, max_pending=8)
        base = SimulationConfig(
            strategy="ww-list", nprocs=4, nqueries=6, nfragments=4,
            check=True, arrival=arrival,
        )
        plain = S3aSim(base).run()
        single = run_simulation(base.with_(shard=ShardConfig(nshards=1)))
        assert single.elapsed == plain.elapsed
        assert single.serve_stats == plain.serve_stats


class TestPlacement:
    """Placement is a pure function of the arrival index — no randomness."""

    @pytest.mark.parametrize("placement", PLACEMENTS)
    def test_every_index_lands_on_a_shard(self, placement):
        for nshards in (1, 2, 3, 8):
            shards = [place(i, nshards, placement, 100) for i in range(100)]
            assert all(0 <= s < nshards for s in shards)

    def test_hash_spreads(self):
        shards = [place(i, 4, "hash", 1000) for i in range(1000)]
        counts = [shards.count(s) for s in range(4)]
        assert min(counts) > 150  # roughly uniform

    def test_range_is_contiguous_and_skewed_free(self):
        # Range placement is monotone: shard index never decreases.
        shards = [place(i, 3, "range", 30) for i in range(30)]
        assert shards == sorted(shards)
        assert set(shards) == {0, 1, 2}

    def test_partition_ranks_tile_the_world(self):
        for nprocs, nshards in ((8, 2), (9, 4), (16, 3), (7, 3)):
            blocks = [partition_ranks(nprocs, nshards, i) for i in range(nshards)]
            flat = [r for block in blocks for r in block]
            assert flat == list(range(nprocs))
            sizes = [len(b) for b in blocks]
            assert max(sizes) - min(sizes) <= 1
            assert min(sizes) >= 1


class TestConfigValidation:
    def test_sharding_requires_serve_mode(self):
        with pytest.raises(ValueError, match="serve"):
            SimulationConfig(
                strategy="ww-list", nprocs=8, nqueries=4, nfragments=4,
                shard=ShardConfig(nshards=2),
            )

    def test_sharding_requires_two_ranks_per_shard(self):
        with pytest.raises(ValueError, match="processes"):
            SimulationConfig(
                strategy="ww-list", nprocs=5, nqueries=4, nfragments=4,
                arrival=ArrivalConfig(process="poisson", rate=5.0),
                shard=ShardConfig(nshards=3),
            )

    def test_bad_placement_rejected(self):
        with pytest.raises(ValueError, match="placement"):
            ShardConfig(nshards=2, placement="modulo")


class TestShardedRuns:
    """The checker's global + per-shard ledgers run on every one of these."""

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_all_strategies_complete_and_conserve(self, strategy):
        result = run_simulation(sharded_config(strategy=strategy))
        s = result.serve_stats
        assert s["offered"] == 20.0
        assert s["completed"] + s["shed"] + s["rejected"] == s["offered"]
        assert s["pending"] == 0.0
        # Slots: every steal re-admits the query on the thief.
        assert s["admitted"] == s["offered"] - s["rejected"] + s["steals"]
        assert s["steals"] == s["donated"]
        assert result.file_stats.dense
        assert result.file_stats.complete

    def test_range_placement_forces_steals(self):
        # Range placement front-loads shard 0; shard 1 must steal to eat.
        result = run_simulation(sharded_config(masters=2, placement="range"))
        assert result.serve_stats["steals"] > 0

    def test_steal_disabled_stays_put(self):
        cfg = sharded_config(masters=2, placement="range")
        cfg = cfg.with_(shard=ShardConfig(nshards=2, placement="range", steal=False))
        result = run_simulation(cfg)
        s = result.serve_stats
        assert s["steals"] == 0.0
        assert s["donated"] == 0.0
        assert s["completed"] + s["shed"] + s["rejected"] == s["offered"]

    def test_per_shard_stats_sum_to_global(self):
        result = run_simulation(sharded_config(masters=4, nprocs=8, nqueries=24))
        merged = result.serve_stats
        for key in ("offered", "completed", "rejected", "shed"):
            assert merged[key] == sum(
                s.get(key, 0.0) for s in result.shard_serve_stats
            )
        assert merged["steals"] == sum(
            s.get("stolen", 0.0) for s in result.shard_serve_stats
        )
        assert merged["donated"] == sum(
            s.get("donated", 0.0) for s in result.shard_serve_stats
        )

    def test_stolen_latency_spans_original_arrival(self):
        # A stolen query's latency clock starts at its original arrival, so
        # the merged max must be at least every shard's local max.
        result = run_simulation(sharded_config(masters=2, placement="range"))
        merged = result.serve_stats
        assert result.serve_stats["steals"] > 0
        local_max = max(
            s["latency_max_s"] for s in result.shard_serve_stats if s["completed"]
        )
        assert merged["latency_max_s"] == local_max

    def test_determinism(self):
        cfg = sharded_config(masters=3, nprocs=9, placement="hash")
        a = run_simulation(cfg)
        b = run_simulation(cfg)
        assert a.elapsed == b.elapsed
        assert a.serve_stats["completed"] == b.serve_stats["completed"]
        assert a.serve_stats["steals"] == b.serve_stats["steals"]
        assert a.shard_serve_stats[0]["completed"] == b.shard_serve_stats[0]["completed"]

    def test_cutoff_is_well_formed(self):
        cfg = sharded_config(masters=2)
        result = MasterGroup(cfg).run(until=1.0)
        s = result.serve_stats
        assert result.elapsed == 1.0
        if not s["completed"]:
            assert s["latency_p99_s"] != s["latency_p99_s"]  # NaN

    def test_master_group_is_the_one_assembler(self):
        assert MasterGroup is S3aSim

    def test_preload_scenario_reads_fragments(self):
        cfg = get_scenario("preload", sharded_config(masters=2)).with_(
            collect_metrics=True
        )
        result = run_simulation(cfg)
        assert result.file_stats.complete
        assert result.metrics.counter_total("app.fragments_preloaded") > 0

    def test_serve_counters_are_run_wide(self):
        cfg = sharded_config(masters=2).with_(collect_metrics=True)
        result = run_simulation(cfg)
        snapshot = result.metrics
        for name in ("offered", "admitted", "rejected", "shed", "completed"):
            assert (
                snapshot.counter_total(f"serve.{name}")
                == result.serve_stats[name]
            )

    def test_metrics_expose_steal_counters(self):
        cfg = sharded_config(masters=2, placement="range").with_(
            collect_metrics=True
        )
        result = run_simulation(cfg)
        snapshot = result.metrics
        assert snapshot is not None
        total = snapshot.counter_total("shard.steals")
        assert total == result.serve_stats["steals"]
        assert (
            snapshot.counter_total("shard.donated_queries")
            == result.serve_stats["donated"]
        )


class TestMastersSweep:
    def test_sweep_covers_axis_and_keeps_masters_one_plain(self):
        base = SimulationConfig(
            strategy="ww-list", nprocs=8, nqueries=12, nfragments=4,
            check=True, arrival=ArrivalConfig(process="poisson", rate=6.0),
        )
        sweep = masters_sweep(
            base, master_counts=(1, 2), strategies=("ww-list", "mw")
        )
        assert sweep.axis_name == "masters"
        assert len(sweep.points) == 4
        for point in sweep.points:
            s = point.result.serve_stats
            assert s["completed"] + s["shed"] + s["rejected"] == s["offered"]
            if point.x == 1.0:
                # Unsharded result object: no shard keys at all.
                assert "masters" not in s
            else:
                assert s["masters"] == point.x

    def test_sweep_requires_arrival(self):
        base = SimulationConfig(
            strategy="ww-list", nprocs=8, nqueries=4, nfragments=4
        )
        with pytest.raises(ValueError, match="arrival"):
            masters_sweep(base, master_counts=(1, 2))
