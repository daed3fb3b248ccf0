"""Hybrid query/database segmentation (the paper's future-work strategy).

A closed batch over k shards: each shard runs a contiguous query block
on a contiguous rank block, all sharing one network and PVFS volume.
"""

import pytest

from repro.cli import main
from repro.core import S3aSim, SimulationConfig, get_scenario, run_simulation
from repro.shard import ShardConfig, partition_ranks

STRATEGIES = ("mw", "ww-posix", "ww-list", "ww-coll")


def cfg(k=None, **kwargs):
    defaults = dict(
        nprocs=12, strategy="ww-list", nqueries=8, nfragments=16,
        store_data=True,
    )
    defaults.update(kwargs)
    if k is not None:
        defaults["shard"] = ShardConfig(nshards=k, placement="range", steal=False)
    return SimulationConfig(**defaults)


SMALL = ["--nprocs", "8", "--nqueries", "4", "--nfragments", "4"]


class TestValidation:
    def test_partition_bounds(self):
        with pytest.raises(ValueError):
            cfg(0)
        with pytest.raises(ValueError, match="processes"):
            cfg(3, nprocs=4)  # needs >= 2 procs/partition
        with pytest.raises(ValueError, match="queries"):
            cfg(3, nqueries=2)  # needs >= 1 query/partition

    def test_no_resume(self):
        with pytest.raises(ValueError, match="resume"):
            cfg(2, resume_from_query=2)

    @pytest.mark.parametrize(
        "shard",
        [
            ShardConfig(nshards=2, placement="hash", steal=False),
            ShardConfig(nshards=2, placement="range", steal=True),
        ],
    )
    def test_batch_needs_range_without_steal(self, shard):
        with pytest.raises(ValueError, match="serve mode"):
            cfg(shard=shard)

    def test_fault_plan_rejected(self):
        from repro.faults import FaultPlan

        plan = FaultPlan.standard(crash_rank=2, crash_time=1.0)
        with pytest.raises(ValueError, match="fault injection"):
            cfg(2, fault_plan=plan)


class TestPartitioning:
    def test_ranks_partition_the_machine(self):
        sim = S3aSim(cfg(3, nprocs=13))
        all_ranks = sorted(r for shard in sim.shards for r in shard.ranks)
        assert all_ranks == list(range(13))
        assert [len(shard.ranks) for shard in sim.shards] == [5, 4, 4]

    def test_queries_partition_the_query_set(self):
        """Shard i holds the bytes of the contiguous block
        ``partition_ranks(nqueries, k, i)`` — the blocks tile the queries."""
        sim = S3aSim(cfg(3, nqueries=10))
        sim.run()
        blocks = [partition_ranks(10, 3, i) for i in range(3)]
        assert sorted(q for block in blocks for q in block) == list(range(10))
        results = sim.workload.results
        for shard, block in zip(sim.shards, blocks):
            store = shard.fh.file.bytestore
            expected = sum(results.query_total_bytes(q) for q in block)
            assert store.extents() == [(0, expected)]


class TestExecution:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_all_partitions_complete(self, k):
        result = run_simulation(cfg(k))
        assert result.file_stats.complete
        if k > 1:
            assert len(result.shard_elapsed) == k
            assert result.elapsed >= max(result.shard_elapsed) - 1e-9

    def test_partition_outputs_match_pure_run_content(self):
        """Every partition's file content equals the corresponding query
        blocks of a pure database-segmentation run."""
        ref_app = S3aSim(cfg())
        ref_app.run()
        ref_store = ref_app.fh.file.bytestore
        sizes = [
            ref_app.workload.results.query_total_bytes(q) for q in range(8)
        ]

        hybrid = S3aSim(cfg(2))
        result = hybrid.run()
        assert result.file_stats.complete
        # Partition 0 holds queries 0..3; its file must equal the
        # concatenation of those blocks in the reference file.
        part0 = hybrid.fs.lookup(cfg().output_path + ".shard0").bytestore
        nbytes = sum(sizes[:4])
        assert part0.read(0, nbytes) == ref_store.read(0, nbytes)
        # Partition 1 holds queries 4..7.
        part1 = hybrid.fs.lookup(cfg().output_path + ".shard1").bytestore
        tail = sum(sizes[4:])
        assert part1.read(0, tail) == ref_store.read(nbytes, tail)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_single_partition_equals_pure_database_segmentation(self, strategy):
        pure = run_simulation(cfg(strategy=strategy))
        single = run_simulation(cfg(1, strategy=strategy))
        assert single.elapsed == pure.elapsed
        assert single.file_stats == pure.file_stats
        assert single.server_stats == pure.server_stats

    def test_mw_hybrid_runs(self):
        result = run_simulation(cfg(2, strategy="mw"))
        assert result.file_stats.complete

    def test_collective_hybrid_runs(self):
        result = run_simulation(cfg(2, strategy="ww-coll"))
        assert result.file_stats.complete


class TestFlagsHonoured:
    """Every flag takes effect on the partitions or is rejected."""

    def test_check_installs_checker(self, capsys):
        code = main(["hybrid", *SMALL, "--partitions", "2", "--check"])
        out = capsys.readouterr().out
        assert code == 0
        assert "invariants:" in out and "checks passed" in out
        assert "complete: True" in out

    def test_fault_plan_rejected_with_message(self, tmp_path, capsys):
        from repro.faults import FaultPlan

        path = tmp_path / "plan.json"
        with open(path, "w") as fh:
            FaultPlan.standard(crash_rank=2, crash_time=1.0).to_json(fh)
        with pytest.raises(SystemExit) as exc:
            main(["hybrid", *SMALL, "--partitions", "2", "--fault-plan", str(path)])
        assert "fault injection" in str(exc.value.code)

    def test_preload_scenario_runs_and_ledgers(self, capsys):
        code = main(["hybrid", *SMALL, "--partitions", "2", "--scenario",
                     "preload", "--check"])
        assert code == 0
        assert "complete: True" in capsys.readouterr().out

        base = cfg(2, nprocs=8, nqueries=4, nfragments=4, check=True,
                   collect_metrics=True)
        sim = S3aSim(get_scenario("preload", base))
        result = sim.run()
        assert result.file_stats.complete
        assert result.metrics.counter_total("app.fragments_preloaded") > 0
        check = sim.world.env.check
        # One choice per query, keyed (shard, local query); the finalize
        # audit already asserted chosen == executed == traced.
        assert len(check.strategy_chosen_by) == 4
        assert check.strategy_chosen_by == check.strategy_executed_by
        assert check.strategy_chosen_by == check.strategy_traced_by
