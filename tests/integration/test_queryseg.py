"""Query segmentation baseline (the intro's comparison point)."""

import pytest

from repro.core import (
    Phase,
    S3aSim,
    SimulationConfig,
    run_simulation,
)
from repro.faults import FaultPlan, WorkerCrash

MIB = 1024 * 1024
#: Per-worker fragment memory: Feynman nodes had 1 GB RDRAM shared by two
#: ranks, with room left for the application.
MEMORY = 384 * MIB


def cfg(**kwargs):
    defaults = dict(
        nprocs=4, nqueries=6, nfragments=8, db_total_bytes=128 * MIB,
    )
    defaults.update(kwargs)
    return SimulationConfig(**defaults)


def query_seg(config, worker_memory_B=MEMORY):
    return run_simulation(
        config.with_(query_segmentation=True, worker_memory_B=worker_memory_B)
    )


class TestCorrectness:
    def test_output_complete(self):
        result = query_seg(cfg())
        assert result.file_stats.complete

    def test_output_identical_to_database_segmentation(self, strategy="ww-list"):
        """Same deterministic search results, different parallelization —
        the bytes in the output file must match exactly."""
        config = cfg(store_data=True, strategy=strategy, check=True)
        dbseg = S3aSim(config)
        dbseg.run()
        qseg = S3aSim(
            config.with_(query_segmentation=True, worker_memory_B=64 * MIB)
        )
        result = qseg.run()
        assert result.file_stats.complete
        assert dbseg.fh.file.bytestore.content_equal(qseg.fh.file.bytestore)

    @pytest.mark.parametrize("strategy", ["mw", "ww-posix", "ww-coll", "hybrid-auto"])
    def test_output_identical_under_every_strategy(self, strategy):
        self.test_output_identical_to_database_segmentation(strategy)

    def test_invalid_memory(self):
        with pytest.raises(ValueError):
            cfg(query_segmentation=True, worker_memory_B=0)

    def test_master_does_not_compute(self):
        result = query_seg(cfg())
        assert result.master[Phase.COMPUTE] == 0
        assert result.worker_mean[Phase.COMPUTE] > 0

    def test_fragments_kept_while_they_fit(self):
        """Five workers each read all six 16 MiB fragments for their first
        query and keep three (48 MiB); the three queries that follow each
        re-read only the three fragments that did not fit."""
        config = cfg(
            nprocs=6, nqueries=8, nfragments=6, db_total_bytes=96 * MIB,
            collect_metrics=True,
        )
        result = query_seg(config, worker_memory_B=48 * MIB)
        assert result.metrics.counter_total("app.fragments_preloaded") == 39

    @pytest.mark.parametrize("strategy", ["mw", "ww-list"])
    def test_worker_crash_recovers(self, strategy):
        plan = FaultPlan(worker_crashes=(WorkerCrash(2, 10.0, 2.0),))
        result = query_seg(
            cfg(strategy=strategy, store_data=True, fault_plan=plan),
            worker_memory_B=64 * MIB,
        )
        assert result.fault_stats["crashes"] == 1
        assert result.fault_stats["tasks_reassigned"] > 0
        assert result.file_stats.complete


class TestIntroClaims:
    def test_repeated_io_when_database_exceeds_memory(self):
        """"query segmentation suffers repeated I/O introduced by loading
        sequence data back and forth".

        A small result volume keeps output writes out of the I/O phase so
        the comparison isolates the database re-reads.
        """
        from repro.workload import ResultModel

        config = cfg(
            nprocs=3, nqueries=8, db_total_bytes=256 * MIB,
            result_model=ResultModel(min_count=40, max_count=80),
        )
        fits = query_seg(config, worker_memory_B=512 * MIB)
        thrash = query_seg(config, worker_memory_B=32 * MIB)
        assert (
            thrash.worker_mean[Phase.IO] > fits.worker_mean[Phase.IO] * 1.3
        )
        assert thrash.elapsed >= fits.elapsed

    def test_under_utilization_with_few_queries(self):
        """"searching a query against the whole database ... will result
        in resource under-utilization when the number of sequences is
        relatively small compared to the number of processors" — extra
        workers beyond nqueries buy nothing under query segmentation but
        keep helping under database segmentation."""
        base = dict(nqueries=3, nfragments=24, db_total_bytes=64 * MIB)
        q_small = query_seg(cfg(nprocs=4, **base))
        q_large = query_seg(cfg(nprocs=16, **base))
        d_small = run_simulation(cfg(nprocs=4, **base))
        d_large = run_simulation(cfg(nprocs=16, **base))
        qseg_gain = q_small.elapsed / q_large.elapsed
        dbseg_gain = d_small.elapsed / d_large.elapsed
        assert dbseg_gain > qseg_gain * 1.5

    def test_database_segmentation_wins_at_scale(self):
        """The paper's bottom line for why database segmentation is "the
        inevitable trend"."""
        config = cfg(nprocs=8, nqueries=8, db_total_bytes=512 * MIB)
        qseg = query_seg(config, worker_memory_B=64 * MIB)
        dbseg = run_simulation(config)
        assert dbseg.elapsed < qseg.elapsed
