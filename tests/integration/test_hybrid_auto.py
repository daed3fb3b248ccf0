"""End-to-end adaptive strategy selection (``--strategy hybrid-auto``).

A hybrid-auto run must produce the same dense, checkable output file as
any static strategy, while the selector's choices stay visible in three
places that must agree: the selector ledger inside the invariant
checker, the ``adapt.choices`` counter, and the per-query trace stamps.
"""

from dataclasses import replace

import pytest

from repro.adapt import CANDIDATES
from repro.core import SCENARIOS, SimulationConfig, get_scenario, run_simulation
from repro.core.app import S3aSim
from repro.serve.arrivals import ArrivalConfig
from repro.workload.results import ResultModel


def cfg(**kwargs):
    defaults = dict(
        nprocs=4,
        strategy="hybrid-auto",
        nqueries=6,
        nfragments=8,
        seed=77,
        write_every=1,
        store_data=True,
        check=True,
        collect_metrics=True,
    )
    defaults.update(kwargs)
    return SimulationConfig(**defaults)


def run_app(config):
    app = S3aSim(config)
    result = app.run()
    return app, result


class TestBatch:
    def test_checked_run_is_dense_and_ledgered(self):
        app, result = run_app(cfg())
        assert result.file_stats.complete
        extents = app.fh.file.bytestore.extents()
        assert len(extents) == 1 and extents[0][0] == 0

        strategies = app.world.env.check.summary()["strategies"]
        assert len(strategies) == cfg().nqueries
        assert set(strategies.values()) <= set(CANDIDATES)

        snap = result.metrics
        assert snap.counter_total("adapt.choices") == float(cfg().nqueries)
        per_name = {
            name: snap.counter_total("adapt.choices", chosen=name)
            for name in CANDIDATES
        }
        assert sum(per_name.values()) == float(cfg().nqueries)

    def test_small_results_prefer_master_writes(self):
        app, result = run_app(
            cfg(result_model=ResultModel(min_count=1, max_count=3))
        )
        strategies = app.world.env.check.summary()["strategies"]
        assert set(strategies.values()) == {"mw"}

    def test_large_results_prefer_list_io(self):
        app, result = run_app(
            cfg(result_model=ResultModel(min_count=800, max_count=1200))
        )
        strategies = app.world.env.check.summary()["strategies"]
        assert set(strategies.values()) == {"ww-list"}

    def test_matches_static_output_bytes(self):
        """hybrid-auto writes the same file content as any static
        strategy on the same workload (the metamorphic relation, pinned
        here on one concrete case)."""
        app_h, _ = run_app(cfg())
        app_s, _ = run_app(cfg(strategy="ww-list"))
        img = lambda a: a.fh.file.bytestore.read(0, a.fh.file.bytestore.extents()[0][1])
        assert img(app_h) == img(app_s)


class TestStaticLedger:
    """A static strategy is a choice that is always the same answer: its
    runs fill the same chosen/executed/traced ledgers as hybrid-auto."""

    @pytest.mark.parametrize(
        "strategy,query_sync",
        [
            ("mw", False),
            ("ww-posix", False),
            ("ww-list", False),
            ("ww-coll", False),
            ("mw", True),
            ("ww-coll", True),
        ],
    )
    def test_every_query_ledgered_under_the_static_name(
        self, strategy, query_sync
    ):
        config = cfg(strategy=strategy, query_sync=query_sync,
                     collect_metrics=False)
        app, result = run_app(config)
        assert result.file_stats.complete
        check = app.world.env.check
        expected = {(0, q): strategy for q in range(config.nqueries)}
        assert check.strategy_chosen_by == expected
        assert check.strategy_executed_by == expected
        assert check.strategy_traced_by == expected


class TestServe:
    def test_serve_mode_stamps_every_admitted_query(self):
        app, result = run_app(
            cfg(arrival=ArrivalConfig(process="poisson", rate=50.0, max_pending=8))
        )
        assert result.serve_stats["completed"] >= 1
        strategies = app.world.env.check.summary()["strategies"]
        assert len(strategies) == int(result.serve_stats["completed"])
        assert set(strategies.values()) <= set(CANDIDATES)


class TestScenarios:
    def test_preload_scenario_prefetches_fragments(self):
        base = SimulationConfig(
            nprocs=4, nqueries=3, nfragments=6, collect_metrics=True
        )
        result = run_simulation(get_scenario("preload", base))
        assert result.file_stats.complete
        preloads = result.metrics.counter_total("app.fragments_preloaded")
        assert preloads >= float(base.nfragments)

    def test_checkpoint_restart_scenario_resumes(self):
        base = SimulationConfig(nprocs=4, nqueries=4, nfragments=6)
        result = run_simulation(get_scenario("checkpoint-restart", base))
        assert result.file_stats.complete
