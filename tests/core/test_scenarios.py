"""Named historical scenarios (mpiBLAST 1.2/1.4, pioBLAST, proposed)."""

import pytest

from repro.core import SCENARIOS, SimulationConfig, get_scenario, run_simulation


class TestScenarioDefinitions:
    def test_registry(self):
        assert set(SCENARIOS) == {
            "mpiblast-1.2",
            "mpiblast-1.4",
            "pioblast",
            "proposed",
            "proposed-posix",
            "preload",
            "query-segmentation",
            "checkpoint-restart",
        }

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            get_scenario("blastzilla")

    def test_mpiblast_12_writes_at_end(self):
        cfg = get_scenario("mpiblast-1.2")
        assert cfg.strategy == "mw"
        assert cfg.write_every == cfg.nqueries
        assert cfg.ngroups == 1

    def test_mpiblast_14_writes_per_query(self):
        cfg = get_scenario("mpiblast-1.4")
        assert cfg.strategy == "mw"
        assert cfg.write_every == 1

    def test_pioblast_collective_at_end(self):
        cfg = get_scenario("pioblast")
        assert cfg.strategy == "ww-coll"
        assert cfg.write_every == cfg.nqueries

    def test_proposed_variants(self):
        assert get_scenario("proposed").strategy == "ww-list"
        assert get_scenario("proposed-posix").strategy == "ww-posix"

    def test_preload_is_read_dominated_adaptive(self):
        cfg = get_scenario("preload")
        assert cfg.strategy == "hybrid-auto"
        assert cfg.preload_fragments
        assert cfg.pvfs.readahead_B > 0
        assert cfg.adaptive

    def test_query_segmentation_bounds_worker_memory(self):
        cfg = get_scenario("query-segmentation")
        assert cfg.query_segmentation
        assert cfg.worker_memory_B == 384 * 1024 * 1024

    def test_checkpoint_restart_resumes_verified(self):
        base = SimulationConfig(nqueries=8)
        cfg = get_scenario("checkpoint-restart", base)
        assert cfg.resume_from_query == 4
        assert cfg.verify_resume
        assert cfg.pvfs.replicas == 2
        assert cfg.fault_plan.server_kills

    def test_checkpoint_restart_needs_two_queries(self):
        with pytest.raises(ValueError):
            get_scenario("checkpoint-restart", SimulationConfig(nqueries=1))

    def test_base_config_preserved(self):
        base = SimulationConfig(nprocs=7, nqueries=5, seed=99)
        cfg = get_scenario("pioblast", base)
        assert cfg.nprocs == 7
        assert cfg.seed == 99
        assert cfg.write_every == 5


class TestScenarioRuns:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_every_scenario_runs(self, name):
        base = SimulationConfig(nprocs=4, nqueries=3, nfragments=6)
        result = run_simulation(get_scenario(name, base))
        assert result.file_stats.complete

    def test_paper_narrative_mpiblast_14_resumable_but_slower_at_scale(self):
        """mpiBLAST 1.4's per-query writes trade time for resumability
        against 1.2's write-at-end — and the proposed strategy beats both."""
        base = SimulationConfig(nprocs=10, nqueries=6, nfragments=24)
        t12 = run_simulation(get_scenario("mpiblast-1.2", base)).elapsed
        t14 = run_simulation(get_scenario("mpiblast-1.4", base)).elapsed
        proposed = run_simulation(get_scenario("proposed", base)).elapsed
        assert proposed < min(t12, t14)
