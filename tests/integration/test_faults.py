"""End-to-end fault injection and recovery across the four strategies."""

import pytest

from repro.core import S3aSim, SimulationConfig
from repro.faults import FaultPlan, FaultToleranceConfig, MessageLoss
from repro.trace import TraceRecorder

SMALL = dict(nprocs=4, nqueries=4, nfragments=8)

#: Completion times of the seed implementation (no fault code on the event
#: path).  An *empty* FaultPlan must reproduce these to the last bit — the
#: fault subsystem is required to add zero events to healthy runs.
GOLDEN = {
    ("mw", False): 24.024963431041648,
    ("mw", True): 24.480207967324148,
    ("ww-posix", False): 26.503042752488053,
    ("ww-posix", True): 28.29374387238095,
    ("ww-list", False): 20.375905478186557,
    ("ww-list", True): 22.55064420848763,
    ("ww-coll", False): 21.817734177660114,
    ("ww-coll", True): 21.81780717415245,
}

STRATEGIES = ("mw", "ww-posix", "ww-list", "ww-coll")


class TestBitIdentity:
    @pytest.mark.parametrize("strategy,query_sync", sorted(GOLDEN))
    def test_empty_plan_matches_seed_exactly(self, strategy, query_sync):
        cfg = SimulationConfig(
            strategy=strategy, query_sync=query_sync, **SMALL
        )
        result = S3aSim(cfg).run()
        assert result.elapsed == GOLDEN[(strategy, query_sync)]
        assert not result.fault_stats


class TestCannedScenario:
    """One worker crash mid-search plus a degraded-server window."""

    PLAN = FaultPlan.standard(
        crash_rank=1,
        crash_time=6.0,
        downtime_s=2.0,
        server_id=0,
        slow_start=3.0,
        slow_duration=4.0,
    )

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_recovers_with_zero_lost_bytes(self, strategy):
        cfg = SimulationConfig(
            strategy=strategy,
            store_data=True,
            fault_plan=self.PLAN,
            **SMALL,
        )
        result = S3aSim(cfg).run()
        # store_data=True makes completeness byte-exact: every hole or
        # overlap in the output file would fail the run.
        assert result.file_stats.complete
        stats = result.fault_stats
        assert stats["crashes"] == 1
        assert stats["failures_detected"] + stats.get("rejoins", 0) >= 1
        assert stats.get("tasks_reassigned", 0) >= 1

    @pytest.mark.parametrize("query_sync", [False, True])
    def test_ww_coll_recovers_under_sync(self, query_sync):
        cfg = SimulationConfig(
            strategy="ww-coll",
            query_sync=query_sync,
            store_data=True,
            fault_plan=self.PLAN,
            **SMALL,
        )
        result = S3aSim(cfg).run()
        assert result.file_stats.complete

    def test_fault_events_reach_the_trace(self):
        recorder = TraceRecorder()
        cfg = SimulationConfig(strategy="ww-list", fault_plan=self.PLAN, **SMALL)
        result = S3aSim(cfg, recorder=recorder).run()
        assert result.file_stats.complete
        states = {i.state for i in recorder.intervals}
        assert "crashed" in states
        assert "server_degraded" in states
        # Server rows are keyed by negative ranks to stay clear of MPI ranks.
        degraded = [i for i in recorder.intervals if i.state == "server_degraded"]
        assert all(i.rank < 0 for i in degraded)
        # The injector also reports its events in the run result.
        kinds = {e["kind"] for e in result.fault_events}
        assert {"worker-crash", "server-degraded", "server-restored"} <= kinds


class TestDeterminism:
    def test_same_seed_and_plan_replay_identically(self):
        plan = FaultPlan.standard(crash_time=6.0)
        cfg = SimulationConfig(strategy="ww-list", fault_plan=plan, **SMALL)

        def one_run():
            recorder = TraceRecorder()
            result = S3aSim(cfg, recorder=recorder).run()
            intervals = [
                (i.rank, i.state, i.start, i.end) for i in recorder.intervals
            ]
            return result.elapsed, intervals

        first = one_run()
        second = one_run()
        assert first[0] == second[0]
        assert first[1] == second[1]

    def test_different_seed_differs(self):
        plan = FaultPlan.standard(crash_time=6.0)
        cfg = SimulationConfig(strategy="ww-list", fault_plan=plan, **SMALL)
        a = S3aSim(cfg).run().elapsed
        b = S3aSim(cfg.with_(seed=cfg.seed + 1)).run().elapsed
        assert a != b


class TestMessageLoss:
    def test_lossy_window_is_recovered_by_retransmission(self):
        plan = FaultPlan(
            message_loss=(MessageLoss(drop_prob=0.2, start=0.0, end=10.0),)
        )
        cfg = SimulationConfig(strategy="ww-list", fault_plan=plan, **SMALL)
        result = S3aSim(cfg).run()
        assert result.file_stats.complete
        assert result.fault_stats["messages_dropped"] > 0
        assert (
            result.fault_stats["retransmits"]
            == result.fault_stats["messages_dropped"]
        )
        assert result.fault_stats["link_failures"] == 0

    def test_loss_slows_the_run_down(self):
        cfg = SimulationConfig(strategy="ww-list", **SMALL)
        clean = S3aSim(cfg).run().elapsed
        plan = FaultPlan(message_loss=(MessageLoss(drop_prob=0.3),))
        lossy = S3aSim(cfg.with_(fault_plan=plan)).run().elapsed
        assert lossy > clean


class TestExplicitTolerance:
    def test_tolerance_without_faults_still_completes(self):
        """Heartbeats/acks active but nothing ever fails."""
        cfg = SimulationConfig(
            strategy="ww-coll",
            fault_tolerance=FaultToleranceConfig(),
            **SMALL,
        )
        result = S3aSim(cfg).run()
        assert result.file_stats.complete
        assert result.fault_stats.get("failures_detected", 0) == 0
        assert result.fault_stats.get("writes_acked", 0) > 0


class TestFaultCli:
    def test_run_with_fault_plan_file(self, capsys, tmp_path):
        from repro.cli import main

        path = tmp_path / "plan.json"
        with open(path, "w") as fh:
            FaultPlan.standard(crash_time=6.0).to_json(fh)
        code = main(
            [
                "run", "--nprocs", "4", "--nqueries", "4", "--nfragments", "8",
                "--fault-plan", str(path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "complete=True" in out
        assert "faults/recovery:" in out
        assert "crashes" in out

    def test_fault_sweep_smoke(self, capsys):
        from repro.cli import main

        code = main(
            [
                "fault-sweep", "--nprocs", "4", "--nqueries", "4",
                "--nfragments", "8", "--crash-time", "6.0",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        for strategy in STRATEGIES:
            assert strategy in out
        assert "inflation" in out
