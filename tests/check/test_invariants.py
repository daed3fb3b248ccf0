"""The cross-layer invariant checker: zero-cost, laws, violation paths."""

import numpy as np
import pytest

import repro.core.master as master_module
from repro.check import (
    NULL_CHECKER,
    InvariantChecker,
    InvariantViolation,
    NullChecker,
)
from repro.core import S3aSim, SimulationConfig
from repro.core.offsets import merge_query
from repro.faults import FaultPlan
from repro.faults.plan import MessageLoss, ServerOutage, WorkerCrash
from repro.trace import TraceRecorder
from tests.small_golden import GOLDEN, SMALL


def run_one(strategy, check, **overrides):
    cfg = SimulationConfig(strategy=strategy, check=check, **SMALL, **overrides)
    app = S3aSim(cfg)
    result = app.run()
    return result, app


class TestZeroCost:
    """--check must not move a single event in virtual time."""

    @pytest.mark.parametrize("strategy", sorted(GOLDEN))
    def test_checked_run_matches_golden(self, strategy):
        result, app = run_one(strategy, check=True)
        assert result.elapsed == GOLDEN[strategy]
        # The checker actually ran, on every layer it instruments.
        checker = app.world.env.check
        assert checker.enabled
        assert checker.checks > 0
        assert checker.tx_bytes > 0
        assert checker.messages  # at least one MPI kind audited
        assert checker.servers  # at least one server audited

    def test_unchecked_run_keeps_null_checker(self):
        _, app = run_one("ww-list", check=False)
        assert app.world.env.check is NULL_CHECKER
        assert not app.world.env.check.enabled

    def test_checked_run_with_trace_and_stack(self):
        from dataclasses import replace

        recorder = TraceRecorder()
        cfg = SimulationConfig(strategy="ww-posix", check=True, **SMALL)
        cfg = cfg.with_(
            pvfs=replace(
                cfg.pvfs, disk_sched="elevator", server_cache_B=4 * 1024 * 1024
            )
        )
        checked = S3aSim(cfg, recorder=recorder).run()
        plain = S3aSim(
            cfg.with_(check=False), recorder=TraceRecorder()
        ).run()
        assert checked.elapsed == plain.elapsed

    def test_checked_run_under_faults(self):
        plan = FaultPlan(
            worker_crashes=(WorkerCrash(rank=2, at_time=3.0, downtime_s=2.0),),
            server_outages=(ServerOutage(server_id=0, start=5.0, duration=1.5),),
            message_loss=(MessageLoss(drop_prob=0.05, start=0.0, end=8.0),),
        )
        recorder = TraceRecorder()
        cfg = SimulationConfig(
            strategy="ww-list", check=True, fault_plan=plan, **SMALL
        )
        checked = S3aSim(cfg, recorder=recorder).run()
        plain = S3aSim(
            cfg.with_(check=False), recorder=TraceRecorder()
        ).run()
        assert checked.elapsed == plain.elapsed
        assert checked.file_stats.complete


def corrupt_merge(batches, base_offset):
    """merge_query, except one result is assigned its neighbour's offset."""
    offsets, block = merge_query(batches, base_offset)
    for frag, arr in offsets.items():
        if len(arr) >= 2:
            bad = arr.copy()
            bad[0] = bad[1]  # two results now collide
            offsets[frag] = bad
            break
    return offsets, block


class TestCorruptionIsCaught:
    """An intentionally wrong layer must trip a structured violation."""

    def test_corrupted_offset_trips_dense_tiling(self, monkeypatch):
        monkeypatch.setattr(master_module, "merge_query", corrupt_merge)
        with pytest.raises(InvariantViolation) as excinfo:
            run_one("ww-list", check=True)
        violation = excinfo.value
        assert violation.layer == "offsets"
        assert violation.invariant == "dense-tiling"
        assert violation.time is not None
        assert "query" in violation.context

    def test_unchecked_run_fails_later_and_unstructured(self, monkeypatch):
        monkeypatch.setattr(master_module, "merge_query", corrupt_merge)
        # Without --check the duplicate offset survives until two writes
        # collide in the byte store, far from the faulty layer.
        with pytest.raises(Exception) as excinfo:
            run_one("ww-list", check=False)
        assert not isinstance(excinfo.value, InvariantViolation)


class TestUnitLaws:
    """Each ledger's law, exercised directly."""

    def test_rx_exceeding_tx_fails(self):
        checker = InvariantChecker()
        checker.nic_tx(100)
        checker.nic_rx(100)
        with pytest.raises(InvariantViolation, match="wire-conservation"):
            checker.nic_rx(1)

    def test_drop_counts_against_tx(self):
        checker = InvariantChecker()
        checker.nic_tx(100)
        checker.nic_rx(60)
        checker.wire_drop(40)
        with pytest.raises(InvariantViolation, match="wire-conservation"):
            checker.wire_drop(1)

    def test_delivered_exceeding_sent_fails(self):
        checker = InvariantChecker()
        checker.msg_sent("eager", 10)
        checker.msg_delivered("eager", 10)
        with pytest.raises(InvariantViolation, match="message-conservation"):
            checker.msg_delivered("eager", 10)

    def test_disk_write_exceeding_intake_fails(self):
        checker = InvariantChecker()
        checker.server_write_in(3, 100)
        checker.server_disk_write(3, 100)
        with pytest.raises(InvariantViolation, match="server-conservation"):
            checker.server_disk_write(3, 1)

    def test_cache_absorb_rejects_negative_merge(self):
        checker = InvariantChecker()
        with pytest.raises(InvariantViolation, match="cache-accounting"):
            checker.cache_absorb(0, 10, -1)
        with pytest.raises(InvariantViolation, match="cache-accounting"):
            checker.cache_absorb(0, 10, 11)

    def test_cache_gauge_mismatch_fails(self):
        checker = InvariantChecker()
        with pytest.raises(InvariantViolation, match="cache-gauge"):
            checker.cache_state(0, [(0, 10)], 11)

    def test_cache_overlapping_runs_fail(self):
        checker = InvariantChecker()
        with pytest.raises(InvariantViolation, match="cache-extents"):
            checker.cache_state(0, [(0, 10), (5, 15)], 20)

    def test_cache_empty_extent_fails(self):
        checker = InvariantChecker()
        with pytest.raises(InvariantViolation, match="cache-extents"):
            checker.cache_flush(0, [(10, 10)], 0)

    def test_cache_flush_sum_mismatch_fails(self):
        checker = InvariantChecker()
        with pytest.raises(InvariantViolation, match="cache-flush"):
            checker.cache_flush(0, [(0, 10)], 9)

    def test_layout_byte_loss_fails(self):
        checker = InvariantChecker()
        checker.layout_mapped(100, 100)  # equal is fine
        with pytest.raises(InvariantViolation, match="layout-conservation"):
            checker.layout_mapped(100, 99)

    def test_offsets_gap_fails(self):
        checker = InvariantChecker()
        with pytest.raises(InvariantViolation, match="dense-tiling"):
            checker.offsets_assigned(
                0, 0, 20,
                {0: np.array([0, 12])},  # gap: second result at 12, not 10
                {0: np.array([10, 10])},
            )

    def test_offsets_overlap_fails(self):
        checker = InvariantChecker()
        with pytest.raises(InvariantViolation, match="dense-tiling"):
            checker.offsets_assigned(
                0, 0, 20,
                {0: np.array([0, 5])},
                {0: np.array([10, 10])},
            )

    def test_offsets_block_size_mismatch_fails(self):
        checker = InvariantChecker()
        with pytest.raises(InvariantViolation, match="dense-tiling"):
            checker.offsets_assigned(
                0, 0, 25,
                {0: np.array([0, 10])},
                {0: np.array([10, 10])},
            )

    def test_offsets_cursor_continuity(self):
        checker = InvariantChecker()
        checker.offsets_assigned(0, 0, 10, {0: np.array([0])}, {0: np.array([10])})
        checker.offsets_assigned(1, 10, 5, {0: np.array([10])}, {0: np.array([5])})
        with pytest.raises(InvariantViolation, match="ledger-continuity"):
            checker.offsets_assigned(
                2, 16, 5, {0: np.array([16])}, {0: np.array([5])}
            )

    def test_offsets_cursor_starts_anywhere(self):
        # Resumed runs begin at a nonzero base; the first block sets the
        # cursor rather than being checked against zero.
        checker = InvariantChecker()
        checker.offsets_assigned(
            3, 1000, 10, {0: np.array([1000])}, {0: np.array([10])}
        )
        assert checker._offset_cursor == {0: 1010}

    def test_entry_alignment_mismatch_fails(self):
        checker = InvariantChecker()
        checker.entry_alignment(0, 0, 4, 4)
        with pytest.raises(InvariantViolation, match="entry-alignment"):
            checker.entry_alignment(0, 1, 4, 3)


class TestFinalize:
    def test_fault_free_strict_equality(self):
        checker = InvariantChecker()
        checker.nic_tx(100)
        checker.nic_rx(90)
        with pytest.raises(InvariantViolation, match="wire-conservation"):
            checker.finalize(now=1.0, fault_free=True)

    def test_faulted_run_relaxes_to_inequality(self):
        checker = InvariantChecker()
        checker.nic_tx(100)
        checker.nic_rx(90)
        checker.msg_sent("eager", 50)
        checker.finalize(now=1.0, fault_free=False)  # no raise

    def test_undelivered_message_fails_fault_free(self):
        checker = InvariantChecker()
        checker.msg_sent("eager", 50)
        with pytest.raises(InvariantViolation, match="message-conservation"):
            checker.finalize(now=1.0, fault_free=True)

    def test_oob_exempt_from_strict_delivery(self):
        # OOB control messages may still be in flight at termination even
        # without faults (heartbeat posted right before the stop event).
        checker = InvariantChecker()
        checker.msg_sent("oob", 10)
        checker.finalize(now=1.0, fault_free=True)

    def test_server_ledger_balances_with_dirty_and_merged(self):
        checker = InvariantChecker()
        checker.server_write_in(0, 100)
        checker.server_disk_write(0, 60)
        checker.cache_absorb(0, 40, 10)
        checker.cache_state(0, [(0, 30)], 30)
        checker.finalize(now=1.0)  # 60 disk + 30 dirty + 10 merged == 100

    def test_server_ledger_leak_fails(self):
        checker = InvariantChecker()
        checker.server_write_in(0, 100)
        checker.server_disk_write(0, 60)
        with pytest.raises(InvariantViolation, match="server-conservation"):
            checker.finalize(now=1.0)

    def test_trace_open_interval_fails(self):
        recorder = TraceRecorder()
        recorder.begin(1, "compute", 0.5)
        checker = InvariantChecker()
        with pytest.raises(InvariantViolation, match="intervals-close"):
            checker.finalize(now=1.0, recorder=recorder)

    def test_trace_row_overlap_fails(self):
        recorder = TraceRecorder()
        recorder.record(1, "compute", 0.0, 0.6)
        recorder.record(1, "compute", 0.5, 1.0)
        checker = InvariantChecker()
        with pytest.raises(InvariantViolation, match="row-overlap"):
            checker.finalize(now=2.0, recorder=recorder)

    def test_trace_interval_past_end_fails(self):
        recorder = TraceRecorder()
        recorder.record(1, "compute", 0.0, 3.0)
        checker = InvariantChecker()
        with pytest.raises(InvariantViolation, match="interval-bounds"):
            checker.finalize(now=2.0, recorder=recorder)

    def test_plan_window_rows_are_exempt(self):
        # The fault injector records plan windows up front; they may
        # overlap on one server row and outlive the run.
        recorder = TraceRecorder()
        recorder.record(-1, "server_outage", 0.0, 5.0)
        recorder.record(-1, "server_outage", 4.0, 9.0)
        checker = InvariantChecker()
        checker.finalize(now=2.0, recorder=recorder)  # no raise

    def test_distinct_states_may_overlap(self):
        recorder = TraceRecorder()
        recorder.record(1, "compute", 0.0, 1.0)
        recorder.record(1, "io", 0.5, 1.5)
        checker = InvariantChecker()
        checker.finalize(now=2.0, recorder=recorder)  # different rows


class TestStrategyLedger:
    """The hybrid-auto three-way ledger: chosen == executed == traced."""

    def test_consistent_ledger_finalizes(self):
        checker = InvariantChecker()
        checker.strategy_chosen(0, "mw")
        checker.strategy_executed(0, "mw")
        checker.strategy_traced(0, "mw")
        checker._finalize_strategies(fault_free=True)

    def test_re_recording_same_name_is_fine(self):
        checker = InvariantChecker()
        checker.strategy_chosen(0, "ww-list")
        checker.strategy_executed(0, "ww-list")
        checker.strategy_executed(0, "ww-list")  # one record per entry
        checker.strategy_traced(0, "ww-list")
        checker._finalize_strategies(fault_free=True)

    def test_conflicting_choice_fails(self):
        checker = InvariantChecker()
        checker.strategy_chosen(0, "mw")
        with pytest.raises(InvariantViolation, match="strategy-ledger"):
            checker.strategy_chosen(0, "ww-list")

    def test_executing_unchosen_query_fails(self):
        checker = InvariantChecker()
        with pytest.raises(InvariantViolation, match="strategy-ledger"):
            checker.strategy_executed(0, "mw")

    def test_executing_other_than_chosen_fails(self):
        checker = InvariantChecker()
        checker.strategy_chosen(0, "mw")
        with pytest.raises(InvariantViolation, match="strategy-ledger"):
            checker.strategy_executed(0, "ww-list")

    def test_trace_mismatch_fails_at_finalize(self):
        checker = InvariantChecker()
        checker.strategy_chosen(0, "mw")
        checker.strategy_executed(0, "mw")
        checker.strategy_traced(0, "ww-list")
        with pytest.raises(InvariantViolation, match="strategy-ledger"):
            checker._finalize_strategies(fault_free=True)

    def test_missing_trace_fails_at_finalize(self):
        checker = InvariantChecker()
        checker.strategy_chosen(0, "mw")
        checker.strategy_executed(0, "mw")
        with pytest.raises(InvariantViolation, match="strategy-ledger"):
            checker._finalize_strategies(fault_free=True)

    def test_chosen_never_executed_fails_only_fault_free(self):
        checker = InvariantChecker()
        checker.strategy_chosen(0, "mw")
        checker.strategy_traced(0, "mw")
        checker._finalize_strategies(fault_free=False)  # crash may strand it
        with pytest.raises(InvariantViolation, match="strategy-ledger"):
            checker._finalize_strategies(fault_free=True)

    def test_shards_are_independent(self):
        checker = InvariantChecker()
        checker.strategy_chosen(0, "mw", shard=0)
        checker.strategy_chosen(0, "ww-list", shard=1)  # same slot, other shard
        checker.strategy_executed(0, "mw", shard=0)
        checker.strategy_executed(0, "ww-list", shard=1)
        checker.strategy_traced(0, "mw", shard=0)
        checker.strategy_traced(0, "ww-list", shard=1)
        checker._finalize_strategies(fault_free=True)

    def test_summary_lists_choices(self):
        checker = InvariantChecker()
        checker.strategy_chosen(3, "mw", shard=1)
        assert checker.summary()["strategies"] == {"1:3": "mw"}


class TestPlumbing:
    def test_violation_message_is_structured(self):
        violation = InvariantViolation(
            "mpi", "wire-conservation", "boom", time=1.25, context={"tx": 3}
        )
        text = str(violation)
        assert "[mpi/wire-conservation]" in text
        assert "t=1.25" in text
        assert "boom" in text
        assert violation.context == {"tx": 3}

    def test_null_checker_is_inert(self):
        assert not NullChecker().enabled
        assert repr(NullChecker()) == "<NullChecker>"

    def test_summary_shape(self):
        _, app = run_one("mw", check=True)
        summary = app.world.env.check.summary()
        assert summary["checks"] > 0
        assert summary["tx_bytes"] == summary["rx_bytes"]
        for kind, (sent, sent_b, delivered, delivered_b) in summary[
            "messages"
        ].items():
            assert sent == delivered, kind
            assert sent_b == delivered_b, kind
        for ledger in summary["servers"].values():
            assert (
                ledger["write_in"]
                == ledger["disk_written"] + ledger["dirty"] + ledger["merged"]
            )
