"""The server-side I/O stack must be invisible until asked for.

Default configuration (``disk_sched="fifo"``, ``server_cache_B=0``) must
reproduce the seed implementation bit-for-bit: the stack adds zero events
when disabled (the queue and cache objects are not even constructed).
Enabled configurations must be deterministic in their own right.
"""

import pytest

from repro.core import S3aSim, SimulationConfig
from repro.trace import TraceRecorder
from tests.small_golden import GOLDEN, SMALL

from dataclasses import replace

MIB = 1024 * 1024


def run_one(strategy, **pvfs_overrides):
    cfg = SimulationConfig(strategy=strategy, **SMALL)
    if pvfs_overrides:
        cfg = cfg.with_(pvfs=replace(cfg.pvfs, **pvfs_overrides))
    recorder = TraceRecorder()
    result = S3aSim(cfg, recorder=recorder).run()
    timeline = [(i.rank, i.state, i.start, i.end) for i in recorder.intervals]
    return result, timeline


class TestDefaultIsBitIdentical:
    def test_default_config_is_fifo_cache_off(self):
        cfg = SimulationConfig(**SMALL)
        assert cfg.pvfs.disk_sched == "fifo"
        assert cfg.pvfs.server_cache_B == 0

    @pytest.mark.parametrize("strategy", sorted(GOLDEN))
    def test_default_matches_seed_exactly(self, strategy):
        result, _ = run_one(strategy)
        assert result.elapsed == GOLDEN[strategy]

    @pytest.mark.parametrize("strategy", sorted(GOLDEN))
    def test_explicit_fifo_cache_off_matches_seed_exactly(self, strategy):
        """Spelling the defaults out must not construct a different path."""
        result, timeline = run_one(strategy, disk_sched="fifo", server_cache_B=0)
        default_result, default_timeline = run_one(strategy)
        assert result.elapsed == GOLDEN[strategy]
        assert timeline == default_timeline


class TestEnabledStackDeterminism:
    @pytest.mark.parametrize("strategy", sorted(GOLDEN))
    def test_stack_run_is_deterministic_and_complete(self, strategy):
        first, timeline_a = run_one(
            strategy, disk_sched="elevator", server_cache_B=4 * MIB
        )
        second, timeline_b = run_one(
            strategy, disk_sched="elevator", server_cache_B=4 * MIB
        )
        assert first.file_stats.complete
        assert first.elapsed == second.elapsed
        assert timeline_a == timeline_b

    def test_stack_changes_the_schedule(self):
        """Sanity: the enabled stack is actually on this code path."""
        default, _ = run_one("ww-posix")
        stacked, _ = run_one(
            "ww-posix", disk_sched="elevator", server_cache_B=4 * MIB
        )
        assert stacked.elapsed != default.elapsed

    def test_flush_intervals_land_on_server_rows(self):
        cfg = SimulationConfig(strategy="ww-posix", **SMALL)
        cfg = cfg.with_(pvfs=replace(cfg.pvfs, server_cache_B=4 * MIB))
        recorder = TraceRecorder()
        S3aSim(cfg, recorder=recorder).run()
        flushes = [i for i in recorder.intervals if i.state == "server_flush"]
        assert flushes
        assert all(i.rank < 0 for i in flushes)  # synthetic server rows
