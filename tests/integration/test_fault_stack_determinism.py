"""Determinism goldens for faults landing on the full server-side stack.

Two canned scenarios that exercise the riskiest interactions this layer
has grown — an outage hitting a server with a dirty write-back cache
(volatile loss + replica failover + background rebuild) and a slowdown
under the elevator scheduler (degraded service with reordered grants) —
pinned to exact completion times for all four strategies.

The goldens serve two purposes: any *unintentional* event-path change
shows up as a bit-level diff here before it reaches the paper figures,
and the run-twice tests prove the fault machinery itself introduces no
hidden state (module globals, dict-order dependence) between runs.  All
runs carry ``check=True`` so every cross-layer invariant is live.
"""

import pytest

from repro.core import S3aSim, SimulationConfig
from repro.faults import FaultPlan, ServerOutage, ServerSlowdown
from repro.pvfs import PVFSConfig
from tests.small_golden import SMALL

MIB = 1024 * 1024
STRATEGIES = ("mw", "ww-posix", "ww-list", "ww-coll")

#: Outage of server 0 during t=[8, 11): mid-io-phase for this workload,
#: so the 4 MiB write-back cache is dirty when the daemon drops.
OUTAGE_MID_FLUSH = FaultPlan(
    server_outages=(ServerOutage(server_id=0, start=8.0, duration=3.0),)
)

#: Server 1 serves 4x slower during t=[6, 12) with the elevator active.
SLOWDOWN_ELEVATOR = FaultPlan(
    server_slowdowns=(
        ServerSlowdown(server_id=1, start=6.0, duration=6.0, factor=4.0),
    )
)

GOLDEN_OUTAGE_MID_FLUSH = {
    "mw": 25.433174060448717,
    "ww-posix": 21.602049995008596,
    "ww-list": 21.394507533325722,
    "ww-coll": 21.801210023256154,
}

GOLDEN_SLOWDOWN_ELEVATOR = {
    "mw": 25.421562385477948,
    "ww-posix": 25.228198654828642,
    "ww-list": 21.406985657038742,
    "ww-coll": 21.865831881936295,
}


def _outage_config(strategy):
    return SimulationConfig(
        strategy=strategy,
        store_data=True,
        check=True,
        fault_plan=OUTAGE_MID_FLUSH,
        pvfs=PVFSConfig(server_cache_B=4 * MIB, replicas=2),
        **SMALL,
    )


def _slowdown_config(strategy):
    return SimulationConfig(
        strategy=strategy,
        store_data=True,
        check=True,
        fault_plan=SLOWDOWN_ELEVATOR,
        pvfs=PVFSConfig(disk_sched="elevator"),
        **SMALL,
    )


class TestOutageMidFlush:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_matches_golden(self, strategy):
        result = S3aSim(_outage_config(strategy)).run()
        assert result.elapsed == GOLDEN_OUTAGE_MID_FLUSH[strategy]
        assert result.file_stats.complete

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_run_twice_is_bit_identical(self, strategy):
        first = S3aSim(_outage_config(strategy)).run()
        second = S3aSim(_outage_config(strategy)).run()
        assert first.elapsed == second.elapsed
        assert first.fault_stats == second.fault_stats

    def test_cache_loss_and_rebuild_observed(self):
        # The scenario is only a regression gate if it actually exercises
        # the volatile-loss + rebuild path.
        app = S3aSim(_outage_config("ww-posix"))
        result = app.run()
        assert result.fault_stats["cache_lost_bytes"] > 0
        assert result.fault_stats["rebuild_bytes"] > 0
        assert app.world.env.check.summary()["replica_outstanding_bytes"] == 0


class TestSlowdownUnderElevator:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_matches_golden(self, strategy):
        result = S3aSim(_slowdown_config(strategy)).run()
        assert result.elapsed == GOLDEN_SLOWDOWN_ELEVATOR[strategy]
        assert result.file_stats.complete

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_run_twice_is_bit_identical(self, strategy):
        first = S3aSim(_slowdown_config(strategy)).run()
        second = S3aSim(_slowdown_config(strategy)).run()
        assert first.elapsed == second.elapsed
        assert first.fault_stats == second.fault_stats
