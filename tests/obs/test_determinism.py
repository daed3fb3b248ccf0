"""Metrics must never perturb the simulation.

Two guarantees, both bit-exact:

1. **Golden**: a disabled-registry run (the default) reproduces the seed
   implementation's completion times to the last bit — the instrumentation
   sweep added zero events to the run path.
2. **Enabled == disabled**: turning ``collect_metrics`` on changes nothing
   but the attached :class:`MetricsSnapshot` — elapsed times, per-phase
   accounting, and the full trace timeline stay identical.
"""

import pytest

from repro.core import Phase, S3aSim, SimulationConfig
from repro.exec import PointSpec, aggregate_point_metrics, run_points
from repro.trace import TraceRecorder
from tests.small_golden import GOLDEN, SMALL


def run_one(strategy, collect_metrics):
    cfg = SimulationConfig(
        strategy=strategy, collect_metrics=collect_metrics, **SMALL
    )
    recorder = TraceRecorder()
    result = S3aSim(cfg, recorder=recorder).run()
    timeline = [(i.rank, i.state, i.start, i.end) for i in recorder.intervals]
    return result, timeline


class TestGoldenDisabled:
    @pytest.mark.parametrize("strategy", sorted(GOLDEN))
    def test_disabled_matches_seed_exactly(self, strategy):
        result, _ = run_one(strategy, collect_metrics=False)
        assert result.elapsed == GOLDEN[strategy]
        assert result.metrics is None


class TestEnabledEqualsDisabled:
    @pytest.mark.parametrize("strategy", sorted(GOLDEN))
    def test_bit_identical_timing_and_trace(self, strategy):
        disabled, timeline_off = run_one(strategy, collect_metrics=False)
        enabled, timeline_on = run_one(strategy, collect_metrics=True)
        assert enabled.elapsed == disabled.elapsed == GOLDEN[strategy]
        assert enabled.master == disabled.master
        assert enabled.file_stats == disabled.file_stats
        assert timeline_on == timeline_off
        assert enabled.metrics is not None

    def test_metrics_agree_with_phase_accounting(self):
        """app.phase_seconds is the same data TimedPhases accumulates."""
        enabled, _ = run_one("ww-list", collect_metrics=True)
        snap = enabled.metrics
        for phase, seconds in enabled.master.times.items():
            if phase is Phase.OTHER:  # derived, never credited directly
                continue
            counted = snap.counter_total(
                "app.phase_seconds", rank=0, phase=phase.value
            )
            assert counted == pytest.approx(seconds)


class TestAcceptanceShape:
    """The paper's Section 2.1 asymmetry, read straight off the counters."""

    @pytest.fixture(scope="class")
    def snapshots(self):
        return {
            strategy: run_one(strategy, collect_metrics=True)[0].metrics
            for strategy in GOLDEN
        }

    def test_request_count_ordering(self, snapshots):
        requests = {
            s: snap.counter_total("pvfs.requests") for s, snap in snapshots.items()
        }
        # MW batches a whole fragment's results into one write; WW-POSIX
        # issues one request per region and dwarfs everyone else.
        assert requests["mw"] < requests["ww-list"]
        assert requests["mw"] < requests["ww-coll"]
        assert requests["ww-posix"] > 10 * requests["ww-list"]

    def test_mw_requests_carry_more_regions(self, snapshots):
        def regions_per_request(snap):
            return snap.counter_total("pvfs.regions") / snap.counter_total(
                "pvfs.requests"
            )

        assert regions_per_request(snapshots["mw"]) > regions_per_request(
            snapshots["ww-posix"]
        )

    def test_per_server_and_per_rank_breakdowns_present(self, snapshots):
        snap = snapshots["ww-list"]
        assert len(snap.label_values("pvfs.requests", "server")) > 1
        assert len(snap.label_values("app.phase_seconds", "rank")) == SMALL["nprocs"]

    def test_strategy_constant_label_applied(self, snapshots):
        snap = snapshots["mw"]
        assert snap.counter_total("pvfs.requests", strategy="mw") > 0
        assert snap.counter_total("pvfs.requests", strategy="ww-list") == 0


class TestSweepAggregation:
    def specs(self):
        return [
            PointSpec(
                key=(strategy,),
                config=SimulationConfig(
                    strategy=strategy, collect_metrics=True, **SMALL
                ),
            )
            for strategy in ("mw", "ww-list")
        ]

    def test_parallel_aggregate_equals_serial(self):
        serial = aggregate_point_metrics(run_points(self.specs(), jobs=1))
        parallel = aggregate_point_metrics(run_points(self.specs(), jobs=2))
        assert serial is not None
        assert serial == parallel

    def test_disabled_points_aggregate_to_none(self):
        specs = [
            PointSpec(
                key=("ww-list",), config=SimulationConfig(**SMALL)
            )
        ]
        assert aggregate_point_metrics(run_points(specs, jobs=1)) is None
