"""Sweep drivers and table formatting."""

import pytest

from repro.analysis import (
    ALL_STRATEGIES,
    PAPER_COMPUTE_SPEEDS,
    PAPER_PROCESS_COUNTS,
    FIG2_RATIOS_PCT,
    RatioCheck,
    SweepPoint,
    SweepResult,
    compute_speed_sweep,
    crossover_x,
    overall_table,
    phase_table,
    process_scaling_sweep,
    ratio_table,
    speedup_series,
)
from repro.core import SimulationConfig


@pytest.fixture(scope="module")
def tiny_sweep():
    base = SimulationConfig(nqueries=2, nfragments=4)
    return process_scaling_sweep(
        base,
        process_counts=(2, 4),
        strategies=("ww-list", "mw"),
        sync_options=(False,),
    )


class TestAxes:
    def test_paper_axes(self):
        assert PAPER_PROCESS_COUNTS == (2, 4, 8, 16, 32, 48, 64, 96)
        assert PAPER_COMPUTE_SPEEDS[0] == 0.1
        assert PAPER_COMPUTE_SPEEDS[-1] == 25.6
        assert set(ALL_STRATEGIES) == {"mw", "ww-posix", "ww-list", "ww-coll"}


class TestProcessSweep:
    def test_all_points_present(self, tiny_sweep):
        assert len(tiny_sweep.points) == 4
        assert tiny_sweep.xs() == [2.0, 4.0]
        assert set(tiny_sweep.strategies()) == {"ww-list", "mw"}

    def test_series_sorted(self, tiny_sweep):
        series = tiny_sweep.series("ww-list", False)
        assert [x for x, _ in series] == [2.0, 4.0]

    def test_lookup(self, tiny_sweep):
        result = tiny_sweep.lookup("mw", False, 2.0)
        assert result.strategy == "mw"
        assert result.nprocs == 2
        with pytest.raises(KeyError):
            tiny_sweep.lookup("mw", True, 2.0)

    def test_progress_hook(self):
        seen = []
        base = SimulationConfig(nqueries=1, nfragments=2)
        process_scaling_sweep(
            base,
            process_counts=(2,),
            strategies=("ww-list",),
            sync_options=(False,),
            progress=seen.append,
        )
        assert len(seen) == 1
        assert isinstance(seen[0], SweepPoint)

    def test_series_with_replicated_x(self, tiny_sweep):
        """Two points sharing an x (replicated runs, fault sweeps) must not
        make sorted() fall through to comparing RunResult objects."""
        replicated = SweepResult(axis_name=tiny_sweep.axis_name)
        for p in tiny_sweep.points:
            replicated.add(p)
            replicated.add(SweepPoint(p.strategy, p.query_sync, p.x, p.result))
        series = replicated.series("ww-list", False)  # must not raise
        assert [x for x, _ in series] == [2.0, 2.0, 4.0, 4.0]
        # Stable: insertion order preserved within equal x.
        assert series[0][1] is series[1][1]


class TestSpeedSweep:
    def test_speed_axis(self):
        base = SimulationConfig(nqueries=1, nfragments=2)
        sweep = compute_speed_sweep(
            base,
            speeds=(0.5, 2.0),
            strategies=("ww-list",),
            sync_options=(False,),
            nprocs=3,
        )
        assert sweep.xs() == [0.5, 2.0]
        slow = sweep.lookup("ww-list", False, 0.5)
        fast = sweep.lookup("ww-list", False, 2.0)
        assert slow.compute_speed == 0.5
        assert slow.elapsed > fast.elapsed


class TestTables:
    def test_overall_table_contains_values(self, tiny_sweep):
        text = overall_table(tiny_sweep, query_sync=False)
        assert "Overall Execution Time - no-sync" in text
        assert "Master writing" in text
        assert "Worker - List I/O" in text
        assert "2" in text.splitlines()[2]

    def test_phase_table(self, tiny_sweep):
        text = phase_table(tiny_sweep, "ww-list", query_sync=False)
        assert "worker process" in text
        assert "compute" in text
        assert "io" in text

    def test_ratio_table(self, tiny_sweep):
        text = ratio_table(tiny_sweep, 4.0, paper_ratios=FIG2_RATIOS_PCT)
        assert "Master writing" in text
        assert "measured" in text
        assert "paper" in text

    def test_speedup_series(self, tiny_sweep):
        series = speedup_series(tiny_sweep, "ww-list", False)
        assert series[0] == (2.0, pytest.approx(1.0))
        assert series[1][1] > 0.5  # some speedup figure exists

    def test_crossover(self, tiny_sweep):
        # ww-list is never slower than itself; crossover against mw exists
        # wherever ww-list is faster.
        x = crossover_x(tiny_sweep, "ww-list", "mw", query_sync=False)
        assert x in (2.0, 4.0, None)


class TestRatioCheck:
    def test_within(self):
        check = RatioCheck("fig2", "mw", False, paper_pct=364, measured_pct=312)
        assert check.within(2.0)
        way_off = RatioCheck("fig2", "mw", False, paper_pct=364, measured_pct=-50)
        assert not way_off.within(2.0)

    def test_inverted_sign_deviates(self):
        # Fig5@25.6x ww-coll sync: the paper has WW-List 58% ahead, the
        # model has WW-Coll 27% ahead.  The factor ratio (0.46) sits inside
        # a 2.5x band, but the sign is inverted.
        check = RatioCheck("Fig5@25.6x", "ww-coll", True, paper_pct=58, measured_pct=-27)
        assert not check.within(2.5)
        tie = RatioCheck("Fig5@25.6x", "ww-coll", True, paper_pct=58, measured_pct=0)
        assert not tie.within(2.5)

    def test_small_paper_factor_checks_sign_not_size(self):
        """Below a paper factor of 2.5 any measured lead passes a 2.5x
        band; only MW's large factors also bound the size."""
        coll = RatioCheck("Fig5@25.6x", "ww-coll", False, paper_pct=98, measured_pct=6)
        assert coll.within(2.5)
        assert RatioCheck("x", "ww-coll", False, paper_pct=98, measured_pct=0.1).within(2.5)
        posix = RatioCheck("Fig5@25.6x", "ww-posix", False, paper_pct=32, measured_pct=196)
        assert posix.within(2.5)
        assert not RatioCheck("x", "ww-posix", False, paper_pct=32, measured_pct=231).within(2.5)
        mw = RatioCheck("Fig5@25.6x", "mw", False, paper_pct=592, measured_pct=100)
        assert not mw.within(2.5)

    def test_factors(self):
        check = RatioCheck("x", "mw", False, paper_pct=100, measured_pct=50)
        assert check.paper_factor == pytest.approx(2.0)
        assert check.measured_factor == pytest.approx(1.5)
