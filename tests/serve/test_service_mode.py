"""End-to-end online service mode: admission, latency, determinism.

The load-bearing guarantee is the first one: a config with no arrival
model must reproduce the seed implementation bit-for-bit — the serve
machinery may not add a single event to batch runs.  The rest exercises
the open-loop path itself: every strategy completes under arrivals, the
admission ledger balances, serve runs are deterministic across process
pools, and a horizon cutoff leaves no dangling trace intervals.
"""

import pytest

from repro.check.metamorphic import CheckCase, relation_arrivals
from repro.core import S3aSim, SimulationConfig
from repro.exec import PointSpec, run_points
from repro.serve import ARRIVAL_PROCESSES, ArrivalConfig
from repro.trace import TraceRecorder
from tests.small_golden import GOLDEN, SMALL

STRATEGIES = tuple(GOLDEN)


def serve_config(strategy="ww-list", arrival=None, **kwargs):
    if arrival is None:
        arrival = ArrivalConfig(process="poisson", rate=10.0, max_pending=8)
    params = dict(nprocs=4, nqueries=6, nfragments=4, check=True)
    params.update(kwargs)
    return SimulationConfig(strategy=strategy, arrival=arrival, **params)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_batch_mode_is_bit_identical_to_seed(strategy):
    cfg = SimulationConfig(strategy=strategy, arrival=None, check=True, **SMALL)
    result = S3aSim(cfg).run()
    assert result.elapsed == GOLDEN[strategy]
    assert result.serve_stats == {}
    assert result.file_stats.complete


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_serve_completes_and_conserves(strategy):
    cfg = serve_config(strategy=strategy, store_data=True)
    result = S3aSim(cfg).run()
    s = result.serve_stats
    assert s["offered"] == 6.0
    assert s["admitted"] + s["rejected"] == s["offered"]
    assert s["completed"] == s["admitted"]
    assert s["pending"] == 0.0
    assert s["shed"] == 0.0  # reject policy never sheds
    # Latency percentiles are populated and ordered.
    assert 0.0 < s["latency_p50_s"] <= s["latency_p95_s"]
    assert s["latency_p95_s"] <= s["latency_p99_s"] <= s["latency_max_s"]
    # The file holds exactly the admitted queries' bytes, gaplessly.
    assert result.file_stats.complete


@pytest.mark.parametrize("process", ARRIVAL_PROCESSES)
def test_serve_deterministic_serial_vs_pool(process):
    # Same seed → identical elapsed and serve counters whether the points
    # run inline or fan out over a process pool (pickling round-trip
    # included).  One spec per strategy, every arrival preset.
    arrival = ArrivalConfig(process=process, rate=10.0, max_pending=8)
    specs = [
        PointSpec(
            key=(strategy,),
            config=serve_config(strategy=strategy, arrival=arrival),
        )
        for strategy in STRATEGIES
    ]
    serial = run_points(specs, jobs=1)
    fanned = run_points(specs, jobs=2)
    for one, two in zip(serial, fanned):
        assert one.ok and two.ok
        assert one.result.elapsed == two.result.elapsed
        assert one.result.serve_stats == two.result.serve_stats


def test_serve_repeated_run_is_identical():
    cfg = serve_config()
    a = S3aSim(cfg).run()
    b = S3aSim(cfg).run()
    assert a.elapsed == b.elapsed
    assert a.serve_stats == b.serve_stats


def test_reject_policy_rejects_over_bound():
    arrival = ArrivalConfig(process="poisson", rate=5.0, max_pending=4)
    cfg = serve_config(arrival=arrival)
    s = S3aSim(cfg).run().serve_stats
    assert s["rejected"] == 2.0  # all 6 offered at once, bound of 4
    assert s["admitted"] == 4.0
    assert s["completed"] == 4.0


def test_shed_policy_prefers_shedding_unstarted_work():
    arrival = ArrivalConfig(
        process="bursty", rate=30.0, max_pending=3, policy="shed"
    )
    cfg = serve_config(strategy="ww-list", nqueries=10, store_data=True)
    cfg = cfg.with_(arrival=arrival)
    result = S3aSim(cfg).run()
    s = result.serve_stats
    assert s["shed"] > 0  # the burst found sheddable (unstarted) victims
    # Every arrival is accounted for: it got a fresh slot, was turned
    # away, or displaced (and reused the slot of) a shed victim.
    assert s["admitted"] + s["rejected"] + s["shed"] == s["offered"]
    assert s["completed"] == s["admitted"]
    assert result.file_stats.complete  # shed slots were re-filled and written


def test_priority_lane_admits_and_completes():
    arrival = ArrivalConfig(
        process="poisson",
        rate=10.0,
        max_pending=8,
        policy="shed",
        priority_fraction=0.5,
    )
    cfg = serve_config(arrival=arrival, nqueries=8)
    s = S3aSim(cfg).run().serve_stats
    assert s["completed"] == s["admitted"]
    assert s["pending"] == 0.0


def test_horizon_cutoff_leaves_wellformed_trace():
    # Cutting the run off mid-flight must not leak open trace intervals:
    # pending queries' latency bars are discarded and every rank's
    # timeline is aborted at the cutoff instant.
    arrival = ArrivalConfig(process="poisson", rate=2.0, max_pending=8)
    cfg = serve_config(arrival=arrival, nqueries=20)
    recorder = TraceRecorder()
    app = S3aSim(cfg, recorder=recorder)
    result = app.run(until=5.0)
    assert result.elapsed == 5.0
    s = result.serve_stats
    assert s["pending"] > 0  # the cutoff genuinely interrupted work
    assert not recorder._open  # no interval survives the cleanup
    for interval in recorder.intervals:
        assert interval.end is not None
        assert interval.end <= 5.0


def test_serve_rate_to_infinity_matches_batch():
    # Direct call of the metamorphic relation: an effectively infinite
    # arrival rate with max_pending == nqueries degenerates to the batch
    # run's byte-identical output.
    case = CheckCase(
        seed=1234,
        nprocs=4,
        nqueries=3,
        nfragments=4,
        nservers=2,
        write_every=1,
        strategy="ww-list",
    )
    assert relation_arrivals(case) is None


def test_serve_rejects_incompatible_configs():
    arrival = ArrivalConfig()
    with pytest.raises(ValueError, match="write_every"):
        SimulationConfig(arrival=arrival, write_every=2, **SMALL)
    with pytest.raises(ValueError, match="resume"):
        SimulationConfig(arrival=arrival, resume_from_query=1, **SMALL)
