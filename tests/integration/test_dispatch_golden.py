"""Golden for the master's write-group dispatch across run shapes.

The host-benchmark digests cover the five benchmark workloads only; none
of them syncs per query, batches queries into larger write groups,
crashes a worker, resumes a partial run or serves hybrid-auto arrivals.
This golden pins small runs of exactly those shapes, to the last bit:

* every static strategy with ``query_sync`` off and on, and with
  ``write_every`` 1 and 2;
* hybrid-auto, as closed batches (one of them mixing mw and ww-list
  queries within a write group) and in serve mode;
* one worker crash each under mw, ww-list, ww-coll and hybrid-auto;
* one resumed run;
* serve admission: shedding with a priority lane under mw and ww-list,
  rejection under ww-coll;
* sharded serve runs with work stealing: range placement over two
  masters (plain, and shedding with priority), hash placement over three.

Each case records the elapsed time, the output file's statistics, the
server, serve and fault counters and the mean worker phase breakdown (a
sharded run: each shard's span and serve counters instead).

Regenerate it only for an intended change of simulated timing::

    PYTHONPATH=src python tests/integration/test_dispatch_golden.py --record
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

from repro.core import S3aSim, ShardedRunResult, SimulationConfig
from repro.faults import FaultPlan, WorkerCrash
from repro.serve.arrivals import ArrivalConfig
from repro.shard import ShardConfig
from repro.workload.results import ResultModel

GOLDEN = Path(__file__).with_name("dispatch_golden.json")
STATIC = ("mw", "ww-posix", "ww-list", "ww-coll")
SMALL = dict(nprocs=4, nqueries=4, nfragments=8, store_data=True)
#: Small results make hybrid-auto mix mw and ww-list queries.
MIXED = dict(
    strategy="hybrid-auto", nqueries=6, seed=77,
    result_model=ResultModel(min_count=1, max_count=30),
)


def crash(rank: int, at_time: float, downtime_s: float = 2.0) -> FaultPlan:
    return FaultPlan(worker_crashes=(WorkerCrash(rank, at_time, downtime_s),))


def _cases() -> dict:
    cases = {}
    for strategy in STATIC:
        for query_sync in (False, True):
            for write_every in (1, 2):
                name = f"{strategy}-sync{int(query_sync)}-every{write_every}"
                cases[name] = dict(
                    strategy=strategy, query_sync=query_sync,
                    write_every=write_every,
                )
    cases["hybrid-auto-batch"] = dict(strategy="hybrid-auto", nqueries=6, seed=77)
    cases["hybrid-auto-mixed-every2"] = dict(MIXED, write_every=2)
    cases["hybrid-auto-serve"] = dict(
        MIXED, arrival=ArrivalConfig(process="poisson", rate=50.0, max_pending=8)
    )
    # Crash times chosen so the recovery paths differ: a duplicate score
    # (mw), out-of-band repairs (ww-list) and, under hybrid-auto, repairs
    # in a run whose queries go out as mw, ww-posix and ww-list.
    cases["mw-crash"] = dict(strategy="mw", fault_plan=crash(2, 10.0))
    cases["ww-list-crash"] = dict(strategy="ww-list", fault_plan=crash(1, 8.0))
    cases["ww-coll-crash"] = dict(strategy="ww-coll", fault_plan=crash(2, 8.0))
    cases["hybrid-auto-crash"] = dict(MIXED, fault_plan=crash(1, 0.15, 0.2))
    cases["ww-list-resume"] = dict(
        strategy="ww-list", nqueries=6, write_every=2, resume_from_query=2
    )
    shed_priority = ArrivalConfig(
        process="bursty", rate=30.0, max_pending=3, policy="shed",
        priority_fraction=0.5,
    )
    for strategy in ("mw", "ww-list"):
        cases[f"{strategy}-serve-shed-priority"] = dict(
            strategy=strategy, nqueries=12, arrival=shed_priority
        )
    cases["ww-coll-serve-reject"] = dict(
        strategy="ww-coll", nqueries=8,
        arrival=ArrivalConfig(process="poisson", rate=20.0, max_pending=4),
    )
    two_range = ShardConfig(nshards=2, placement="range")
    cases["mw-masters2-range-steal"] = dict(
        strategy="mw", nprocs=8, nqueries=12, arrival=ArrivalConfig(),
        shard=two_range,
    )
    cases["ww-list-masters2-range-shed"] = dict(
        strategy="ww-list", nprocs=8, nqueries=16, shard=two_range,
        arrival=ArrivalConfig(
            rate=40.0, max_pending=3, policy="shed", priority_fraction=0.25
        ),
    )
    cases["ww-posix-masters3-hash"] = dict(
        strategy="ww-posix", nprocs=9, nqueries=12, shard=ShardConfig(nshards=3),
        arrival=ArrivalConfig(process="diurnal", rate=5.0, max_pending=4),
    )
    return cases


CASES = _cases()


def snapshot(name: str) -> dict:
    cfg = SimulationConfig(**{**SMALL, **CASES[name]})
    result = S3aSim(cfg).run()
    assert result.file_stats.complete
    record = {
        "elapsed": result.elapsed,
        "file_stats": dataclasses.asdict(result.file_stats),
        "server_stats": result.server_stats,
        "serve_stats": result.serve_stats,
    }
    if isinstance(result, ShardedRunResult):
        record["shard_elapsed"] = result.shard_elapsed
        record["shard_serve_stats"] = result.shard_serve_stats
    else:
        record["fault_stats"] = result.fault_stats
        record["worker_mean"] = result.worker_mean.as_dict()
    # JSON round trip: the comparison sees exactly what the file stores
    # (floats survive it bit for bit).
    return json.loads(json.dumps(record, sort_keys=True))


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", CASES)
def test_dispatch_matches_golden(golden, name):
    assert snapshot(name) == golden[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_dispatch_golden.py --record")
    GOLDEN.write_text(
        json.dumps({name: snapshot(name) for name in CASES}, indent=1,
                   sort_keys=True) + "\n"
    )
    print(f"recorded {len(CASES)} cases to {GOLDEN}")
