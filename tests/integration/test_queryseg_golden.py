"""Golden for query-segmentation runs (the intro's baseline).

Pins every configuration that ``test_queryseg.py`` and
``benchmarks/bench_queryseg.py`` run: the elapsed time, the master's and
the mean worker's phase breakdown, the output file's statistics and the
database bytes the workers read from the volume.

Regenerate it only for an intended change of simulated timing::

    PYTHONPATH=src python tests/integration/test_queryseg_golden.py --record
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

from repro.core import S3aSim, SimulationConfig
from repro.workload.results import ResultModel

GOLDEN = Path(__file__).with_name("queryseg_golden.json")
MIB = 1024 * 1024
#: ``test_queryseg.py``'s base configuration.
TEST = dict(nprocs=4, nqueries=6, nfragments=8, db_total_bytes=128 * MIB)
#: ``bench_queryseg.py``'s result volume.
BENCH_RESULTS = ResultModel(min_count=100, max_count=200)


def _cases() -> dict:
    """name -> (config fields, worker memory in bytes)."""
    thrash = dict(
        TEST, nprocs=3, nqueries=8, db_total_bytes=256 * MIB,
        result_model=ResultModel(min_count=40, max_count=80),
    )
    few = dict(TEST, nqueries=3, nfragments=24, db_total_bytes=64 * MIB)
    cases = {
        "test-default": (TEST, 384 * MIB),
        "test-store-data": (dict(TEST, store_data=True), 64 * MIB),
        "test-fits": (thrash, 512 * MIB),
        "test-thrash": (thrash, 32 * MIB),
        "test-few-np4": (dict(few, nprocs=4), 384 * MIB),
        "test-few-np16": (dict(few, nprocs=16), 384 * MIB),
        "test-scale": (
            dict(TEST, nprocs=8, nqueries=8, db_total_bytes=512 * MIB),
            64 * MIB,
        ),
    }
    for db_mib in (64, 256, 1024):
        cases[f"bench-memory-db{db_mib}"] = (
            dict(
                nprocs=8, nqueries=8, nfragments=32,
                db_total_bytes=db_mib * MIB, result_model=BENCH_RESULTS,
            ),
            128 * MIB,
        )
    for nprocs in (5, 17):
        cases[f"bench-few-np{nprocs}"] = (
            dict(
                nprocs=nprocs, nqueries=4, nfragments=32,
                db_total_bytes=64 * MIB, result_model=BENCH_RESULTS,
            ),
            256 * MIB,
        )
    return cases


CASES = _cases()


def snapshot(name: str) -> dict:
    fields, memory = CASES[name]
    sim = S3aSim(
        SimulationConfig(query_segmentation=True, worker_memory_B=memory, **fields)
    )
    result = sim.run()
    assert result.file_stats.complete
    record = {
        "elapsed": result.elapsed,
        "master": result.master.as_dict(),
        "worker_mean": result.worker_mean.as_dict(),
        "file_stats": dataclasses.asdict(result.file_stats),
        "db_bytes_read": sum(s.stats.bytes_read for s in sim.fs.servers),
    }
    # JSON round trip: the comparison sees exactly what the file stores
    # (floats survive it bit for bit).
    return json.loads(json.dumps(record, sort_keys=True))


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", CASES)
def test_queryseg_matches_golden(golden, name):
    assert snapshot(name) == golden[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_queryseg_golden.py --record")
    GOLDEN.write_text(
        json.dumps({name: snapshot(name) for name in CASES}, indent=1,
                   sort_keys=True) + "\n"
    )
    print(f"recorded {len(CASES)} cases to {GOLDEN}")
