"""Golden for hybrid query/database segmentation (closed-batch partitions).

Each case splits a closed batch into ``k`` contiguous query blocks, each
run by its own master and worker pool on a contiguous rank block, all
partitions sharing one network and one PVFS volume.  The golden pins, to
the last bit:

* the run's elapsed time and every partition's own span (``repr``);
* every partition file's byte count and extents;
* the shared volume's server counters.

Regenerate it only for an intended change of simulated timing::

    PYTHONPATH=src python tests/integration/test_hybrid_golden.py --record
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.core import S3aSim, SimulationConfig
from repro.shard import ShardConfig

GOLDEN = Path(__file__).with_name("hybrid_golden.json")
STRATEGIES = ("mw", "ww-posix", "ww-list", "ww-coll")
#: (nprocs, nqueries, partitions): even splits, then the uneven one.
SHAPES = ((12, 8, 2), (12, 8, 3), (13, 10, 3))
CASES = {
    f"{strategy}-np{nprocs}-q{nqueries}-k{k}": (strategy, nprocs, nqueries, k)
    for strategy in STRATEGIES
    for nprocs, nqueries, k in SHAPES
}


def run_partitions(name: str):
    """Run one case; return the simulator, the result, the per-partition
    spans and the per-partition output paths."""
    strategy, nprocs, nqueries, k = CASES[name]
    cfg = SimulationConfig(
        nprocs=nprocs, nqueries=nqueries, nfragments=16, strategy=strategy,
        shard=ShardConfig(nshards=k, placement="range", steal=False),
    )
    sim = S3aSim(cfg)
    result = sim.run()
    spans = result.shard_elapsed
    paths = [f"{cfg.output_path}.shard{i}" for i in range(k)]
    return sim, result, spans, paths


def snapshot(name: str) -> dict:
    sim, result, spans, paths = run_partitions(name)
    fs = sim.fs
    files = []
    for path in paths:
        store = fs.lookup(path).bytestore
        files.append(
            {
                "total_bytes": store.total_bytes(),
                "extents": [list(extent) for extent in store.extents()],
            }
        )
    return {
        "elapsed": repr(result.elapsed),
        "partitions": [repr(span) for span in spans],
        "files": files,
        "servers": {
            "requests": repr(float(fs.total_requests())),
            "bytes_written": repr(float(fs.total_bytes_written())),
            "syncs": repr(float(fs.total_syncs())),
            "mean_busy_s": repr(
                sum(s.stats.busy_s for s in fs.servers) / len(fs.servers)
            ),
        },
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", CASES)
def test_hybrid_matches_golden(golden, name):
    assert snapshot(name) == golden[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_hybrid_golden.py --record")
    GOLDEN.write_text(
        json.dumps({name: snapshot(name) for name in CASES}, indent=1) + "\n"
    )
    print(f"recorded {len(CASES)} cases to {GOLDEN}")
