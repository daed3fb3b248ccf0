#!/usr/bin/env python
"""ww-coll at 1000 ranks / 128 servers / 250 fragments, one query.

Runs the collective-write strategy through the public API at a scale
where every two-phase exchange round spans 1000 ranks, and prints its
simulated ``elapsed`` and host wall time:

    PYTHONPATH=src python tools/coll_scale_smoke.py

Exits nonzero when the output file is not byte-complete.
"""

from __future__ import annotations

import sys
import time

from repro.core import S3aSim, SimulationConfig
from repro.pvfs import PVFSConfig

NPROCS = 1000
NSERVERS = 128
NFRAGMENTS = 250


def main() -> int:
    cfg = SimulationConfig(
        strategy="ww-coll", nprocs=NPROCS, nqueries=1,
        nfragments=NFRAGMENTS, pvfs=PVFSConfig(nservers=NSERVERS),
    )
    start = time.perf_counter()
    result = S3aSim(cfg).run()
    wall = time.perf_counter() - start
    complete = result.file_stats.complete
    print(
        f"ww-coll {NPROCS} ranks / {NSERVERS} servers / "
        f"{NFRAGMENTS} fragments: elapsed={result.elapsed!r} "
        f"complete={complete} wall_s={wall:.2f}"
    )
    return 0 if complete else 1


if __name__ == "__main__":
    sys.exit(main())
