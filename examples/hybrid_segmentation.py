#!/usr/bin/env python3
"""Hybrid query/database segmentation (the paper's future-work strategy).

Section 5 of the paper names "hybrid query segmentation/database
segmentation strategies" as future work.  This example runs the same
workload as (a) one database-segmented job spanning the whole machine and
(b) hybrid jobs with 2 and 4 independent partitions (queries split across
partitions, database segmented within each), all sharing one PVFS2 volume
— and shows the trade-off: smaller synchronization/master scopes per
partition versus global load balance.

Run:  python examples/hybrid_segmentation.py
"""

from repro.core import SimulationConfig, run_simulation
from repro.shard import ShardConfig

CONFIG = SimulationConfig(
    nprocs=24,
    strategy="ww-coll",   # collective I/O: partition scope matters most
    nqueries=12,
    nfragments=48,
)


def main() -> None:
    pure = run_simulation(CONFIG)
    print(f"pure database segmentation (1 partition): {pure.elapsed:7.2f}s")

    for k in (2, 4):
        # A closed batch over k shards: contiguous query and rank blocks.
        shard = ShardConfig(nshards=k, placement="range", steal=False)
        result = run_simulation(CONFIG.with_(shard=shard))
        assert result.file_stats.complete
        spans = ", ".join(
            f"p{i}={span:.2f}s" for i, span in enumerate(result.shard_elapsed)
        )
        print(f"hybrid with {k} partitions:              {result.elapsed:7.2f}s  ({spans})")

    print(
        "\nSmaller partitions shrink each collective write's scope (fewer\n"
        "workers must synchronize) and give each master fewer clients —\n"
        "but a partition that drew the expensive queries finishes last\n"
        "while the others idle.  Which side wins depends on compute\n"
        "variance, exactly the tension the paper's Figures 5-7 expose for\n"
        "WW-Coll."
    )


if __name__ == "__main__":
    main()
