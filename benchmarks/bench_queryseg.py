"""Extension benchmark — query segmentation vs database segmentation.

Measures the introduction's motivating comparison (Section 1): query
segmentation replicates the database and re-streams whatever exceeds node
memory on every query, while database segmentation fits the database into
the machine's aggregate memory and self-schedules fine-grained tasks.
"""

import pytest

from repro.core import SimulationConfig, run_simulation
from repro.workload import ResultModel

from conftest import write_output

MIB = 1024 * 1024


@pytest.mark.benchmark(group="queryseg")
def test_queryseg_vs_dbseg_memory_pressure(benchmark):
    """Sweep the database-size : worker-memory ratio."""
    base = SimulationConfig(
        nprocs=8, nqueries=8, nfragments=32,
        result_model=ResultModel(min_count=100, max_count=200),
    )
    memory = 128 * MIB

    def sweep():
        rows = []
        for db_mib in (64, 256, 1024):
            config = base.with_(db_total_bytes=db_mib * MIB)
            qseg = run_simulation(
                config.with_(query_segmentation=True, worker_memory_B=memory)
            )
            dbseg = run_simulation(config)
            rows.append((db_mib, qseg.elapsed, dbseg.elapsed))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = [
        "database MiB | query-seg | db-seg (worker memory 128 MiB)",
    ]
    for db_mib, q, d in rows:
        lines.append(f"{db_mib:>12d} | {q:8.2f}s | {d:7.2f}s")
    text = "\n".join(lines)
    print("\n" + text)
    write_output("queryseg_memory.txt", text)

    # Database segmentation's advantage grows with the database:memory
    # ratio (the paper's "inevitable trend" argument).
    small_ratio = rows[0][1] / rows[0][2]
    large_ratio = rows[-1][1] / rows[-1][2]
    assert large_ratio > small_ratio


@pytest.mark.benchmark(group="queryseg")
def test_queryseg_underutilization(benchmark):
    """Workers beyond the query count idle under query segmentation."""
    base = SimulationConfig(
        nqueries=4, nfragments=32, db_total_bytes=64 * MIB,
        result_model=ResultModel(min_count=100, max_count=200),
    )

    def sweep():
        rows = []
        for nprocs in (5, 17):
            config = base.with_(nprocs=nprocs)
            qseg = run_simulation(
                config.with_(query_segmentation=True, worker_memory_B=256 * MIB)
            )
            dbseg = run_simulation(config)
            rows.append((nprocs, qseg.elapsed, dbseg.elapsed))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    text = "\n".join(
        f"np={np_:>3d}: query-seg {q:7.2f}s, db-seg {d:7.2f}s"
        for np_, q, d in rows
    )
    print("\n" + text)
    write_output("queryseg_underutilization.txt", text)

    qseg_speedup = rows[0][1] / rows[1][1]
    dbseg_speedup = rows[0][2] / rows[1][2]
    assert dbseg_speedup > qseg_speedup
