"""Engine micro-benchmarks — simulator throughput, not paper figures.

These use pytest-benchmark conventionally (many rounds) to track the
speed of the hot paths: the DES event loop, message matching, striping
arithmetic, and result generation.  Regressions here directly inflate the
wall-clock cost of the figure sweeps.
"""

import numpy as np
import pytest

from repro.core import SimulationConfig, run_simulation
from repro.mpi import MpiWorld, NetworkConfig
from repro.pvfs import StripingLayout
from repro.sim import Environment, RandomStreams, Store
from repro.workload import (
    NT_HISTOGRAM,
    NT_QUERY_HISTOGRAM,
    FragmentedDatabase,
    QuerySet,
    ResultGenerator,
    ResultModel,
)


@pytest.mark.benchmark(group="engine")
def test_event_loop_throughput(benchmark):
    """Schedule-and-run cost of 10k chained timeouts."""

    def run_chain():
        env = Environment()

        def chain(env):
            for _ in range(10_000):
                yield env.timeout(1)

        env.run(env.process(chain(env)))
        return env.now

    assert benchmark(run_chain) == 10_000


@pytest.mark.benchmark(group="engine")
def test_store_matching_throughput(benchmark):
    """Producer/consumer through a Store (the mailbox substrate)."""

    def run_store():
        env = Environment()
        store = Store(env)

        def producer(env):
            for i in range(2000):
                yield store.put(i)

        def consumer(env):
            total = 0
            for _ in range(2000):
                total += yield store.get()
            return total

        env.process(producer(env))
        done = env.process(consumer(env))
        return env.run(done)

    assert benchmark(run_store) == sum(range(2000))


@pytest.mark.benchmark(group="engine")
def test_message_round_trip_rate(benchmark):
    """1000 ping-pong messages between two ranks."""

    def run_pingpong():
        world = MpiWorld(nranks=2, network=NetworkConfig.myrinet2000())

        def main(comm):
            other = 1 - comm.rank
            for i in range(1000):
                if comm.rank == 0:
                    yield from comm.send(other, 1, 64, payload=i)
                    payload, _ = yield from comm.recv(source=other, tag=2)
                else:
                    payload, _ = yield from comm.recv(source=other, tag=1)
                    yield from comm.send(other, 2, 64, payload=payload)
            return comm.env.now

        world.spawn_all(main)
        return world.run()[0]

    assert benchmark(run_pingpong) > 0


@pytest.mark.benchmark(group="engine")
def test_striping_arithmetic(benchmark):
    layout = StripingLayout(strip_size=64 * 1024, nservers=16)
    regions = [(i * 70_000, 7_000) for i in range(500)]

    def map_all():
        return layout.map_regions(regions)

    by_server = benchmark(map_all)
    assert sum(len(v) for v in by_server.values()) >= 500
    assert sum(n for v in by_server.values() for _, n in v) == 500 * 7_000


@pytest.mark.benchmark(group="engine")
def test_result_generation(benchmark):
    streams = RandomStreams(2006)
    queries = QuerySet.generate(NT_QUERY_HISTOGRAM, 20, streams)
    database = FragmentedDatabase(NT_HISTOGRAM, 128, 4 * 1024**3, streams)
    generator = ResultGenerator(queries, database, ResultModel(), streams)

    def one_query_all_fragments():
        return sum(generator.batch(0, f).count for f in range(128))

    count = benchmark(one_query_all_fragments)
    assert 1000 <= count <= 2000


@pytest.mark.benchmark(group="engine")
def test_small_simulation_wall_time(benchmark):
    """End-to-end wall cost of a small but complete run."""
    cfg = SimulationConfig(nprocs=8, nqueries=4, nfragments=16)

    def run_once():
        return run_simulation(cfg)

    result = benchmark.pedantic(run_once, rounds=3, iterations=1)
    assert result.file_stats.complete
