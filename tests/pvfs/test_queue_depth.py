"""IOServer.queue_depth(): the live load gauge the selector samples."""

from repro.pvfs import DiskModel, IOServer
from repro.sim import Environment

from tests.pvfs.calls import served

KIB = 1024


def make_server(env, **kwargs):
    return IOServer(env, 0, DiskModel(), **kwargs)


def writer(server, offset, nbytes=64 * KIB):
    yield served(server, [(offset, nbytes)])


class TestQueueDepth:
    def test_idle_server_reports_zero(self):
        env = Environment()
        assert make_server(env, sched="elevator").queue_depth() == 0
        assert make_server(env, sched="fifo").queue_depth() == 0

    def test_elevator_counts_waiting_plus_in_service(self):
        env = Environment()
        server = make_server(env, sched="elevator")
        for i in range(3):
            env.process(writer(server, i * 128 * KIB))
        env.run(until=1e-9)  # let all three reach the disk queue
        assert server.queue_depth() == server.disk_queue.depth == 3

    def test_fifo_without_cache_falls_back_to_resource_queue(self):
        env = Environment()
        server = make_server(env, sched="fifo")
        assert server.bare
        for i in range(3):
            env.process(writer(server, i * 128 * KIB))
        env.run(until=1e-9)
        # One request holds the bare disk; the rest wait in its FIFO.
        assert server.queue_depth() == len(server.disk_queue.waiting) == 2
        assert server.disk_queue.depth == 3

    def test_depth_drains_back_to_zero(self):
        env = Environment()
        server = make_server(env, sched="elevator")
        procs = [env.process(writer(server, i * 128 * KIB)) for i in range(3)]
        env.run(env.all_of(procs))
        assert server.queue_depth() == 0
