"""A server's disk (:class:`~repro.pvfs.sched.DiskQueue`) prices a
waiting leg when the disk is granted, not when the leg queued.

Two writes meet on a one-server bare volume: a long one (``A``) holds the
disk while a small one (``B``) waits for it.  A degraded window opened,
or an outage ended, while ``B`` waits must show in ``B``'s service:
the degraded disk model, or a head rehomed to 0.
"""

from __future__ import annotations

from repro.pvfs import DiskModel, FileSystem, PVFSConfig
from repro.sim import Environment

KIB = 1024
MIB = 1024 * KIB
A_B = 4 * MIB
B_B = 4 * KIB


def two_writes(b_offset: int, while_b_waits):
    """Client 0 writes ``A_B`` bytes at 0; once ``A`` holds the disk,
    client 1 writes ``B_B`` bytes at ``b_offset`` to another file, and
    ``while_b_waits(fs)`` runs while ``B`` is queued behind ``A``."""
    env = Environment()
    fs = FileSystem(env, PVFSConfig(nservers=1))
    server = fs.servers[0]
    seen = []

    def client_a():
        file = yield from fs.open(0, "a")
        yield from fs.write(0, file, 0, A_B)

    def client_b():
        file = yield from fs.open(1, "b")
        while not server.disk_queue.busy:
            yield env.timeout(1e-3)
        yield from fs.write(1, file, b_offset, B_B)

    def window():
        while not len(server.disk_queue.waiting):
            yield env.timeout(1e-4)
        seen.append((server.disk_queue.busy, len(server.disk_queue.waiting)))
        while_b_waits(fs)

    env.process(client_a())
    env.process(client_b())
    env.process(window())
    env.run()
    assert seen == [(True, 1)], "B never waited behind A"
    assert server.stats.requests == 2
    return server


def a_regions():
    """``A``'s physical regions on the one server: one per strip."""
    layout = PVFSConfig(nservers=1).layout()
    return sorted(layout.map_regions([(0, A_B)])[0])


def test_a_window_opened_while_waiting_prices_the_grant():
    pristine = DiskModel()
    server = two_writes(64 * MIB, lambda fs: fs.set_degraded(0, 4.0))
    degraded = server.disk
    assert degraded.seek_penalty_s == 4.0 * pristine.seek_penalty_s
    a_s = pristine.service_detail(a_regions(), 0).seconds
    b_region = [(64 * MIB, B_B)]
    b_degraded = degraded.service_detail(b_region, A_B).seconds
    b_pristine = pristine.service_detail(b_region, A_B).seconds
    assert b_degraded > b_pristine
    assert server.stats.busy_s == a_s + b_degraded


def test_a_restore_while_waiting_rehomes_the_head():
    def outage(fs):
        fs.fail_server(0)
        fs.restore_server(0)

    server = two_writes(0, outage)
    disk = server.disk
    # From head 0, B's write at 0 streams; from A's end it would seek.
    assert disk.service_detail([(0, B_B)], A_B).seeks == 1
    assert server.stats.seeks == 0
    assert server.stats.busy_s == (
        disk.service_detail(a_regions(), 0).seconds
        + disk.service_detail([(0, B_B)], 0).seconds
    )
    assert server.stats.outages == 1
