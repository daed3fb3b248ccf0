"""Kernel-event budget of the hottest simulated operations, and the
issue order that lets them start at their call.

Each budget case runs one operation on an otherwise idle model and counts the
events ``Environment.step`` processes until the queue drains.  The counts
are exact: a change that adds an event back to one of these operations
fails here, not only in the benchmark's traced ``sim.events``.

No process drives the operations (a driving process would add its own
``Initialize`` and completion events): sends are issued and receives
posted from the test itself, and the PVFS fragments are stepped by hand
to the event they wait on.
"""

from __future__ import annotations

from repro.mpi import MpiWorld, NetworkConfig
from repro.pvfs import FileSystem, PVFSConfig
from repro.sim import Environment, Lane

KIB = 1024


def drain(env: Environment) -> int:
    """Run ``env`` until its queue is empty; return the events processed."""
    processed = 0
    step = env.step

    def counting_step() -> None:
        nonlocal processed
        step()
        processed += 1

    env.step = counting_step  # type: ignore[method-assign]
    env.run()
    return processed


def world() -> MpiWorld:
    return MpiWorld(nranks=2, network=NetworkConfig.myrinet2000())


def created(fs: FileSystem):
    """A new file, opened before any operation is counted."""
    fs.env.process(fs.open(0, "f"))
    fs.env.run()
    return fs.lookup("f")


def wait_on(env: Environment, fragment) -> int:
    """Step a process fragment to the one event it waits on, drain the
    queue and check the fragment then finishes."""
    target = next(fragment)
    events = drain(env)
    assert target.processed and target.ok
    try:
        fragment.send(target.value)
    except StopIteration:
        return events
    raise AssertionError("the fragment waited on a second event")


def test_lone_eager_send():
    """TX hold, send completion, wire latency, RX hold."""
    w = world()
    request = w.comm.view(0).isend(1, tag=1, nbytes=1 * KIB)
    assert drain(w.env) == 4
    assert request.completed
    assert w.comm.mailboxes[1].probe(0, 1) is not None


def test_rendezvous_send():
    """RTS: TX hold, wire, RX hold; CTS, its flight; payload: TX hold,
    wire, RX hold; send completion, payload handoff, receive
    completion."""
    w = world()
    nbytes = 4 * w.config.eager_threshold_B
    receive = w.comm.view(1).irecv(source=0, tag=1)
    send = w.comm.view(0).isend(1, tag=1, nbytes=nbytes, payload="big")
    assert drain(w.env) == 11
    assert send.completed and receive.completed
    assert receive.status.nbytes == nbytes


def test_bare_single_server_write_list():
    """One copy on one server: client TX hold, wire, ``net_in`` hold, disk
    service, and the leg, which completes at the end of the reply's
    flight; the caller waits on the leg itself.

    With ``replicas=2`` on two bare servers the same 4 KiB lands in one
    leg that walks the chain: client TX hold, wire, the primary's
    ``net_in`` hold and disk service, its ``net_out`` hold to the
    secondary, the hop's wire latency, the secondary's ``net_in`` hold
    and disk service, and the leg.  A read of those bytes is served by
    the primary alone: client TX hold, wire, disk service, the reply's
    ``net_out`` hold, and the leg.

    On an elevator server the write's disk service waits on one more
    event, the disk's grant: client TX hold, wire, ``net_in`` hold, grant,
    disk service, the leg.  With a 64 KiB write-back cache the write is
    copied in and drained by the idle flush: client TX hold, wire,
    ``net_in`` hold, the copy-in, the leg; then the idle wait, the flush
    lock's request, the grant and the flush's disk service."""
    env = Environment()
    fs = FileSystem(env, PVFSConfig(nservers=1))
    file = created(fs)
    events = wait_on(env, fs.write_list(0, file, [(0, 4 * KIB)]))
    assert events == 5
    assert fs.servers[0].stats.bytes_written == 4 * KIB

    env = Environment()
    fs = FileSystem(env, PVFSConfig(nservers=1, disk_sched="elevator"))
    file = created(fs)
    assert wait_on(env, fs.write_list(0, file, [(0, 4 * KIB)])) == 6
    assert fs.servers[0].stats.bytes_written == 4 * KIB

    env = Environment()
    fs = FileSystem(env, PVFSConfig(nservers=1, server_cache_B=64 * KIB))
    file = created(fs)
    assert wait_on(env, fs.write_list(0, file, [(0, 4 * KIB)])) == 9
    assert fs.servers[0].stats.bytes_written == 4 * KIB
    assert fs.servers[0].cache.flushes == 1

    env = Environment()
    fs = FileSystem(env, PVFSConfig(nservers=2, replicas=2))
    file = created(fs)
    assert wait_on(env, fs.write_list(0, file, [(0, 4 * KIB)])) == 9
    assert [s.stats.bytes_written for s in fs.servers] == [4 * KIB] * 2
    assert fs.servers[1].stats.replica_bytes == 4 * KIB
    assert wait_on(env, fs.read_list(0, file, [(0, 4 * KIB)])) == 5
    assert [s.stats.bytes_read for s in fs.servers] == [4 * KIB, 0]


def test_sync_on_two_servers():
    """Per leg: client TX hold, wire, disk service, the leg; then the
    ``Join`` of the two legs."""
    env = Environment()
    fs = FileSystem(env, PVFSConfig(nservers=2))
    file = created(fs)
    assert wait_on(env, fs.sync(0, file)) == 9
    assert fs.total_syncs() == 2


def test_sync_on_one_server():
    """Client TX hold, wire, disk service, the leg; the caller waits on
    the leg itself, not on a one-leg ``Join``.

    On a server whose write-back cache is clean: client TX hold, wire,
    the flush lock's request (nothing to flush), the disk's grant, the
    sync's disk service, the leg."""
    env = Environment()
    fs = FileSystem(env, PVFSConfig(nservers=1))
    file = created(fs)
    assert wait_on(env, fs.sync(0, file)) == 4
    assert fs.total_syncs() == 1

    env = Environment()
    fs = FileSystem(env, PVFSConfig(nservers=1, server_cache_B=64 * KIB))
    file = created(fs)
    assert wait_on(env, fs.sync(0, file)) == 6
    assert fs.total_syncs() == 1
    assert fs.servers[0].cache.flushes == 0


def test_one_rank_reaches_its_nic_in_issue_order(monkeypatch):
    """Sends and PVFS legs run their first step at the call, so at one
    instant a rank's rendezvous RTS, eager payload and PVFS write hold
    its NIC's TX lane in the order the rank issued them.  Were only some
    of them started at the call, those would jump ahead of operations
    issued earlier (and the benchmark digests would move).

    Two inputs: the sends, then a one-copy write; and a replicated write
    (``replicas=2``) first, its fragment stepped to the leg it waits on
    before the sends are issued, so its chain leg must take the lane
    first."""
    ended = []
    hold = Lane.hold

    def spying_hold(self, seconds):
        done = hold(self, seconds)
        done.callbacks.append(lambda _e: ended.append((self, done.env.now, seconds)))
        return done

    monkeypatch.setattr(Lane, "hold", spying_hold)
    for pvfs, write_first in (
        (PVFSConfig(nservers=1), False),
        (PVFSConfig(nservers=2, replicas=2), True),
    ):
        w = world()
        env = w.env
        config = w.config
        fs = FileSystem(env, pvfs, client_nic=w.network.nic)
        file = created(fs)
        ended.clear()
        issued = []

        def rank0():
            yield env.timeout(1.0)
            issued.append(env.now)
            comm = w.comm.view(0)
            write = fs.write_list(0, file, [(0, 4 * KIB)])
            leg = next(write) if write_first else None
            comm.isend(1, tag=1, nbytes=4 * config.eager_threshold_B)
            comm.isend(1, tag=2, nbytes=1 * KIB)
            if write_first:
                yield leg
            else:
                yield from write

        env.process(rank0())
        env.run()
        rts_s = config.serialization_time(64) + config.cpu_overhead_s
        eager_s = config.serialization_time(1 * KIB) + config.cpu_overhead_s
        pvfs_B = pvfs.request_header_B + 16 + 4 * KIB
        pvfs_s = pvfs_B / pvfs.client_pipeline_Bps + config.cpu_overhead_s
        order = [pvfs_s, rts_s, eager_s] if write_first else [rts_s, eager_s, pvfs_s]
        tx = w.network.nic(0).tx
        holds = [(at, seconds) for lane, at, seconds in ended if lane is tx]
        assert [seconds for _, seconds in holds] == order
        assert [at for at, _ in holds] == sorted(at for at, _ in holds)
        # Back to back from the instant of issue: the lane was idle.
        assert holds[-1][0] == sum(order, issued[0])
