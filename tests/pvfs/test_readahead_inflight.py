"""Read-ahead while a prefetch still holds the disk.

A prefetch computes its extents, waits for the disk, and only then
stores them.  A write or a daemon crash that lands in that window must
shrink what it stores: otherwise the store answers later reads with
pre-write bytes, shadows fresh dirty data, or brings back extents the
crash dropped.  The fixed cases pin one such window each; the property
test runs random ops as overlapping processes so that windows like
these arise on their own.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.pvfs import DiskModel, IOServer, merge_extents
from repro.sim import Environment

from tests.pvfs.calls import flushed, served
from tests.pvfs.test_readahead_props import (
    KIB,
    MIB,
    check_structure,
    make_server,
    overlap,
)

#: When a read of [0, 4K) on an idle server finishes; the prefetch of
#: [4K, 68K) it starts then holds the disk for ~2 ms.
READ_DONE_S = DiskModel().service_detail([(0, 4 * KIB)], 0).seconds
MID_PREFETCH_S = READ_DONE_S + 1e-4


def read(server, offset, length):
    yield served(server, [(offset, length)], True)


def write(server, offset, length):
    yield served(server, [(offset, length)])


def race_prefetch(server, action):
    """Read [0, 4K) (prefetching [4K, 68K)); run ``action`` mid-prefetch."""
    env = server.env

    def at_mid_prefetch():
        yield env.timeout(MID_PREFETCH_S)
        # The first read is done and its prefetch has not landed yet.
        assert server.stats.bytes_read == 4 * KIB
        assert server.stats.readahead_bytes == 0
        yield from action()

    reader = env.process(read(server, 0, 4 * KIB))
    env.process(at_mid_prefetch())
    env.run(reader)
    assert server.stats.readahead_bytes == 64 * KIB


def test_write_during_prefetch_is_not_served_from_the_store():
    env = Environment()
    server = IOServer(env, 0, DiskModel(), readahead_B=64 * KIB)
    race_prefetch(server, lambda: write(server, 20 * KIB, 4 * KIB))
    env.run()
    check_structure(server)
    assert not overlap(server._ra_runs, [(20 * KIB, 24 * KIB)])
    hits = server.stats.readahead_hits
    env.run(env.process(read(server, 20 * KIB, 4 * KIB)))
    assert server.stats.readahead_hits == hits


def test_write_during_prefetch_never_shadows_dirty_data():
    env = Environment()
    server = IOServer(env, 0, DiskModel(), readahead_B=64 * KIB, cache_B=1 * MIB)
    race_prefetch(server, lambda: write(server, 20 * KIB, 4 * KIB))
    # The write is still dirty: the idle flush is ~20 ms away.
    assert server.cache.dirty_runs == [(20 * KIB, 24 * KIB)]
    check_structure(server)


def test_write_absorbed_as_prefetch_starts_never_shadows_dirty_data():
    """The write arrives just before the first read finishes and becomes
    dirty just after: the prefetch that read plans still covers it."""
    env = Environment()
    server = IOServer(env, 0, DiskModel(), readahead_B=64 * KIB, cache_B=1 * MIB)
    copy_in = server.cache.memory_time(1, 4 * KIB)

    def write():
        yield env.timeout(READ_DONE_S - copy_in / 2)
        yield served(server, [(20 * KIB, 4 * KIB)])

    reader = env.process(read(server, 0, 4 * KIB))
    env.process(write())
    env.run(reader)
    assert server.stats.readahead_bytes == 64 * KIB
    assert server.cache.dirty_runs == [(20 * KIB, 24 * KIB)]
    check_structure(server)


def test_crash_during_prefetch_voids_it():
    env = Environment()
    server = IOServer(env, 0, DiskModel(), readahead_B=64 * KIB)

    def crash():
        server.fail()
        server.restore()
        yield env.timeout(0)

    race_prefetch(server, crash)
    assert server._ra_runs == []
    assert server.stats.readahead_wasted == 64 * KIB
    check_structure(server)


def test_prefetch_served_before_a_queued_write_keeps_nothing_stale():
    """A write still *waiting* for the disk when a later read plans its
    prefetch over the same range.  Timeline on one elevator server, no
    cache:

    1. t=0: read A = [0, 4K) takes the idle disk.
    2. t=1us: write W to [32K, 36K) queues (offset 32K), then read
       Y = [16K, 48K) queues (offset 16K).
    3. A finishes with the head at 4K.  C-SCAN grants the lowest offset
       at or above the head: Y.  A's prefetch P = [4K, 68K) queues at 4K.
    4. Y finishes with the head at 48K.  W and P both lie behind it, so
       the sweep wraps to the lowest offset: P, then W.

    P reads W's range before W lands.  Once W has been serviced, no
    prefetched extent overlapping it may be held, or a later read would
    be answered with pre-write bytes.
    """
    env = Environment()
    server = IOServer(env, 0, DiskModel(), sched="elevator", readahead_B=64 * KIB)
    written = (32 * KIB, 36 * KIB)

    def queue_write_and_read():
        yield env.timeout(1e-6)
        writer = served(server, [(32 * KIB, 4 * KIB)])
        env.process(read(server, 16 * KIB, 32 * KIB))
        yield writer
        # The reordering really happened: the prefetch landed first.
        assert server.stats.readahead_bytes == 64 * KIB
        assert not overlap(server._ra_runs, [written]), server._ra_runs

    env.process(read(server, 0, 4 * KIB))
    env.run(env.process(queue_write_and_read()))
    # The dropped bytes count as wasted, so the store's accounting holds.
    assert server.stats.readahead_wasted == 4 * KIB
    check_structure(server)


# Each op starts its own process some microseconds after the previous
# one; "stream" reads continue the sequential stream, so prefetches are
# frequent and long enough for other ops to land inside them.
overlapping_ops = st.lists(
    st.tuples(
        st.integers(0, 3000),
        st.one_of(
            st.tuples(st.just("write"), st.integers(0, 63), st.integers(1, 4 * KIB)),
            st.tuples(
                st.just("read"), st.integers(0, 64 * 8 * KIB), st.integers(1, 16 * KIB)
            ),
            st.tuples(st.just("stream"), st.just(0), st.integers(1, 16 * KIB)),
            st.tuples(st.just("flush"), st.just(0), st.just(0)),
            st.tuples(st.just("crash"), st.just(0), st.just(0)),
        ),
    ),
    min_size=1,
    max_size=40,
)


@given(sequence=overlapping_ops)
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_overlapping_ops_keep_prefetch_and_dirty_disjoint(sequence):
    """The interleavings property with every op started as its own
    process at staggered times, so reads, writes, flushes and crashes
    overlap each other's disk waits.  After a crash the store may only
    hold extents that a prefetch planned after that crash."""
    env = Environment()
    server = make_server(env, readahead_B=32 * KIB)
    crashes = [0]
    planned = {0: []}  # prefetch extents planned per crash epoch
    plan_gaps = server._ra_gaps

    def recording_gaps(start, end):
        out = plan_gaps(start, end)
        planned[crashes[0]].extend(out)
        return out

    server._ra_gaps = recording_gaps

    def step(at, kind, a, b):
        yield env.timeout(at)
        if kind == "write":
            yield served(server, [(a * 8 * KIB, b)])
        elif kind == "read":
            yield served(server, [(a, b)], True)
        elif kind == "stream":
            yield served(server, [(server._ra_next, b)], True)
        elif kind == "flush":
            yield flushed(server.cache)
        else:  # crash, then immediate restart
            crashes[0] += 1
            planned[crashes[0]] = []
            server.fail()
            assert server._ra_runs == []
            assert server._ra_next == 0
            server.restore()
        check_structure(server)

    at = 0.0
    for delay_us, (kind, a, b) in sequence:
        at += delay_us * 1e-6
        env.process(step(at, kind, a, b))
    env.run()
    check_structure(server)
    since_crash = merge_extents(planned[crashes[0]])
    for lo, hi in server._ra_runs:
        assert any(p_lo <= lo and hi <= p_hi for p_lo, p_hi in since_crash), (
            (lo, hi),
            since_crash,
        )
