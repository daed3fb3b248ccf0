"""Property tests: sequential read-ahead vs the write-back cache.

Random interleavings of reads, writes, syncs, flushes, and daemon crashes
must never let the prefetch store answer with stale bytes.  In the model
that is a structural guarantee with two halves:

* the clean prefetched runs (``_ra_runs``) never overlap the cache's
  dirty runs — a write invalidates any prefetched extent it touches
  before it can shadow the fresh data;
* ``fail()`` drops the prefetch store with the daemon's memory, so a
  post-restore read cannot hit extents prefetched before the crash.

Plus the conservation identity that pins the accounting:
``sum(_ra_runs) == readahead_bytes - readahead_wasted`` at every step.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.mpi.network import NetworkConfig
from repro.pvfs import DiskModel, FileSystem, IOServer, PVFSConfig
from repro.sim import Environment

from tests.pvfs.calls import flushed, served

KIB, MIB = 1024, 1024 * 1024

# One op per step: writes pick a slot index (mapped to a fresh extent),
# reads pick any offset window, the rest are parameterless.
ops = st.lists(
    st.one_of(
        st.tuples(st.just("write"), st.integers(0, 63), st.integers(1, 4 * KIB)),
        st.tuples(st.just("read"), st.integers(0, 64 * 8 * KIB), st.integers(1, 16 * KIB)),
        st.tuples(st.just("sync"), st.just(0), st.just(0)),
        st.tuples(st.just("flush"), st.just(0), st.just(0)),
        st.tuples(st.just("crash"), st.just(0), st.just(0)),
    ),
    min_size=1,
    max_size=40,
)


def make_server(env, readahead_B=8 * KIB, cache_B=1 * MIB):
    return IOServer(
        env,
        0,
        DiskModel(),
        sched="elevator",
        cache_B=cache_B,
        cache_watermark=0.75,
        cache_idle_flush_s=0.02,
        readahead_B=readahead_B,
    )


def overlap(runs_a, runs_b):
    return any(
        lo_a < hi_b and lo_b < hi_a
        for lo_a, hi_a in runs_a
        for lo_b, hi_b in runs_b
    )


def check_structure(server):
    runs = server._ra_runs
    # Runs are disjoint and sorted (each is a half-open [lo, hi) extent).
    for (lo_a, hi_a), (lo_b, hi_b) in zip(runs, runs[1:]):
        assert hi_a <= lo_b, runs
    assert all(lo < hi for lo, hi in runs), runs
    # Never shadow dirty data.
    if server.cache is not None:
        assert not overlap(runs, server.cache.dirty_runs), (
            runs,
            server.cache.dirty_runs,
        )
    # Conservation: live prefetched bytes = prefetched - wasted.
    live = sum(hi - lo for lo, hi in runs)
    assert live == server.stats.readahead_bytes - server.stats.readahead_wasted


@given(sequence=ops)
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_interleavings_keep_prefetch_and_dirty_disjoint(sequence):
    env = Environment()
    server = make_server(env)

    def step(kind, a, b):
        if kind == "write":
            yield served(server, [(a * 8 * KIB, b)])
        elif kind == "read":
            yield served(server, [(a, b)], True)
        elif kind == "sync":
            if server.cache is not None:
                yield flushed(server.cache)
        elif kind == "flush":
            if server.cache is not None:
                yield flushed(server.cache)
        else:  # crash, then immediate restart
            server.fail()
            assert server._ra_runs == []
            assert server._ra_next == 0
            server.restore()
        return None

    for kind, a, b in sequence:
        env.run(env.process(step(kind, a, b)))
        check_structure(server)


@given(
    prefix=st.lists(st.integers(0, 32 * KIB), min_size=1, max_size=6),
    crash_at=st.integers(0, 5),
)
@settings(max_examples=25, deadline=None)
def test_crash_never_resurrects_prefetched_extents(prefix, crash_at):
    """Reads after fail()+restore() must miss everything prefetched
    before the crash: the hit counter may only grow from *new* prefetch
    issued after the restart."""
    env = Environment()
    server = make_server(env, readahead_B=16 * KIB)

    def read(offset, length=1 * KIB):
        yield served(server, [(offset, length)], True)

    for i, offset in enumerate(prefix):
        env.run(env.process(read(offset)))
        if i == min(crash_at, len(prefix) - 1):
            dropped_runs = list(server._ra_runs)
            server.fail()
            assert server._ra_runs == []
            assert server._ra_next == 0
            server.restore()
            hits_before = server.stats.readahead_hits
            # Re-read exactly the extents that were prefetched pre-crash:
            # every one must go to disk, not the (gone) prefetch store.
            for lo, hi in dropped_runs:
                env.run(env.process(read(lo, hi - lo)))
            assert server.stats.readahead_hits == hits_before
            check_structure(server)
    check_structure(server)


def test_sequential_stream_prefetches_and_hits():
    """Sanity anchor for the properties above: a strictly sequential
    reader actually exercises the prefetch path (prefetches bytes, then
    serves later windows from memory)."""
    env = Environment()
    server = make_server(env, readahead_B=8 * KIB)

    def read(offset, length):
        yield served(server, [(offset, length)], True)

    for i in range(8):
        env.run(env.process(read(i * 1 * KIB, 1 * KIB)))
    assert server.stats.readahead_bytes > 0
    assert server.stats.readahead_hits > 0
    check_structure(server)


def test_write_into_prefetched_run_invalidates_it():
    env = Environment()
    server = make_server(env, readahead_B=8 * KIB)

    def op(regions, is_read):
        yield served(server, regions, is_read)

    env.run(env.process(op([(0, 2 * KIB)], True)))
    env.run(env.process(op([(1 * KIB, 2 * KIB)], True)))  # sequential: prefetch
    assert server._ra_runs
    lo, hi = server._ra_runs[0]
    env.run(env.process(op([(lo, 512)], False)))  # dirty the prefetched run
    check_structure(server)
    assert not overlap(server._ra_runs, [(lo, lo + 512)])
