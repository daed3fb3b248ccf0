"""Events for the I/O server stack's callback calls.

``IOServer.serve``, ``IOServer.sync`` and ``WriteBackCache.flush`` call
``then()`` when they are done.  Tests that drive a server from
processes wait on these events instead: each succeeds one ``Event`` from
``then``, which adds that one event to the run.
"""

from repro.sim import Event


def served(server, regions, is_read=False) -> Event:
    """Succeeds once ``server`` has serviced ``regions``."""
    done = Event(server.env)
    server.serve(regions, is_read, done.succeed)
    return done


def synced(server) -> Event:
    """Succeeds once ``server`` has serviced a sync."""
    done = Event(server.env)
    server.sync(done.succeed)
    return done


def flushed(cache) -> Event:
    """Succeeds once ``cache`` has flushed what was dirty at the call."""
    done = Event(cache.env)
    cache.flush(done.succeed)
    return done
