"""Satellite regression: a restarted daemon's elevator starts from scratch.

The seed bug: ``IOServer.restore()`` left the elevator's aging counters
(``QueuedRequest.passes``) from before the outage in place, so surviving
waiters could come back "overdue" and hijack the grant order of the fresh
daemon.  ``DiskQueue.reset()`` zeroes the counters; the property below
proves the post-restart drain order equals a fresh elevator's drain order
for the same waiting set — across many random waiting sets.
"""

import random

from repro.pvfs.sched import DiskQueue, ElevatorPolicy, QueuedRequest
from repro.sim import Environment, Event


def drain_order(policy, waiting, head):
    """Grant order a policy produces for a static waiting set (no arrivals)."""
    pending = list(waiting)
    order = []
    while pending:
        index = policy.select(pending, head)
        chosen = pending.pop(index)
        for w in pending:
            w.passes += 1
        order.append(chosen.order)
        head = chosen.offset
    return order


def clone(waiting, passes=0):
    env = Environment()
    return [
        QueuedRequest(
            offset=w.offset, order=w.order, start=Event(env).succeed, passes=passes
        )
        for w in waiting
    ]


class TestResetProperty:
    def test_post_reset_order_matches_fresh_elevator(self):
        rng = random.Random(20060627)
        for trial in range(200):
            env = Environment()
            n = rng.randint(1, 12)
            waiting = [
                QueuedRequest(
                    offset=rng.randrange(0, 1 << 20),
                    order=i,
                    start=Event(env).succeed,
                    passes=rng.randint(0, 20),  # stale pre-outage aging
                )
                for i in range(n)
            ]
            head = rng.randrange(0, 1 << 20)
            aging = rng.randint(1, 10)

            queue = DiskQueue(ElevatorPolicy(aging_limit=aging))
            queue.waiting = [
                QueuedRequest(w.offset, w.order, Event(env).succeed, w.passes)
                for w in waiting
            ]
            queue.reset()

            got = drain_order(ElevatorPolicy(aging_limit=aging), queue.waiting, head)
            want = drain_order(ElevatorPolicy(aging_limit=aging), clone(waiting), head)
            assert got == want, f"trial {trial}: {got} != {want}"

    def test_stale_aging_really_would_have_diverged(self):
        # Sanity: the property is not vacuous — without reset, a stale
        # overdue waiter jumps the sweep.
        env = Environment()
        waiting = [
            QueuedRequest(offset=1000, order=0, start=Event(env).succeed, passes=0),
            QueuedRequest(offset=5000, order=1, start=Event(env).succeed, passes=99),
        ]
        policy = ElevatorPolicy(aging_limit=8)
        stale = drain_order(policy, clone_with(waiting), head=0)
        fresh = drain_order(policy, clone(waiting), head=0)
        assert stale != fresh
        assert fresh == [0, 1]  # sweep from 0: offset 1000 first
        assert stale == [1, 0]  # stale overdue waiter hijacked the grant

    def test_reset_keeps_arrival_order(self):
        env = Environment()
        queue = DiskQueue(ElevatorPolicy())
        queue.waiting = [
            QueuedRequest(offset=10, order=3, start=Event(env).succeed, passes=5),
            QueuedRequest(offset=20, order=7, start=Event(env).succeed, passes=2),
        ]
        queue.reset()
        assert [w.order for w in queue.waiting] == [3, 7]
        assert all(w.passes == 0 for w in queue.waiting)

    def test_fifo_queue_reset_is_harmless(self):
        queue = DiskQueue()
        queue.reset()  # empty queue: no-op
        assert queue.waiting == []


def clone_with(waiting):
    """Copy a waiting set *keeping* its (stale) pass counters."""
    env = Environment()
    return [
        QueuedRequest(
            offset=w.offset, order=w.order, start=Event(env).succeed, passes=w.passes
        )
        for w in waiting
    ]
