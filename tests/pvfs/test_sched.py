"""Disk-queue scheduling: policy ordering, C-SCAN sweep, starvation bound."""

import random

import pytest

from repro.pvfs.sched import DiskQueue, ElevatorPolicy, QueuedRequest
from repro.sim import Environment, Event, SimulationError


def waiters(env, offsets):
    return [
        QueuedRequest(offset=o, order=i, start=Event(env).succeed)
        for i, o in enumerate(offsets)
    ]


class TestPolicies:
    def test_elevator_aging_validated(self):
        with pytest.raises(ValueError):
            ElevatorPolicy(aging_limit=0)

    def test_elevator_picks_lowest_offset_ahead_of_head(self):
        env = Environment()
        w = waiters(env, [500, 100, 300])
        assert ElevatorPolicy().select(w, head=200) == 2  # 300 >= 200

    def test_elevator_wraps_when_sweep_exhausts(self):
        env = Environment()
        w = waiters(env, [50, 20, 80])
        # Head past everything: circular scan restarts at the lowest offset.
        assert ElevatorPolicy().select(w, head=1000) == 1

    def test_elevator_overdue_beats_offset(self):
        env = Environment()
        w = waiters(env, [500, 100])
        w[0].passes = 3
        policy = ElevatorPolicy(aging_limit=3)
        # 100 is nearer the head, but waiter 0 aged out: arrival order wins.
        assert policy.select(w, head=0) == 0


def granted(env, queue, offset):
    """An event succeeded once ``queue`` grants a claim at ``offset``."""
    event = Event(env)
    queue.claim(event.succeed, offset)
    return event


class TestDiskQueue:
    def serve(self, elevator, offsets, head_each=None):
        """Drive concurrent claims through a queue; return service order."""
        env = Environment()
        queue = DiskQueue(elevator)
        order = []

        def one(offset):
            yield granted(env, queue, offset)
            order.append(offset)
            yield env.timeout(1.0)
            queue.release(offset if head_each is None else head_each)

        for offset in offsets:
            env.process(one(offset))
        env.run()
        assert not queue.busy and not queue.waiting
        return order

    def test_fifo_services_in_arrival_order(self):
        assert self.serve(None, [50, 40, 30, 20, 10]) == [50, 40, 30, 20, 10]

    def test_elevator_sweeps_by_offset(self):
        # First arrival is serviced immediately (queue idle); the rest are
        # queued and swept upward from the released head (50).
        order = self.serve(ElevatorPolicy(), [50, 40, 30, 70, 60])
        assert order == [50, 60, 70, 30, 40]

    def test_depth_counts_in_service_and_waiting(self):
        env = Environment()
        queue = DiskQueue()

        def holder():
            yield granted(env, queue, 0)
            yield env.timeout(1.0)
            queue.release(0)

        def waiter():
            yield env.timeout(0.1)
            assert queue.depth == 1
            grant = granted(env, queue, 10)
            assert queue.depth == 2
            yield grant
            queue.release(10)

        env.process(holder())
        env.process(waiter())
        env.run()
        assert queue.depth == 0

    def test_release_without_acquire_raises(self):
        queue = DiskQueue()
        with pytest.raises(SimulationError):
            queue.release(0)


class TestStarvationBound:
    """The elevator's aging promise, checked against random request streams.

    A request passed over ``aging_limit`` times becomes overdue and
    overdue requests are granted in arrival order — so at grant time a
    request's pass count never exceeds ``aging_limit + e`` where ``e`` is
    the number of earlier arrivals waiting alongside it when it aged out.
    """

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("aging", [1, 3, 8])
    def test_pass_count_is_bounded(self, seed, aging):
        rng = random.Random(seed)
        env = Environment()
        policy = ElevatorPolicy(aging_limit=aging)
        waiting = []
        backlog_at_overdue = {}  # order -> earlier arrivals when aged out
        order = 0
        head = 0
        worst = 0
        for step in range(600):
            # Arrivals in bursts, offsets clustered to tempt the sweep
            # into favouring one neighbourhood forever.
            for _ in range(rng.randrange(0, 3)):
                offset = rng.choice([rng.randrange(100), rng.randrange(10)])
                waiting.append(
                    QueuedRequest(offset=offset, order=order, start=Event(env).succeed)
                )
                order += 1
            if not waiting:
                continue
            index = policy.select(waiting, head)
            chosen = waiting.pop(index)
            for w in waiting:
                w.passes += 1
                if w.passes == aging:
                    backlog_at_overdue[w.order] = sum(
                        1 for x in waiting if x.order < w.order
                    )
            bound = aging + backlog_at_overdue.get(chosen.order, 0)
            assert chosen.passes <= bound or chosen.passes < aging, (
                f"step {step}: request {chosen.order} passed over "
                f"{chosen.passes} times (bound {bound})"
            )
            worst = max(worst, chosen.passes)
            head = chosen.offset
        # The scenario actually exercises aging (not vacuous).
        assert worst >= aging
