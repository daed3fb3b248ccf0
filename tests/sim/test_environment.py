"""Environment edge cases: scheduling, stepping, introspection."""

import random

import pytest

from repro.sim import EmptySchedule, Environment, SimulationError, Store


@pytest.fixture
def env():
    return Environment()


class TestScheduling:
    def test_initial_time(self):
        env = Environment(initial_time=5.0)
        assert env.now == 5.0
        env.timeout(1)
        env.run()
        assert env.now == 6.0

    def test_schedule_in_the_past_rejected(self, env):
        event = env.event()
        with pytest.raises(SimulationError):
            env.schedule(event, delay=-1)

    def test_schedule_nan_delay_rejected(self, env):
        """A NaN timestamp breaks heapq's ordering invariant and silently
        corrupts the event queue — it must be rejected at the door."""
        event = env.event()
        with pytest.raises(SimulationError):
            env.schedule(event, delay=float("nan"))
        assert env.queue_size == 0

    def test_schedule_inf_delay_rejected(self, env):
        event = env.event()
        with pytest.raises(SimulationError):
            env.schedule(event, delay=float("inf"))
        assert env.queue_size == 0

    def test_run_until_nan_rejected(self, env):
        env.timeout(1)
        with pytest.raises(ValueError):
            env.run(until=float("nan"))

    def test_step_on_empty_queue(self, env):
        with pytest.raises(EmptySchedule):
            env.step()

    def test_queue_size(self, env):
        assert env.queue_size == 0
        assert env.peek() == float("inf")
        env.timeout(2)
        env.timeout(1)
        assert env.queue_size == 2
        assert env.peek() == 1.0
        env.run()
        assert env.queue_size == 0

    def test_manual_stepping(self, env):
        seen = []
        for delay in (3, 1, 2):
            env.timeout(delay, value=delay).callbacks.append(
                lambda e: seen.append(e.value)
            )
        env.step()
        assert seen == [1]
        assert env.now == 1
        env.step()
        env.step()
        assert seen == [1, 2, 3]

    def test_repr(self, env):
        env.timeout(1)
        text = repr(env)
        assert "Environment" in text and "queued=1" in text


class TestSameTimeOrdering:
    def test_priority_beats_insertion(self, env):
        """URGENT events at a timestamp run before NORMAL ones regardless
        of insertion order (process initialisation relies on this)."""
        from repro.sim.events import NORMAL, URGENT

        order = []
        normal = env.event()
        normal._ok, normal._value = True, "normal"
        urgent = env.event()
        urgent._ok, urgent._value = True, "urgent"
        env.schedule(normal, priority=NORMAL)
        env.schedule(urgent, priority=URGENT)
        normal.callbacks.append(lambda e: order.append(e.value))
        urgent.callbacks.append(lambda e: order.append(e.value))
        env.run()
        assert order == ["urgent", "normal"]

    def test_fifo_within_priority(self, env):
        order = []
        for name in ("a", "b", "c"):
            t = env.timeout(1, value=name)
            t.callbacks.append(lambda e: order.append(e.value))
        env.run()
        assert order == ["a", "b", "c"]

    def test_basic_run(self, env):
        trace = []

        def proc(env, name, delays):
            for d in delays:
                yield env.timeout(d)
                trace.append((env.now, name))

        env.process(proc(env, "a", [1, 2, 3]))
        env.process(proc(env, "b", [2, 2, 2]))
        env.run()
        assert trace == [
            (1, "a"), (2, "b"), (3, "a"), (4, "b"), (6, "a"), (6, "b")
        ]

    def test_urgent_mid_batch(self, env):
        """A process spawned mid-timestamp runs its URGENT init before the
        spawner's zero-delay resume and the bystander already queued at
        that time."""
        trace = []

        def child(env):
            trace.append((env.now, "child"))
            yield env.timeout(1)
            trace.append((env.now, "child-end"))

        def spawner(env):
            yield env.timeout(2)
            trace.append((env.now, "spawn"))
            env.process(child(env))
            yield env.timeout(0)
            trace.append((env.now, "after"))

        def bystander(env):
            yield env.timeout(2)
            trace.append((env.now, "bystander"))

        env.process(spawner(env))
        env.process(bystander(env))
        env.run()
        assert trace == [
            (2, "spawn"), (2, "child"), (2, "bystander"), (2, "after"),
            (3, "child-end"),
        ]


def _mixed_workload(env, trace, seed):
    """Timers, same-time collisions, zero delays, stores and an any-of."""
    rng = random.Random(seed)
    store = Store(env)

    def timer(env, name):
        for _ in range(rng.randrange(1, 6)):
            yield env.timeout(round(rng.uniform(0, 5), 1))
            trace.append((env.now, "t", name))

    def producer(env):
        for i in range(10):
            yield env.timeout(0.5)
            yield store.put(i)

    def consumer(env, name):
        for _ in range(5):
            item = yield store.get()
            trace.append((env.now, "c", name, item))
            yield env.timeout(0)  # zero-delay cascade

    def waiter(env):
        t1 = env.timeout(2.0, "x")
        t2 = env.timeout(2.0, "y")
        yield env.any_of([t1, t2])
        trace.append((env.now, "w", t1.triggered + t2.triggered))

    for i in range(8):
        env.process(timer(env, i))
    env.process(producer(env))
    env.process(consumer(env, "c1"))
    env.process(consumer(env, "c2"))
    env.process(waiter(env))


#: ``_mixed_workload(seed)`` traces: same-time timers, store hand-offs and
#: the two-way condition interleave in ``(time, priority, eid)`` order.
MIXED_TRACES = {
    0: [
        (0.2, "t", 1), (0.5, "c", "c1", 0), (0.7, "t", 6), (1.0, "c", "c2", 1),
        (1.5, "t", 1), (1.5, "c", "c1", 2), (2.0, "w", 2), (2.0, "c", "c2", 3),
        (2.4, "t", 2), (2.5, "t", 5), (2.5, "c", "c1", 4), (2.9, "t", 4),
        (3.0, "c", "c2", 5), (3.1, "t", 7), (3.5, "c", "c1", 6), (3.8, "t", 0),
        (4.0, "c", "c2", 7), (4.5, "t", 4), (4.5, "c", "c1", 8), (4.8, "t", 3),
        (5.0, "c", "c2", 9), (5.2, "t", 6), (6.4, "t", 1), (6.5, "t", 2),
        (6.9, "t", 1), (7.0, "t", 5), (7.4, "t", 0), (7.6, "t", 6),
        (8.2, "t", 3), (8.7, "t", 2), (9.0, "t", 4), (10.5, "t", 0),
        (12.799999999999999, "t", 3), (12.9, "t", 0), (13.5, "t", 2),
        (17.8, "t", 2),
    ],
    1: [
        (0.5, "t", 4), (0.5, "c", "c1", 0), (1.0, "c", "c2", 1), (1.3, "t", 1),
        (1.5, "c", "c1", 2), (1.8, "t", 4), (2.0, "w", 2), (2.0, "c", "c2", 3),
        (2.2, "t", 6), (2.5, "c", "c1", 4), (2.8, "t", 0), (3.0, "c", "c2", 5),
        (3.3, "t", 3), (3.5, "t", 7), (3.5, "c", "c1", 6), (3.8, "t", 2),
        (3.8, "t", 3), (3.9, "t", 3), (4.0, "c", "c2", 7), (4.5, "t", 5),
        (4.5, "c", "c1", 8), (5.0, "c", "c2", 9), (5.4, "t", 2), (5.4, "t", 2),
        (5.8, "t", 0), (6.2, "t", 6), (7.1, "t", 3), (9.6, "t", 6),
        (9.8, "t", 2), (14.399999999999999, "t", 6),
    ],
    2: [
        (0.5, "t", 0), (0.5, "c", "c1", 0), (1.0, "c", "c2", 1), (1.3, "t", 2),
        (1.5, "c", "c1", 2), (2.0, "w", 2), (2.0, "c", "c2", 3),
        (2.5, "c", "c1", 4), (3.0, "t", 3), (3.0, "c", "c2", 5), (3.2, "t", 5),
        (3.4, "t", 4), (3.5, "c", "c1", 6), (3.8, "t", 2), (4.0, "c", "c2", 7),
        (4.2, "t", 1), (4.5, "c", "c1", 8), (4.7, "t", 6), (4.7, "t", 7),
        (5.0, "c", "c2", 9), (5.2, "t", 4), (6.0, "t", 4),
        (6.800000000000001, "t", 6), (6.9, "t", 4), (7.5, "t", 3),
        (7.6000000000000005, "t", 5), (7.800000000000001, "t", 4),
        (8.0, "t", 6), (8.5, "t", 2), (8.5, "t", 5), (8.7, "t", 1),
        (9.100000000000001, "t", 7), (10.3, "t", 5), (10.6, "t", 6),
        (11.299999999999999, "t", 1), (11.900000000000002, "t", 7),
        (14.100000000000001, "t", 7), (15.6, "t", 6),
        (16.200000000000003, "t", 7),
    ],
    3: [
        (0.3, "t", 3), (0.5, "c", "c1", 0), (1.0, "t", 6), (1.0, "c", "c2", 1),
        (1.3, "t", 5), (1.5, "c", "c1", 2), (1.8, "t", 1), (2.0, "w", 2),
        (2.0, "c", "c2", 3), (2.4, "t", 2), (2.5, "c", "c1", 4), (2.7, "t", 7),
        (3.0, "t", 0), (3.0, "t", 3), (3.0, "t", 6), (3.0, "t", 1),
        (3.0, "c", "c2", 5), (3.1, "t", 3), (3.2, "t", 2), (3.5, "c", "c1", 6),
        (4.0, "t", 2), (4.0, "c", "c2", 7), (4.5, "t", 4), (4.5, "c", "c1", 8),
        (4.9, "t", 0), (5.0, "c", "c2", 9), (5.6, "t", 5), (5.8, "t", 5),
        (7.0, "t", 3), (7.3, "t", 7), (8.6, "t", 7), (8.8, "t", 2),
        (9.7, "t", 5), (11.1, "t", 3), (11.6, "t", 7), (13.4, "t", 2),
    ],
    11: [
        (0.5, "t", 6), (0.5, "c", "c1", 0), (0.9, "t", 2), (1.0, "c", "c2", 1),
        (1.5, "c", "c1", 2), (2.0, "w", 2), (2.0, "c", "c2", 3), (2.2, "t", 5),
        (2.3, "t", 1), (2.4, "t", 3), (2.5, "t", 6), (2.5, "c", "c1", 4),
        (3.0, "t", 7), (3.0, "c", "c2", 5), (3.1999999999999997, "t", 2),
        (3.5, "c", "c1", 6), (4.0, "t", 4), (4.0, "c", "c2", 7), (4.3, "t", 0),
        (4.5, "c", "c1", 8), (4.6, "t", 0), (4.8, "t", 0), (5.0, "c", "c2", 9),
        (5.699999999999999, "t", 3), (6.0, "t", 1), (6.3, "t", 2),
        (7.9, "t", 2), (8.2, "t", 4), (8.7, "t", 3), (9.2, "t", 0),
        (9.2, "t", 4), (9.899999999999999, "t", 3),
        (9.899999999999999, "t", 3), (9.9, "t", 1), (10.3, "t", 1),
        (10.7, "t", 4), (10.9, "t", 2), (14.0, "t", 4),
    ],
    12: [
        (0.5, "c", "c1", 0), (1.0, "c", "c2", 1), (1.1, "t", 5), (1.3, "t", 0),
        (1.5, "c", "c1", 2), (1.9, "t", 2), (2.0, "w", 2), (2.0, "c", "c2", 3),
        (2.4, "t", 3), (2.5, "c", "c1", 4), (2.9000000000000004, "t", 5),
        (3.0, "t", 0), (3.0, "t", 2), (3.0, "c", "c2", 5), (3.3, "t", 1),
        (3.3, "t", 6), (3.5, "t", 4), (3.5, "c", "c1", 6),
        (3.9000000000000004, "t", 5), (4.0, "c", "c2", 7), (4.5, "c", "c1", 8),
        (4.9, "t", 7), (5.0, "c", "c2", 9), (5.3, "t", 3),
        (5.300000000000001, "t", 7), (5.6, "t", 0), (6.9, "t", 4),
        (7.3999999999999995, "t", 1), (7.9, "t", 5), (8.5, "t", 1),
        (9.7, "t", 0), (9.899999999999999, "t", 3), (10.2, "t", 4),
        (10.6, "t", 1), (12.399999999999999, "t", 4), (12.8, "t", 5),
        (13.899999999999999, "t", 1),
    ],
}

#: Events the environment creates over each uninterrupted mixed workload.
MIXED_EVENT_COUNTS = {0: 92, 1: 86, 2: 95, 3: 92, 11: 94, 12: 93}

#: Trace length after ``run(until=1.5)`` and then ``run(until=3.0)``.  Both
#: stops fall on event timestamps, so this pins where the stopper sorts
#: among the events due at that time.
STOP_PREFIXES = {11: (4, 13), 12: (4, 12)}


class TestMixedWorkload:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 11, 12])
    def test_uninterrupted_trace(self, env, seed):
        trace = []
        _mixed_workload(env, trace, seed)
        env.run()
        assert trace == MIXED_TRACES[seed]
        assert env.now == MIXED_TRACES[seed][-1][0]
        assert next(env._eid) == MIXED_EVENT_COUNTS[seed]

    @pytest.mark.parametrize("seed", [11, 12])
    def test_stop_and_resume_matches_uninterrupted(self, env, seed):
        """``run(until=t)`` stoppers are extra queue entries; stopping at
        1.5 and 3.0 and resuming must not reorder anything the
        uninterrupted run does."""
        expected = MIXED_TRACES[seed]
        first, second = STOP_PREFIXES[seed]
        trace = []
        _mixed_workload(env, trace, seed)
        env.run(until=1.5)
        assert env.now == 1.5
        assert trace == expected[:first]
        env.run(until=3.0)
        assert env.now == 3.0
        assert trace == expected[:second]
        env.run()
        assert trace == expected
        assert env.now == expected[-1][0]


class TestRunUntilFailedEvent:
    """run(until=event) must defuse a failed event in both orders.

    When the awaited event fails *during* the run, _stop_simulation
    defuses it before re-raising (the caller took responsibility by
    receiving the exception).  Regression: the already-processed branch
    re-raised *without* defusing — harmless in isolation, but
    inconsistent, and it left the event looking unhandled to any later
    audit of the object.
    """

    @staticmethod
    def _failing_event(env):
        bad = env.event()

        def failer(env):
            yield env.timeout(1)
            bad.fail(RuntimeError("boom"))

        env.process(failer(env))
        return bad

    def test_failure_during_run(self, env):
        bad = self._failing_event(env)
        with pytest.raises(RuntimeError, match="boom"):
            env.run(until=bad)
        assert bad._defused

    def test_failure_already_processed(self, env):
        bad = self._failing_event(env)
        with pytest.raises(RuntimeError, match="boom"):
            env.run(until=bad)
        # Second run on the now-processed failed event: same behaviour,
        # and the event stays defused.
        with pytest.raises(RuntimeError, match="boom"):
            env.run(until=bad)
        assert bad._defused

    def test_already_processed_defuses_fresh_reference(self, env):
        """A failed event processed while *another* waiter held it still
        defuses when later passed to run(until=...)."""
        bad = self._failing_event(env)

        def watcher(env):
            try:
                yield bad
            except RuntimeError:
                return "saw it"

        assert env.run(env.process(watcher(env))) == "saw it"
        with pytest.raises(RuntimeError, match="boom"):
            env.run(until=bad)
        assert bad._defused


class TestRunReturnValues:
    def test_run_returns_event_value(self, env):
        def proc(env):
            yield env.timeout(1)
            return {"answer": 42}

        assert env.run(env.process(proc(env))) == {"answer": 42}

    def test_run_until_float_accepts_int(self, env):
        env.timeout(10)
        env.run(until=5)
        assert env.now == 5.0

    def test_nested_processes_chain_values(self, env):
        def leaf(env):
            yield env.timeout(1)
            return 1

        def middle(env):
            value = yield env.process(leaf(env))
            return value + 1

        def root(env):
            value = yield env.process(middle(env))
            return value + 1

        assert env.run(env.process(root(env))) == 3
