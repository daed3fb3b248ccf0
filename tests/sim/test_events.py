"""Unit tests for the DES event layer."""

import pytest

from repro.sim import (
    AnyOf,
    Environment,
    Event,
    Join,
    SimulationError,
    Timeout,
)


@pytest.fixture
def env():
    return Environment()


class TestEventLifecycle:
    def test_fresh_event_is_untriggered(self, env):
        ev = env.event()
        assert not ev.triggered
        assert not ev.processed

    def test_value_unavailable_before_trigger(self, env):
        ev = env.event()
        with pytest.raises(SimulationError):
            _ = ev.value
        with pytest.raises(SimulationError):
            _ = ev.ok

    def test_succeed_sets_value(self, env):
        ev = env.event()
        ev.succeed(42)
        assert ev.triggered
        assert ev.ok
        assert ev.value == 42

    def test_succeed_twice_raises(self, env):
        ev = env.event()
        ev.succeed()
        with pytest.raises(SimulationError):
            ev.succeed()

    def test_fail_requires_exception(self, env):
        ev = env.event()
        with pytest.raises(TypeError):
            ev.fail("not an exception")

    def test_fail_then_succeed_raises(self, env):
        ev = env.event()
        ev.fail(RuntimeError("boom"))
        with pytest.raises(SimulationError):
            ev.succeed()

    def test_callbacks_invoked_on_processing(self, env):
        ev = env.event()
        seen = []
        ev.callbacks.append(lambda e: seen.append(e.value))
        ev.succeed("hello")
        env.run()
        assert seen == ["hello"]
        assert ev.processed

    def test_unhandled_failure_crashes_run(self, env):
        ev = env.event()
        ev.fail(ValueError("nobody caught me"))
        with pytest.raises(ValueError, match="nobody caught me"):
            env.run()


class TestTimeout:
    def test_timeout_advances_clock(self, env):
        env.timeout(5.0)
        env.run()
        assert env.now == pytest.approx(5.0)

    def test_negative_delay_rejected(self, env):
        with pytest.raises(ValueError):
            env.timeout(-1)

    def test_nan_delay_rejected(self, env):
        """``delay < 0`` is False for NaN — the old check let NaN through
        and corrupted the heap; the queue must stay untouched."""
        with pytest.raises(ValueError):
            env.timeout(float("nan"))
        assert env.queue_size == 0

    def test_inf_delay_rejected(self, env):
        with pytest.raises(ValueError):
            env.timeout(float("inf"))
        assert env.queue_size == 0

    def test_timeout_value_passed_through(self, env):
        def proc(env):
            got = yield env.timeout(1, value="payload")
            return got

        assert env.run(env.process(proc(env))) == "payload"

    def test_zero_delay_fires_at_current_time(self, env):
        t = env.timeout(0)
        env.run()
        assert t.processed
        assert env.now == 0.0

    def test_timeouts_fire_in_order(self, env):
        order = []
        for d in (3, 1, 2):
            t = Timeout(env, d, value=d)
            t.callbacks.append(lambda e: order.append(e.value))
        env.run()
        assert order == [1, 2, 3]


class TestConditions:
    def test_allof_waits_for_every_event(self, env):
        t1, t2 = env.timeout(1, value="a"), env.timeout(2, value="b")

        def proc(env):
            yield env.all_of([t1, t2])
            return (env.now, [t1.value, t2.value])

        now, values = env.run(env.process(proc(env)))
        assert now == pytest.approx(2.0)
        assert values == ["a", "b"]

    def test_anyof_fires_on_first(self, env):
        t1, t2 = env.timeout(5), env.timeout(1, value="fast")

        def proc(env):
            yield env.any_of([t1, t2])
            return (env.now, t1.processed, t2.processed, t2.value)

        assert env.run(env.process(proc(env))) == (1.0, False, True, "fast")

    def test_condition_propagates_failure(self, env):
        bad = env.event()

        def failer(env):
            yield env.timeout(1)
            bad.fail(RuntimeError("inner"))

        def waiter(env):
            with pytest.raises(RuntimeError, match="inner"):
                yield env.all_of([bad, env.timeout(5)])
            return "handled"

        env.process(failer(env))
        assert env.run(env.process(waiter(env))) == "handled"

    def test_anyof_sibling_failure_after_trigger_is_defused(self, env):
        """Regression: a failed sub-event processed *after* its AnyOf
        already fired must not crash the run.

        Two events share a timestamp: the first (by eid) succeeds and
        satisfies the AnyOf; the second fails.  When the failure is
        processed, the condition is already triggered — its _check must
        still defuse the failure, because the condition is that event's
        only waiter.  The old kernel returned early without defusing and
        the environment re-raised the failure as unhandled, killing the
        whole simulation.
        """
        good = env.event()
        bad = env.event()

        def trigger(env):
            yield env.timeout(1)
            # Same timestamp, good first in eid order.
            good.succeed("fine")
            bad.fail(RuntimeError("sibling"))

        def waiter(env):
            yield env.any_of([good, bad])
            return good.value

        env.process(trigger(env))
        p = env.process(waiter(env))
        # Crashes with the sibling's RuntimeError on the old kernel.
        assert env.run(p) == "fine"

    def test_anyof_sibling_failure_reversed_order(self, env):
        """Same contract with the failing sub-event listed first."""
        good = env.event()
        bad = env.event()

        def trigger(env):
            yield env.timeout(1)
            good.succeed(1)
            bad.fail(ValueError("nope"))

        def waiter(env):
            yield env.any_of([bad, good])
            return good.value, bad.processed

        env.process(trigger(env))
        assert env.run(env.process(waiter(env))) == (1, True)

    def test_anyof_detaches_from_pending_sub_events(self, env):
        """Re-waiting on the same pending event does not pile up callbacks
        on it: a processed any-of removes its check from every sub-event
        still pending.  The master's and the watchdog's loops re-wait on
        the same pending receives every iteration."""
        long = env.event()
        seen = []

        def proc():
            for _ in range(1000):
                yield env.any_of([long, env.timeout(1)])
                seen.append(len(long.callbacks))

        env.run(env.process(proc()))
        assert seen == [0] * 1000

    def test_mixed_environment_rejected(self, env):
        other = Environment()
        with pytest.raises(ValueError):
            env.all_of([env.timeout(1), other.timeout(1)])
        with pytest.raises(ValueError):
            env.any_of([env.timeout(1), other.timeout(1)])



class TestJoin:
    """``Join`` is ``env.all_of``, the collectives' and the PVFS fan-outs'
    wait; its firing position and ``env.any_of``'s are pinned here."""

    @staticmethod
    def _trace(make, order, same_time=False):
        """Processing log of a two-event wait built by ``make``, and the
        next event id the environment would hand out.

        ``m*`` markers are scheduled around each sub-event's processing:
        ``m2`` before the second sub-event is processed, ``m3`` from a
        callback that runs after the waiter's, so the waiter's resume
        position between them shows where the wait was scheduled.  A
        sub-event still pending at the resume reads as ``None``.
        """
        env = Environment()
        events = (env.event(), env.event())
        first, second = (events[i] for i in order)
        log = []

        def marker(name):
            env.timeout(0).callbacks.append(lambda _e: log.append((name, env.now)))

        def trigger():
            yield env.timeout(1)
            first.succeed("first")
            marker("m1")
            if not same_time:
                yield env.timeout(1)
            second.succeed("second")
            marker("m2")
            second.callbacks.append(lambda _e: marker("m3"))

        def waiter():
            value = yield make(env, *events)
            seen = [e.value if e.triggered else None for e in events]
            log.append(("resumed", env.now, seen))
            return value

        env.process(waiter())
        env.process(trigger())
        env.run()
        return log, next(env._eid)

    # Where a two-event all-of and any-of resume, and the next event id:
    # the count shows that the wait itself is scheduled exactly once.
    ALL_OF_TRACES = {
        ((0, 1), False): ([("m1", 1.0), ("m2", 2.0),
                           ("resumed", 2.0, ["first", "second"]), ("m3", 2.0)], 12),
        ((0, 1), True): ([("m1", 1.0), ("m2", 1.0),
                          ("resumed", 1.0, ["first", "second"]), ("m3", 1.0)], 11),
        ((1, 0), False): ([("m1", 1.0), ("m2", 2.0),
                           ("resumed", 2.0, ["second", "first"]), ("m3", 2.0)], 12),
        ((1, 0), True): ([("m1", 1.0), ("m2", 1.0),
                          ("resumed", 1.0, ["second", "first"]), ("m3", 1.0)], 11),
    }
    ANY_OF_TRACES = {
        ((0, 1), False): ([("m1", 1.0), ("resumed", 1.0, ["first", None]),
                           ("m2", 2.0), ("m3", 2.0)], 12),
        ((0, 1), True): ([("m1", 1.0), ("m2", 1.0),
                          ("resumed", 1.0, ["first", "second"]), ("m3", 1.0)], 11),
        ((1, 0), False): ([("m1", 1.0), ("resumed", 1.0, [None, "first"]),
                           ("m2", 2.0), ("m3", 2.0)], 12),
        ((1, 0), True): ([("m1", 1.0), ("m2", 1.0),
                          ("resumed", 1.0, ["second", "first"]), ("m3", 1.0)], 11),
    }

    @pytest.mark.parametrize("same_time", [False, True])
    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_fires_where_allof_fires(self, order, same_time):
        expected = self.ALL_OF_TRACES[order, same_time]
        assert self._trace(Join, order, same_time) == expected
        all_of = self._trace(lambda env, *ev: env.all_of(ev), order, same_time)
        assert all_of == expected
        names = [entry[0] for entry in expected[0]]
        assert names.index("m2") < names.index("resumed") < names.index("m3")

    @pytest.mark.parametrize("same_time", [False, True])
    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_any_of_fires_where_pinned(self, order, same_time):
        any_of = self._trace(lambda env, *ev: env.any_of(ev), order, same_time)
        assert any_of == self.ANY_OF_TRACES[order, same_time]

    def test_value_is_none_and_builds_no_condition_value(self, env):
        a, b = env.timeout(1, value="a"), env.timeout(2, value="b")

        def proc():
            got = yield Join(env, a, b)
            return got, env.now

        assert env.run(env.process(proc())) == (None, 2.0)
        assert not hasattr(Join(env, a, b), "_build_value")

    def test_processed_sub_events_fire_at_construction(self, env):
        a, b = env.event(), env.event()
        a.succeed()
        b.succeed()
        env.run()
        join = Join(env, a, b)
        assert join.triggered and join.ok

    def test_failed_sub_event_fails_the_join_and_is_defused(self, env):
        bad = env.event()
        slow = env.timeout(5)

        def failer():
            yield env.timeout(1)
            bad.fail(RuntimeError("inner"))

        def waiter():
            with pytest.raises(RuntimeError, match="inner"):
                yield Join(env, bad, slow)
            return env.now

        env.process(failer())
        assert env.run(env.process(waiter())) == 1.0
        assert bad._defused
        env.run()  # the surviving sub-event still processes cleanly

    def test_failed_straggler_after_join_fired_is_defused(self, env):
        first, straggler = env.event(), env.event()

        def trigger():
            yield env.timeout(1)
            first.fail(RuntimeError("first"))
            yield env.timeout(1)
            straggler.fail(ValueError("straggler"))

        def waiter():
            with pytest.raises(RuntimeError, match="first"):
                yield Join(env, first, straggler)
            yield env.timeout(5)
            return "survived"

        env.process(trigger())
        assert env.run(env.process(waiter())) == "survived"
        assert straggler._defused

    def test_mixed_environment_rejected(self, env):
        with pytest.raises(ValueError):
            Join(env, env.timeout(1), Environment().timeout(1))

    def test_many_events_fire_with_the_last(self, env):
        events = [env.timeout(t) for t in (3, 1, 2)]

        def proc():
            yield Join(env, *events)
            return env.now

        assert env.run(env.process(proc())) == 3.0

    def test_no_events_rejected(self, env):
        with pytest.raises(ValueError):
            Join(env)
        with pytest.raises(ValueError):
            AnyOf(env, [])

class TestRunSemantics:
    def test_run_until_time(self, env):
        ticks = []

        def clock(env):
            while True:
                yield env.timeout(1)
                ticks.append(env.now)

        env.process(clock(env))
        env.run(until=3.5)
        assert ticks == [1, 2, 3]
        assert env.now == pytest.approx(3.5)

    def test_run_until_past_time_rejected(self, env):
        env.timeout(10)
        env.run()
        with pytest.raises(ValueError):
            env.run(until=5)

    def test_run_empty_returns_none(self, env):
        assert env.run() is None

    def test_run_until_never_triggered_event_raises(self, env):
        ev = env.event()
        env.timeout(1)
        with pytest.raises(SimulationError):
            env.run(until=ev)

    def test_run_until_already_processed_event(self, env):
        ev = env.event()
        ev.succeed("early")
        env.run()
        assert env.run(until=ev) == "early"

    def test_peek(self, env):
        assert env.peek() == float("inf")
        env.timeout(4.2)
        assert env.peek() == pytest.approx(4.2)
