"""Unit tests for Resource / Store."""

import pytest

from repro.sim import Environment, Resource, Store


@pytest.fixture
def env():
    return Environment()


class TestResource:
    def test_capacity_validation(self, env):
        with pytest.raises(ValueError):
            Resource(env, capacity=0)

    def test_mutual_exclusion(self, env):
        res = Resource(env, capacity=1)
        trace = []

        def user(env, name, hold):
            with res.request() as req:
                yield req
                trace.append((env.now, name, "acquired"))
                yield env.timeout(hold)
            trace.append((env.now, name, "released"))

        env.process(user(env, "a", 2))
        env.process(user(env, "b", 2))
        env.run()
        assert trace == [
            (0, "a", "acquired"),
            (2, "a", "released"),
            (2, "b", "acquired"),
            (4, "b", "released"),
        ]

    def test_capacity_two_allows_two_concurrent(self, env):
        res = Resource(env, capacity=2)
        acquired_at = []

        def user(env):
            with res.request() as req:
                yield req
                acquired_at.append(env.now)
                yield env.timeout(1)

        for _ in range(3):
            env.process(user(env))
        env.run()
        assert acquired_at == [0, 0, 1]

    def test_fifo_ordering(self, env):
        res = Resource(env, capacity=1)
        order = []

        def user(env, name, arrive):
            yield env.timeout(arrive)
            with res.request() as req:
                yield req
                order.append(name)
                yield env.timeout(10)

        for i, name in enumerate(["first", "second", "third"]):
            env.process(user(env, name, i * 0.1))
        env.run()
        assert order == ["first", "second", "third"]

    def test_counts(self, env):
        res = Resource(env, capacity=2)

        def holder(env):
            req = res.request()
            yield req
            yield env.timeout(5)
            res.release(req)

        env.process(holder(env))
        env.process(holder(env))
        env.process(holder(env))
        env.run(until=1)
        assert res.in_use == 2
        assert res.available == 0
        assert len(res.queue) == 1
        env.run()
        assert res.in_use == 0

    def test_release_unfulfilled_request_cancels(self, env):
        res = Resource(env, capacity=1)

        def holder(env):
            req = res.request()
            yield req
            yield env.timeout(10)
            res.release(req)

        def impatient(env):
            req = res.request()
            yield env.any_of([req, env.timeout(1)])
            if not req.processed:
                res.release(req)  # give up the queued claim
                return "gave-up"
            return "got-it"

        env.process(holder(env))
        p = env.process(impatient(env))
        assert env.run(p) == "gave-up"
        assert list(res.queue) == []


class TestStore:
    def test_put_then_get(self, env):
        store = Store(env)

        def proc(env):
            yield store.put("item")
            value = yield store.get()
            return value

        assert env.run(env.process(proc(env))) == "item"

    def test_get_blocks_until_put(self, env):
        store = Store(env)
        got = []

        def consumer(env):
            item = yield store.get()
            got.append((env.now, item))

        def producer(env):
            yield env.timeout(3)
            yield store.put("late")

        env.process(consumer(env))
        env.process(producer(env))
        env.run()
        assert got == [(3, "late")]

    def test_fifo_items(self, env):
        store = Store(env)

        def proc(env):
            for i in range(3):
                yield store.put(i)
            out = []
            for _ in range(3):
                out.append((yield store.get()))
            return out

        assert env.run(env.process(proc(env))) == [0, 1, 2]

    def test_filter_get(self, env):
        store = Store(env)

        def proc(env):
            for tag in ("red", "green", "blue"):
                yield store.put(tag)
            green = yield store.get(lambda item: item == "green")
            rest = [(yield store.get()), (yield store.get())]
            return green, rest

        green, rest = env.run(env.process(proc(env)))
        assert green == "green"
        assert rest == ["red", "blue"]

    def test_filter_get_blocks_until_match(self, env):
        store = Store(env)
        got = []

        def consumer(env):
            item = yield store.get(lambda i: i % 2 == 0)
            got.append((env.now, item))

        def producer(env):
            yield env.timeout(1)
            yield store.put(1)
            yield env.timeout(1)
            yield store.put(4)

        env.process(consumer(env))
        env.process(producer(env))
        env.run()
        assert got == [(2, 4)]
        assert store.items == [1]

    def test_capacity_blocks_put(self, env):
        store = Store(env, capacity=1)
        done = []

        def producer(env):
            yield store.put("a")
            yield store.put("b")
            done.append(env.now)

        def consumer(env):
            yield env.timeout(5)
            yield store.get()

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert done == [5]

    def test_peek_is_nondestructive(self, env):
        store = Store(env)

        def proc(env):
            yield store.put(10)
            yield store.put(20)
            assert store.peek() == 10
            assert store.peek(lambda i: i > 15) == 20
            assert store.peek(lambda i: i > 99) is None
            assert len(store) == 2
            yield env.timeout(0)

        env.run(env.process(proc(env)))

    def test_two_getters_one_item(self, env):
        store = Store(env)
        winners = []

        def consumer(env, name):
            item = yield store.get()
            winners.append((name, item))

        env.process(consumer(env, "first"))
        env.process(consumer(env, "second"))

        def producer(env):
            yield env.timeout(1)
            yield store.put("only")

        env.process(producer(env))
        env.run(until=10)
        assert winners == [("first", "only")]


class _ReferenceStore:
    """The seed's Store dispatch: a full getters × items fixpoint rescan
    after every operation.  O(getters × items) per op but obviously
    correct — the optimized targeted-rescan Store must grant in exactly
    this order.
    """

    def __init__(self, capacity=float("inf")):
        self.capacity = capacity
        self.items = []
        self.getters = []  # (gid, filter)
        self.putters = []  # (pid, item)
        self.grants = []   # ("put", pid) / ("get", gid, item) in grant order

    def put(self, pid, item):
        self.putters.append((pid, item))
        self._dispatch()

    def get(self, gid, flt=None):
        self.getters.append((gid, flt))
        self._dispatch()

    def _dispatch(self):
        progressed = True
        while progressed:
            progressed = False
            while self.putters and len(self.items) < self.capacity:
                pid, item = self.putters.pop(0)
                self.items.append(item)
                self.grants.append(("put", pid))
                progressed = True
            remaining = []
            for gid, flt in self.getters:
                for idx, item in enumerate(self.items):
                    if flt is None or flt(item):
                        self.items.pop(idx)
                        self.grants.append(("get", gid, item))
                        progressed = True
                        break
                else:
                    remaining.append((gid, flt))
            self.getters = remaining


class TestStoreMatchesReference:
    """Property test: random op sequences grant identically to the
    reference fixpoint dispatch (order included)."""

    FILTERS = {
        None: None,
        "even": lambda i: i % 2 == 0,
        "big": lambda i: i >= 5,
        "never": lambda i: False,
    }

    def _run_sequence(self, ops, capacity):
        import itertools

        env = Environment()
        store = Store(env, capacity=capacity)
        grants = []

        def do_put(env, pid, item):
            yield store.put(item)
            grants.append(("put", pid))

        def do_get(env, gid, flt):
            item = yield store.get(flt)
            grants.append(("get", gid, item))

        ref = _ReferenceStore(capacity)
        pid = itertools.count()
        gid = itertools.count()
        for op, arg in ops:
            if op == "put":
                i = next(pid)
                env.process(do_put(env, i, arg))
                env.run()
                ref.put(i, arg)
            else:
                i = next(gid)
                env.process(do_get(env, i, self.FILTERS[arg]))
                env.run()
                ref.get(i, self.FILTERS[arg])
        return grants, ref.grants, sorted(store.items), sorted(ref.items)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_ops_grant_identically(self, seed):
        import random

        rng = random.Random(seed)
        capacity = rng.choice([2, 3, float("inf")])
        ops = []
        for _ in range(60):
            if rng.random() < 0.55:
                ops.append(("put", rng.randrange(10)))
            else:
                ops.append(("get", rng.choice([None, "even", "big", "never"])))
        got, want, items_got, items_want = self._run_sequence(ops, capacity)
        assert got == want
        assert items_got == items_want


class TestResourceFifoProperty:
    def test_grant_order_is_arrival_order_under_churn(self, env):
        """Random request/release interleavings grant strictly FIFO."""
        import random

        rng = random.Random(3)
        res = Resource(env, capacity=2)
        granted = []

        def user(env, name):
            yield env.timeout(round(rng.uniform(0, 2), 3))
            with res.request() as req:
                arrival = (env.now, name)
                yield req
                granted.append(arrival)
                yield env.timeout(round(rng.uniform(0.1, 1), 3))

        for i in range(40):
            env.process(user(env, i))
        env.run()
        # Arrival order == (arrival time, spawn order) here because ties
        # in arrival time queue in process-creation order.
        assert granted == sorted(granted)
        assert len(granted) == 40


class TestInterruptSafety:
    """Interrupting a process must never leak resource slots or queue spots."""

    def test_interrupted_waiter_leaves_the_queue(self, env):
        from repro.sim import Interrupt

        res = Resource(env, capacity=1)
        acquired = []

        def holder(env):
            with res.request() as req:
                yield req
                yield env.timeout(10)

        def impatient(env):
            try:
                with res.request() as req:
                    yield req
                    acquired.append("impatient")
            except Interrupt:
                pass

        def late(env):
            yield env.timeout(2)
            with res.request() as req:
                yield req
                acquired.append(("late", env.now))

        env.process(holder(env))
        victim = env.process(impatient(env))
        env.process(late(env))

        def killer(env):
            yield env.timeout(1)
            victim.interrupt("changed my mind")

        env.process(killer(env))
        env.run()
        # The interrupted waiter's ghost request must not block the line:
        # "late" gets the slot the moment the holder releases.
        assert acquired == [("late", 10)]
        assert res.in_use == 0
        assert len(res.queue) == 0

    def test_interrupted_holder_releases_on_exit(self, env):
        from repro.sim import Interrupt

        res = Resource(env, capacity=1)
        times = []

        def holder(env):
            try:
                with res.request() as req:
                    yield req
                    yield env.timeout(100)
            except Interrupt as exc:
                times.append(("interrupted", env.now, exc.cause))

        def waiter(env):
            with res.request() as req:
                yield req
                times.append(("acquired", env.now))

        victim = env.process(holder(env))
        env.process(waiter(env))

        def killer(env):
            yield env.timeout(3)
            victim.interrupt("preempted")

        env.process(killer(env))
        env.run()
        assert times == [("interrupted", 3, "preempted"), ("acquired", 3)]
        assert res.in_use == 0
