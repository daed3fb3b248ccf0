"""Tests for :class:`~repro.sim.resources.Lane`.

A lane must serve holds exactly as ``request`` / ``timeout`` / ``release``
on a ``Resource(capacity=1)`` would: same completion instants, same
same-instant order.  The property test drives seeded random request
streams through both and compares every completion: process holders
yield ``hold``, callback holders use ``hold_then`` and ``call_in`` on
the lane side and a ``Resource`` with ``Timeout`` events on the other.
"""

import random
from functools import partial

import pytest

from repro.core import S3aSim, SimulationConfig, get_scenario
from repro.faults import FaultPlan, MessageLoss
from repro.mpi import MpiWorld, NetworkConfig
from repro.mpi.network import LinkFaults
from repro.sim import Environment, Interrupt, Lane, Process, Resource, Timeout

#: Dyadic values, so sums are exact and holds end exactly when others
#: arrive; zero-length holds and repeated lengths are in on purpose.
ARRIVALS = (0.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0)
HOLDS = (0.0, 0.25, 0.5, 0.5, 1.0)
THINKS = (0.0, 0.0, 0.25, 0.5)


def make_stream(seed: int) -> list:
    """Holders as ``(kind, arrival, [(hold, think), ...])``: each asks
    for its holds one after another, thinking between them."""
    rng = random.Random(seed)
    return [
        (
            rng.choice(("callback", "process")),
            rng.choice(ARRIVALS),
            [(rng.choice(HOLDS), rng.choice(THINKS)) for _ in range(rng.randint(1, 3))],
        )
        for _ in range(rng.randint(1, 12))
    ]


def run_stream(stream: list, use_lane: bool) -> list:
    """Completion stamps ``(time, holder, hold index)`` in event order."""
    env = Environment()
    lane = Lane(env)
    res = Resource(env, capacity=1)
    stamps = []

    def hold_then(seconds, then):
        """Callback holder: hold ``seconds``, then call ``then``."""
        if use_lane:
            lane.hold_then(seconds, then)
            return
        req = res.request()

        def granted(_event):
            def done(_event):
                res.release(req)
                then()

            Timeout(env, seconds).callbacks.append(done)

        req.callbacks.append(granted)

    def wait_then(seconds, then):
        """Callback holder's think time: a bare callable on the lane side,
        the ``Timeout`` it stands for on the reference side."""
        if use_lane:
            env.call_in(seconds, then)
        else:
            Timeout(env, seconds).callbacks.append(lambda _e: then())

    def callback_holder(name, holds):
        def step(i):
            seconds, think = holds[i]

            def finished():
                stamps.append((env.now, name, i))
                if i + 1 < len(holds):
                    wait_then(think, lambda: step(i + 1))

            hold_then(seconds, finished)

        return step

    def process_holder(name, arrival, holds):
        yield env.timeout(arrival)
        for i, (seconds, think) in enumerate(holds):
            if use_lane:
                yield lane.hold(seconds)
            else:
                with res.request() as req:
                    yield req
                    yield env.timeout(seconds)
            stamps.append((env.now, name, i))
            if i + 1 < len(holds):
                yield env.timeout(think)

    for name, (kind, arrival, holds) in enumerate(stream):
        if kind == "process":
            env.process(process_holder(name, arrival, holds))
        else:
            wait_then(arrival, partial(callback_holder(name, holds), 0))
    env.run()
    return stamps


class TestLaneMatchesResource:
    @pytest.mark.parametrize("seed", range(200))
    def test_random_streams_complete_identically(self, seed):
        stream = make_stream(seed)
        expected = run_stream(stream, use_lane=False)
        assert run_stream(stream, use_lane=True) == expected
        assert len(expected) == sum(len(holds) for _, _, holds in stream)

    def test_streams_cover_the_edge_cases(self):
        """The seeds above do reach the cases the property is about."""
        streams = [make_stream(seed) for seed in range(200)]
        same_instant = free_instant = zero = mixed = 0
        for stream in streams:
            arrivals = [arrival for _, arrival, _ in stream]
            same_instant += len(arrivals) != len(set(arrivals))
            zero += any(h == 0.0 for _, _, holds in stream for h, _ in holds)
            mixed += len({kind for kind, _, _ in stream}) == 2
            stamps = run_stream(stream, use_lane=True)
            ends = {t for t, _, _ in stamps}
            free_instant += any(a in ends and a > 0 for a in arrivals)
        assert min(same_instant, free_instant, zero, mixed) >= 20


class TestLaneBasics:
    def test_fifo_back_to_back(self):
        env = Environment()
        lane = Lane(env)
        ends = []
        for seconds in (2.0, 1.0, 3.0):
            lane.hold(seconds).callbacks.append(lambda _e: ends.append(env.now))
        assert lane.busy and lane.queued == 2
        env.run()
        assert ends == [2.0, 3.0, 6.0]
        assert not lane.busy and lane.queued == 0

    def test_idle_lane_schedules_one_event_per_hold(self):
        env = Environment()
        lane = Lane(env)
        lane.hold(1.0)
        lane.hold(1.0)
        # The first hold is in the heap; the second waits off-heap.
        assert env.queue_size == 1
        env.run()
        assert env.now == 2.0

    @pytest.mark.parametrize("bad", (-1.0, float("inf"), float("nan")))
    def test_bad_hold_rejected_idle_and_busy(self, bad):
        env = Environment()
        lane = Lane(env)
        with pytest.raises(ValueError):
            lane.hold(bad)
        assert not lane.busy
        lane.hold(1.0)
        with pytest.raises(ValueError):
            lane.hold(bad)
        assert lane.queued == 0

    def test_fresh_and_drained_lanes_queue_nothing(self):
        env = Environment()
        lane = Lane(env)
        assert lane.queued == 0 and repr(lane) == "<Lane busy=False queued=0>"
        lane.hold(1.0)
        assert lane.queued == 0 and repr(lane) == "<Lane busy=True queued=0>"
        lane.hold(1.0)
        assert lane.queued == 1
        env.run()
        assert lane.queued == 0 and repr(lane) == "<Lane busy=False queued=0>"
        lane.hold(1.0)
        lane.hold(2.0)
        assert lane.queued == 1
        env.run()
        assert env.now == 5.0 and lane.queued == 0

    def test_repr(self):
        env = Environment()
        lane = Lane(env)
        lane.hold(1.0)
        lane.hold(1.0)
        assert repr(lane) == "<Lane busy=True queued=1>"


class _AlwaysDrop:
    """A loss stream whose every draw drops (inside an active window)."""

    def random(self) -> float:
        return 0.0


class TestEagerRetransmitQueuesFifo:
    def test_dropped_send_reenters_tx_lane_behind_later_sends(self):
        """Rank 0's send A is dropped on its first crossing (t=2) and
        retransmits at t=3, while B (t=2.5) holds rank 0's TX lane and C
        (t=2.75) waits behind it.  A's fresh TX queues behind C: TX ends
        B 4.5, C 5.5, A 6.5, so A lands at rank 1 at 6.5 + 1 + 1 = 8.5.
        (Jumping ahead of C would land it at 7.5.)"""
        config = NetworkConfig(
            latency_s=1.0, bandwidth_Bps=1.0, cpu_overhead_s=0.0,
            eager_threshold_B=1024,
        )
        world = MpiWorld(3, config)
        env = world.env
        loss = MessageLoss(drop_prob=0.5, start=0.0, end=2.5, retransmit_timeout_s=1.0)
        world.network.install_faults(LinkFaults([loss], _AlwaysDrop()))
        landed = {}

        def main(comm):
            if comm.rank == 0:
                comm.isend(1, 1, 1, "A")
                yield env.timeout(2.5)
                comm.isend(2, 2, 2, "B")
                yield env.timeout(0.25)
                comm.isend(2, 3, 1, "C")
            else:
                tags = (1,) if comm.rank == 1 else (2, 3)
                for tag in tags:
                    payload = yield from comm.irecv(source=0, tag=tag).wait()
                    landed[payload] = env.now

        world.spawn_all(main)
        world.run()
        stats = world.network.faults.stats
        assert (stats.drops, stats.retransmits) == (1, 1)
        # B crosses at 5.5 and holds rank 2's RX until 7.5; C's RX follows.
        assert landed == {"B": 7.5, "C": 8.5, "A": 8.5}
        assert world.network.nic(0).stats.tx_messages == 4


class TestInterruptedHolder:
    def test_interrupt_stops_the_wait_but_not_the_hold(self):
        """Unlike a ``Resource`` slot, an interrupted holder's hold keeps
        the lane to its end: the next hold starts at 10, not at 3."""
        env = Environment()
        lane = Lane(env)
        log = []

        def holder():
            try:
                yield lane.hold(10.0)
            except Interrupt as exc:
                log.append(("interrupted", env.now, exc.cause))

        def waiter():
            yield env.timeout(1.0)
            yield lane.hold(2.0)
            log.append(("waiter done", env.now))

        victim = env.process(holder())
        env.process(waiter())

        def killer():
            yield env.timeout(3.0)
            victim.interrupt("preempted")

        env.process(killer())
        env.run()
        assert log == [("interrupted", 3.0, "preempted"), ("waiter done", 12.0)]
        assert not lane.busy

    @pytest.mark.parametrize(
        "strategy,scenario",
        [("mw", None), ("ww-list", None), ("ww-coll", None), ("hybrid-auto", "preload")],
    )
    def test_no_interrupted_process_ever_holds_a_lane(
        self, monkeypatch, strategy, scenario
    ):
        """The documented difference never matters: a worker crash is the
        only interrupt, and worker processes never wait on a lane hold
        themselves (sends and PVFS legs issue their holds in the worker's
        step as callback holds of their machines)."""
        spy = HoldSpy(monkeypatch)
        plan = FaultPlan.standard(crash_rank=1, crash_time=6.0, downtime_s=2.0)
        cfg = SimulationConfig(
            strategy=strategy, fault_plan=plan, nprocs=4, nqueries=4, nfragments=8,
        )
        if scenario is not None:
            cfg = get_scenario(scenario, cfg)
        result = S3aSim(cfg).run()
        assert result.fault_stats["crashes"] == 1
        assert spy.interrupted
        assert spy.dones or spy.then_holds, "the spy saw no lane hold"
        assert not spy.caught

    def test_spy_catches_a_worker_waiting_on_its_own_hold(self, monkeypatch):
        """Negative control: a rank process that yields its NIC's TX hold
        itself and is interrupted there is caught."""
        spy = HoldSpy(monkeypatch)
        world = MpiWorld(2, NetworkConfig.myrinet2000())
        env = world.env

        def main(comm):
            if comm.rank == 1:
                try:
                    yield comm.network.nic(1).tx.hold(10.0)
                except Interrupt:
                    pass
            else:
                yield env.timeout(3.0)
                world.rank_procs[1].interrupt("crash")

        world.spawn_all(main)
        world.run()
        assert spy.caught == [world.rank_procs[1]]


class HoldSpy:
    """Records the done event of every ``Lane.hold``, counts every
    ``Lane.hold_then`` (a callback hold, which no process can wait on),
    and records every process interrupted while it waits on a done event
    (``caught``)."""

    def __init__(self, monkeypatch) -> None:
        self.dones, self.interrupted, self.caught = set(), [], []
        self.then_holds = 0
        hold, hold_then, interrupt = Lane.hold, Lane.hold_then, Process.interrupt

        def recording_hold(lane, seconds):
            done = hold(lane, seconds)
            self.dones.add(done)
            return done

        def counting_hold_then(lane, seconds, then):
            self.then_holds += 1
            return hold_then(lane, seconds, then)

        def recording_interrupt(process, cause=None):
            self.interrupted.append(process)
            if process._target in self.dones:
                self.caught.append(process)
            return interrupt(process, cause)

        monkeypatch.setattr(Lane, "hold", recording_hold)
        monkeypatch.setattr(Lane, "hold_then", counting_hold_then)
        monkeypatch.setattr(Process, "interrupt", recording_interrupt)
