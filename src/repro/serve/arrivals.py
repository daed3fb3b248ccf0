"""Seeded open-loop arrival generators and the kernel injection process.

Three presets cover the service regimes the I/O strategies compete in:

* ``poisson`` — memoryless arrivals at ``rate`` queries/second, the
  classic open-loop baseline.
* ``bursty`` — a two-state Markov-modulated Poisson process: exponential
  on/off phases (mean ``burst_on_s`` / ``burst_off_s``); while *on*, the
  instantaneous rate is scaled so the long-run mean stays ``rate``.
* ``diurnal`` — a sinusoidally modulated rate
  ``rate * (1 + amplitude * sin(2*pi*t / period_s))``, sampled exactly via
  Lewis-Shedler thinning against the peak rate.

Arrival times are produced lazily (one draw per arrival, never a
pre-materialized schedule), so a run can offer ~1M queries without holding
them; all draws come from the path-addressed stream factory under
``("arrivals",)`` so batch runs — which never touch that path — stay
bit-identical to the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

from ..sim.rng import RandomStreams

#: The supported arrival processes, in documentation order.
ARRIVAL_PROCESSES: Tuple[str, ...] = ("poisson", "bursty", "diurnal")

#: What to do with an arrival that finds the pending queue full:
#: ``reject`` turns it away; ``shed`` drops the youngest not-yet-started
#: non-priority query in its favour (falling back to reject when every
#: pending query is already running or priority).
ADMISSION_POLICIES: Tuple[str, ...] = ("reject", "shed")


@dataclass(frozen=True)
class ArrivalConfig:
    """One run's open-loop arrival model and admission policy."""

    #: Arrival process preset (see :data:`ARRIVAL_PROCESSES`).
    process: str = "poisson"
    #: Long-run mean offered load, queries per (simulated) second.
    rate: float = 20.0
    #: Stop offering new arrivals after this much simulated time; ``None``
    #: offers until ``nqueries`` arrivals have been generated.
    horizon_s: Optional[float] = None

    #: Bursty preset: mean lengths of the on and off phases.
    burst_on_s: float = 4.0
    burst_off_s: float = 4.0

    #: Diurnal preset: modulation period and relative amplitude (0..1).
    period_s: float = 120.0
    amplitude: float = 0.8

    #: Admission control: maximum admitted-but-not-yet-durable queries.
    max_pending: int = 64
    #: Over-limit behaviour (see :data:`ADMISSION_POLICIES`).
    policy: str = "reject"
    #: Fraction of arrivals flagged priority: they jump the unassigned
    #: task queue (except under WW-Coll, whose group gate requires FIFO
    #: query order) and are never shed.
    priority_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.process not in ARRIVAL_PROCESSES:
            raise ValueError(
                f"arrival process must be one of {ARRIVAL_PROCESSES}, "
                f"got {self.process!r}"
            )
        if not self.rate > 0:
            raise ValueError(f"arrival rate must be positive, got {self.rate}")
        if self.horizon_s is not None and self.horizon_s < 0:
            raise ValueError(f"horizon_s must be >= 0, got {self.horizon_s}")
        if not self.burst_on_s > 0:
            raise ValueError(f"burst_on_s must be positive, got {self.burst_on_s}")
        if self.burst_off_s < 0:
            raise ValueError(f"burst_off_s must be >= 0, got {self.burst_off_s}")
        if not self.period_s > 0:
            raise ValueError(f"period_s must be positive, got {self.period_s}")
        if not 0.0 <= self.amplitude <= 1.0:
            raise ValueError(f"amplitude must be in [0, 1], got {self.amplitude}")
        if self.max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {self.max_pending}")
        if self.policy not in ADMISSION_POLICIES:
            raise ValueError(
                f"admission policy must be one of {ADMISSION_POLICIES}, "
                f"got {self.policy!r}"
            )
        if not 0.0 <= self.priority_fraction <= 1.0:
            raise ValueError(
                f"priority_fraction must be in [0, 1], "
                f"got {self.priority_fraction}"
            )


def _poisson_times(cfg: ArrivalConfig, rng) -> Iterator[float]:
    scale = 1.0 / cfg.rate
    t = 0.0
    while True:
        t += rng.exponential(scale)
        yield t


def _bursty_times(cfg: ArrivalConfig, rng) -> Iterator[float]:
    # The on-phase rate is inflated by the duty cycle so the long-run mean
    # over on+off phases is exactly ``rate``.
    on_rate = cfg.rate * (cfg.burst_on_s + cfg.burst_off_s) / cfg.burst_on_s
    scale = 1.0 / on_rate
    t = 0.0
    while True:
        on_end = t + rng.exponential(cfg.burst_on_s)
        nxt = t + rng.exponential(scale)
        while nxt < on_end:
            yield nxt
            nxt += rng.exponential(scale)
        t = on_end + rng.exponential(cfg.burst_off_s)


def _diurnal_times(cfg: ArrivalConfig, rng) -> Iterator[float]:
    # Lewis-Shedler thinning: candidates at the peak rate, each kept with
    # probability lambda(t) / lambda_max.  Exact for any bounded rate.
    lam_max = cfg.rate * (1.0 + cfg.amplitude)
    scale = 1.0 / lam_max
    two_pi = 2.0 * math.pi
    t = 0.0
    while True:
        t += rng.exponential(scale)
        lam = cfg.rate * (
            1.0 + cfg.amplitude * math.sin(two_pi * t / cfg.period_s)
        )
        if rng.random() * lam_max <= lam:
            yield t


_GENERATORS = {
    "poisson": _poisson_times,
    "bursty": _bursty_times,
    "diurnal": _diurnal_times,
}


def arrival_times(
    cfg: ArrivalConfig, streams: RandomStreams, limit: int
) -> Iterator[Tuple[float, bool]]:
    """Lazily yield ``(time, priority)`` pairs for at most ``limit`` arrivals.

    Deterministic in (seed, config): the times come from the
    ``("arrivals", process)`` stream, the priority coin from
    ``("arrivals", "priority")`` — one draw per arrival, in arrival order.
    Stops at ``cfg.horizon_s`` (when set) or after ``limit`` arrivals,
    whichever comes first.
    """
    spawn = streams.spawn("arrivals")
    rng = spawn.stream(cfg.process)
    priority_rng = (
        spawn.stream("priority") if cfg.priority_fraction > 0 else None
    )
    produced = 0
    for t in _GENERATORS[cfg.process](cfg, rng):
        if cfg.horizon_s is not None and t > cfg.horizon_s:
            return
        if produced >= limit:
            return
        produced += 1
        priority = (
            priority_rng is not None
            and float(priority_rng.random()) < cfg.priority_fraction
        )
        yield float(t), priority


def arrival_process(env, target, cfg, streams: RandomStreams, limit: int):
    """Kernel process: inject arrivals into the running service.

    ``target`` (a master's :class:`~repro.serve.admission.Admission`, or
    the router of a sharded run) needs ``on_arrival(priority)`` and
    ``arrivals_finished()``; both are synchronous admission decisions
    taken at the arrival instant (open loop: a rejected arrival never
    retries).
    """
    for t, priority in arrival_times(cfg, streams, limit):
        if t > env.now:
            yield env.timeout(t - env.now)
        target.on_arrival(priority)
    target.arrivals_finished()
