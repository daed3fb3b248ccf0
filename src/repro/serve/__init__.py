"""Online service mode: open-loop query arrivals (ROADMAP item 1).

Instead of the paper's closed batch (a fixed query list drained to
completion), :mod:`repro.serve` streams queries *into* a running master
from a seeded arrival process — Poisson, bursty (Markov-modulated on/off),
or diurnal — with admission control (bounded pending queue, reject/shed
policies, a priority lane) and per-query completion-latency tracking
(arrival → result durable on the PVFS volume).

:mod:`~repro.serve.arrivals` generates the arrivals,
:class:`~repro.serve.admission.Admission` decides each one for its
master, and :func:`~repro.serve.state.serve_stats` summarizes one or
more masters' :class:`~repro.serve.state.ServeState`.
"""

from .arrivals import (
    ADMISSION_POLICIES,
    ARRIVAL_PROCESSES,
    ArrivalConfig,
    arrival_process,
    arrival_times,
)
from .admission import Admission
from .state import ServeState, format_latency, serve_stats

__all__ = [
    "ADMISSION_POLICIES",
    "Admission",
    "ARRIVAL_PROCESSES",
    "ArrivalConfig",
    "ServeState",
    "arrival_process",
    "arrival_times",
    "format_latency",
    "serve_stats",
]
