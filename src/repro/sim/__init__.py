"""Discrete-event simulation kernel.

A from-scratch process-interaction DES engine: generator-based processes,
events, one all-of wait (:class:`Join`, ``env.all_of``) and one any-of wait
(:class:`AnyOf`, ``env.any_of``), interrupts, and shared-resource
primitives.  Everything above this package (MPI, PVFS2, MPI-IO, S3aSim) is
expressed in terms of these primitives.
"""

from .environment import Environment
from .errors import EmptySchedule, Interrupt, SimulationError, StopSimulation
from .events import AnyOf, Event, Join, Timeout
from .process import Process
from .resources import Lane, Request, Resource, Store
from .rng import RandomStreams

__all__ = [
    "AnyOf",
    "EmptySchedule",
    "Environment",
    "Event",
    "Interrupt",
    "Join",
    "Lane",
    "Process",
    "RandomStreams",
    "Request",
    "Resource",
    "SimulationError",
    "StopSimulation",
    "Store",
    "Timeout",
]
