"""Simulated MPI: ranks, point-to-point messaging, collectives.

A timing-faithful simulation of the MPI subset parallel sequence-search
tools rely on (per the paper: MPI_Send/Recv/Isend/Irecv/Test/Wait plus the
collectives that ROMIO's two-phase I/O uses), built on the DES kernel.
"""

from .collectives import (
    allgather,
    allreduce,
    alltoallv,
    barrier,
    bcast,
    gather,
    gatherv,
    reduce,
    scatter,
    scatterv,
)
from .communicator import Communicator, RankComm
from .constants import ANY_SOURCE, ANY_TAG, collective_tag
from .mailbox import Mailbox
from .message import Envelope, Status
from .network import Network, NetworkConfig, Nic, KIB, MIB
from .request import RecvRequest, Request, SendRequest
from .world import MpiWorld

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "Communicator",
    "Envelope",
    "KIB",
    "MIB",
    "Mailbox",
    "MpiWorld",
    "Network",
    "NetworkConfig",
    "Nic",
    "RankComm",
    "RecvRequest",
    "Request",
    "SendRequest",
    "Status",
    "allgather",
    "allreduce",
    "alltoallv",
    "barrier",
    "bcast",
    "collective_tag",
    "gather",
    "gatherv",
    "reduce",
    "scatter",
    "scatterv",
]
