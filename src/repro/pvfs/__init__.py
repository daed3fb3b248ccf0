"""Simulated PVFS2: striped parallel file system with list-I/O support."""

from .bytestore import ByteStore, OverlapError, merge_extents
from .cache import WriteBackCache
from .disk import DiskModel
from .filesystem import FileSystem, PVFSConfig, PVFSFile
from .layout import REPLICA_SLOT_B, Region, StripingLayout
from .replica import MissedLedger
from .sched import SCHEDULERS, DiskQueue, ElevatorPolicy
from .server import IOServer, MetadataServer, ServerStats

__all__ = [
    "ByteStore",
    "DiskModel",
    "DiskQueue",
    "ElevatorPolicy",
    "FileSystem",
    "IOServer",
    "MetadataServer",
    "MissedLedger",
    "OverlapError",
    "PVFSConfig",
    "PVFSFile",
    "REPLICA_SLOT_B",
    "Region",
    "SCHEDULERS",
    "ServerStats",
    "StripingLayout",
    "WriteBackCache",
    "merge_extents",
]
