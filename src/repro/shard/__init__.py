"""Multi-master sharding: shard layout, placement and work stealing.

``ShardConfig``, ``place`` and the ``ArrivalRouter`` of sharded serve
runs live in :mod:`repro.shard.state`, imported eagerly
(:mod:`repro.core.config` needs it at class-definition time).  The steal
protocol between masters is :class:`repro.shard.steal.Stealing`; import
it from there (it needs :mod:`repro.core.protocol`).  The runner
is :class:`repro.core.app.S3aSim`, which builds every run, sharded or not;
``MasterGroup`` is its historical name.  Both it and
:class:`~repro.core.report.ShardedRunResult` load lazily, because
:mod:`repro.core` imports this package back.
"""

from .state import PLACEMENTS, ShardConfig, partition_ranks, place

__all__ = [
    "PLACEMENTS",
    "ShardConfig",
    "partition_ranks",
    "place",
    "MasterGroup",
    "ShardedRunResult",
]


def __getattr__(name):
    if name == "MasterGroup":
        from ..core.app import S3aSim

        return S3aSim
    if name == "ShardedRunResult":
        from ..core.report import ShardedRunResult

        return ShardedRunResult
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
