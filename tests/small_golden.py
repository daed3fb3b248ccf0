"""The small-config seed golden shared by the bit-identity suites.

Every subsystem that must be invisible when switched off (metrics, the
checker, the server I/O stack, serve mode, sharding) pins a default run
at ``SMALL`` to these completion times.  Any event added, removed, or
reordered on the batch path shows up here first.
"""

SMALL = dict(nprocs=4, nqueries=3, nfragments=6)

#: Completion times of a default run at ``SMALL``, per strategy.
GOLDEN = {
    "mw": 25.410715708394612,
    "ww-posix": 24.30148509613702,
    "ww-list": 21.376782075112857,
    "ww-coll": 21.79613852776962,
}
