"""Golden for ``s3asim stats --compare`` output, byte for byte.

Pins the stdout and exit code of a metrics-on comparison of every
strategy on a small configuration with the server stack's cache and
elevator on: the counter, histogram and gauge tables carry no host
timing, so the same command prints the same bytes on every run.

Regenerate it only for an intended change of simulated timing, of the
metrics taken or of the printed format::

    PYTHONPATH=src python tests/integration/test_stats_golden.py --record
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

from repro.cli import main

GOLDEN = Path(__file__).with_name("stats_golden.json")

ARGS = [
    "stats", "--compare", "--nprocs", "4", "--nqueries", "2",
    "--nfragments", "4", "--server-cache-mib", "4", "--disk-sched", "elevator",
]


def capture() -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(ARGS))
    return {"args": ARGS, "exit": code, "stdout": out.getvalue()}


def test_stats_compare_matches_golden():
    assert capture() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_stats_golden.py --record")
    GOLDEN.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
    print(f"recorded to {GOLDEN}")
