"""Golden for the CLI's checked output, byte for byte.

Pins the full stdout of the checked ``run``, ``serve`` and ``hybrid``
commands at the CI smoke sizes: the summary line, the phase table, the
fault counters, the serve and shard tables and the invariant checker's
closing lines.  None of these carry host timing, so the same command
prints the same bytes on every run.

Regenerate it only for an intended change of simulated timing or of the
printed format::

    PYTHONPATH=src python tests/integration/test_cli_golden.py --record
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from repro.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")
FAULT_PLAN = str(
    Path(__file__).resolve().parents[2] / "examples" / "fault_plan_replicated.json"
)

CASES = {
    "run-ww-list": [
        "run", "--nprocs", "4", "--nqueries", "2", "--nfragments", "4",
        "--check",
    ],
    "run-mw-sync": [
        "run", "--nprocs", "4", "--nqueries", "2", "--nfragments", "4",
        "--strategy", "mw", "--query-sync", "--check",
    ],
    "run-replicated-faults": [
        "run", "--nprocs", "4", "--nqueries", "3", "--nfragments", "6",
        "--strategy", "ww-posix", "--server-cache-mib", "4", "--replicas", "2",
        "--fault-plan", FAULT_PLAN, "--check",
    ],
    "serve": [
        "serve", "--preset", "poisson", "--arrival-rate", "50",
        "--nqueries", "24", "--nprocs", "4", "--nfragments", "4",
        "--max-pending", "8", "--check",
    ],
    "serve-sharded": [
        "serve", "--masters", "2", "--nprocs", "8", "--nqueries", "16",
        "--nfragments", "4", "--arrival-rate", "40", "--placement", "range",
        "--admission", "shed", "--max-pending", "3",
        "--priority-fraction", "0.25", "--check",
    ],
    "hybrid": [
        "hybrid", "--partitions", "2", "--nprocs", "8", "--nqueries", "4",
        "--nfragments", "4", "--check",
    ],
}


def capture(name: str) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(CASES[name]))
    return {"exit": code, "stdout": out.getvalue()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", CASES)
def test_cli_matches_golden(golden, name):
    assert capture(name) == golden[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_cli_golden.py --record")
    GOLDEN.write_text(
        json.dumps({name: capture(name) for name in CASES}, indent=1,
                   sort_keys=True) + "\n"
    )
    print(f"recorded {len(CASES)} cases to {GOLDEN}")
