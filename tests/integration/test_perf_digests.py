"""Golden for the host benchmark's simulated outputs.

``benchmarks/perf/run.py`` digests every simulation it times (elapsed
time, file, server and serve counters, phase means).  A change meant to
speed the simulator up must leave those digests alone; this test pins
them for all five workloads at two seeds, so bit-identity is checked on
every test run rather than by hand.

The workloads and the digest function are loaded from the benchmark
script by path, so the test always digests exactly what the benchmark
runs.  Regenerate only for an intended change of simulated results::

    PYTHONPATH=src python tests/integration/test_perf_digests.py --record
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from repro.core import S3aSim
from repro.shard import MasterGroup

GOLDEN = Path(__file__).with_name("perf_digests.json")
RUNNER = Path(__file__).resolve().parents[2] / "benchmarks" / "perf" / "run.py"
SEEDS = (2006, 2007)


def load_runner():
    spec = importlib.util.spec_from_file_location("perf_run", RUNNER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


RUN = load_runner()
CASES = [f"{name}@{seed}" for name in RUN.WORKLOADS for seed in SEEDS]


def digests(case: str) -> list:
    """One digest per simulation of the workload, in workload order."""
    name, seed = case.split("@")
    out = []
    for cfg in RUN.WORKLOADS[name](int(seed)):
        app = (MasterGroup if cfg.shard is not None else S3aSim)(cfg)
        result = app.run()
        assert RUN.result_problem(result) is None
        out.append(RUN.result_digest(result))
    return out


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_workload(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_digests_match_golden(golden, case):
    assert digests(case) == golden[case]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_perf_digests.py --record")
    GOLDEN.write_text(
        json.dumps({case: digests(case) for case in CASES}, indent=1) + "\n"
    )
    print(f"recorded {len(CASES)} cases to {GOLDEN}")
