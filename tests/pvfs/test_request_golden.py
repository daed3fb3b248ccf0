"""Golden for the PVFS client request path, driven on a bare FileSystem.

Four clients issue seeded streams of ``write_list``, ``read_list`` and
``sync`` calls against one file, with no NIC wired in (each client's
transmissions serialize on the file system's own per-client lane).  The
cases cover the server stacks a subrequest can meet: FIFO, FIFO with
read-ahead, the elevator, and the elevator with a 64 KiB write-back cache
and read-ahead.  Each stack runs healthy and with one outage window and
one degraded-disk window; a ``replicas=2`` case is the control for the
replicated chains.

Each case records every call's completion instant in completion order,
the file system's ``fault_stats``, every server's ``ServerStats`` and the
total of every metrics counter.

Regenerate it only for an intended change of simulated timing::

    PYTHONPATH=src python tests/pvfs/test_request_golden.py --record
"""

from __future__ import annotations

import dataclasses
import json
import random
import sys
from pathlib import Path

import pytest

from repro.obs import MetricsRegistry
from repro.pvfs import FileSystem, PVFSConfig
from repro.sim import Environment

GOLDEN = Path(__file__).with_name("request_golden.json")
KIB = 1024
NCLIENTS = 4
NCALLS = 14
#: Scattered writes land in distinct 4 KiB cells of [0, SCATTER_B); cell
#: ``k`` belongs to client ``k % NCLIENTS`` (the file refuses overlapping
#: writes).  Random reads fall anywhere in the same span.
CELL_B = 4 * KIB
SCATTER_B = 4 * 1024 * KIB
#: Block writes walk forward through each client's own area above the
#: scattered span; sequential reads walk the next client's area.
AREA_B = 2 * 1024 * KIB
STRIDE_B = 160 * KIB
THINKS = (0.0, 0.0, 1e-3, 5e-3, 2e-2)

STACKS = {
    "fifo": dict(),
    "fifo-readahead": dict(readahead_B=128 * KIB),
    "elevator": dict(disk_sched="elevator"),
    "fifo-cache": dict(server_cache_B=64 * KIB),
    "elevator-cache-readahead": dict(
        disk_sched="elevator", server_cache_B=64 * KIB, readahead_B=128 * KIB
    ),
}
#: Server 1 is unreachable in [OUTAGE); server 2's disk is 4x slower in
#: [DEGRADED).  Both windows open while every client still has calls
#: in flight.
OUTAGE = (0.05, 0.12)
DEGRADED = (0.02, 0.09)


def make_stream(client: int, seed: int) -> list:
    """Calls as ``(kind, regions, think)``: scattered writes, block
    writes, random reads, sequential reads and syncs."""
    rng = random.Random(seed * 1000 + client)
    cells = list(range(client, SCATTER_B // CELL_B, NCLIENTS))
    rng.shuffle(cells)
    block = SCATTER_B + client * AREA_B
    seq = SCATTER_B + (client + 1) % NCLIENTS * AREA_B
    calls = []
    for _ in range(NCALLS):
        roll = rng.random()
        if roll < 0.3:
            regions = []
            for _ in range(rng.randint(1, 24)):
                skip = rng.randrange(0, CELL_B, 512)
                regions.append(
                    (cells.pop() * CELL_B + skip, rng.randint(1, CELL_B - skip))
                )
            kind = "write"
        elif roll < 0.45:
            regions, block = [(block, STRIDE_B)], block + STRIDE_B
            kind = "write"
        elif roll < 0.6:
            regions = [
                (rng.randrange(0, SCATTER_B, 512), rng.randint(1, 64 * KIB))
                for _ in range(rng.randint(1, 24))
            ]
            kind = "read"
        elif roll < 0.8:
            regions, seq = [(seq, STRIDE_B)], seq + STRIDE_B
            kind = "read"
        else:
            regions, kind = None, "sync"
        calls.append((kind, regions, rng.choice(THINKS)))
    return calls


def _faults(env: Environment, fs: FileSystem):
    yield env.timeout(DEGRADED[0])
    fs.set_degraded(2, 4.0)
    yield env.timeout(OUTAGE[0] - DEGRADED[0])
    fs.fail_server(1)
    yield env.timeout(DEGRADED[1] - OUTAGE[0])
    fs.clear_degraded(2)
    yield env.timeout(OUTAGE[1] - DEGRADED[1])
    fs.restore_server(1)


def snapshot(stack: str, faults: bool, replicas: int = 1, seed: int = 7) -> dict:
    env = Environment()
    env.metrics = MetricsRegistry()
    fs = FileSystem(
        env,
        PVFSConfig(nservers=4, listio_max_regions=8, replicas=replicas,
                   **STACKS[stack]),
    )
    completions = []

    def client(cid: int):
        f = yield from fs.open(cid, "/golden")
        for index, (kind, regions, think) in enumerate(make_stream(cid, seed)):
            if kind == "write":
                yield from fs.write_list(cid, f, regions)
            elif kind == "read":
                yield from fs.read_list(cid, f, regions)
            else:
                yield from fs.sync(cid, f)
            completions.append((env.now, cid, index, kind))
            if think:
                yield env.timeout(think)

    for cid in range(NCLIENTS):
        env.process(client(cid), name=f"client{cid}")
    if faults:
        env.process(_faults(env, fs), name="faults")
    env.run()
    assert len(completions) == NCLIENTS * NCALLS
    metrics = env.metrics.snapshot()
    record = {
        "completions": completions,
        "fault_stats": fs.fault_stats,
        "counters": {
            name: metrics.counter_total(name) for name in metrics.counter_names()
        },
        "servers": [dataclasses.asdict(s.stats) for s in fs.servers],
        "end": env.now,
    }
    # JSON round trip: the comparison sees exactly what the file stores
    # (floats survive it bit for bit).
    return json.loads(json.dumps(record, sort_keys=True))


CASES = {
    **{f"{stack}": (stack, False, 1) for stack in STACKS},
    **{f"{stack}-faults": (stack, True, 1) for stack in STACKS},
    "fifo-faults-replicas2": ("fifo", True, 2),
    "elevator-cache-readahead-faults-replicas2": (
        "elevator-cache-readahead", True, 2
    ),
}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", CASES)
def test_request_path_matches_golden(golden, name):
    assert snapshot(*CASES[name]) == golden[name]


def test_fault_cases_hit_the_outage():
    """The windows do land on traffic: clients back off during the
    outage, and the replicated control writes in degraded mode."""
    plain = snapshot("fifo", True)
    assert plain["fault_stats"]["retries"] > 0
    replicated = snapshot("fifo", True, replicas=2)
    assert replicated["fault_stats"]["degraded_writes"] > 0


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_request_golden.py --record")
    GOLDEN.write_text(
        json.dumps({name: snapshot(*args) for name, args in CASES.items()},
                   indent=1, sort_keys=True) + "\n"
    )
    print(f"recorded {len(CASES)} cases to {GOLDEN}")
