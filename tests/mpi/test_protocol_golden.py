"""Message-timing golden for the point-to-point protocols and collectives.

A seeded script drives 8 ranks through eager (0 B and 64 KiB), rendezvous,
OOB and loopback sends, dissemination barriers and alltoallv exchanges.
Every send and receive completion is stamped ``(env.now, rank, op)`` by a
callback on its request, so the golden pins the exact simulated instant
*and* the same-timestamp order of every completion, plus the final NIC
counters.  Two networks run the script:

* ``shared-nic`` — two ranks per adapter, metrics and the invariant
  checker on (their counters and ledgers are part of the golden);
* ``lossy`` — two loss windows: a mild one that forces retransmissions
  and a harsh one with a one-retry budget that ends the run with a
  :class:`LinkFailure`.

The end-to-end goldens only see aggregates; this one guards the protocol
layer message by message.  Regenerate it only for an intended change of
simulated timing::

    PYTHONPATH=src python tests/mpi/test_protocol_golden.py --record
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.check import InvariantChecker
from repro.faults import MessageLoss
from repro.mpi import MpiWorld, NetworkConfig
from repro.mpi.collectives import alltoallv, barrier
from repro.mpi.network import LinkFailure, LinkFaults
from repro.obs import MetricsRegistry

GOLDEN = Path(__file__).with_name("protocol_golden.json")
KIB = 1024
NRANKS = 8
ROUNDS = 15
#: Round kinds, cycled: every kind recurs and timing from one carries over.
KINDS = ("p2p", "p2p", "barrier", "p2p", "alltoallv")
#: Eager floor, eager ceiling (== the default threshold), rendezvous.
SIZES = (0, 64 * KIB, 96 * KIB)


def make_script(seed: int = 2006) -> tuple:
    """Per-round operations and per-rank think times, drawn from ``seed``."""
    rng = random.Random(seed)
    ops = []
    for r in range(ROUNDS):
        kind = KINDS[r % len(KINDS)]
        if kind == "p2p":
            perm = list(range(NRANKS))
            rng.shuffle(perm)
            sizes = [rng.choice(SIZES) for _ in range(NRANKS)]
            oob = [rng.random() < 0.25 for _ in range(NRANKS)]
            ops.append(("p2p", perm, sizes, oob))
        elif kind == "barrier":
            ops.append(("barrier",))
        else:
            matrix = [
                [rng.choice((0,) * 5 + SIZES) for _ in range(NRANKS)]
                for _ in range(NRANKS)
            ]
            ops.append(("alltoallv", matrix))
    delays = [
        [rng.choice((0.0, 0.0, 1e-6, 3e-5, 4e-4)) for _ in range(ROUNDS)]
        for _ in range(NRANKS)
    ]
    return ops, delays


def build(name: str):
    """The 8-rank world of one network variant with the script spawned;
    returns ``(world, stamps, checker)``."""
    world = MpiWorld(NRANKS, NetworkConfig(ranks_per_nic=2))
    env = world.env
    checker = None
    if name == "shared-nic":
        env.metrics = MetricsRegistry()
        env.check = checker = InvariantChecker(env)
    if name == "lossy":
        windows = [
            MessageLoss(drop_prob=0.3, start=0.0, end=6e-3, retransmit_timeout_s=1e-4),
            MessageLoss(
                drop_prob=0.8, start=6e-3, retransmit_timeout_s=1e-4, max_retries=1
            ),
        ]
        world.network.install_faults(LinkFaults(windows, np.random.default_rng(13)))
    ops, delays = make_script()
    stamps = []

    def stamp(request, rank, op):
        request.done_event.callbacks.append(
            lambda _event: stamps.append((env.now, rank, op))
        )

    def main(comm):
        rank = comm.rank
        for r, op in enumerate(ops):
            if delays[rank][r]:
                yield env.timeout(delays[rank][r])
            if op[0] == "p2p":
                _, perm, sizes, oob = op
                src = perm.index(rank)
                send = comm.isend(perm[rank], r, sizes[rank], (rank, r), oob=oob[rank])
                recv = comm.irecv(source=src, tag=r)
                stamp(send, rank, f"send{r}")
                stamp(recv, rank, f"recv{r}")
                yield from send.wait()
                payload = yield from recv.wait()
                assert payload == (src, r)
            elif op[0] == "barrier":
                yield from barrier(comm)
                stamps.append((env.now, rank, f"barrier{r}"))
            else:
                matrix = op[1]
                sizes = matrix[rank]
                got = yield from alltoallv(
                    comm, sizes,
                    [(rank, d) if sizes[d] else None for d in range(NRANKS)],
                )
                assert got == [
                    (s, rank) if matrix[s][rank] else None for s in range(NRANKS)
                ]
                stamps.append((env.now, rank, f"alltoallv{r}"))

    world.spawn_all(main)
    return world, stamps, checker


def run_variant(name: str) -> dict:
    """Run the script on one network variant; return its observations."""
    world, stamps, checker = build(name)
    env = world.env
    out = {}
    try:
        world.run()
    except LinkFailure as failure:
        out["failure"] = str(failure)
    out["end"] = env.now
    out["stamps"] = stamps
    out["nics"] = [
        [s.tx_messages, s.rx_messages, s.tx_bytes, s.rx_bytes]
        for s in (world.network.nics[n].stats for n in sorted(world.network.nics))
    ]
    if world.network.faults is not None:
        f = world.network.faults.stats
        out["link_faults"] = [f.drops, f.retransmits, f.link_failures]
    if checker is not None:
        out["counters"] = env.metrics.snapshot().counters
        out["ledger"] = {
            "tx": checker.tx_bytes,
            "rx": checker.rx_bytes,
            "dropped": checker.dropped_bytes,
            "messages": checker.messages,
        }
    # Tuples become lists: compare in the golden file's JSON shape.
    return json.loads(json.dumps(out))


VARIANTS = ("shared-nic", "lossy")


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_holds_exactly_the_variants(golden):
    """A case dropped from ``VARIANTS`` must leave the golden file too."""
    assert sorted(golden) == sorted(VARIANTS)


@pytest.mark.parametrize("variant", VARIANTS)
def test_protocol_timing_matches_golden(golden, variant):
    observed = run_variant(variant)
    expected = golden[variant]
    assert observed["stamps"] == expected["stamps"]
    assert observed == expected


def test_script_covers_every_protocol(golden):
    """The golden is only a guard if the script reaches every path."""
    kinds = set(golden["shared-nic"]["ledger"]["messages"])
    assert kinds == {"eager", "rendezvous", "oob", "loopback"}
    sent = {
        label[1]
        for name, labels, _ in golden["shared-nic"]["counters"]
        if name == "mpi.messages"
        for label in labels
        if label[0] == "kind"
    }
    assert sent == kinds
    ops, _ = make_script()
    assert {op[0] for op in ops} == {"p2p", "barrier", "alltoallv"}
    sizes = {s for op in ops if op[0] == "p2p" for s in op[2]}
    assert sizes == set(SIZES)


def test_lossy_run_retransmits_then_fails(golden):
    drops, retransmits, failures = golden["lossy"]["link_faults"]
    # Two 32 B count-exchange messages, 5->6 and 6->7, exhaust their
    # one-retry budget at the same instant; both count as link failures
    # and the run stops with the first one the kernel reports (6->7).
    assert retransmits > 0 and failures == 2
    assert drops >= retransmits + failures
    world, _, _ = build("lossy")
    with pytest.raises(LinkFailure, match=r"6->7 \(32 B\) lost 2 times; giving up"):
        world.run()


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {sys.argv[0]} --record")
    GOLDEN.write_text(
        json.dumps({v: run_variant(v) for v in VARIANTS}, indent=0) + "\n"
    )
    print(f"wrote {GOLDEN}")
