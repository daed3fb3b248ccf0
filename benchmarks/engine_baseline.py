"""Regenerate or gate the committed DES-engine throughput baseline.

``BENCH_engine.json`` (repo root) records the simulator's hot-path
throughput so every PR has a perf trajectory: regressions here directly
inflate the wall-clock cost of regenerating the paper's figures.

Usage::

    python benchmarks/engine_baseline.py --write BENCH_engine.json
    python benchmarks/engine_baseline.py --check BENCH_engine.json [--tolerance 0.30]

``--check`` re-measures on the current machine and fails (exit 1) when any
metric regresses beyond the tolerance relative to the committed baseline.
Hardware differences between the recording machine and CI are absorbed by
the generous default tolerance; the gate exists to catch order-of-magnitude
algorithmic regressions, not single-digit noise.

Measurements are best-of-N (minimum over repeats) so a background-noise
spike cannot fail the gate; only stdlib + the package itself are needed
(no pytest-benchmark).
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core import SimulationConfig, run_simulation  # noqa: E402
from repro.mpi import MpiWorld, NetworkConfig  # noqa: E402
from repro.sim import Environment, Store  # noqa: E402

SCHEMA = 1
REPEATS = 5


def _best_of(fn, repeats: int = REPEATS) -> float:
    """Minimum wall seconds of ``fn`` over ``repeats`` calls."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_event_loop(nevents: int = 20_000) -> float:
    """Chained-timeout throughput (events/s) — the kernel's hottest path,
    one event per timestamp."""

    def run_chain():
        env = Environment()

        def chain(env):
            for _ in range(nevents):
                yield env.timeout(1)

        env.run(env.process(chain(env)))
        assert env.now == nevents

    return nevents / _best_of(run_chain)


def bench_sync_phases(nprocs: int = 64, phases: int = 60) -> float:
    """Synchronized-phase throughput (events/s): many processes waking at
    identical timestamps with zero-delay cascades between wakes — the
    event-population shape of a real S3aSim run at scale."""
    nevents = nprocs * phases * 5

    def run_phases():
        env = Environment()

        def worker(env):
            for _ in range(phases):
                yield env.timeout(1.0)
                for _ in range(4):
                    yield env.timeout(0)

        for _ in range(nprocs):
            env.process(worker(env))
        env.run()

    return nevents / _best_of(run_phases, repeats=3)


def bench_store(nops: int = 4_000) -> float:
    """Producer/consumer put+get pairs per second (the mailbox substrate)."""

    def run_store():
        env = Environment()
        store = Store(env)

        def producer(env):
            for i in range(nops):
                yield store.put(i)

        def consumer(env):
            for _ in range(nops):
                yield store.get()

        env.process(producer(env))
        done = env.process(consumer(env))
        env.run(done)

    return nops / _best_of(run_store)


def bench_pingpong(nmsgs: int = 1_000) -> float:
    """Round-trip messages per second between two simulated ranks."""

    def run_pingpong():
        world = MpiWorld(nranks=2, network=NetworkConfig.myrinet2000())

        def main(comm):
            other = 1 - comm.rank
            for i in range(nmsgs):
                if comm.rank == 0:
                    yield from comm.send(other, 1, 64, payload=i)
                    yield from comm.recv(source=other, tag=2)
                else:
                    payload, _ = yield from comm.recv(source=other, tag=1)
                    yield from comm.send(other, 2, 64, payload=payload)

        world.spawn_all(main)
        world.run()

    return nmsgs / _best_of(run_pingpong, repeats=3)


def bench_small_sim() -> float:
    """End-to-end wall seconds of a small but complete S3aSim run."""
    cfg = SimulationConfig(nprocs=8, nqueries=4, nfragments=16)

    def run_once():
        result = run_simulation(cfg)
        assert result.file_stats.complete

    return _best_of(run_once, repeats=3)


def measure() -> dict:
    return {
        "event_loop_events_per_s": {
            "value": bench_event_loop(),
            "higher_is_better": True,
        },
        "sync_phases_events_per_s": {
            "value": bench_sync_phases(),
            "higher_is_better": True,
        },
        "store_ops_per_s": {"value": bench_store(), "higher_is_better": True},
        "pingpong_msgs_per_s": {"value": bench_pingpong(), "higher_is_better": True},
        "small_sim_wall_s": {"value": bench_small_sim(), "higher_is_better": False},
    }


def write_baseline(path: Path) -> None:
    payload = {
        "schema": SCHEMA,
        "meta": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "repeats": REPEATS,
        },
        "metrics": measure(),
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"baseline written to {path}")
    for name, m in sorted(payload["metrics"].items()):
        print(f"  {name:28s} {m['value']:>14,.1f}")


def check_baseline(path: Path, tolerance: float) -> int:
    baseline = json.loads(path.read_text())
    fresh = measure()
    status = 0
    print(f"{'metric':28s} {'baseline':>14s} {'current':>14s} {'ratio':>7s}")
    for name, base in sorted(baseline["metrics"].items()):
        if name not in fresh:
            print(f"{name:28s} missing from current build: FAIL")
            status = 1
            continue
        new = fresh[name]["value"]
        old = base["value"]
        ratio = new / old if old else float("inf")
        if base["higher_is_better"]:
            regressed = new < old * (1.0 - tolerance)
        else:
            regressed = new > old * (1.0 + tolerance)
        flag = "FAIL" if regressed else "ok"
        print(f"{name:28s} {old:>14,.1f} {new:>14,.1f} {ratio:>6.2f}x  {flag}")
        status |= 1 if regressed else 0
    verdict = "PASSED" if status == 0 else f"FAILED (>{tolerance:.0%} regression)"
    print("ENGINE BASELINE", verdict)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--write", metavar="PATH", help="record a fresh baseline")
    group.add_argument("--check", metavar="PATH", help="gate against a baseline")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.30,
        help="allowed fractional regression before --check fails (default 0.30)",
    )
    args = parser.parse_args(argv)
    if args.write:
        write_baseline(Path(args.write))
        return 0
    return check_baseline(Path(args.check), args.tolerance)


if __name__ == "__main__":
    sys.exit(main())
