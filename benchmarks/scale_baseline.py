"""Regenerate or gate the committed at-scale throughput baseline.

``BENCH_scale.json`` (repo root) records end-to-end simulator throughput
at the roadmap's target scale — **1000 ranks, 128 PVFS servers** — so the
kernel's behaviour with tens of thousands of pending events is pinned by
CI, not just the small-configuration numbers in ``BENCH_engine.json``.
(The calendar-queue resize re-anchoring bug only manifested at this kind
of scale: small runs never resized with in-flight pushes.)

Two strategies cover the two event-population shapes:

* ``mw`` — master/worker: one coordinator fanning out to 999 workers,
  deep request/response queues.
* ``ww-posix`` — worker/worker with independent writes: wide synchronized
  phases, large same-timestamp batches.

``ww-coll`` is deliberately excluded: one run at 1000 ranks / 128
servers / 250 fragments took 86.5 s with generator-driven message
protocols and 56.5 s with the callback-driven eager/OOB/loopback sends
(same simulated ``elapsed`` 5.28426249103061; one run each on a 2-vCPU
VM, CPython 3.11).  That still belongs in a nightly sweep, not a per-PR
gate; ``benchmarks/perf/run.py --workload coll-192`` gates ww-coll at
192 ranks instead.

Usage::

    python benchmarks/scale_baseline.py --write BENCH_scale.json
    python benchmarks/scale_baseline.py --check BENCH_scale.json [--tolerance 0.50]

Measurements are best-of-N (minimum over repeats) so a background-noise
spike cannot fail the gate; the tolerance is generous because CI hardware
varies — the gate exists to catch algorithmic blowups (accidental O(n²)
in the kernel or resource layer), not single-digit noise.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core import S3aSim, SimulationConfig  # noqa: E402
from repro.pvfs import PVFSConfig  # noqa: E402

SCHEMA = 1
REPEATS = 3

NRANKS = 1000
NSERVERS = 128


def _run_once(strategy: str, nfragments: int, scheduler: str) -> tuple:
    cfg = SimulationConfig(
        nprocs=NRANKS,
        nqueries=1,
        nfragments=nfragments,
        strategy=strategy,
        scheduler=scheduler,
        pvfs=PVFSConfig(nservers=NSERVERS),
    )
    app = S3aSim(cfg)
    t0 = time.perf_counter()
    result = app.run()
    wall = time.perf_counter() - t0
    assert result.file_stats.complete
    nevents = next(app.world.env._eid)
    return wall, nevents


def bench_strategy(strategy: str, nfragments: int, scheduler: str = "heap") -> dict:
    """Best-of-N wall seconds and the derived events/s for one strategy."""
    best_wall = float("inf")
    nevents = 0
    for _ in range(REPEATS):
        wall, nevents = _run_once(strategy, nfragments, scheduler)
        best_wall = min(best_wall, wall)
    return {"wall_s": best_wall, "events_per_s": nevents / best_wall}


def measure() -> dict:
    mw = bench_strategy("mw", nfragments=1000)
    ww = bench_strategy("ww-posix", nfragments=250)
    ww_cal = bench_strategy("ww-posix", nfragments=250, scheduler="calendar")
    return {
        "mw_1000r_wall_s": {"value": mw["wall_s"], "higher_is_better": False},
        "mw_1000r_events_per_s": {
            "value": mw["events_per_s"],
            "higher_is_better": True,
        },
        "ww_posix_1000r_wall_s": {"value": ww["wall_s"], "higher_is_better": False},
        "ww_posix_1000r_events_per_s": {
            "value": ww["events_per_s"],
            "higher_is_better": True,
        },
        "ww_posix_1000r_calendar_events_per_s": {
            "value": ww_cal["events_per_s"],
            "higher_is_better": True,
        },
    }


def write_baseline(path: Path) -> None:
    payload = {
        "schema": SCHEMA,
        "meta": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "repeats": REPEATS,
            "nranks": NRANKS,
            "nservers": NSERVERS,
        },
        "metrics": measure(),
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"baseline written to {path}")
    for name, m in sorted(payload["metrics"].items()):
        print(f"  {name:38s} {m['value']:>14,.1f}")


def check_baseline(path: Path, tolerance: float) -> int:
    baseline = json.loads(path.read_text())
    fresh = measure()
    status = 0
    print(f"{'metric':38s} {'baseline':>14s} {'current':>14s} {'ratio':>7s}")
    for name, base in sorted(baseline["metrics"].items()):
        if name not in fresh:
            print(f"{name:38s} missing from current build: FAIL")
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
        print(f"{name:38s} {old:>14,.1f} {new:>14,.1f} {ratio:>6.2f}x  {flag}")
        status |= 1 if regressed else 0
    verdict = "PASSED" if status == 0 else f"FAILED (>{tolerance:.0%} regression)"
    print("SCALE BASELINE", verdict)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--write", metavar="PATH", help="record a fresh baseline")
    group.add_argument("--check", metavar="PATH", help="gate against a baseline")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.50,
        help="allowed fractional regression before --check fails (default 0.50)",
    )
    args = parser.parse_args(argv)
    if args.write:
        write_baseline(Path(args.write))
        return 0
    return check_baseline(Path(args.check), args.tolerance)


if __name__ == "__main__":
    sys.exit(main())
