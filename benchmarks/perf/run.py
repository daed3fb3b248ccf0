"""Host wall-time benchmark of the S3aSim simulator.

Runs named workloads through the public API, checks every simulation's
output, and reports end-to-end metrics (wall time of ``.run()``,
construction time, peak memory) plus, from one cProfile-traced pass per
workload, the share of host time each ``repro`` package takes.

Usage, from the repository root::

    python3 benchmarks/perf/run.py [--workload NAME]... [--seed N]
        [--seconds S] [--trace 0|1] [--json PATH]

Every pass runs in a fresh ``spawn`` child, one child at a time (closed
loop).  Passes of the selected workloads are interleaved round-robin until
each workload has used ``--seconds`` of wall time and has at least
``MIN_PASSES`` passes; with ``--trace 1`` one cProfile pass per workload
follows.  The last line of standard output is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``): the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See README.md in this directory for the workload and metric catalogue.
"""

from __future__ import annotations

import argparse
import cProfile
import dataclasses
import hashlib
import json
import multiprocessing
import pstats
import resource
import statistics
import sys
import time
import traceback
from multiprocessing import resource_tracker
from pathlib import Path, PurePath

SRC = Path(__file__).resolve().parents[2] / "src"
sys.path.insert(0, str(SRC))

import repro  # noqa: E402

if not Path(repro.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"repro was imported from {repro.__file__}, not from {SRC}")

from repro.core import (  # noqa: E402
    PAPER_SEED, RunResult, S3aSim, SimulationConfig, get_scenario,
)
from repro.pvfs import PVFSConfig  # noqa: E402
from repro.serve import ArrivalConfig  # noqa: E402
from repro.shard import MasterGroup, ShardConfig  # noqa: E402
from repro.workload import ResultModel  # noqa: E402

#: Packages of ``src/repro`` reported as layers; every other frame under
#: ``src/repro`` (analysis, cluster, exec, trace, cli) folds into ``other``.
LAYERS = (
    "sim", "mpi", "pvfs", "mpiio", "core", "workload", "serve", "shard",
    "adapt", "check", "obs", "faults", "other",
)
MIN_PASSES = 3
DEFAULT_SECONDS = 15
MIB = 1024 * 1024
PAPER_STRATEGIES = ("mw", "ww-posix", "ww-list", "ww-coll")
#: Every query returns the midpoint of the paper's 1000-2000 hit range, so
#: the amount of simulated work (and host time) is level across seeds;
#: the seed still draws query, sequence and result sizes.
LEVEL_HITS = ResultModel(min_count=1500, max_count=1500)


# -- workloads ----------------------------------------------------------------
def paper(seed: int) -> list:
    """Section 3.3 setup (16 ranks, 16 servers, 128 fragments) at 5 queries,
    once per strategy: the configuration the figures and goldens rest on."""
    base = SimulationConfig(seed=seed, nqueries=5, result_model=LEVEL_HITS)
    return [base.with_(strategy=s) for s in PAPER_STRATEGIES]


def scale_1000(seed: int) -> list:
    """1000 ranks / 128 servers, one query, mw and ww-posix: a deep event
    queue and wide same-timestamp phases (mw hands one task to every
    worker; every ww-posix worker syncs after each write)."""
    base = SimulationConfig(
        seed=seed, nprocs=1000, nqueries=1, pvfs=PVFSConfig(nservers=128)
    )
    return [
        base.with_(strategy="mw", nfragments=1000),
        base.with_(strategy="ww-posix", nfragments=50),
    ]


def coll_192(seed: int) -> list:
    """ww-coll alone at 192 ranks / 24 servers: two-phase I/O whose
    alltoallv cost grows with the square of the rank count."""
    return [
        SimulationConfig(
            seed=seed, nprocs=192, nqueries=1, nfragments=192,
            strategy="ww-coll", pvfs=PVFSConfig(nservers=24),
        )
    ]


def serve_day(seed: int) -> list:
    """Serve mode: diurnal arrivals at 0.5 q/s into 4 hash-placed masters
    with work stealing (mw, 24 ranks, 300 queries of 8 fragments).  The
    0.5 s steal back-off keeps idle polling, whose amount follows each
    seed's idle time, from outweighing the query work."""
    return [
        SimulationConfig(
            seed=seed, nprocs=24, nqueries=300, nfragments=8, strategy="mw",
            arrival=ArrivalConfig(process="diurnal", rate=0.5, max_pending=32),
            shard=ShardConfig(nshards=4, placement="hash", steal_retry_s=0.5),
        )
    ]


def read_audit(seed: int) -> list:
    """The ``preload`` scenario (hybrid-auto, fragment reads, 1 MiB
    read-ahead) on 2 replicas, a 4 MiB write-back cache and the elevator,
    with the invariant checker and metrics on: the only workload with
    reads, replication, cache, adapt, check and obs."""
    base = SimulationConfig(
        seed=seed, nqueries=3, result_model=LEVEL_HITS, check=True,
        collect_metrics=True,
        pvfs=PVFSConfig(replicas=2, server_cache_B=4 * MIB, disk_sched="elevator"),
    )
    return [get_scenario("preload", base)]


WORKLOADS = {
    "paper": paper,
    "scale-1000": scale_1000,
    "coll-192": coll_192,
    "serve-day": serve_day,
    "read-audit": read_audit,
}


# -- one pass -------------------------------------------------------------------
def result_problem(result) -> str | None:
    """Why ``result`` fails the correctness gate, or None if it passes."""
    if not result.file_stats.complete:
        return f"output file incomplete: {result.file_stats}"
    s = result.serve_stats
    if s and s["completed"] + s["rejected"] + s["shed"] != s["offered"]:
        return f"serve ledger does not balance: {s}"
    return None


def result_digest(result) -> str:
    """sha256 over the simulated outputs a simulator change must keep."""
    payload = {
        "elapsed": result.elapsed,
        "file_stats": dataclasses.asdict(result.file_stats),
        "server_stats": result.server_stats,
        "serve_stats": result.serve_stats,
    }
    if isinstance(result, RunResult):
        payload["phases"] = result.worker_mean.as_dict()
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def run_pass(configs, trace: bool = False) -> dict:
    """Build and run each configuration once, in this process.

    Returns one record per simulation (times, digest, error or gate
    problem, server counters), the process's peak RSS and, when traced,
    the folded layer profile of the ``.run()`` calls.
    """
    profiler = cProfile.Profile() if trace else None
    sims = []
    for cfg in configs:
        record = {"error": None}
        try:
            t0 = time.perf_counter()
            app = (MasterGroup if cfg.shard is not None else S3aSim)(cfg)
            t1 = time.perf_counter()
            if profiler is not None:
                profiler.enable()
            try:
                result = app.run()
            finally:
                if profiler is not None:
                    profiler.disable()
            t2 = time.perf_counter()
        except Exception:
            record["error"] = traceback.format_exc()
        else:
            record.update(
                setup_s=t1 - t0,
                wall_s=t2 - t1,
                error=result_problem(result),
                digest=result_digest(result),
                server_stats=dict(result.server_stats),
            )
        sims.append(record)
    out = {
        "sims": sims,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if profiler is not None:
        out["profile"] = fold_profile(pstats.Stats(profiler).stats)
    return out


def _child(conn, workload: str, seed: int, trace: bool) -> None:
    try:
        conn.send(run_pass(WORKLOADS[workload](seed), trace))
    finally:
        conn.close()


def spawn_pass(ctx, workload: str, seed: int, trace: bool) -> dict:
    """Run one pass in a fresh child interpreter and wait for it to end."""
    recv, send = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_child, args=(send, workload, seed, trace))
    proc.start()
    send.close()
    try:
        return recv.recv()
    except EOFError:
        proc.join()
        raise RuntimeError(
            f"{workload} pass died without a result (exit code {proc.exitcode})"
        ) from None
    finally:
        recv.close()
        proc.join()


# -- layer folding ------------------------------------------------------------
def layer_of(filename: str) -> str | None:
    """Layer of a frame's file: the package under ``src/repro``, or None
    for code outside it (builtins, stdlib, this benchmark)."""
    parts = PurePath(filename).parts
    for i in range(len(parts) - 2, 0, -1):
        if parts[i] == "repro" and parts[i - 1] == "src":
            return parts[i + 1] if parts[i + 1] in LAYERS else "other"
    return None


class _Folder:
    """Charges frames outside ``src/repro`` to the layers that call them.

    A pstats caller edge is ``(calls, primitive calls, self time, cumulative
    time)``.  A foreign frame's layer mix is its callers' mixes weighted by
    the edge field ``index`` (2: self time, to split time; 0: calls, to
    name the caller of a cross-layer call), recursively through foreign
    callers.  Frames with no caller in ``src/repro`` fold into ``other``.
    """

    def __init__(self, stats: dict, index: int) -> None:
        self.stats = stats
        self.index = index
        self.memo: dict = {}
        self.active: set = set()

    def mix(self, func) -> dict:
        layer = layer_of(func[0])
        if layer is not None:
            return {layer: 1.0}
        if func in self.memo:
            return self.memo[func]
        if func in self.active:
            return {}
        self.active.add(func)
        callers = self.stats[func][4]
        total = sum(edge[self.index] for edge in callers.values())
        mix: dict = {}
        for caller in sorted(callers):
            edge = callers[caller]
            weight = edge[self.index] / total if total else 1 / len(callers)
            for layer, share in self.mix(caller).items():
                mix[layer] = mix.get(layer, 0.0) + weight * share
        self.active.discard(func)
        norm = sum(mix.values())
        mix = {k: v / norm for k, v in mix.items()} if norm else {"other": 1.0}
        self.memo[func] = mix
        return mix

    def home(self, func) -> str:
        """The single layer a frame is counted in (largest share)."""
        mix = self.mix(func)
        return max(sorted(mix), key=mix.__getitem__)


def fold_profile(stats: dict) -> dict:
    """Fold a ``pstats.Stats.stats`` dict into per-layer self time, calls
    into each layer from another, and the kernel's event/resume counts."""
    by_time = _Folder(stats, index=2)
    by_calls = _Folder(stats, index=0)
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls_in = dict.fromkeys(LAYERS, 0)
    counts = {"sim.events": 0, "sim.resumes": 0}
    for func in sorted(stats):
        _cc, nc, tt, _ct, callers = stats[func]
        for layer, share in by_time.mix(func).items():
            self_s[layer] += tt * share
        layer = layer_of(func[0])
        if layer is None:
            continue
        for caller, edge in callers.items():
            if by_calls.home(caller) != layer:
                calls_in[layer] += edge[0]
        path = PurePath(func[0])
        if path.parts[-2:] == ("sim", "environment.py") and func[2] == "step":
            counts["sim.events"] += nc
        if path.parts[-2:] == ("sim", "process.py") and func[2] == "_resume":
            counts["sim.resumes"] += nc
    total = sum(self_s.values())
    return {
        "self_s": self_s,
        "share": {k: v / total if total else 0.0 for k, v in self_s.items()},
        "calls_in": calls_in,
        **counts,
    }


# -- summaries ----------------------------------------------------------------
def count_failures(passes: list) -> tuple[int, int]:
    """(attempted, failed) simulations over ``passes``.  A simulation fails
    if it raised, failed the output gate, or its digest differs from the
    first digest recorded for the same simulation in this invocation."""
    attempted = failed = 0
    reference: dict = {}
    for p in passes:
        for i, sim in enumerate(p["sims"]):
            attempted += 1
            digest = reference.setdefault(i, sim.get("digest"))
            if sim["error"] is not None or sim.get("digest") != digest:
                failed += 1
    return attempted, failed


def _quartiles(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def summarize(untraced: list, traced: dict | None) -> dict:
    """Metrics of one workload from its untraced passes and traced pass."""
    def total(p, key):
        return sum(s[key] for s in p["sims"] if key in s)

    walls = [total(p, "wall_s") for p in untraced]
    e2e = {
        "wall_s": _quartiles(walls) | {"unit": "s"},
        "setup_s": _quartiles([total(p, "setup_s") for p in untraced]) | {"unit": "s"},
        "peak_rss_mib": _quartiles([p["peak_rss_mib"] for p in untraced])
        | {"unit": "MiB"},
    }
    passes = untraced + ([traced] if traced else [])
    attempted, failed = count_failures(passes)
    first = untraced[0]["sims"]
    digest = hashlib.sha256(
        "".join(str(s.get("digest")) for s in first).encode()
    ).hexdigest()
    summary = {
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "digest": digest,
        "e2e": e2e,
    }
    if traced:
        prof = traced["profile"]
        wall = e2e["wall_s"]["median"]
        layer = {}
        for name in LAYERS:
            layer[f"{name}.self_s"] = prof["self_s"][name]
            layer[f"{name}.share"] = prof["share"][name]
            layer[f"{name}.calls_in"] = prof["calls_in"][name]
        layer["sim.events"] = prof["sim.events"]
        layer["sim.resumes"] = prof["sim.resumes"]
        layer["sim.events_per_s"] = prof["sim.events"] / wall
        for key in ("requests", "bytes_written", "syncs"):
            layer[f"pvfs.{key}"] = sum(
                s.get("server_stats", {}).get(key, 0.0) for s in first
            )
        layer["tracer.overhead_ratio"] = total(traced, "wall_s") / wall
        summary["per_layer"] = layer
    return summary


PER_LAYER_UNITS = {
    "self_s": "s", "share": "fraction", "calls_in": "count", "events": "count",
    "resumes": "count", "events_per_s": "1/s", "requests": "count",
    "bytes_written": "B", "syncs": "count", "overhead_ratio": "ratio",
}


def print_summary(name: str, s: dict) -> None:
    print(f"== {name}: {s['e2e']['wall_s']['n']} untraced passes, digest {s['digest']}")
    for metric, m in s["e2e"].items():
        print(
            f"  {metric:14s} median {m['median']:12.6f} {m['unit']:4s} "
            f"q1 {m['q1']:.6f}  q3 {m['q3']:.6f}  n {m['n']}"
        )
    print(
        f"  {'fail_ratio':14s} {s['fail_ratio']:.4f} failed/attempted sims "
        f"({s['failed']}/{s['attempted']})"
    )
    layer = s.get("per_layer")
    if layer:
        print(f"  {'layer':8s} {'self_s':>10s} {'share':>7s} {'calls_in':>10s}")
        for L in LAYERS:
            print(
                f"  {L:8s} {layer[L + '.self_s']:10.4f} {layer[L + '.share']:7.4f} "
                f"{layer[L + '.calls_in']:10d}"
            )
        for key in ("sim.events", "sim.resumes", "sim.events_per_s", "pvfs.requests",
                    "pvfs.bytes_written", "pvfs.syncs", "tracer.overhead_ratio"):
            unit = PER_LAYER_UNITS[key.split(".", 1)[1]]
            print(f"  {key:22s} {layer[key]:.6g} {unit}")
    sys.stdout.flush()


def result_line(summaries: dict, trace: bool) -> dict:
    """The final JSON object; metric names carry a ``<workload>.`` prefix
    only when several workloads ran."""
    metrics = {}
    for name, s in summaries.items():
        prefix = f"{name}." if len(summaries) > 1 else ""
        if trace:
            for key, value in s["per_layer"].items():
                unit = PER_LAYER_UNITS[key.split(".", 1)[1]]
                metrics[prefix + key] = {"value": value, "unit": unit}
        else:
            for key, m in s["e2e"].items():
                metrics[prefix + key] = {"value": m["median"], "unit": m["unit"]}
    attempted = sum(s["attempted"] for s in summaries.values())
    failed = sum(s["failed"] for s in summaries.values())
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", action="append", choices=sorted(WORKLOADS),
        help="workload to run (repeatable; default: all)",
    )
    parser.add_argument("--seed", type=int, default=PAPER_SEED)
    parser.add_argument(
        "--seconds", type=float, default=DEFAULT_SECONDS,
        help="untraced wall time to spend per workload",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1)
    parser.add_argument("--json", metavar="PATH", help="also write the full report here")
    args = parser.parse_args(argv)
    names = list(dict.fromkeys(args.workload or WORKLOADS))
    ctx = multiprocessing.get_context("spawn")

    untraced = {name: [] for name in names}
    spent = dict.fromkeys(names, 0.0)
    try:
        while True:
            due = [
                n for n in names
                if len(untraced[n]) < MIN_PASSES or spent[n] < args.seconds
            ]
            if not due:
                break
            for name in due:
                t0 = time.perf_counter()
                untraced[name].append(spawn_pass(ctx, name, args.seed, trace=False))
                spent[name] += time.perf_counter() - t0
        traced = {
            name: spawn_pass(ctx, name, args.seed, trace=True) if args.trace else None
            for name in names
        }
    finally:
        # Spawning starts multiprocessing's resource-tracker helper, which
        # would otherwise outlive this process; stop it and wait for it.
        resource_tracker._resource_tracker._stop()

    summaries = {name: summarize(untraced[name], traced[name]) for name in names}
    for name, s in summaries.items():
        print_summary(name, s)
    if args.json:
        report = {"seed": args.seed, "seconds": args.seconds, "workloads": summaries}
        Path(args.json).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result_line(summaries, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
