"""Tests of the perf benchmark's layer folding and correctness gate.

Run with ``PYTHONPATH=src python -m pytest benchmarks/perf -q``.
"""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace

import pytest

import run as bench
from repro.core import FileStats, S3aSim, SimulationConfig

SIM_STEP = ("/co/src/repro/sim/environment.py", 182, "step")
MPI_SEND = ("/co/src/repro/mpi/network.py", 20, "send")
CORE_MASTER = ("/co/src/repro/core/master.py", 30, "run")
CORE_WORKER = ("/co/src/repro/core/worker.py", 40, "run")
CLI_MAIN = ("/co/src/repro/cli.py", 1, "main")
HEAPPUSH = ("~", 0, "<built-in method _heapq.heappush>")
GEN_SEND = ("~", 0, "<method 'send' of 'generator' objects>")
REPLACE = ("/usr/lib/python3.11/dataclasses.py", 1500, "replace")


def edge(calls, tt):
    """A pstats caller edge: (calls, primitive calls, self time, cum time)."""
    return (calls, calls, tt, tt)


def entry(tt, callers):
    """A pstats entry: (primitive calls, calls, self time, cum time, callers)."""
    calls = sum(e[0] for e in callers.values()) or 1
    return (calls, calls, tt, tt, callers)


def test_layer_of_keys_on_the_package_under_src_repro():
    assert bench.layer_of(SIM_STEP[0]) == "sim"
    assert bench.layer_of(CLI_MAIN[0]) == "other"
    assert bench.layer_of("/co/src/repro/analysis/paper.py") == "other"
    assert bench.layer_of(REPLACE[0]) is None
    assert bench.layer_of("~") is None


def test_builtin_self_time_is_split_between_caller_layers():
    stats = {
        SIM_STEP: entry(1.0, {}),
        MPI_SEND: entry(2.0, {}),
        HEAPPUSH: entry(0.4, {SIM_STEP: edge(1, 0.3), MPI_SEND: edge(3, 0.1)}),
    }
    prof = bench.fold_profile(stats)
    assert prof["self_s"]["sim"] == pytest.approx(1.3)
    assert prof["self_s"]["mpi"] == pytest.approx(2.1)
    assert prof["self_s"]["other"] == 0.0
    assert sum(prof["share"].values()) == pytest.approx(1.0)


def test_non_repro_frames_are_charged_through_to_their_repro_caller():
    stats = {
        CORE_MASTER: entry(1.0, {}),
        REPLACE: entry(0.5, {CORE_MASTER: edge(2, 0.5)}),
        HEAPPUSH: entry(0.25, {REPLACE: edge(2, 0.25)}),
    }
    prof = bench.fold_profile(stats)
    assert prof["self_s"]["core"] == pytest.approx(1.75)
    assert prof["share"]["core"] == pytest.approx(1.0)


def test_frames_without_a_repro_caller_fold_into_other():
    stats = {REPLACE: entry(0.5, {}), SIM_STEP: entry(1.5, {REPLACE: edge(1, 0.0)})}
    prof = bench.fold_profile(stats)
    assert prof["self_s"]["other"] == pytest.approx(0.5)
    assert prof["share"]["other"] == pytest.approx(0.25)


def test_calls_in_counts_only_calls_from_another_layer():
    stats = {
        CORE_MASTER: entry(1.0, {}),
        CORE_WORKER: entry(1.0, {CORE_MASTER: edge(5, 0.1)}),
        SIM_STEP: entry(1.0, {CORE_MASTER: edge(7, 0.1), CORE_WORKER: edge(2, 0.1)}),
        GEN_SEND: entry(0.1, {SIM_STEP: edge(4, 0.1)}),
        # A generator resumed by the kernel: its caller is the builtin
        # ``send``, which the kernel called, so the call enters from sim.
        MPI_SEND: entry(1.0, {GEN_SEND: edge(4, 0.1), MPI_SEND: edge(3, 0.1)}),
    }
    prof = bench.fold_profile(stats)
    assert prof["calls_in"]["core"] == 0
    assert prof["calls_in"]["sim"] == 9
    assert prof["calls_in"]["mpi"] == 4
    assert prof["sim.events"] == 9


def tiny_configs():
    return [
        SimulationConfig(nprocs=4, nqueries=2, nfragments=4, strategy=s)
        for s in ("mw", "ww-coll")
    ]


def test_tiny_pass_passes_the_gate():
    passes = [bench.run_pass(tiny_configs()) for _ in range(2)]
    traced = bench.run_pass(tiny_configs(), trace=True)
    summary = bench.summarize(passes, traced)
    assert summary["fail_ratio"] == 0
    assert summary["attempted"] == 6
    layer = summary["per_layer"]
    assert layer["sim.events"] > 0
    assert layer["pvfs.requests"] > 0
    assert layer["other.share"] < 0.05
    line = bench.result_line({"tiny": summary}, trace=False)
    assert line["correct"] and line["failed"] == 0
    assert set(line["metrics"]) == {"wall_s", "setup_s", "peak_rss_mib"}


def test_forced_incomplete_result_counts_as_failed(monkeypatch):
    real_run = S3aSim.run

    def truncated_run(self, *args, **kwargs):
        result = real_run(self, *args, **kwargs)
        fs = dataclasses.replace(result.file_stats, dense=False)
        return dataclasses.replace(result, file_stats=fs)

    monkeypatch.setattr(S3aSim, "run", truncated_run)
    p = bench.run_pass(tiny_configs()[:1])
    assert "incomplete" in p["sims"][0]["error"]
    assert bench.count_failures([p]) == (1, 1)


def test_unbalanced_serve_ledger_fails_the_gate():
    result = SimpleNamespace(
        file_stats=FileStats(total_bytes=8, expected_bytes=8, nextents=1, dense=True),
        serve_stats={"offered": 10.0, "completed": 8.0, "rejected": 1.0, "shed": 0.0},
    )
    assert "ledger" in bench.result_problem(result)


def test_digest_that_differs_between_repeats_counts_as_failed():
    passes = [
        {"sims": [{"error": None, "digest": "a"}, {"error": None, "digest": "c"}]},
        {"sims": [{"error": None, "digest": "b"}, {"error": None, "digest": "c"}]},
    ]
    assert bench.count_failures(passes) == (4, 1)
