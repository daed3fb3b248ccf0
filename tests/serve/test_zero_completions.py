"""Latency statistics with zero completions are NaN, rendered as ``-``.

A run cut off before its first durable query has *unknown* latency; the
old behaviour reported 0.000s percentiles, indistinguishable from a
genuinely instant service.  ``serve_stats`` now returns NaN for
every latency field when nothing completed, and the CLI prints ``-``.
"""

import math

from repro.cli import main
from repro.serve import ArrivalConfig, ServeState, format_latency, serve_stats


def test_stats_are_nan_with_zero_completions():
    state = ServeState(ArrivalConfig(process="poisson", rate=1.0))
    state.offered = 3
    state.admitted = 2
    stats = serve_stats([state])
    assert stats["completed"] == 0.0
    for key in (
        "latency_mean_s",
        "latency_p50_s",
        "latency_p95_s",
        "latency_p99_s",
        "latency_max_s",
    ):
        assert math.isnan(stats[key]), key


def test_stats_are_finite_after_first_completion():
    state = ServeState(ArrivalConfig(process="poisson", rate=1.0))
    state.admitted = 1
    state.completed = 1
    state.latency.observe(0.25)
    stats = serve_stats([state])
    assert stats["latency_mean_s"] == 0.25
    assert not math.isnan(stats["latency_p99_s"])


def test_format_latency():
    assert format_latency(float("nan")) == "-"
    assert format_latency(1.23456) == "1.235"
    assert format_latency(0.0) == "0.000"


def test_cli_until_before_first_completion_prints_dashes(capsys):
    # Cut off at t=0.01: nothing can have completed, so every latency
    # field must print as '-', never a fabricated 0.000.
    code = main(
        [
            "serve",
            "--nprocs", "4",
            "--nqueries", "4",
            "--nfragments", "4",
            "--arrival-rate", "10",
            "--until", "0.01",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "completed=0" in out
    assert "mean=-s" in out
    assert "p50=-s" in out
    assert "p99=-s" in out
    assert "0.000s" not in out
