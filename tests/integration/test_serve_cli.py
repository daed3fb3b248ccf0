"""CLI surface of the online service mode (serve / sweep arrival / stats)."""

import json

import pytest

from repro.cli import build_parser, main

SMALL = ["--nprocs", "4", "--nqueries", "4", "--nfragments", "4"]
ARRIVAL = ["--arrival", "poisson", "--arrival-rate", "10", "--max-pending", "8"]


class TestParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.preset == "poisson"
        assert args.arrival is None
        assert args.until is None
        assert args.max_pending == 64
        assert args.admission == "reject"

    def test_sweep_arrival_axis(self):
        args = build_parser().parse_args(["sweep", "arrival"])
        assert args.axis == "arrival"
        assert args.rates == "5,10,20,40"

    def test_bad_arrival_process_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--arrival", "sawtooth"])


class TestServe:
    def test_serve_smoke(self, capsys):
        code = main(["serve", *SMALL, "--check"])
        out = capsys.readouterr().out
        assert code == 0
        assert "arrivals: offered=4" in out
        assert "p99=" in out
        assert "invariants:" in out

    def test_serve_preset_and_json(self, tmp_path, capsys):
        path = tmp_path / "serve.json"
        code = main(
            ["serve", *SMALL, "--preset", "bursty", "--json", str(path)]
        )
        assert code == 0
        payload = json.loads(path.read_text())
        serve = payload["serve"]
        assert serve["offered"] == 4.0
        assert "latency_p99_s" in serve

    def test_serve_until_cutoff(self, capsys):
        code = main(
            ["serve", *SMALL, "--arrival-rate", "2", "--until", "3.0"]
        )
        out = capsys.readouterr().out
        assert code == 0  # a horizon cutoff is not a failure
        assert "pending=" in out

    def test_serve_bad_rate(self):
        with pytest.raises(SystemExit):
            main(["serve", *SMALL, "--arrival-rate", "-5"])

    def test_run_with_arrival_prints_serve_stats(self, capsys):
        code = main(["run", *SMALL, *ARRIVAL])
        out = capsys.readouterr().out
        assert code == 0
        assert "arrivals: offered=4" in out
        assert "latency:" in out

    def test_stats_with_arrival(self, capsys):
        code = main(["stats", *SMALL, *ARRIVAL])
        out = capsys.readouterr().out
        assert code == 0
        assert "arrivals: offered=4" in out
        assert "p50=" in out


class TestSweepArrival:
    def test_sweep_arrival_table(self, capsys):
        code = main(
            ["sweep", "arrival", *SMALL, "--rates", "5,20",
             "--strategy", "ww-list"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "rate qps" in out
        assert "p99 s" in out
        # One row per (strategy, rate): 4 strategies x 2 rates.
        rows = [
            line
            for line in out.splitlines()
            if line.split() and line.split()[0] in
            ("mw", "ww-posix", "ww-list", "ww-coll")
        ]
        assert len(rows) == 8


class TestGuards:
    def test_jobs_zero_rejected(self):
        with pytest.raises(SystemExit, match="--jobs must be >= 1"):
            main(["run", *SMALL, "--jobs", "0"])

    def test_jobs_negative_rejected(self):
        with pytest.raises(SystemExit, match="--jobs must be >= 1"):
            main(["stats", *SMALL, "--jobs", "-2"])

    def test_hybrid_rejects_arrival(self):
        with pytest.raises(SystemExit, match="hybrid"):
            main(["hybrid", *SMALL, *ARRIVAL])

    def test_serve_rejects_write_every(self):
        with pytest.raises(SystemExit, match="write_every"):
            main(["serve", *SMALL, "--write-every", "2"])

    @pytest.mark.parametrize("masters", ["0", "-1"])
    def test_masters_below_one_rejected(self, masters):
        with pytest.raises(SystemExit, match="--masters must be >= 1"):
            main(["serve", *SMALL, "--masters", masters])

    @pytest.mark.parametrize("speed", ["0", "-2"])
    def test_non_positive_compute_speed_rejected(self, speed):
        with pytest.raises(SystemExit, match="--compute-speed: speed must be positive"):
            main(["run", *SMALL, "--compute-speed", speed])
