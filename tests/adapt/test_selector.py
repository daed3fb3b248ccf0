"""Unit tests for the per-query strategy selector (hybrid-auto)."""

import pytest

from repro.adapt import (
    CANDIDATES,
    PolicyWeights,
    QuerySignals,
    ScoredPolicy,
    StrategyPolicy,
    StrategySelector,
)
from repro.obs import NULL_METRICS, MetricsRegistry


class FakeCounts:
    def __init__(self, total):
        self.total = total

    def sum(self):
        return self.total


class FakeResults:
    """Stands in for ResultGenerator: content id -> total hit count."""

    def __init__(self, counts):
        self.counts = counts
        self.asked = []

    def fragment_counts(self, content):
        self.asked.append(content)
        return FakeCounts(self.counts[content])


class FakeServer:
    def __init__(self, depth):
        self._depth = depth

    def queue_depth(self):
        return self._depth


class FakeEnv:
    def __init__(self, metrics=NULL_METRICS):
        self.metrics = metrics


class FakeFs:
    def __init__(self, depths=(0,), metrics=NULL_METRICS):
        self.servers = [FakeServer(d) for d in depths]
        self.env = FakeEnv(metrics)


def signals(**kwargs):
    defaults = dict(
        query_id=0,
        result_bytes=8 * 1024,
        result_count=1,
        queue_depth=0.0,
        outstanding_faults=0,
        nworkers=4,
    )
    defaults.update(kwargs)
    return QuerySignals(**defaults)


class TestScoredPolicy:
    def test_tiny_query_prefers_mw(self):
        p = ScoredPolicy()
        s = signals(result_bytes=8 * 1024, result_count=1)
        assert p.score("mw", s) > max(p.score("ww-posix", s), p.score("ww-list", s))

    def test_large_query_prefers_ww_list(self):
        p = ScoredPolicy()
        s = signals(result_bytes=8 * 1024 * 1024, result_count=1000)
        assert p.score("ww-list", s) > max(p.score("mw", s), p.score("ww-posix", s))

    def test_outstanding_faults_kill_mw(self):
        p = ScoredPolicy()
        healthy = signals()
        faulted = signals(outstanding_faults=2)
        assert p.score("mw", faulted) < p.score("mw", healthy)
        assert p.score("mw", faulted) < p.score("ww-list", faulted)

    def test_queue_depth_penalizes_posix_twice_as_hard(self):
        p = ScoredPolicy()
        idle = signals(queue_depth=0.0)
        busy = signals(queue_depth=10.0)
        mw_drop = p.score("mw", idle) - p.score("mw", busy)
        posix_drop = p.score("ww-posix", idle) - p.score("ww-posix", busy)
        assert posix_drop == pytest.approx(2.0 * mw_drop)

    def test_unknown_strategy_scores_neg_inf(self):
        assert ScoredPolicy().score("ww-coll", signals()) == float("-inf")

    def test_weights_are_tunable(self):
        heavy_mw = ScoredPolicy(weights=PolicyWeights(mw_bias=100.0))
        s = signals(result_bytes=8 * 1024 * 1024, result_count=1000)
        assert heavy_mw.score("mw", s) > heavy_mw.score("ww-list", s)


class TestSelector:
    def test_choice_is_sticky(self):
        sel = StrategySelector(FakeResults({0: 1}), FakeFs(), nworkers=4)
        first = sel.choose(0)
        # Signals changed radically; the recorded choice must not.
        sel.fs.servers[0]._depth = 1000
        assert sel.choose(0, outstanding_faults=5) == first
        assert sel.choices == {0: first}

    def test_small_and_large_queries_pick_differently(self):
        sel = StrategySelector(
            FakeResults({0: 1, 1: 2000}), FakeFs(), nworkers=4
        )
        assert sel.choose(0) == "mw"
        assert sel.choose(1) == "ww-list"

    def test_content_id_overrides_slot_id(self):
        """Multi-shard runs: the master's slot id differs from the global
        query; the shard's results view translates, so the estimate
        follows the content."""
        from repro.core.app import _ShardResults

        results = FakeResults({7: 1, 0: 2000})
        sel = StrategySelector(_ShardResults(results, {0: 7}), FakeFs(), nworkers=4)
        assert sel.choose(0) == "mw"
        assert results.asked == [7]

    def test_queue_depth_is_mean_over_servers(self):
        sel = StrategySelector(
            FakeResults({0: 1}), FakeFs(depths=(2, 4, 6)), nworkers=4
        )
        assert sel.signals_for(0).queue_depth == pytest.approx(4.0)

    def test_no_servers_means_zero_depth(self):
        sel = StrategySelector(FakeResults({0: 1}), FakeFs(depths=()), nworkers=4)
        assert sel.signals_for(0).queue_depth == 0.0

    def test_choice_metric_incremented(self):
        reg = MetricsRegistry()
        sel = StrategySelector(
            FakeResults({0: 1}),
            FakeFs(metrics=reg),
            nworkers=4,
        )
        chosen = sel.choose(0)
        snap = reg.snapshot()
        assert snap.counter_total("adapt.choices", chosen=chosen) == 1.0
        sel.choose(0)  # sticky: no second increment
        assert reg.snapshot().counter_total("adapt.choices") == 1.0

    def test_ww_coll_is_not_a_candidate(self):
        assert "ww-coll" not in CANDIDATES

    def test_pluggable_policy_wins(self):
        class AlwaysPosix(StrategyPolicy):
            def score(self, name, s):
                return 1.0 if name == "ww-posix" else 0.0

        sel = StrategySelector(
            FakeResults({0: 1}), FakeFs(), nworkers=4, policy=AlwaysPosix()
        )
        assert sel.choose(0) == "ww-posix"

    def test_tie_breaks_toward_earlier_candidate(self):
        class Flat(StrategyPolicy):
            def score(self, name, s):
                return 0.0

        sel = StrategySelector(
            FakeResults({0: 1}), FakeFs(), nworkers=4, policy=Flat()
        )
        assert sel.choose(0) == CANDIDATES[0]

    def test_deterministic_across_instances(self):
        counts = {i: (i * 37) % 500 for i in range(20)}
        a = StrategySelector(FakeResults(dict(counts)), FakeFs(), nworkers=4)
        b = StrategySelector(FakeResults(dict(counts)), FakeFs(), nworkers=4)
        assert [a.choose(i) for i in range(20)] == [
            b.choose(i) for i in range(20)
        ]
