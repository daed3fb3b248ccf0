"""Result generation: determinism, counts, sizes, ordering, payloads."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import RandomStreams
from repro.workload import (
    NT_HISTOGRAM,
    NT_QUERY_HISTOGRAM,
    FragmentedDatabase,
    QuerySet,
    ResultGenerator,
    ResultModel,
    result_payload,
)

GIB = 1024**3


def make_generator(seed=2006, nqueries=5, nfragments=16, **model_kwargs):
    streams = RandomStreams(seed)
    queries = QuerySet.generate(NT_QUERY_HISTOGRAM, nqueries, streams)
    database = FragmentedDatabase(NT_HISTOGRAM, nfragments, 4 * GIB, streams)
    return ResultGenerator(
        queries, database, ResultModel(**model_kwargs), streams
    )


class TestResultModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            ResultModel(min_count=-1)
        with pytest.raises(ValueError):
            ResultModel(min_count=10, max_count=5)
        with pytest.raises(ValueError):
            ResultModel(min_result_size=0)
        with pytest.raises(ValueError):
            ResultModel(max_match_B=0)


class TestCounts:
    def test_query_count_in_declared_range(self):
        gen = make_generator(min_count=100, max_count=200)
        for q in range(5):
            assert 100 <= gen.query_result_count(q) <= 200

    def test_fragment_counts_sum_to_query_count(self):
        gen = make_generator()
        for q in range(5):
            assert gen.fragment_counts(q).sum() == gen.query_result_count(q)

    def test_counts_data_dependent(self):
        """Result count varies per query (the paper: 'completely data
        dependent')."""
        gen = make_generator(nqueries=5)
        counts = {gen.query_result_count(q) for q in range(5)}
        assert len(counts) > 1


class TestBatches:
    def test_batch_sorted_by_score_desc(self):
        gen = make_generator()
        batch = gen.batch(0, 0)
        assert batch.is_sorted()

    def test_batch_sizes_bounded(self):
        gen = make_generator(min_result_size=512, max_match_B=10_000)
        qlen = min(gen.queries[1].nbytes, 10_000)
        batch = gen.batch(1, 3)
        if batch.count:
            assert batch.sizes.min() >= 512
            assert batch.sizes.max() <= 3 * max(qlen, 10_000)

    def test_batch_deterministic(self):
        a = make_generator().batch(2, 7)
        b = make_generator().batch(2, 7)
        np.testing.assert_array_equal(a.sizes, b.sizes)
        np.testing.assert_array_equal(a.scores, b.scores)

    def test_batches_independent_of_generation_order(self):
        gen1 = make_generator()
        _ = gen1.batch(4, 9)  # touch a different batch first
        a = gen1.batch(2, 7)
        b = make_generator().batch(2, 7)
        np.testing.assert_array_equal(a.sizes, b.sizes)

    def test_different_seeds_differ(self):
        a = make_generator(seed=1).batch(0, 0)
        b = make_generator(seed=2).batch(0, 0)
        assert a.count != b.count or not np.array_equal(a.sizes, b.sizes)

    def test_mismatched_arrays_rejected(self):
        from repro.workload import ResultBatch

        with pytest.raises(ValueError):
            ResultBatch(0, 0, np.zeros(3, dtype=np.int64), np.zeros(2))

    def test_total_bytes(self):
        gen = make_generator()
        batch = gen.batch(0, 0)
        assert batch.total_bytes == int(batch.sizes.sum())


class TestAggregates:
    def test_query_total_is_sum_of_batches(self):
        gen = make_generator(nfragments=8)
        expected = sum(gen.batch(0, f).total_bytes for f in range(8))
        assert gen.query_total_bytes(0) == expected

    @staticmethod
    def count_streams(monkeypatch):
        opened = []
        real = RandomStreams.stream

        def counting(self, *path):
            opened.append(path)
            return real(self, *path)

        monkeypatch.setattr(RandomStreams, "stream", counting)
        return opened

    def test_total_after_drawing_opens_no_stream(self, monkeypatch):
        gen = make_generator(nfragments=8)
        expected = sum(gen.batch(1, f).total_bytes for f in range(8))
        opened = self.count_streams(monkeypatch)
        assert gen.query_total_bytes(1) == expected
        assert gen.run_total_bytes() > expected
        assert gen.query_total_bytes(1) == expected
        assert all(path[1] != 1 for path in opened)

    def test_total_draws_only_missing_batches(self, monkeypatch):
        gen = make_generator(nfragments=8)
        for f in range(0, 8, 2):
            gen.batch(3, f)
        opened = self.count_streams(monkeypatch)
        total = gen.query_total_bytes(3)
        assert {path[2] for path in opened if path[0] == "batch"} == {
            f for f in range(1, 8, 2) if gen.fragment_counts(3)[f]
        }
        assert total == sum(
            make_generator(nfragments=8).batch(3, f).total_bytes for f in range(8)
        )

    def test_total_before_any_draw_matches(self):
        fresh = make_generator(nfragments=8)
        drawn = make_generator(nfragments=8)
        expected = sum(drawn.batch(2, f).total_bytes for f in range(8))
        assert fresh.query_total_bytes(2) == expected
        assert fresh.run_total_bytes() == drawn.run_total_bytes()

    def test_total_unaffected_by_caller_mutating_a_batch(self):
        gen = make_generator(nfragments=8)
        expected = make_generator(nfragments=8).query_total_bytes(0)
        for f in range(8):
            gen.batch(0, f).sizes[:] = 1
        assert gen.query_total_bytes(0) == expected

    def test_fragment_counts_read_only(self):
        gen = make_generator()
        counts = gen.fragment_counts(0)
        with pytest.raises(ValueError):
            counts[0] += 1
        assert gen.fragment_counts(0) is counts

    def test_paper_scale_output_volume(self):
        """Paper setup: ~208 MB of output per run (we accept 100-400 MB)."""
        streams = RandomStreams(2006)
        queries = QuerySet.generate(NT_QUERY_HISTOGRAM, 20, streams)
        database = FragmentedDatabase(NT_HISTOGRAM, 128, 4 * GIB, streams)
        gen = ResultGenerator(queries, database, ResultModel(), streams)
        total = gen.run_total_bytes()
        assert 100e6 < total < 400e6


class TestPayload:
    def test_deterministic_and_sized(self):
        a = result_payload(1, 2, 3, 100)
        b = result_payload(1, 2, 3, 100)
        assert a == b
        assert len(a) == 100

    def test_identity_sensitivity(self):
        base = result_payload(1, 2, 3, 64)
        assert result_payload(9, 2, 3, 64) != base
        assert result_payload(1, 9, 3, 64) != base
        assert result_payload(1, 2, 9, 64) != base

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            result_payload(0, 0, 0, -1)

    @given(size=st.integers(0, 1000))
    @settings(max_examples=50, deadline=None)
    def test_property_payload_length(self, size):
        assert len(result_payload(0, 1, 2, size)) == size


class TestDatabase:
    def test_fragments_partition_volume(self):
        db = FragmentedDatabase(NT_HISTOGRAM, 7, 1000, RandomStreams(0))
        frags = db.fragments
        assert len(frags) == 7
        assert sum(f.nbytes for f in frags) == 1000

    def test_fragment_bounds(self):
        db = FragmentedDatabase(NT_HISTOGRAM, 4, 1000, RandomStreams(0))
        with pytest.raises(ValueError):
            db.fragment(4)

    def test_validation(self):
        with pytest.raises(ValueError):
            FragmentedDatabase(NT_HISTOGRAM, 0, 1000, RandomStreams(0))
        with pytest.raises(ValueError):
            FragmentedDatabase(NT_HISTOGRAM, 4, 0, RandomStreams(0))

    def test_sample_lengths_deterministic(self):
        db1 = FragmentedDatabase(NT_HISTOGRAM, 4, 1000, RandomStreams(5))
        db2 = FragmentedDatabase(NT_HISTOGRAM, 4, 1000, RandomStreams(5))
        np.testing.assert_array_equal(
            db1.sample_sequence_lengths(1, 2, 10),
            db2.sample_sequence_lengths(1, 2, 10),
        )


class TestQuerySet:
    def test_generation(self):
        qs = QuerySet.generate(NT_QUERY_HISTOGRAM, 20, RandomStreams(0))
        assert len(qs) == 20
        assert qs.total_bytes() == sum(q.nbytes for q in qs)
        assert qs[3].query_id == 3

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            QuerySet.generate(NT_QUERY_HISTOGRAM, 0, RandomStreams(0))
        from repro.workload import Query

        with pytest.raises(ValueError):
            QuerySet([Query(1, 10)])  # ids must start at 0
        with pytest.raises(ValueError):
            QuerySet([])
