"""Box histograms: validation, sampling, statistics, truncation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import RandomStreams
from repro.workload import NT_HISTOGRAM, NT_QUERY_HISTOGRAM, BoxHistogram
from repro.workload.nt import (
    NT_MAX_SEQUENCE_B,
    NT_MEAN_SEQUENCE_B,
    NT_MIN_SEQUENCE_B,
)


class TestConstruction:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            BoxHistogram(())

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            BoxHistogram(((10, 5, 1.0),))
        with pytest.raises(ValueError):
            BoxHistogram(((-1, 5, 1.0),))

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            BoxHistogram(((0, 5, -1.0),))

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            BoxHistogram(((0, 5, 0.0),))

    def test_single_and_constant(self):
        h = BoxHistogram.single(10, 20)
        assert h.min_size == 10 and h.max_size == 20
        c = BoxHistogram.constant(7)
        rng = np.random.default_rng(0)
        assert set(c.sample(rng, 50).tolist()) == {7}


class TestSampling:
    def test_samples_within_bounds(self):
        h = BoxHistogram.from_boxes([(10, 20, 1.0), (100, 200, 1.0)])
        rng = np.random.default_rng(1)
        samples = h.sample(rng, 5000)
        assert samples.min() >= 10
        assert samples.max() <= 200
        assert not np.any((samples > 20) & (samples < 100))

    def test_weights_respected(self):
        h = BoxHistogram.from_boxes([(0, 9, 0.9), (100, 109, 0.1)])
        rng = np.random.default_rng(2)
        samples = h.sample(rng, 20_000)
        small_frac = np.mean(samples < 50)
        assert 0.88 < small_frac < 0.92

    def test_count_zero(self):
        h = BoxHistogram.single(1, 2)
        assert len(h.sample(np.random.default_rng(0), 0)) == 0

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            BoxHistogram.single(1, 2).sample(np.random.default_rng(0), -1)

    def test_mean_close_to_empirical(self):
        rng = np.random.default_rng(3)
        samples = NT_HISTOGRAM.sample(rng, 300_000)
        assert samples.mean() == pytest.approx(NT_HISTOGRAM.mean(), rel=0.15)


class TestTruncation:
    def test_boxes_clipped(self):
        h = BoxHistogram.from_boxes([(0, 10, 1.0), (20, 100, 1.0)])
        t = h.truncated(50)
        assert t.max_size == 50
        rng = np.random.default_rng(4)
        assert t.sample(rng, 2000).max() <= 50

    def test_whole_boxes_dropped(self):
        h = BoxHistogram.from_boxes([(0, 10, 1.0), (20, 100, 1.0)])
        t = h.truncated(15)
        assert t.max_size == 10

    def test_truncating_everything_rejected(self):
        h = BoxHistogram.from_boxes([(10, 20, 1.0)])
        with pytest.raises(ValueError):
            h.truncated(5)

    def test_zero_weight_boxes_dropped(self):
        """Regression: zero-weight boxes used to survive truncation, making
        the result's box list disagree with min_size/max_size (which only
        consider positive weight)."""
        h = BoxHistogram.from_boxes([(0, 10, 1.0), (20, 30, 0.0), (40, 50, 2.0)])
        t = h.truncated(45)
        assert all(w > 0 for _, _, w in t.boxes)
        assert t.min_size == min(l for l, _, _ in t.boxes) == 0
        assert t.max_size == max(h_ for _, h_, _ in t.boxes) == 45

    def test_only_zero_weight_survivors_raise_clearly(self):
        """Regression: when the cut kept only zero-weight boxes, the old
        code tripped the constructor's generic "at least one box needs
        positive weight" far from the cause; now the error names the cut
        and the smallest sampleable size."""
        h = BoxHistogram.from_boxes([(0, 10, 0.0), (20, 30, 1.0)])
        with pytest.raises(ValueError, match="max_size=15 truncates away"):
            h.truncated(15)

    def test_error_reports_smallest_sampleable_size(self):
        h = BoxHistogram.from_boxes([(0, 10, 0.0), (20, 30, 1.0)])
        with pytest.raises(ValueError, match="smallest sampleable size is 20"):
            h.truncated(5)

    def test_truncated_samples_stay_sampleable(self):
        h = BoxHistogram.from_boxes([(0, 10, 1.0), (20, 30, 0.0)])
        t = h.truncated(25)
        rng = np.random.default_rng(7)
        samples = t.sample(rng, 500)
        assert samples.min() >= 0 and samples.max() <= 10


class TestNTPreset:
    def test_paper_extremes(self):
        """Min 6 bytes, max slightly over 43 MB (paper Section 3.3)."""
        assert NT_HISTOGRAM.min_size == NT_MIN_SEQUENCE_B == 6
        assert NT_HISTOGRAM.max_size == NT_MAX_SEQUENCE_B >= 43 * 1024 * 1024

    def test_paper_mean(self):
        """Mean sequence length ~4401 bytes."""
        assert NT_HISTOGRAM.mean() == pytest.approx(NT_MEAN_SEQUENCE_B, rel=0.25)

    def test_query_histogram_truncated(self):
        assert NT_QUERY_HISTOGRAM.max_size <= 16 * 1024
        assert NT_QUERY_HISTOGRAM.min_size == 6

    def test_twenty_queries_are_tens_of_kib(self):
        """The paper's 20-query set totals 'roughly 86 KBytes'."""
        rng = RandomStreams(2006).stream("check")
        total = NT_QUERY_HISTOGRAM.sample(rng, 20).sum()
        assert 10 * 1024 < total < 200 * 1024


@given(
    boxes=st.lists(
        st.tuples(st.integers(0, 1000), st.integers(0, 1000), st.floats(0.01, 10)),
        min_size=1,
        max_size=6,
    ),
    seed=st.integers(0, 2**20),
)
@settings(max_examples=100, deadline=None)
def test_property_samples_in_declared_range(boxes, seed):
    normalized = [(min(l, h), max(l, h), w) for l, h, w in boxes]
    hist = BoxHistogram.from_boxes(normalized)
    rng = np.random.default_rng(seed)
    samples = hist.sample(rng, 100)
    assert samples.min() >= hist.min_size
    assert samples.max() <= hist.max_size


class TestSampleBitIdentity:
    """``sample`` is ``Generator.choice(p=...)`` plus ``integers`` — the same
    draws and the same stream position afterwards."""

    HISTOGRAMS = (
        NT_HISTOGRAM,
        BoxHistogram.from_boxes([(0, 10, 0.0), (20, 30, 1.0), (40, 50, 0.0)]),
        BoxHistogram.from_boxes([(5, 5, 2.0), (100, 900, 0.0), (1000, 5000, 0.3)]),
        BoxHistogram.from_boxes([(1, 1000, 0.0), (7, 7, 1e-9), (8, 9, 3.0)]),
    )

    @staticmethod
    def reference(hist, rng, count):
        idx = rng.choice(len(hist.boxes), size=count, p=hist.probabilities())
        lows = np.array([l for l, _, _ in hist.boxes], dtype=np.int64)[idx]
        highs = np.array([h for _, h, _ in hist.boxes], dtype=np.int64)[idx]
        return rng.integers(lows, highs + 1, dtype=np.int64)

    @pytest.mark.parametrize("count", [1, 2, 190, 1500])
    @pytest.mark.parametrize("index", range(len(HISTOGRAMS)))
    def test_matches_choice_reference(self, index, count):
        hist = self.HISTOGRAMS[index]
        for seed in range(5):
            ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            np.testing.assert_array_equal(
                hist.sample(ours, count), self.reference(hist, ref, count)
            )
            assert ours.bit_generator.state == ref.bit_generator.state

    @given(
        boxes=st.lists(
            st.tuples(
                st.integers(0, 10**6), st.integers(0, 10**6),
                st.one_of(st.just(0.0), st.floats(0.001, 100)),
            ),
            min_size=1,
            max_size=8,
        ),
        count=st.integers(1, 400),
        seed=st.integers(0, 2**20),
    )
    @settings(max_examples=100, deadline=None)
    def test_property_matches_choice_reference(self, boxes, count, seed):
        normalized = [(min(l, h), max(l, h), w) for l, h, w in boxes]
        if not any(w > 0 for _, _, w in normalized):
            normalized[0] = (normalized[0][0], normalized[0][1], 1.0)
        hist = BoxHistogram.from_boxes(normalized)
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        np.testing.assert_array_equal(
            hist.sample(ours, count), self.reference(hist, ref, count)
        )
        assert ours.bit_generator.state == ref.bit_generator.state
