"""Tests for deterministic path-addressed random streams."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.sim import RandomStreams


def reference_stream(seed, *path):
    """The stream as first defined: BLAKE2 words per element, seeded with
    the Python tuple ``(seed, *words)``."""
    words = []
    for element in path:
        digest = hashlib.blake2b(repr(element).encode(), digest_size=8).digest()
        words += [int.from_bytes(digest[:4], "little"), int.from_bytes(digest[4:], "little")]
    return np.random.default_rng(np.random.SeedSequence((seed,) + tuple(words)))


class TestRandomStreams:
    def test_same_path_same_stream(self):
        a = RandomStreams(7).stream("result", 3, 5).random(8)
        b = RandomStreams(7).stream("result", 3, 5).random(8)
        np.testing.assert_array_equal(a, b)

    def test_different_paths_differ(self):
        a = RandomStreams(7).stream("result", 3, 5).random(8)
        b = RandomStreams(7).stream("result", 3, 6).random(8)
        assert not np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RandomStreams(1).stream("x").random(8)
        b = RandomStreams(2).stream("x").random(8)
        assert not np.array_equal(a, b)

    def test_creation_order_is_irrelevant(self):
        rs = RandomStreams(11)
        first = rs.stream("a").random(4)
        _ = rs.stream("b").random(4)
        again = rs.stream("a").random(4)
        np.testing.assert_array_equal(first, again)

    def test_string_vs_int_path_elements_distinct(self):
        rs = RandomStreams(5)
        a = rs.stream(1).random(4)
        b = rs.stream("1").random(4)
        assert not np.array_equal(a, b)

    def test_spawn_is_deterministic(self):
        a = RandomStreams(3).spawn("sub").stream("x").random(4)
        b = RandomStreams(3).spawn("sub").stream("x").random(4)
        np.testing.assert_array_equal(a, b)

    def test_spawn_differs_from_root(self):
        root = RandomStreams(3)
        a = root.stream("x").random(4)
        b = root.spawn("sub").stream("x").random(4)
        assert not np.array_equal(a, b)

    def test_non_int_seed_rejected(self):
        with pytest.raises(TypeError):
            RandomStreams("seed")  # type: ignore[arg-type]

    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        path=st.lists(
            st.one_of(st.integers(0, 10_000), st.text(max_size=8)),
            min_size=1,
            max_size=4,
        ),
    )
    def test_property_reproducible(self, seed, path):
        a = RandomStreams(seed).stream(*path).integers(0, 1 << 30, size=4)
        b = RandomStreams(seed).stream(*path).integers(0, 1 << 30, size=4)
        np.testing.assert_array_equal(a, b)


class TestBitIdentity:
    """The array-seeded stream is the tuple-seeded one, word for word."""

    SEEDS = (0, 2006, 2**32 - 1, 2**32 + 5, 2**64 - 1)
    PATHS = ((), ("x",), (3,), ("batch", 4, 17), (0, "seqlen", 2**40), ("1", 1))

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("path", PATHS)
    def test_matches_reference(self, seed, path):
        ours = RandomStreams(seed).stream(*path)
        ref = reference_stream(seed, *path)
        assert ours.bit_generator.state == ref.bit_generator.state
        np.testing.assert_array_equal(
            ours.integers(0, 2**62, size=16), ref.integers(0, 2**62, size=16)
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_spawned_factory_matches_reference(self, seed):
        child = RandomStreams(seed).spawn("results", 2)
        assert child.seed >= 2**32  # a 64-bit seed: two words
        ours = child.stream("batch", 5, 3)
        ref = reference_stream(child.seed, "batch", 5, 3)
        assert ours.bit_generator.state == ref.bit_generator.state

    def test_spawn_seeds_pinned(self):
        assert RandomStreams(2006).spawn("results").seed == 12241342652682863131
        assert RandomStreams(0).spawn("database", 3).seed == 11950845423353427310

    def test_negative_seed_raises(self):
        with pytest.raises(ValueError):
            RandomStreams(-1).stream("x")
