"""Deterministic, path-addressed random streams.

Every stochastic quantity in the simulation (result counts, sequence sizes,
service-time jitter, ...) draws from a stream addressed by a tuple path such
as ``("result", query_id, fragment_id)``.  Streams derived from the same root
seed and path are identical regardless of process count, strategy, or the
order in which they are created — the property the paper relies on when it
states "the results are always identical since they are pseudo-randomly
generated".
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from typing import Tuple, Union

import numpy as np

PathElement = Union[int, str]


@lru_cache(maxsize=4096, typed=True)
def _element_words(element: PathElement) -> bytes:
    """Two little-endian 32-bit words naming one path element (BLAKE2)."""
    return hashlib.blake2b(repr(element).encode(), digest_size=8).digest()


def _path_entropy(path: Tuple[PathElement, ...]) -> Tuple[int, ...]:
    """Map a heterogeneous path to stable 32-bit words via BLAKE2."""
    words = np.frombuffer(b"".join(map(_element_words, path)), dtype="<u4")
    return tuple(words.tolist())


def _seed_words(seed: int) -> bytes:
    """``seed`` as little-endian 32-bit words, least significant first —
    the words :class:`numpy.random.SeedSequence` makes of an int (at least
    one word, so 0 is ``[0]``)."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative to draw, got {seed}")
    return seed.to_bytes(4 * max(1, -(-seed.bit_length() // 32)), "little")


class RandomStreams:
    """Factory of independent :class:`numpy.random.Generator` streams."""

    def __init__(self, seed: int) -> None:
        if not isinstance(seed, int):
            raise TypeError(f"seed must be an int, got {type(seed).__name__}")
        self.seed = seed

    def __repr__(self) -> str:
        return f"RandomStreams(seed={self.seed})"

    def stream(self, *path: PathElement) -> np.random.Generator:
        """A generator whose state depends only on (seed, path).

        The entropy is the seed's words followed by two words per path
        element, handed to :class:`~numpy.random.SeedSequence` as one
        ``uint32`` array: the same pool as the tuple ``(seed, *words)``
        without numpy coercing each int on its own."""
        entropy = np.frombuffer(
            _seed_words(self.seed) + b"".join(map(_element_words, path)),
            dtype="<u4",
        )
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))

    def spawn(self, *path: PathElement) -> "RandomStreams":
        """A sub-factory rooted at ``path`` (for nested components)."""
        entropy = (self.seed,) + _path_entropy(tuple(path))
        digest = hashlib.blake2b(
            repr(entropy).encode(), digest_size=8
        ).digest()
        return RandomStreams(int.from_bytes(digest, "little"))
