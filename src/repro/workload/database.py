"""The fragmented sequence database (database segmentation substrate).

Database segmentation replicates the query set and partitions the database
into fragments (Figure 1 of the paper); each (query, fragment) pair is one
unit of work.  For the simulation we need the database's *statistical*
shape — sequence-length samples drive result sizes — plus fragment
bookkeeping, not actual nucleotides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..sim.rng import RandomStreams
from .histogram import BoxHistogram


@dataclass(frozen=True)
class Fragment:
    """One database fragment: an even share of the database volume."""

    fragment_id: int
    nbytes: int


class FragmentedDatabase:
    """A sequence database split into ``nfragments`` even fragments.

    ``sample_sequence_length`` draws a matching-sequence length for a search
    hit — deterministic in (seed, query, fragment, result index) so results
    are identical across runs, strategies, and process counts.
    """

    def __init__(
        self,
        histogram: BoxHistogram,
        nfragments: int,
        total_bytes: int,
        streams: RandomStreams,
    ) -> None:
        if nfragments <= 0:
            raise ValueError("nfragments must be positive")
        if total_bytes <= 0:
            raise ValueError("total_bytes must be positive")
        self.histogram = histogram
        self.nfragments = nfragments
        self.total_bytes = total_bytes
        self._streams = streams.spawn("database")

    def __repr__(self) -> str:
        return (
            f"<FragmentedDatabase fragments={self.nfragments} "
            f"total={self.total_bytes}B>"
        )

    @property
    def fragments(self) -> List[Fragment]:
        return [self.fragment(i) for i in range(self.nfragments)]

    def fragment(self, fragment_id: int) -> Fragment:
        return Fragment(fragment_id, self.fragment_extent(fragment_id)[1])

    def fragment_extent(self, fragment_id: int) -> Tuple[int, int]:
        """(offset, nbytes) of the fragment in a densely-packed db file.

        Fragments are stored in id order with no gaps, so the extent is a
        prefix sum — this is the read span a worker preloads before its
        first search against the fragment.  The first ``total % n``
        fragments carry one extra byte, which gives the sum in closed
        form."""
        if not 0 <= fragment_id < self.nfragments:
            raise ValueError(f"fragment {fragment_id} out of range")
        base, remainder = divmod(self.total_bytes, self.nfragments)
        offset = base * fragment_id + min(fragment_id, remainder)
        return offset, base + (1 if fragment_id < remainder else 0)

    def sample_sequence_lengths(
        self, query_id: int, fragment_id: int, count: int
    ) -> np.ndarray:
        """Lengths of the database sequences matched by ``count`` results."""
        rng = self._streams.stream("seqlen", query_id, fragment_id)
        return self.histogram.sample(rng, count)
