"""Deterministic search-result generation.

The paper's result model (Section 3):

* result **count** per query over the whole database is drawn from a
  [min, max] range (1000–2000 in the experiments) and is distributed across
  fragments data-dependently — we use a multinomial split;
* result **size** ranges "anywhere from the minimum input size to three
  times the maximum of the input query and the matching database sequence"
  — BLAST output prints the query, the subject, and the alignment between
  them, hence the factor of three;
* results carry a similarity **score**; workers sort by score before
  shipping, and the final file holds each query's results in score order.

Everything is a pure function of (seed, query, fragment), which is what
makes the output "always identical since [results] are pseudo-randomly
generated" regardless of process count or I/O strategy.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..sim.rng import RandomStreams
from .database import FragmentedDatabase
from .queries import QuerySet


@dataclass(frozen=True)
class ResultBatch:
    """All results of searching one query against one fragment.

    ``sizes[i]`` and ``scores[i]`` describe result ``i``; batches arrive
    sorted by descending score (workers sort locally — "sorting costs are
    offloaded as much as possible to the workers").
    """

    query_id: int
    fragment_id: int
    sizes: np.ndarray  # int64 bytes
    scores: np.ndarray  # float64, descending

    def __post_init__(self) -> None:
        if len(self.sizes) != len(self.scores):
            raise ValueError("sizes and scores must align")

    @property
    def count(self) -> int:
        return len(self.sizes)

    @property
    def total_bytes(self) -> int:
        return int(self.sizes.sum()) if self.count else 0

    def is_sorted(self) -> bool:
        return bool(np.all(np.diff(self.scores) <= 0))


@dataclass(frozen=True)
class ResultModel:
    """Parameters of the result generator."""

    min_count: int = 1000
    max_count: int = 2000
    min_result_size: int = 1024
    # A hit against a chromosome-scale sequence does not print the whole
    # chromosome: BLAST reports the aligned region.  Capping the matching
    # sequence length for result sizing keeps the output volume at the
    # paper's ~208 MB for the standard workload instead of being dominated
    # by a handful of 43 MB NT outliers.
    max_match_B: int = 256 * 1024

    def __post_init__(self) -> None:
        if self.min_count < 0 or self.max_count < self.min_count:
            raise ValueError("need 0 <= min_count <= max_count")
        if self.min_result_size <= 0:
            raise ValueError("min_result_size must be positive")
        if self.max_match_B <= 0:
            raise ValueError("max_match_B must be positive")


class ResultGenerator:
    """Produces :class:`ResultBatch` objects deterministically."""

    def __init__(
        self,
        queries: QuerySet,
        database: FragmentedDatabase,
        model: ResultModel,
        streams: RandomStreams,
    ) -> None:
        self.queries = queries
        self.database = database
        self.model = model
        self._streams = streams.spawn("results")
        self._counts_cache: dict = {}
        #: query id -> int64[nfragments] of batch byte totals recorded at
        #: draw time, -1 for a batch not drawn yet — so the whole-run
        #: aggregates re-use the workers' draws instead of redrawing.
        self._bytes_cache: dict = {}

    # -- counts ------------------------------------------------------------
    def query_result_count(self, query_id: int) -> int:
        """Total results for ``query_id`` across the whole database."""
        rng = self._streams.stream("count", query_id)
        return int(rng.integers(self.model.min_count, self.model.max_count + 1))

    def fragment_counts(self, query_id: int) -> np.ndarray:
        """Multinomial split of the query's results across fragments."""
        if query_id not in self._counts_cache:
            total = self.query_result_count(query_id)
            rng = self._streams.stream("assign", query_id)
            probs = np.full(self.database.nfragments, 1.0 / self.database.nfragments)
            counts = rng.multinomial(total, probs)
            counts.flags.writeable = False
            self._counts_cache[query_id] = counts
        return self._counts_cache[query_id]

    def _batch_bytes(self, query_id: int) -> np.ndarray:
        memo = self._bytes_cache.get(query_id)
        if memo is None:
            memo = self._bytes_cache[query_id] = np.full(
                self.database.nfragments, -1, dtype=np.int64
            )
        return memo

    # -- batches ---------------------------------------------------------------
    def batch(self, query_id: int, fragment_id: int) -> ResultBatch:
        """The results of (query, fragment) — the unit of worker compute."""
        count = int(self.fragment_counts(query_id)[fragment_id])
        if count == 0:
            self._batch_bytes(query_id)[fragment_id] = 0
            empty = np.zeros(0)
            return ResultBatch(
                query_id, fragment_id,
                empty.astype(np.int64), empty.astype(np.float64),
            )
        rng = self._streams.stream("batch", query_id, fragment_id)
        query_len = min(self.queries[query_id].nbytes, self.model.max_match_B)
        db_lens = self.database.sample_sequence_lengths(query_id, fragment_id, count)
        db_lens = np.minimum(db_lens, self.model.max_match_B)
        upper = 3 * np.maximum(query_len, db_lens)
        upper = np.maximum(upper, self.model.min_result_size + 1)
        sizes = rng.integers(self.model.min_result_size, upper, dtype=np.int64)
        self._batch_bytes(query_id)[fragment_id] = sizes.sum()
        scores = rng.random(count)
        order = np.argsort(-scores, kind="stable")
        return ResultBatch(query_id, fragment_id, sizes[order], scores[order])

    # -- whole-run aggregates -----------------------------------------------------
    def query_total_bytes(self, query_id: int) -> int:
        """Output volume of one query (sum over fragments).

        Sums the totals recorded when each batch was drawn; only batches
        no one has drawn yet are drawn here."""
        memo = self._batch_bytes(query_id)
        for fragment_id in np.flatnonzero(memo < 0):
            self.batch(query_id, int(fragment_id))
        return int(memo.sum())

    def run_total_bytes(self) -> int:
        """Output volume of the whole run — the final file size."""
        return sum(self.query_total_bytes(q.query_id) for q in self.queries)


def result_payload(query_id: int, fragment_id: int, index: int, size: int) -> bytes:
    """Deterministic content of one result record.

    An 8-byte BLAKE2 fingerprint of the result identity, repeated to
    ``size`` — cheap to generate, and any byte lost/misplaced by an I/O
    strategy changes the file content, so cross-strategy file equality is a
    strong end-to-end check.
    """
    if size < 0:
        raise ValueError("size must be non-negative")
    seed = hashlib.blake2b(
        f"{query_id}:{fragment_id}:{index}".encode(), digest_size=8
    ).digest()
    reps = -(-size // 8)
    return (seed * reps)[:size]
