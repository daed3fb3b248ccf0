"""Box histograms — S3aSim's way of describing size distributions.

The paper's S3aSim takes "a box histogram of input query sizes" and "a box
histogram of database sequence sizes": a list of (low, high, weight) boxes;
sampling picks a box with probability proportional to its weight and then a
uniform size within the box.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

Box = Tuple[int, int, float]  # (low, high, weight); sizes in bytes, inclusive bounds


@dataclass(frozen=True)
class BoxHistogram:
    """A weighted collection of uniform boxes over integer sizes."""

    boxes: Tuple[Box, ...]

    def __post_init__(self) -> None:
        if not self.boxes:
            raise ValueError("histogram needs at least one box")
        for low, high, weight in self.boxes:
            if low < 0 or high < low:
                raise ValueError(f"invalid box bounds ({low}, {high})")
            if weight < 0:
                raise ValueError("box weights must be non-negative")
        if self.total_weight() <= 0:
            raise ValueError("at least one box needs positive weight")
        # Sampling tables, built once: the normalized CDF over boxes and
        # each box's [low, high + 1) integer range.
        cdf = self.probabilities().cumsum()
        cdf /= cdf[-1]
        object.__setattr__(self, "_cdf", cdf)
        object.__setattr__(
            self, "_lows", np.array([l for l, _, _ in self.boxes], dtype=np.int64)
        )
        object.__setattr__(
            self, "_ends", np.array([h + 1 for _, h, _ in self.boxes], dtype=np.int64)
        )

    @classmethod
    def single(cls, low: int, high: int) -> "BoxHistogram":
        """One box: uniform sizes in [low, high]."""
        return cls(((low, high, 1.0),))

    @classmethod
    def constant(cls, size: int) -> "BoxHistogram":
        """Degenerate histogram: every sample is ``size``."""
        return cls(((size, size, 1.0),))

    @classmethod
    def from_boxes(cls, boxes: Sequence[Sequence]) -> "BoxHistogram":
        return cls(tuple((int(l), int(h), float(w)) for l, h, w in boxes))

    def total_weight(self) -> float:
        return sum(w for _, _, w in self.boxes)

    def probabilities(self) -> np.ndarray:
        weights = np.array([w for _, _, w in self.boxes], dtype=float)
        return weights / weights.sum()

    def mean(self) -> float:
        """Expected sample size."""
        probs = self.probabilities()
        mids = np.array([(l + h) / 2 for l, h, _ in self.boxes])
        return float(probs @ mids)

    @property
    def min_size(self) -> int:
        return min(l for l, _, w in self.boxes if w > 0)

    @property
    def max_size(self) -> int:
        return max(h for _, h, w in self.boxes if w > 0)

    def sample(self, rng: np.random.Generator, count: int = 1) -> np.ndarray:
        """``count`` sizes drawn from the histogram (int64 array).

        The box draw is ``Generator.choice(len(boxes), count, p=...)``'s own
        algorithm (one uniform per sample, searched in the normalized CDF)
        on the cached table: the same boxes and the same stream position as
        calling ``choice``."""
        if count < 0:
            raise ValueError("count must be non-negative")
        if count == 0:
            return np.zeros(0, dtype=np.int64)
        box_idx = self._cdf.searchsorted(rng.random(count), side="right")
        return rng.integers(self._lows[box_idx], self._ends[box_idx], dtype=np.int64)

    def truncated(self, max_size: int) -> "BoxHistogram":
        """The histogram restricted to sizes ≤ ``max_size``.

        Boxes beyond the cut are dropped, and so are zero-weight boxes:
        they can never be sampled, but keeping them used to make the
        truncated histogram disagree with ``min_size``/``max_size`` (which
        consider only positive-weight boxes) and could leave a truncation
        containing *only* zero-weight boxes, tripping the constructor's
        "at least one box needs positive weight" check far from the cause.
        A box straddling the cut is clipped with its weight scaled by the
        retained fraction; remaining weights are renormalized implicitly
        by sampling.
        """
        kept: List[Box] = []
        for low, high, weight in self.boxes:
            if weight <= 0 or low > max_size:
                continue
            if high <= max_size:
                kept.append((low, high, weight))
            else:
                fraction = (max_size - low + 1) / (high - low + 1)
                kept.append((low, max_size, weight * fraction))
        if not kept:
            raise ValueError(
                f"max_size={max_size} truncates away every positive-weight "
                f"box (smallest sampleable size is {self.min_size})"
            )
        return BoxHistogram(tuple(kept))
