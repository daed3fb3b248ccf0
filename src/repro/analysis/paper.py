"""The paper's reported numbers, for paper-vs-measured comparison.

Section 4 gives headline percentages ("WW-List outperforms the other I/O
strategies by N%") at 96 processes (Figure 2) and at compute speed 25.6 on
64 processes (Figure 5), plus a handful of absolute phase timings.  These
constants drive EXPERIMENTS.md and the benchmark acceptance checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

#: "WW-List outperforms the other I/O strategies by X%" at 96 processes.
#: Keyed by strategy then query_sync.
FIG2_RATIOS_PCT: Dict[str, Dict[bool, float]] = {
    "mw": {False: 364.0, True: 182.0},
    "ww-posix": {False: 33.0, True: 37.0},
    "ww-coll": {False: 75.0, True: 13.0},
}

#: Same at compute speed 25.6, 64 processes.
FIG5_RATIOS_PCT: Dict[str, Dict[bool, float]] = {
    "mw": {False: 592.0, True: 444.0},
    "ww-posix": {False: 32.0, True: 65.0},
    "ww-coll": {False: 98.0, True: 58.0},
}

#: Absolute seconds the text quotes directly.
PAPER_ABSOLUTES = {
    # At 96 processes with query sync:
    ("ww-coll", True, 96, "total"): 45.54,
    ("ww-list", True, 96, "total"): 40.24,
    # WW-POSIX at 96 processes: sync phase and data distribution growth.
    ("ww-posix", False, 96, "sync"): 1.01,
    ("ww-posix", True, 96, "sync"): 12.0,
    ("ww-posix", False, 96, "data_distribution"): 3.21,
    ("ww-posix", True, 96, "data_distribution"): 19.04,
    ("ww-list", False, 96, "sync"): 0.41,
    ("ww-list", True, 96, "sync"): 5.87,
    ("ww-list", False, 96, "data_distribution"): 4.47,
    ("ww-list", True, 96, "data_distribution"): 18.47,
    # Compute-speed suite (64 processes): mean worker compute phase.
    ("any", None, 64, "compute@0.1"): 54.0,
    ("any", None, 64, "compute@25.6"): 0.8,
}

#: Structural observations (used as boolean acceptance checks).
PAPER_CLAIMS = (
    "WW-List is the fastest strategy in every no-sync and sync case",
    "all no-sync strategies perform as good as or better than their sync counterparts",
    "WW-Coll performance is within ~6% with or without query sync",
    "MW's forced-sync penalty is small at base speed (<~5%)",
    "MW gains <2% from a 25.6x compute speedup",
    "scaling gains slow considerably at about 32 processes",
    "I/O phase time increases slightly with more processes",
    "compute-time variance at slow speeds makes WW-Coll pay a large synchronization cost",
)


@dataclass(frozen=True)
class RatioCheck:
    """One paper-vs-measured ratio comparison."""

    label: str
    strategy: str
    query_sync: bool
    paper_pct: float
    measured_pct: float

    @property
    def measured_factor(self) -> float:
        return 1.0 + self.measured_pct / 100.0

    @property
    def paper_factor(self) -> float:
        return 1.0 + self.paper_pct / 100.0

    def within(self, factor_tolerance: float = 2.0) -> bool:
        """Shape test: measured slow-down factor within ``factor_tolerance``×
        of the paper's, and the same sign (slower than WW-List).

        The band is on *factors* (``1 + pct/100``), not on percentages.
        With the tolerance ``t`` the benchmark uses (2.5), a cell passes
        when WW-List is measured ahead and the measured factor lies in
        ``[paper/t, paper*t]``.  What that establishes depends on the
        paper's factor:

        * MW cells (paper factor 2.8-6.9): the lower edge is above 1, so
          the check bounds the size of the gap as well as its sign.
        * WW-POSIX and WW-Coll cells (paper factor 1.13-1.98): the lower
          edge ``paper/2.5`` is below 1, so any lead at all passes.  The
          check establishes the ordering only, not the size: Fig5 ww-coll
          no-sync passes at +6% against the paper's +98%.  The upper edge
          is loose too: Fig5 ww-posix no-sync passes at +196% against
          +32% (up to +230% would pass).

        So an OK on those cells means "WW-List wins", never "by about the
        paper's margin"; ``tests/integration/test_paper_shapes.py`` checks
        the endpoint margins directly.
        """
        if self.paper_factor <= 1.0:
            return self.measured_factor <= 1.0 * factor_tolerance
        if self.measured_pct <= 0:
            # The paper has WW-List ahead; a measured tie or lead for the
            # other strategy inverts the claim, whatever the factor says.
            return False
        ratio = self.measured_factor / self.paper_factor
        return (1.0 / factor_tolerance) <= ratio <= factor_tolerance
