"""Property tests for the extent-run helpers against a byte-set reference.

Every helper in :mod:`repro.pvfs.extents` is checked against the naive
model it replaces: a run list is the set of bytes it covers.  After any
mutation the runs must stay sorted, disjoint and non-touching, and the
returned byte counts must equal the exact change in that set.
"""

from hypothesis import given, strategies as st

from repro.pvfs.extents import (
    add, covers, gaps, overlaps, span, split, subtract,
)

SPACE = 96  # small byte space: ops collide often

spans = st.tuples(st.integers(0, SPACE), st.integers(0, SPACE)).map(
    lambda p: (min(p), max(p))
)
span_lists = st.lists(spans, max_size=12)
regions = st.lists(
    st.tuples(st.integers(0, SPACE), st.integers(0, 24)), max_size=12
)


def byteset(runs):
    return {b for lo, hi in runs for b in range(lo, hi)}


def build(spans_):
    runs = []
    for lo, hi in spans_:
        add(runs, lo, hi)
    return runs


def assert_canonical(runs):
    assert all(lo < hi for lo, hi in runs), runs
    # Strict: a touching pair would be a second spelling of one run.
    for (_, hi_a), (lo_b, _) in zip(runs, runs[1:]):
        assert hi_a < lo_b, runs


@given(span_lists, spans)
def test_add_fuses_and_counts_new_bytes(initial, new):
    runs = build(initial)
    before = byteset(runs)
    grown = add(runs, *new)
    assert_canonical(runs)
    assert byteset(runs) == before | set(range(*new))
    assert grown == len(byteset(runs)) - len(before)


@given(span_lists, spans)
def test_subtract_removes_exact_bytes(initial, cut):
    runs = build(initial)
    before = byteset(runs)
    removed = subtract(runs, *cut)
    assert_canonical(runs)
    assert byteset(runs) == before - set(range(*cut))
    assert removed == len(before) - len(byteset(runs))


@given(span_lists, spans)
def test_gaps_are_the_uncovered_part_in_order(initial, window):
    runs = build(initial)
    snapshot = list(runs)
    out = gaps(runs, *window)
    assert runs == snapshot
    assert_canonical(out)
    assert byteset(out) == set(range(*window)) - byteset(runs)


@given(span_lists, spans)
def test_covers_and_overlaps_match_byte_sets(initial, probe):
    runs = build(initial)
    lo, hi = probe
    wanted = set(range(lo, hi))
    held = byteset(runs)
    assert overlaps(runs, lo, hi) == bool(wanted & held)
    if lo < hi:
        # One run must hold the whole span: non-touching runs make
        # "every byte covered" and "one run covers it" the same thing.
        assert covers(runs, lo, hi) == (wanted <= held)


@given(span_lists, regions)
def test_split_partitions_in_order(initial, regs):
    runs = build(initial)
    held = byteset(runs)

    def whole_hit(region):
        offset, length = region
        return length > 0 and set(range(offset, offset + length)) <= held

    hits, misses = split(runs, regs)
    assert hits == [r for r in regs if whole_hit(r)]
    assert misses == [r for r in regs if not whole_hit(r)]


def covers_partition(runs, regs):
    """The per-region reference: one ``covers`` bisect for each region."""
    hits, misses = [], []
    for offset, length in regs:
        hit = length > 0 and covers(runs, offset, offset + length)
        (hits if hit else misses).append((offset, length))
    return hits, misses


# Back-to-back regions, each starting where the previous one ended: the
# shape of one server's list request.
touching = st.tuples(
    st.integers(0, SPACE), st.lists(st.integers(0, 24), max_size=12)
).map(lambda p: [(p[0] + sum(p[1][:k]), n) for k, n in enumerate(p[1])])


@given(
    span_lists,
    st.one_of(regions, touching),
    st.sampled_from(["asc", "desc", "as-is"]),
)
def test_split_equals_per_region_covers(initial, regs, order):
    """Carrying the run position between regions changes no answer, for
    ascending input, input that goes backwards, and touching regions."""
    runs = build(initial)
    if order == "asc":
        regs = sorted(regs)
    elif order == "desc":
        regs = sorted(regs, reverse=True)
    snapshot = list(runs)
    assert split(runs, regs) == covers_partition(runs, regs)
    assert runs == snapshot


@given(span_lists)
def test_split_regions_touching_run_edges(initial):
    """Regions that end where one run ends and start where the next one
    starts, walked forwards then backwards."""
    runs = build(initial)
    regs = [(lo, hi - lo) for lo, hi in runs]
    regs += [(hi, 1) for _, hi in runs] + [(lo, hi - lo + 1) for lo, hi in runs]
    for ordered in (sorted(regs), sorted(regs, reverse=True), regs):
        assert split(runs, ordered) == covers_partition(runs, ordered)


@given(regions)
def test_span_is_min_start_to_max_end_of_live_regions(regs):
    live = [(o, n) for o, n in regs if n > 0]
    expected = (
        (min(o for o, _ in live), max(o + n for o, n in live)) if live else None
    )
    assert span(regs) == expected


def test_zero_length_region_is_a_miss_even_inside_a_run():
    runs = [(0, 100)]
    assert split(runs, [(10, 0), (10, 5)]) == ([(10, 5)], [(10, 0)])


def test_touching_runs_fuse():
    runs = [(0, 10), (20, 30)]
    assert add(runs, 10, 20) == 10
    assert runs == [(0, 30)]
    assert subtract(runs, 10, 20) == 10
    assert runs == [(0, 10), (20, 30)]
    assert gaps(runs, 5, 25) == [(10, 20)]
