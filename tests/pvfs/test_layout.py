"""Striping layout: strip placement, per-server region lists (with property tests)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.pvfs import StripingLayout

KIB = 1024


class TestBasics:
    def test_validation(self):
        with pytest.raises(ValueError):
            StripingLayout(strip_size=0)
        with pytest.raises(ValueError):
            StripingLayout(nservers=0)

    def test_paper_deployment_stripe(self):
        layout = StripingLayout(strip_size=64 * KIB, nservers=16)
        assert layout.stripe_size == 1024 * KIB  # "1-MByte stripe"

    def test_round_robin_server_assignment(self):
        layout = StripingLayout(strip_size=10, nservers=4)
        assert [layout.server_of(i * 10) for i in range(8)] == [
            0, 1, 2, 3, 0, 1, 2, 3,
        ]

    def test_physical_offsets_pack_densely(self):
        layout = StripingLayout(strip_size=10, nservers=4)
        # Strip 0 and strip 4 both live on server 0, back to back.
        assert layout.physical_offset(0) == 0
        assert layout.physical_offset(45) == 15
        assert layout.server_of(45) == 0

    def test_negative_offsets_rejected(self):
        layout = StripingLayout(10, 4)
        with pytest.raises(ValueError):
            layout.server_of(-1)
        with pytest.raises(ValueError):
            layout.map_regions([(-5, 10)])
        with pytest.raises(ValueError):
            layout.map_regions([(-5, 0)])  # even when nothing is mapped
        with pytest.raises(ValueError):
            layout.map_regions([(0, -1)])


class TestMapExtent:
    """Mapping logical extents to per-server ``(physical_offset, length)``
    lists through ``map_regions``."""

    def test_within_one_strip(self):
        layout = StripingLayout(strip_size=100, nservers=4)
        assert layout.map_regions([(10, 50)]) == {0: [(10, 50)]}

    def test_spanning_strips(self):
        layout = StripingLayout(strip_size=100, nservers=2)
        by_server = layout.map_regions([(50, 200)])
        assert list(by_server) == [0, 1]  # first touched first
        assert by_server == {
            0: [(50, 50),    # rest of strip 0
                (100, 50)],  # start of strip 2 (second strip on server 0)
            1: [(0, 100)],   # strip 1
        }

    def test_empty_extent(self):
        layout = StripingLayout(100, 2)
        assert layout.map_regions([(10, 0)]) == {}

    def test_map_regions_groups_by_server(self):
        layout = StripingLayout(strip_size=100, nservers=2)
        by_server = layout.map_regions([(0, 100), (100, 100), (200, 100)])
        assert sorted(by_server) == [0, 1]
        assert sum(n for _, n in by_server[0]) == 200
        assert sum(n for _, n in by_server[1]) == 100

    def test_one_entry_per_strip_even_when_contiguous(self):
        """Strips of one region on one server are physically adjacent but
        stay separate entries: the list is strip-per-region."""
        layout = StripingLayout(strip_size=10, nservers=2)
        assert layout.map_regions([(5, 40)]) == {
            0: [(5, 5), (10, 10), (20, 5)],
            1: [(0, 10), (10, 10)],
        }


def logical_of(layout, server, physical):
    """Invert the layout: the logical offset stored at ``physical`` on
    ``server``."""
    row, in_strip = divmod(physical, layout.strip_size)
    return (row * layout.nservers + server) * layout.strip_size + in_strip


@given(
    strip_size=st.integers(1, 1 << 16),
    nservers=st.integers(1, 64),
    offset=st.integers(0, 1 << 30),
    length=st.integers(0, 1 << 22),
)
@settings(max_examples=200, deadline=None)
def test_property_extent_mapping_is_a_partition(strip_size, nservers, offset, length):
    """The entries of one extent cover it exactly, without overlap, each
    inside one strip of one server, in ascending strip order per server."""
    layout = StripingLayout(strip_size=strip_size, nservers=nservers)
    by_server = layout.map_regions([(offset, length)])

    assert sum(n for entries in by_server.values() for _, n in entries) == length
    pieces = []
    for server, entries in by_server.items():
        assert 0 <= server < nservers
        logicals = []
        for physical, n in entries:
            assert 0 < n <= strip_size
            logical = logical_of(layout, server, physical)
            # Consistency of the coordinate transforms at both ends.
            assert layout.server_of(logical) == server
            assert layout.physical_offset(logical) == physical
            last = logical + n - 1
            assert layout.server_of(last) == server
            assert layout.physical_offset(last) == physical + n - 1
            logicals.append(logical)
            pieces.append((logical, n))
        assert logicals == sorted(logicals)
    cursor = offset
    for logical, n in sorted(pieces):
        assert logical == cursor
        cursor += n
    assert cursor == offset + length


def strip_by_strip(layout, regions):
    """Oracle: walk every region one strip at a time."""
    by_server = {}
    for offset, length in regions:
        end = offset + length
        while offset < end:
            take = min(layout.strip_size - offset % layout.strip_size, end - offset)
            by_server.setdefault(layout.server_of(offset), []).append(
                (layout.physical_offset(offset), take)
            )
            offset += take
    return by_server


@st.composite
def region_lists(draw):
    """Random regions: zero-length ones, unsorted ones and runs of
    neighbours that touch (each starts where the previous one ended)."""
    out = []
    for _ in range(draw(st.integers(0, 8))):
        if out and draw(st.booleans()):
            offset = out[-1][0] + out[-1][1]  # touches its predecessor
        else:
            offset = draw(st.integers(0, 1 << 12))
        out.append((offset, draw(st.one_of(st.just(0), st.integers(0, 1 << 10)))))
    if draw(st.booleans()):
        out = draw(st.permutations(out))
    return out


@given(
    strip_size=st.integers(1, 300),
    nservers=st.integers(1, 12),
    regions=region_lists(),
)
@settings(max_examples=300, deadline=None)
def test_property_map_regions_equals_strip_by_strip_oracle(
    strip_size, nservers, regions
):
    """Same entries, same per-server order, same server order as building
    the lists one strip at a time from ``server_of``/``physical_offset``."""
    layout = StripingLayout(strip_size=strip_size, nservers=nservers)
    by_server = layout.map_regions(regions)
    expected = strip_by_strip(layout, regions)
    assert by_server == expected
    assert list(by_server) == list(expected)


@given(
    strip_size=st.integers(1, 4096),
    nservers=st.integers(1, 16),
    offsets=st.lists(st.integers(0, 1 << 20), min_size=1, max_size=20),
)
@settings(max_examples=100, deadline=None)
def test_property_physical_offsets_unique_per_server(strip_size, nservers, offsets):
    """Distinct logical bytes never collide on (server, physical offset)."""
    layout = StripingLayout(strip_size=strip_size, nservers=nservers)
    seen = {}
    for logical in set(offsets):
        key = (layout.server_of(logical), layout.physical_offset(logical))
        assert key not in seen, f"{logical} collides with {seen[key]}"
        seen[key] = logical
