"""Fragment bookkeeping: even splits and dense-packing extents."""

import pytest

from repro.sim.rng import RandomStreams
from repro.workload.histogram import BoxHistogram
from repro.workload.database import FragmentedDatabase


def make_db(nfragments=4, total_bytes=1003):
    return FragmentedDatabase(
        BoxHistogram.single(64, 256),
        nfragments=nfragments,
        total_bytes=total_bytes,
        streams=RandomStreams(7),
    )


class TestFragmentExtent:
    def test_extents_tile_the_database_densely(self):
        db = make_db(nfragments=4, total_bytes=1003)
        cursor = 0
        for i in range(db.nfragments):
            offset, nbytes = db.fragment_extent(i)
            assert offset == cursor
            assert nbytes == db.fragment(i).nbytes
            cursor += nbytes
        assert cursor == db.total_bytes

    def test_remainder_bytes_go_to_leading_fragments(self):
        db = make_db(nfragments=4, total_bytes=1003)
        sizes = [db.fragment_extent(i)[1] for i in range(4)]
        assert sizes == [251, 251, 251, 250]

    def test_out_of_range_rejected(self):
        db = make_db()
        with pytest.raises(ValueError):
            db.fragment_extent(-1)
        with pytest.raises(ValueError):
            db.fragment_extent(db.nfragments)


class TestClosedForm:
    @pytest.mark.parametrize(
        "nfragments,total_bytes", [(4, 1003), (7, 1000), (3, 2), (16, 4 * 1024**3 + 13)]
    )
    def test_matches_list_prefix_sums(self, nfragments, total_bytes):
        """The closed-form extents equal prefix sums over the even split,
        including a split with leftover bytes (total % n != 0)."""
        db = make_db(nfragments=nfragments, total_bytes=total_bytes)
        base, remainder = divmod(total_bytes, nfragments)
        sizes = [base + (1 if i < remainder else 0) for i in range(nfragments)]
        for i in range(nfragments):
            assert db.fragment_extent(i) == (sum(sizes[:i]), sizes[i])
            assert db.fragment(i).nbytes == sizes[i]
            assert db.fragment(i).fragment_id == i
        assert [f.nbytes for f in db.fragments] == sizes

    def test_fragment_out_of_range_rejected(self):
        db = make_db()
        for bad in (-1, db.nfragments):
            with pytest.raises(ValueError):
                db.fragment(bad)
