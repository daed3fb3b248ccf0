"""Two-phase collective I/O (ROMIO's generic collective method).

The default collective method in ROMIO and the engine behind the paper's
WW-Coll strategy.  Phase 1 exchanges data so that each of the ``cb_nodes``
aggregators holds a contiguous *file domain*; phase 2 has aggregators issue
large (near-)contiguous writes.  The exchange is an ``alltoallv`` among all
participants, run as ROMIO runs it: an alltoall of byte counts, then data
only between pairs that have bytes.  The count alltoall is the *inherent
synchronization* whose cost the paper sets out to expose: every rank
enters it and blocks until the slowest participant arrives, whether or
not it has data to contribute.

The domain is processed in ``cb_buffer_size`` windows ("ntimes" rounds in
ROMIO), each round being a fresh exchange + write.

``two_phase_read_all`` is the read-side mirror (Thakur et al., "Optimizing
Noncontiguous Accesses in MPI-IO"): per round the consumers ship
header-only region *requests* to the aggregators, each aggregator issues
one large read over the union of the requested pieces in its window, and a
second exchange shuffles the file-domain data back to the consumers.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .. import mpi
from ..pvfs.filesystem import FileSystem, PVFSFile
from .hints import MPIIOHints

Region = Tuple[int, int]
_PIECE_HEADER_B = 16  # wire overhead per (offset, length) pair exchanged


def two_phase_write_all(
    comm,
    fs: FileSystem,
    file: PVFSFile,
    regions: Sequence[Region],
    datas: Optional[Sequence[Optional[bytes]]] = None,
    hints: Optional[MPIIOHints] = None,
):
    """Process fragment: collective write; every rank of ``comm`` must call.

    ``regions`` may be empty on ranks with nothing to write — they still
    participate in every exchange round (the synchronization the paper
    measures).
    """
    hints = hints if hints is not None else MPIIOHints()
    regions = list(regions)
    if datas is not None and len(datas) != len(regions):
        raise ValueError("datas must align with regions")

    # --- Step 1: allgather per-rank span metadata (small messages). ---------
    my_span = None
    if regions:
        my_span = (
            min(offset for offset, _ in regions),
            max(offset + length for offset, length in regions),
        )
    spans = yield from mpi.allgather(comm, 32, my_span)

    live = [s for s in spans if s is not None]
    if not live:
        if hints.collective_final_barrier:
            yield from mpi.barrier(comm)
        return

    global_lo = min(s[0] for s in live)
    global_hi = max(s[1] for s in live)

    # --- Step 2: partition [lo, hi) into per-aggregator file domains. -------
    naggs = hints.effective_cb_nodes(comm.size, len(fs.servers))
    fd_size = -(-(global_hi - global_lo) // naggs)  # ceil
    # Aggregators are the first naggs ranks of the communicator (ROMIO uses
    # the cb_config_list selection; first-N is its flat default).
    domains = [
        (global_lo + k * fd_size, min(global_lo + (k + 1) * fd_size, global_hi))
        for k in range(naggs)
    ]
    ntimes = max(1, -(-fd_size // hints.cb_buffer_size))

    my_pieces = _indexed_pieces(regions, datas)

    # --- Step 3+4: rounds of exchange + aggregator write. -------------------
    for round_idx in range(ntimes):
        sizes = [0] * comm.size
        payloads: List[Optional[List]] = [None] * comm.size
        for agg in range(naggs):
            d_lo, d_hi = domains[agg]
            w_lo = d_lo + round_idx * hints.cb_buffer_size
            w_hi = min(w_lo + hints.cb_buffer_size, d_hi)
            if w_lo >= w_hi:
                continue
            chunk = _clip_pieces(my_pieces, w_lo, w_hi)
            if chunk:
                nbytes = sum(length for _, length, _ in chunk)
                sizes[agg] = nbytes + _PIECE_HEADER_B * len(chunk)
                payloads[agg] = chunk

        m = comm.env.metrics
        if m.enabled:
            m.inc(
                "mpiio.twophase_exchange_bytes",
                float(sum(sizes)),
                rank=comm.global_rank,
            )
            if comm.rank == 0:
                m.inc("mpiio.twophase_rounds", 1.0)

        received = yield from mpi.alltoallv(comm, sizes, payloads)

        if comm.rank < naggs:
            incoming: List[Tuple[int, int, Optional[bytes]]] = []
            for item in received:
                if item:
                    incoming.extend(item)
            if incoming:
                runs, run_datas = _coalesce_pieces(incoming)
                yield from fs.write_list(
                    comm.global_rank, file, runs, run_datas
                )

    if hints.collective_final_barrier:
        yield from mpi.barrier(comm)


def two_phase_read_all(
    comm,
    fs: FileSystem,
    file: PVFSFile,
    regions: Sequence[Region],
    hints: Optional[MPIIOHints] = None,
):
    """Process fragment: collective read; every rank of ``comm`` must call.

    ``regions`` may be empty on ranks with nothing to read — they still
    participate in every exchange round.  Returns the per-region bytes in
    input order when the store keeps data, else ``None``.
    """
    hints = hints if hints is not None else MPIIOHints()
    regions = list(regions)

    # --- Step 1: allgather per-rank span metadata (small messages). ---------
    my_span = None
    if regions:
        my_span = (
            min(offset for offset, _ in regions),
            max(offset + length for offset, length in regions),
        )
    spans = yield from mpi.allgather(comm, 32, my_span)

    results: List[bytearray] = [bytearray(length) for _, length in regions]
    have_data = True

    live = [s for s in spans if s is not None]
    if not live:
        if hints.collective_final_barrier:
            yield from mpi.barrier(comm)
        return [bytes(buf) for buf in results]

    global_lo = min(s[0] for s in live)
    global_hi = max(s[1] for s in live)

    # --- Step 2: the same aggregator file domains as the write side. --------
    naggs = hints.effective_cb_nodes(comm.size, len(fs.servers))
    fd_size = -(-(global_hi - global_lo) // naggs)  # ceil
    domains = [
        (global_lo + k * fd_size, min(global_lo + (k + 1) * fd_size, global_hi))
        for k in range(naggs)
    ]
    ntimes = max(1, -(-fd_size // hints.cb_buffer_size))

    # Requests carry no payload, only (offset, length, region index).
    my_pieces = [
        (offset, length, idx) for idx, (offset, length) in enumerate(regions)
    ]

    # --- Step 3+4: rounds of request exchange + aggregator read + reply. ----
    for round_idx in range(ntimes):
        sizes = [0] * comm.size
        payloads: List[Optional[List]] = [None] * comm.size
        for agg in range(naggs):
            d_lo, d_hi = domains[agg]
            w_lo = d_lo + round_idx * hints.cb_buffer_size
            w_hi = min(w_lo + hints.cb_buffer_size, d_hi)
            if w_lo >= w_hi:
                continue
            chunk = []
            for offset, length, idx in my_pieces:
                c_lo = max(offset, w_lo)
                c_hi = min(offset + length, w_hi)
                if c_lo >= c_hi:
                    continue
                chunk.append((c_lo, c_hi - c_lo, idx))
            if chunk:
                sizes[agg] = _PIECE_HEADER_B * len(chunk)
                payloads[agg] = chunk

        m = comm.env.metrics
        if m.enabled:
            m.inc(
                "mpiio.twophase_read_exchange_bytes",
                float(sum(sizes)),
                rank=comm.global_rank,
            )
            if comm.rank == 0:
                m.inc("mpiio.twophase_read_rounds", 1.0)

        requests = yield from mpi.alltoallv(comm, sizes, payloads)

        reply_sizes = [0] * comm.size
        reply_payloads: List[Optional[List]] = [None] * comm.size
        if comm.rank < naggs:
            wanted: List[Tuple[int, int, int, int]] = []
            for src, items in enumerate(requests):
                if items:
                    for offset, length, idx in items:
                        wanted.append((offset, length, src, idx))
            if wanted:
                # One large read over the union of the requested pieces —
                # the whole point of aggregation (holes between pieces are
                # *not* read; the union runs are already near-contiguous).
                runs = _union_runs((o, l) for o, l, _, _ in wanted)
                run_datas = yield from fs.read_list(
                    comm.global_rank,
                    file,
                    [(lo, hi - lo) for lo, hi in runs],
                )
                replies: dict = {}
                for offset, length, src, idx in wanted:
                    data = None
                    if run_datas is not None:
                        data = _slice_runs(runs, run_datas, offset, length)
                    replies.setdefault(src, []).append((offset, length, idx, data))
                for src, items in replies.items():
                    nbytes = sum(length for _, length, _, _ in items)
                    reply_sizes[src] = nbytes + _PIECE_HEADER_B * len(items)
                    reply_payloads[src] = items

        if m.enabled:
            m.inc(
                "mpiio.twophase_read_exchange_bytes",
                float(sum(reply_sizes)),
                rank=comm.global_rank,
            )

        delivered = yield from mpi.alltoallv(comm, reply_sizes, reply_payloads)

        for items in delivered:
            if not items:
                continue
            for offset, length, idx, data in items:
                if data is None:
                    have_data = False
                    continue
                base = regions[idx][0]
                results[idx][offset - base : offset - base + length] = data

    if hints.collective_final_barrier:
        yield from mpi.barrier(comm)
    if not have_data:
        return None
    return [bytes(buf) for buf in results]


def _union_runs(pieces) -> List[Tuple[int, int]]:
    """Disjoint [lo, hi) runs covering the union of (offset, length) pieces
    (adjacent and overlapping pieces fuse — this is a read, extent
    bookkeeping doesn't apply)."""
    runs: List[List[int]] = []
    for lo, hi in sorted((o, o + l) for o, l in pieces if l > 0):
        if runs and lo <= runs[-1][1]:
            runs[-1][1] = max(runs[-1][1], hi)
        else:
            runs.append([lo, hi])
    return [(lo, hi) for lo, hi in runs]


def _slice_runs(
    runs: List[Tuple[int, int]],
    run_datas: Sequence[bytes],
    offset: int,
    length: int,
) -> bytes:
    """The bytes for [offset, offset+length) out of disjoint sorted runs
    (the requested piece always lies inside exactly one union run)."""
    for (lo, hi), data in zip(runs, run_datas):
        if lo <= offset and offset + length <= hi:
            return bytes(data[offset - lo : offset - lo + length])
    raise ValueError(  # pragma: no cover - runs cover every requested piece
        f"piece ({offset}, {length}) not covered by union runs"
    )


def _indexed_pieces(
    regions: Sequence[Region], datas: Optional[Sequence[Optional[bytes]]]
) -> List[Tuple[int, int, Optional[bytes]]]:
    out = []
    for idx, (offset, length) in enumerate(regions):
        data = datas[idx] if datas is not None else None
        if data is not None and len(data) != length:
            raise ValueError("data length mismatch")
        out.append((offset, length, data))
    return out


def _clip_pieces(
    pieces: List[Tuple[int, int, Optional[bytes]]], lo: int, hi: int
) -> List[Tuple[int, int, Optional[bytes]]]:
    """Pieces intersected with the window [lo, hi)."""
    out = []
    for offset, length, data in pieces:
        c_lo = max(offset, lo)
        c_hi = min(offset + length, hi)
        if c_lo >= c_hi:
            continue
        c_data = data[c_lo - offset : c_hi - offset] if data is not None else None
        out.append((c_lo, c_hi - c_lo, c_data))
    return out


def _coalesce_pieces(
    pieces: List[Tuple[int, int, Optional[bytes]]],
) -> Tuple[List[Region], Optional[List[Optional[bytes]]]]:
    """Sort by offset and merge adjacent pieces into contiguous runs."""
    pieces = sorted(pieces, key=lambda p: p[0])
    runs: List[List] = []
    have_data = any(p[2] is not None for p in pieces)
    for offset, length, data in pieces:
        if runs and runs[-1][0] + runs[-1][1] == offset:
            runs[-1][1] += length
            if have_data:
                runs[-1][2] = (runs[-1][2] or b"") + (data or bytes(length))
        else:
            runs.append([offset, length, data if data is not None else (bytes(length) if have_data else None)])
    regions = [(r[0], r[1]) for r in runs]
    datas = [r[2] for r in runs] if have_data else None
    return regions, datas
