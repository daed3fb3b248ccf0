"""Collective operations built on simulated point-to-point messaging.

Each collective is a *process fragment* to be invoked from every rank of the
communicator (``yield from barrier(comm)``), exactly as real MPI requires
every process to enter the collective.  Algorithms are the classic ones so
the timing scales realistically:

* barrier — dissemination (⌈log₂ n⌉ rounds)
* bcast — binomial tree
* gather/gatherv — linear to root (what ROMIO-era MPICH used for modest n)
* scatter/scatterv — linear from root
* allgather(v) — gather + bcast
* alltoall — Bruck (⌈log₂ n⌉ steps, one message per rank per step)
* alltoallv — alltoall of counts, then data between non-empty pairs only
  (ROMIO's two-phase exchange)
* reduce/allreduce — gather-to-root + op (+ bcast)

A reserved, per-invocation tag keeps collective traffic disjoint from user
messages and from other collectives in flight.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Callable, List, Optional, Sequence, Tuple

from ..sim import Join
from .constants import collective_tag

# Wire size of a zero-byte collective control message.
CONTROL_BYTES = 16
# Wire size of one byte count in alltoallv's count exchange.
COUNT_BYTES = 8


def _next_tag(comm) -> int:
    tag = collective_tag(comm._coll_seq)
    comm._coll_seq += 1
    return tag


def barrier(comm):
    """Dissemination barrier: completes when all ranks have entered."""
    tag = _next_tag(comm)
    size, rank = comm.size, comm.rank
    if size == 1:
        return
    distance = 1
    while distance < size:
        dst = (rank + distance) % size
        src = (rank - distance) % size
        send = comm.isend(dst, tag, CONTROL_BYTES)
        recv = comm.irecv(source=src, tag=tag)
        yield Join(comm.env, send.done_event, recv.done_event)
        distance *= 2


def bcast(comm, root: int, nbytes: int, payload: Any = None):
    """Binomial-tree broadcast; returns the payload on every rank."""
    tag = _next_tag(comm)
    size, rank = comm.size, comm.rank
    if size == 1:
        return payload
    vrank = (rank - root) % size

    if vrank != 0:
        # Receive from the binomial parent.
        payload, _ = yield from comm.recv(source=_abs_rank(_parent(vrank), root, size), tag=tag)
    # Forward to binomial children.
    sends = []
    for child in _children(vrank, size):
        sends.append(comm.isend(_abs_rank(child, root, size), tag, nbytes, payload))
    for send in sends:
        yield from send.wait()
    return payload


def gather(comm, root: int, nbytes: int, payload: Any = None):
    """Linear gather; returns the rank-ordered list on root, None elsewhere."""
    sizes = [nbytes] * comm.size
    return (yield from gatherv(comm, root, sizes, payload))


def gatherv(comm, root: int, nbytes_per_rank: Sequence[int], payload: Any = None):
    """Gather with per-rank sizes; list of payloads on root, None elsewhere."""
    tag = _next_tag(comm)
    size, rank = comm.size, comm.rank
    if len(nbytes_per_rank) != size:
        raise ValueError("nbytes_per_rank must have one entry per rank")
    if rank == root:
        results: List[Any] = [None] * size
        results[root] = payload
        recvs = {
            src: comm.irecv(source=src, tag=tag)
            for src in range(size)
            if src != root
        }
        for src, recv in recvs.items():
            results[src] = yield from recv.wait()
        return results
    yield from comm.send(root, tag, nbytes_per_rank[rank], payload)
    return None


def scatter(comm, root: int, nbytes: int, payloads: Optional[Sequence[Any]] = None):
    """Linear scatter; every rank returns its slice."""
    sizes = [nbytes] * comm.size
    return (yield from scatterv(comm, root, sizes, payloads))


def scatterv(
    comm,
    root: int,
    nbytes_per_rank: Sequence[int],
    payloads: Optional[Sequence[Any]] = None,
):
    """Scatter with per-rank sizes (payloads significant on root only)."""
    tag = _next_tag(comm)
    size, rank = comm.size, comm.rank
    if len(nbytes_per_rank) != size:
        raise ValueError("nbytes_per_rank must have one entry per rank")
    if rank == root:
        if payloads is None or len(payloads) != size:
            raise ValueError("root must supply one payload per rank")
        sends = []
        for dst in range(size):
            if dst == root:
                continue
            sends.append(comm.isend(dst, tag, nbytes_per_rank[dst], payloads[dst]))
        for send in sends:
            yield from send.wait()
        return payloads[root]
    payload, _ = yield from comm.recv(source=root, tag=tag)
    return payload


def allgather(comm, nbytes: int, payload: Any = None):
    """Gather to rank 0 then broadcast the assembled list."""
    gathered = yield from gather(comm, 0, nbytes, payload)
    total = nbytes * comm.size
    result = yield from bcast(comm, 0, total, gathered)
    return result


def alltoall(comm, nbytes: int, blocks: Sequence[Any]):
    """Bruck's log-step alltoall of ``nbytes``-sized blocks.

    ``blocks[d]`` goes to rank ``d``; returns the blocks received, indexed
    by source.  The blocks are rotated so that position ``i`` holds the
    one bound for ``rank + i``.  In step ``k`` every rank sends the blocks
    whose position has bit ``k`` set to ``rank + 2^k`` (one message), so a
    block travels ``i`` ranks in ⌈log₂ n⌉ steps.  Rotating back at the end
    puts the block from ``src`` in slot ``src``.  This is MPICH's
    short-message alltoall.
    """
    tag = _next_tag(comm)
    size, rank = comm.size, comm.rank
    if len(blocks) != size:
        raise ValueError("blocks must have one entry per rank")

    held = list(blocks[rank:]) + list(blocks[:rank])
    step = 0
    while (1 << step) < size:
        distance = 1 << step
        moved = _bruck_positions(size, step)
        send = comm.isend(
            (rank + distance) % size, tag, nbytes * len(moved),
            [held[i] for i in moved],
        )
        recv = comm.irecv(source=(rank - distance) % size, tag=tag)
        yield Join(comm.env, send.done_event, recv.done_event)
        for i, block in zip(moved, recv.done_event.value):
            held[i] = block
        step += 1
    # Position i now holds the block from rank - i.
    return held[rank::-1] + held[:rank:-1]


def alltoallv(comm, nbytes_to: Sequence[int], payloads_to: Optional[Sequence[Any]] = None):
    """Personalized all-to-all with per-destination sizes.

    ``nbytes_to[d]`` is what this rank sends to rank ``d``.  Returns the list
    of payloads received, indexed by source (``None`` where nothing came).

    ROMIO's exchange (Thakur et al., "Optimizing Noncontiguous Accesses in
    MPI-IO"): every rank first learns what every other rank sends it from
    an :func:`alltoall` of 8-byte counts, then receives from every source
    with a nonzero count and sends to every destination with a nonzero
    count, and waits once for all of them.  Every rank enters the count
    exchange, with or without data, so the collective still synchronizes
    all ranks; only pairs that have bytes exchange data.  The entry for
    this rank itself stays local.  A payload on a zero-byte entry is a
    ``ValueError``: the receiver would never post a receive for it.
    """
    size, rank = comm.size, comm.rank
    if len(nbytes_to) != size:
        raise ValueError("nbytes_to must have one entry per rank")
    if payloads_to is not None:
        if len(payloads_to) != size:
            raise ValueError("payloads_to must have one entry per rank")
        for nbytes, payload in zip(nbytes_to, payloads_to):
            if payload is not None and not nbytes:
                raise ValueError("a payload needs a nonzero byte count")

    nbytes_from = yield from alltoall(comm, COUNT_BYTES, nbytes_to)

    tag = _next_tag(comm)
    received: List[Any] = [None] * size
    received[rank] = payloads_to[rank] if payloads_to is not None else None
    peers = [(rank + step) % size for step in range(1, size)]
    recvs = [
        (src, comm.irecv(source=src, tag=tag)) for src in peers if nbytes_from[src]
    ]
    events = [recv.done_event for _, recv in recvs]
    for dst in peers:
        if nbytes_to[dst]:
            send = comm.isend(
                dst, tag, nbytes_to[dst],
                payloads_to[dst] if payloads_to is not None else None,
            )
            events.append(send.done_event)
    if events:
        yield Join(comm.env, *events)
    for src, recv in recvs:
        received[src] = recv.done_event.value
    return received


def reduce(comm, root: int, nbytes: int, value: Any, op: Callable[[Any, Any], Any]):
    """Reduce to root via gather + fold (rank order, so op should be
    associative and commutative for MPI-equivalent results)."""
    gathered = yield from gather(comm, root, nbytes, value)
    if comm.rank != root:
        return None
    accumulator = gathered[0]
    for item in gathered[1:]:
        accumulator = op(accumulator, item)
    return accumulator


def allreduce(comm, nbytes: int, value: Any, op: Callable[[Any, Any], Any]):
    """Reduce to rank 0 then broadcast the result."""
    result = yield from reduce(comm, 0, nbytes, value, op)
    result = yield from bcast(comm, 0, nbytes, result)
    return result


# -- Bruck and binomial-tree helpers -------------------------------------------

@lru_cache(maxsize=None)
def _bruck_positions(size: int, step: int) -> Tuple[int, ...]:
    """Block positions that step ``step`` of an ``size``-rank Bruck
    alltoall moves: those with bit ``step`` set."""
    bit = 1 << step
    return tuple(i for i in range(bit, size) if i & bit)


def _parent(vrank: int) -> int:
    """Parent of ``vrank`` in a binomial broadcast tree (vrank > 0).

    Round ``k`` of the broadcast has every node ``v < 2^k`` send to
    ``v + 2^k``; the parent is therefore ``vrank`` with its highest set bit
    cleared.
    """
    if vrank <= 0:
        raise ValueError("the root has no parent")
    return vrank - (1 << (vrank.bit_length() - 1))


def _children(vrank: int, size: int) -> List[int]:
    """Children of ``vrank``: ``vrank + 2^k`` for all ``2^k > vrank``."""
    children = []
    bit = 1 << vrank.bit_length() if vrank > 0 else 1
    while vrank + bit < size:
        children.append(vrank + bit)
        bit <<= 1
    return children


def _abs_rank(vrank: int, root: int, size: int) -> int:
    return (vrank + root) % size
