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
* alltoallv — ring-shifted pairwise exchange (the two-phase I/O workhorse)
* reduce/allreduce — gather-to-root + op (+ bcast)

A reserved, per-invocation tag keeps collective traffic disjoint from user
messages and from other collectives in flight.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence

from ..sim import Join
from .constants import collective_tag

# Wire size of a zero-byte collective control message.
CONTROL_BYTES = 16


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


def alltoallv(comm, nbytes_to: Sequence[int], payloads_to: Optional[Sequence[Any]] = None):
    """Personalized all-to-all with per-destination sizes.

    ``nbytes_to[d]`` is what this rank sends to rank ``d``.  Returns the list
    of payloads received, indexed by source.  Ring-shifted pairwise schedule:
    in step ``s`` each rank sends to ``rank+s`` and receives from ``rank-s``,
    which spreads load evenly — the schedule ROMIO's two-phase exchange
    approximates.
    """
    tag = _next_tag(comm)
    size, rank = comm.size, comm.rank
    if len(nbytes_to) != size:
        raise ValueError("nbytes_to must have one entry per rank")
    if payloads_to is not None and len(payloads_to) != size:
        raise ValueError("payloads_to must have one entry per rank")

    received: List[Any] = [None] * size
    received[rank] = payloads_to[rank] if payloads_to is not None else None

    for step in range(1, size):
        dst = (rank + step) % size
        src = (rank - step) % size
        send = comm.isend(
            dst, tag, nbytes_to[dst],
            payloads_to[dst] if payloads_to is not None else None,
        )
        recv = comm.irecv(source=src, tag=tag)
        yield Join(comm.env, send.done_event, recv.done_event)
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


# -- binomial-tree helpers ----------------------------------------------------

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
