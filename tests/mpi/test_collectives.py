"""Collective operations over simulated point-to-point messaging."""

import pytest

from repro import mpi
from repro.mpi import MpiWorld, NetworkConfig, RankComm, collective_tag
from repro.mpi.collectives import alltoall


def run_collective(n, body):
    """Spawn ``body`` on every rank of an n-rank world; return results."""
    world = MpiWorld(nranks=n, network=NetworkConfig.myrinet2000())
    world.spawn_all(body)
    return world.run(), world


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13])
class TestBarrier:
    def test_barrier_synchronizes(self, n):
        def main(comm):
            # Stagger arrival; everyone leaves no earlier than the last.
            yield comm.env.timeout(0.01 * comm.rank)
            yield from mpi.barrier(comm)
            return comm.env.now

        out, _ = run_collective(n, main)
        latest_arrival = 0.01 * (n - 1)
        for rank, t in out.items():
            assert t >= latest_arrival - 1e-12


@pytest.mark.parametrize("n", [1, 2, 4, 7])
@pytest.mark.parametrize("root", [0, "last"])
class TestBcast:
    def test_bcast_delivers_to_all(self, n, root):
        root_rank = n - 1 if root == "last" else 0

        def main(comm):
            payload = {"v": 42} if comm.rank == root_rank else None
            result = yield from mpi.bcast(comm, root_rank, 1024, payload)
            return result

        out, _ = run_collective(n, main)
        assert all(v == {"v": 42} for v in out.values())


class TestGatherScatter:
    @pytest.mark.parametrize("n", [2, 5, 9])
    def test_gather(self, n):
        def main(comm):
            return (yield from mpi.gather(comm, 0, 64, payload=comm.rank * 10))

        out, _ = run_collective(n, main)
        assert out[0] == [r * 10 for r in range(n)]
        assert all(out[r] is None for r in range(1, n))

    def test_gatherv_sizes_validated(self):
        def main(comm):
            with pytest.raises(ValueError):
                yield from mpi.gatherv(comm, 0, [10], payload=1)

        run_collective(2, main)

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_scatter(self, n):
        def main(comm):
            payloads = [f"p{i}" for i in range(comm.size)] if comm.rank == 0 else None
            return (yield from mpi.scatter(comm, 0, 64, payloads))

        out, _ = run_collective(n, main)
        assert out == {r: f"p{r}" for r in range(n)}

    def test_scatter_missing_payloads_rejected(self):
        def main(comm):
            if comm.rank == 0:
                with pytest.raises(ValueError):
                    yield from mpi.scatterv(comm, 0, [8, 8], None)
            else:
                recv = comm.irecv()
                yield comm.env.timeout(0.001)
                recv.cancel()

        run_collective(2, main)

    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_allgather(self, n):
        def main(comm):
            return (yield from mpi.allgather(comm, 32, payload=comm.rank**2))

        out, _ = run_collective(n, main)
        expected = [r**2 for r in range(n)]
        assert all(v == expected for v in out.values())


def dense_sizes(n, rank):
    return [100 * (d + 1) for d in range(n)]


def sparse_sizes(n, rank):
    """Most entries zero: each rank sends to rank 0 and to one other rank."""
    return [64 * (rank + 1) if d in (0, (3 * rank + 1) % n) else 0 for d in range(n)]


def bruck_steps(n):
    return (n - 1).bit_length()  # ⌈log₂ n⌉


class TestAllToAll:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13])
    def test_alltoall_routes_blocks(self, n):
        def main(comm):
            blocks = [(comm.rank, d) for d in range(comm.size)]
            return (yield from alltoall(comm, 8, blocks))

        out, _ = run_collective(n, main)
        for rank, inbox in out.items():
            assert inbox == [(s, rank) for s in range(n)]

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13])
    def test_alltoallv_routes_payloads(self, n):
        for sizes_of in (dense_sizes, sparse_sizes):
            def main(comm):
                sizes = sizes_of(comm.size, comm.rank)
                outbox = [
                    f"{comm.rank}->{d}" if sizes[d] else None
                    for d in range(comm.size)
                ]
                return (yield from mpi.alltoallv(comm, sizes, outbox))

            out, _ = run_collective(n, main)
            for rank, inbox in out.items():
                assert inbox == [
                    f"{s}->{rank}" if sizes_of(n, s)[rank] else None
                    for s in range(n)
                ]

    @pytest.mark.parametrize("n", [5, 8])
    def test_alltoallv_sends_only_to_ranks_with_bytes(self, n, monkeypatch):
        """One data message per nonzero off-diagonal entry, plus the count
        exchange's one message per rank per Bruck step."""
        sent = []
        isend = RankComm.isend

        def spy(self, dst, tag, nbytes, payload=None, oob=False):
            sent.append((tag, self.rank, dst, nbytes))
            return isend(self, dst, tag, nbytes, payload, oob)

        monkeypatch.setattr(RankComm, "isend", spy)

        def main(comm):
            yield from mpi.alltoallv(comm, sparse_sizes(comm.size, comm.rank))

        run_collective(n, main)
        counts = [m for m in sent if m[0] == collective_tag(0)]
        data = [m for m in sent if m[0] == collective_tag(1)]
        assert len(counts) == n * bruck_steps(n)
        assert len(sent) == len(counts) + len(data)
        assert sorted(m[1:] for m in data) == sorted(
            (src, dst, nbytes)
            for src in range(n)
            for dst, nbytes in enumerate(sparse_sizes(n, src))
            if nbytes and dst != src
        )

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_alltoallv_synchronizes_ranks_without_data(self, n):
        """Every rank enters the count exchange, so no rank leaves before
        the last one has arrived, even when no bytes move at all."""

        def main(comm):
            yield comm.env.timeout(0.01 * comm.rank)
            yield from mpi.alltoallv(comm, [0] * comm.size)
            return comm.env.now

        out, _ = run_collective(n, main)
        assert min(out.values()) >= 0.01 * (n - 1)

    def test_alltoallv_size_validation(self):
        def main(comm):
            with pytest.raises(ValueError):
                yield from mpi.alltoallv(comm, [1], None)

        run_collective(3, main)

    def test_alltoallv_rejects_payload_without_bytes(self):
        def main(comm):
            with pytest.raises(ValueError, match="nonzero byte count"):
                yield from mpi.alltoallv(comm, [0, 0], ["lost", None])

        run_collective(2, main)


class TestReductions:
    @pytest.mark.parametrize("n", [1, 2, 6])
    def test_reduce_sum(self, n):
        def main(comm):
            return (
                yield from mpi.reduce(comm, 0, 8, comm.rank + 1, lambda a, b: a + b)
            )

        out, _ = run_collective(n, main)
        assert out[0] == n * (n + 1) // 2

    @pytest.mark.parametrize("n", [2, 5])
    def test_allreduce_max(self, n):
        def main(comm):
            return (yield from mpi.allreduce(comm, 8, comm.rank, max))

        out, _ = run_collective(n, main)
        assert all(v == n - 1 for v in out.values())


class TestConcurrentCollectives:
    def test_back_to_back_barriers_do_not_cross_match(self):
        def main(comm):
            for _ in range(5):
                yield from mpi.barrier(comm)
            return (yield from mpi.allgather(comm, 8, comm.rank))

        out, _ = run_collective(4, main)
        assert all(v == [0, 1, 2, 3] for v in out.values())

    def test_collectives_interleave_with_user_traffic(self):
        def main(comm):
            if comm.rank == 0:
                yield from comm.send(1, tag=5, nbytes=10, payload="user")
            yield from mpi.barrier(comm)
            if comm.rank == 1:
                payload, _ = yield from comm.recv(source=0, tag=5)
                return payload
            return None

        out, _ = run_collective(3, main)
        assert out[1] == "user"

    def test_barrier_cost_grows_with_ranks(self):
        times = {}
        for n in (2, 16):
            def main(comm):
                yield from mpi.barrier(comm)
                return comm.env.now

            out, world = run_collective(n, main)
            times[n] = world.env.now
        assert times[16] > times[2]
