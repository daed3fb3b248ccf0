"""Point-to-point messaging: matching, protocols, requests, ordering."""

import pytest

from repro.mpi import ANY_SOURCE, ANY_TAG, MpiWorld, NetworkConfig
from repro.sim import SimulationError

KIB = 1024


def make_world(n=2, **net_kwargs):
    defaults = dict(latency_s=1e-5, bandwidth_Bps=100 * 1024 * 1024)
    defaults.update(net_kwargs)
    return MpiWorld(nranks=n, network=NetworkConfig(**defaults))


class TestBlockingSendRecv:
    def test_payload_and_status(self):
        world = make_world()

        def main(comm):
            if comm.rank == 0:
                yield from comm.send(1, tag=7, nbytes=100, payload={"k": 1})
            else:
                payload, status = yield from comm.recv(source=0, tag=7)
                assert payload == {"k": 1}
                assert status.source == 0
                assert status.tag == 7
                assert status.nbytes == 100
                return "ok"

        out = world.spawn_all(main) and world.run()
        assert out[1] == "ok"

    def test_send_before_recv_posted(self):
        world = make_world()

        def main(comm):
            if comm.rank == 0:
                yield from comm.send(1, tag=1, nbytes=10, payload="early")
            else:
                yield comm.env.timeout(0.5)  # recv posted long after arrival
                payload, _ = yield from comm.recv(source=0, tag=1)
                return payload

        world.spawn_all(main)
        assert world.run()[1] == "early"

    def test_recv_before_send(self):
        world = make_world()

        def main(comm):
            if comm.rank == 0:
                yield comm.env.timeout(0.5)
                yield from comm.send(1, tag=1, nbytes=10, payload="late")
            else:
                payload, _ = yield from comm.recv(source=0, tag=1)
                return (payload, comm.env.now)

        world.spawn_all(main)
        payload, when = world.run()[1]
        assert payload == "late"
        assert when > 0.5

    def test_wildcard_source_and_tag(self):
        world = make_world(3)

        def main(comm):
            if comm.rank == 0:
                got = []
                for _ in range(2):
                    payload, status = yield from comm.recv(
                        source=ANY_SOURCE, tag=ANY_TAG
                    )
                    got.append((status.source, payload))
                return sorted(got)
            yield from comm.send(0, tag=comm.rank, nbytes=10, payload=f"r{comm.rank}")

        world.spawn_all(main)
        assert world.run()[0] == [(1, "r1"), (2, "r2")]

    def test_tag_selectivity(self):
        world = make_world()

        def main(comm):
            if comm.rank == 0:
                yield from comm.send(1, tag=1, nbytes=10, payload="first")
                yield from comm.send(1, tag=2, nbytes=10, payload="second")
            else:
                payload2, _ = yield from comm.recv(source=0, tag=2)
                payload1, _ = yield from comm.recv(source=0, tag=1)
                return (payload1, payload2)

        world.spawn_all(main)
        assert world.run()[1] == ("first", "second")

    def test_non_overtaking_same_tag(self):
        world = make_world()

        def main(comm):
            if comm.rank == 0:
                for i in range(5):
                    yield from comm.send(1, tag=3, nbytes=64, payload=i)
            else:
                got = []
                for _ in range(5):
                    payload, _ = yield from comm.recv(source=0, tag=3)
                    got.append(payload)
                return got

        world.spawn_all(main)
        assert world.run()[1] == [0, 1, 2, 3, 4]


class TestProtocols:
    def test_eager_send_completes_without_recv(self):
        """Small sends are buffered: the sender finishes even if the
        receiver never posts a matching receive."""
        world = make_world()

        def main(comm):
            if comm.rank == 0:
                request = comm.isend(1, tag=1, nbytes=100, payload="buffered")
                yield from request.wait()
                return comm.env.now
            yield comm.env.timeout(1.0)  # rank 1 never receives

        world.spawn_all(main)
        out = world.run()
        assert out[0] < 0.1

    def test_rendezvous_send_blocks_until_recv(self):
        """Large sends complete only after the receiver matches."""
        world = make_world(eager_threshold_B=1 * KIB)

        def main(comm):
            if comm.rank == 0:
                request = comm.isend(1, tag=1, nbytes=1_000_000, payload="big")
                yield from request.wait()
                return comm.env.now
            yield comm.env.timeout(0.5)
            payload, _ = yield from comm.recv(source=0, tag=1)
            assert payload == "big"

        world.spawn_all(main)
        assert world.run()[0] > 0.5

    def test_rendezvous_payload_delivered_intact(self):
        world = make_world(eager_threshold_B=1 * KIB)
        blob = {"data": list(range(100))}

        def main(comm):
            if comm.rank == 0:
                yield from comm.send(1, tag=9, nbytes=100_000, payload=blob)
            else:
                payload, status = yield from comm.recv()
                assert status.nbytes == 100_000
                return payload

        world.spawn_all(main)
        assert world.run()[1] == blob

    def test_bigger_messages_take_longer(self):
        durations = {}
        for nbytes in (10 * KIB, 10 * 1024 * KIB):
            world = make_world()

            def main(comm, n=nbytes):
                if comm.rank == 0:
                    yield from comm.send(1, tag=1, nbytes=n)
                else:
                    yield from comm.recv(source=0, tag=1)

            world.spawn_all(main)
            world.run()
            durations[nbytes] = world.env.now
        assert durations[10 * 1024 * KIB] > durations[10 * KIB] * 100


class TestRequests:
    def test_test_polls_without_blocking(self):
        world = make_world()

        def main(comm):
            if comm.rank == 0:
                yield comm.env.timeout(0.2)
                yield from comm.send(1, tag=1, nbytes=10, payload="x")
            else:
                recv = comm.irecv(source=0, tag=1)
                polls = 0
                while not recv.test():
                    polls += 1
                    yield comm.env.timeout(0.05)
                return polls

        world.spawn_all(main)
        assert world.run()[1] >= 3

    def test_cancel_unmatched_recv(self):
        world = make_world()

        def main(comm):
            if comm.rank == 1:
                recv = comm.irecv(source=0, tag=55)
                recv.cancel()
                assert recv.cancelled
                yield comm.env.timeout(0.01)

        world.spawn_all(main)
        world.run()

    def test_cancel_matched_recv_rejected(self):
        world = make_world()

        def main(comm):
            if comm.rank == 0:
                yield from comm.send(1, tag=1, nbytes=10)
            else:
                recv = comm.irecv(source=0, tag=1)
                yield from recv.wait()
                with pytest.raises(SimulationError):
                    recv.cancel()

        world.spawn_all(main)
        world.run()

    def test_status_before_completion_raises(self):
        world = make_world()

        def main(comm):
            if comm.rank == 1:
                recv = comm.irecv(source=0, tag=1)
                with pytest.raises(SimulationError):
                    _ = recv.status
                yield comm.env.timeout(0.01)

        world.spawn_all(main)
        world.run()

    def test_iprobe(self):
        world = make_world()

        def main(comm):
            if comm.rank == 0:
                yield from comm.send(1, tag=4, nbytes=32, payload="probe-me")
            else:
                yield comm.env.timeout(0.1)
                status = comm.iprobe(source=0, tag=4)
                assert status is not None and status.nbytes == 32
                assert comm.iprobe(source=0, tag=99) is None
                payload, _ = yield from comm.recv(source=0, tag=4)
                return payload

        world.spawn_all(main)
        assert world.run()[1] == "probe-me"


class TestValidation:
    def test_bad_destination(self):
        world = make_world()

        def main(comm):
            if comm.rank == 0:
                with pytest.raises(ValueError):
                    comm.isend(5, tag=1, nbytes=10)
            yield comm.env.timeout(0.001)

        world.spawn_all(main)
        world.run()

    @pytest.mark.parametrize("source", [4, 99, -2])
    def test_bad_source_rejected(self, source):
        world = make_world(4)
        comm = world.comm.view(0)
        with pytest.raises(ValueError, match="source rank"):
            comm.irecv(source=source, tag=1)
        assert comm.mailbox.posted == []

    def test_wildcard_and_in_range_sources_accepted(self):
        world = make_world(4)
        comm = world.comm.view(0)
        comm.irecv(source=ANY_SOURCE, tag=1)
        comm.irecv(source=3, tag=1)
        assert len(comm.mailbox.posted) == 2

    def test_reserved_tag_rejected(self):
        world = make_world()

        def main(comm):
            if comm.rank == 0:
                with pytest.raises(ValueError):
                    comm.isend(1, tag=-5, nbytes=10)
            yield comm.env.timeout(0.001)

        world.spawn_all(main)
        world.run()


class TestSubCommunicators:
    def test_sub_comm_traffic_is_isolated(self):
        world = make_world(4)
        sub = world.comm.sub([1, 2, 3])

        def main(comm):
            # World traffic on tag 1 must not match sub-comm receives.
            if comm.rank == 0:
                yield from comm.send(1, tag=1, nbytes=10, payload="world")
            elif comm.rank == 1:
                subview = sub.view(0)
                world_recv = comm.irecv(source=0, tag=1)
                sub_recv = subview.irecv(tag=1)
                payload = yield from world_recv.wait()
                assert payload == "world"
                assert not sub_recv.completed
                sub_recv.cancel()

        world.spawn_all(main)
        world.run()

    def test_sub_comm_rank_mapping(self):
        world = make_world(4)
        sub = world.comm.sub([2, 3])
        assert sub.size == 2
        assert sub.global_rank(0) == 2
        assert sub.view(1).global_rank == 3

    def test_sub_comm_messaging(self):
        world = make_world(4)
        sub = world.comm.sub([1, 3])

        def main(comm):
            if comm.rank == 1:
                view = sub.view(0)
                yield from view.send(1, tag=2, nbytes=10, payload="via-sub")
            elif comm.rank == 3:
                view = sub.view(1)
                payload, status = yield from view.recv(source=0, tag=2)
                assert status.source == 0  # sub-comm local rank
                return payload
            yield comm.env.timeout(0)

        world.spawn_all(main)
        assert world.run()[3] == "via-sub"

    def test_duplicate_ranks_rejected(self):
        world = make_world(4)
        with pytest.raises(ValueError):
            world.comm.sub([1, 1])
