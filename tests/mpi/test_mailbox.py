"""Mailbox matching engine unit tests (direct, without a network)."""

import pytest

from repro.mpi import ANY_SOURCE, ANY_TAG, Envelope, Mailbox, collective_tag
from repro.mpi.constants import EAGER, RENDEZVOUS_RTS
from repro.mpi.request import RecvRequest
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


def make_envelope(env, src=0, dst=1, tag=5, nbytes=100, payload="data",
                  kind=EAGER):
    cts = env.event() if kind == RENDEZVOUS_RTS else None
    data = env.event() if kind == RENDEZVOUS_RTS else None
    return Envelope(
        src=src, dst=dst, tag=tag, nbytes=nbytes, payload=payload,
        kind=kind, cts_event=cts, data_event=data,
    )


class TestDelivery:
    def test_wrong_destination_rejected(self, env):
        mailbox = Mailbox(env, rank=1)
        with pytest.raises(ValueError):
            mailbox.deliver(make_envelope(env, dst=2))

    def test_unmatched_arrival_queues(self, env):
        mailbox = Mailbox(env, rank=1)
        mailbox.deliver(make_envelope(env))
        assert len(mailbox.unexpected) == 1
        assert mailbox.posted == []

    def test_arrival_matches_posted_recv(self, env):
        mailbox = Mailbox(env, rank=1)
        recv = RecvRequest(env, source=0, tag=5, mailbox=mailbox)
        mailbox.post(recv)
        mailbox.deliver(make_envelope(env))
        assert recv.matched
        assert recv.completed
        env.run()
        assert recv.done_event.value == "data"
        assert recv.status.nbytes == 100

    def test_recv_matches_queued_arrival(self, env):
        mailbox = Mailbox(env, rank=1)
        mailbox.deliver(make_envelope(env, payload="early"))
        recv = RecvRequest(env, source=0, tag=5, mailbox=mailbox)
        mailbox.post(recv)
        env.run()
        assert recv.done_event.value == "early"
        assert mailbox.unexpected == []


class TestMatchingRules:
    def test_source_selectivity(self, env):
        mailbox = Mailbox(env, rank=1)
        recv = RecvRequest(env, source=3, tag=ANY_TAG, mailbox=mailbox)
        mailbox.post(recv)
        mailbox.deliver(make_envelope(env, src=0))
        assert not recv.matched
        mailbox.deliver(make_envelope(env, src=3, payload="from-3"))
        assert recv.matched

    def test_tag_selectivity(self, env):
        mailbox = Mailbox(env, rank=1)
        recv = RecvRequest(env, source=ANY_SOURCE, tag=9, mailbox=mailbox)
        mailbox.post(recv)
        mailbox.deliver(make_envelope(env, tag=5))
        assert not recv.matched
        mailbox.deliver(make_envelope(env, tag=9))
        assert recv.matched

    def test_any_tag_skips_collective_tags(self, env):
        mailbox = Mailbox(env, rank=1)
        mailbox.deliver(make_envelope(env, tag=collective_tag(0)))
        assert mailbox.probe(ANY_SOURCE, ANY_TAG) is None
        recv = RecvRequest(env, source=ANY_SOURCE, tag=ANY_TAG, mailbox=mailbox)
        mailbox.post(recv)
        assert not recv.matched
        assert mailbox.probe(0, collective_tag(0)) is not None
        mailbox.deliver(make_envelope(env, tag=0, payload="user"))
        assert recv.matched

    def test_earliest_posted_recv_wins(self, env):
        mailbox = Mailbox(env, rank=1)
        first = RecvRequest(env, ANY_SOURCE, ANY_TAG, mailbox)
        second = RecvRequest(env, ANY_SOURCE, ANY_TAG, mailbox)
        mailbox.post(first)
        mailbox.post(second)
        mailbox.deliver(make_envelope(env))
        assert first.matched and not second.matched

    def test_earliest_arrival_matches_first(self, env):
        mailbox = Mailbox(env, rank=1)
        mailbox.deliver(make_envelope(env, payload="one"))
        mailbox.deliver(make_envelope(env, payload="two"))
        recv = RecvRequest(env, ANY_SOURCE, ANY_TAG, mailbox)
        mailbox.post(recv)
        env.run()
        assert recv.done_event.value == "one"


class TestRendezvousMatching:
    def test_rts_match_triggers_cts_and_defers_completion(self, env):
        mailbox = Mailbox(env, rank=1)
        envelope = make_envelope(env, kind=RENDEZVOUS_RTS, payload=None)
        recv = RecvRequest(env, source=0, tag=5, mailbox=mailbox)
        mailbox.post(recv)
        mailbox.deliver(envelope)
        assert recv.matched
        assert not recv.completed  # payload not yet transferred
        assert envelope.cts_event.triggered
        envelope.data_event.succeed("big-payload")
        env.run()
        assert recv.done_event.value == "big-payload"


class TestProbeAndUnpost:
    def test_probe_sees_queued_arrivals(self, env):
        mailbox = Mailbox(env, rank=1)
        assert mailbox.probe(ANY_SOURCE, ANY_TAG) is None
        mailbox.deliver(make_envelope(env, nbytes=77))
        status = mailbox.probe(0, 5)
        assert status is not None and status.nbytes == 77
        assert mailbox.probe(0, 99) is None
        # Probing is non-destructive.
        assert len(mailbox.unexpected) == 1

    def test_unpost_removes_recv(self, env):
        mailbox = Mailbox(env, rank=1)
        recv = RecvRequest(env, ANY_SOURCE, ANY_TAG, mailbox)
        mailbox.post(recv)
        recv.cancel()
        assert mailbox.posted == []
        mailbox.deliver(make_envelope(env))
        assert not recv.matched

    def test_unpost_twice_is_harmless(self, env):
        mailbox = Mailbox(env, rank=1)
        recv = RecvRequest(env, ANY_SOURCE, ANY_TAG, mailbox)
        mailbox.post(recv)
        mailbox.unpost(recv)
        mailbox.unpost(recv)
        assert mailbox.posted == []
