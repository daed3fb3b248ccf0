"""Targeted behavioural tests of the master/worker algorithms."""

import pytest

from repro.core import Phase, S3aSim, SimulationConfig
from repro.sim import SimulationError


def small(strategy="ww-list", **kwargs):
    defaults = dict(nprocs=4, strategy=strategy, nqueries=4, nfragments=8)
    defaults.update(kwargs)
    return SimulationConfig(**defaults)


class TestMasterBehaviour:
    def test_all_tasks_assigned_exactly_once(self):
        app = S3aSim(small())
        master_holder = {}

        # Wrap run() to capture the Master object.
        from repro.core.master import Master

        original_init = Master.__init__

        def spy_init(self, *args, **kwargs):
            original_init(self, *args, **kwargs)
            master_holder["master"] = self

        Master.__init__ = spy_init
        try:
            app.run()
        finally:
            Master.__init__ = original_init

        master = master_holder["master"]
        assert master.queue.next == len(master.queue.tasks) == 4 * 8
        owners = master.task_owner
        assert len(owners) == 32
        assert set(owners.values()) <= {1, 2, 3}

    def test_groups_dispatched_in_order(self):
        """The offset ledger enforces query-order block assignment; a run
        completing proves no group was dispatched early."""
        app = S3aSim(small(write_every=2))
        result = app.run()
        assert result.file_stats.complete

    def test_mw_master_accrues_io_time(self):
        app = S3aSim(small("mw"))
        result = app.run()
        assert result.master[Phase.IO] > 0
        assert all(w[Phase.IO] == 0 for w in result.workers)

    def test_ww_master_does_no_io(self):
        app = S3aSim(small("ww-list"))
        result = app.run()
        assert result.master[Phase.IO] == 0


class TestCollectiveGating:
    def test_gated_master_defers_next_group(self):
        """Under WW-Coll the master must not hand out group g+1 tasks
        before group g's offsets are dispatched — visible as workers
        spending time waiting (data distribution) even though tasks
        remain."""
        coll = S3aSim(small("ww-coll", nprocs=6)).run()
        individual = S3aSim(small("ww-list", nprocs=6)).run()
        assert (
            coll.worker_mean[Phase.DATA_DISTRIBUTION]
            > individual.worker_mean[Phase.DATA_DISTRIBUTION]
        )

    def test_collective_joined_by_all_workers_every_group(self):
        """Each group produces exactly one collective write; all complete
        (a worker missing one would deadlock the run)."""
        cfg = small("ww-coll", nqueries=6, write_every=2)
        result = S3aSim(cfg).run()
        assert result.file_stats.complete


class TestWorkerBehaviour:
    def test_workers_overlap_io_with_compute_individual(self):
        """Individual WW: a worker that wrote data also computed after its
        first write (overlap) — total elapsed is less than the sum of a
        serialized schedule."""
        result = S3aSim(small("ww-list", nprocs=3)).run()
        worker = result.worker_mean
        # Phases sum to at most the elapsed time (with slack for OTHER).
        assert worker.total <= result.elapsed + 1e-9

    def test_worker_crash_propagates(self):
        """A worker dying mid-run surfaces as an exception, not a hang."""
        app = S3aSim(small())

        from repro.core.worker import Worker

        original = Worker._do_task
        calls = {"n": 0}

        def sabotaged(self, task):
            calls["n"] += 1
            if calls["n"] == 5:
                raise RuntimeError("injected worker failure")
            return original(self, task)

        Worker._do_task = sabotaged
        try:
            with pytest.raises(RuntimeError, match="injected worker failure"):
                app.run()
        finally:
            Worker._do_task = original

    def test_query_sync_barrier_counts(self):
        """With query sync on, every worker syncs once per write group
        plus the final barrier."""
        cfg = small("ww-list", nprocs=4, nqueries=4, write_every=1,
                    query_sync=True)
        app = S3aSim(cfg)
        result = app.run()
        assert result.file_stats.complete
        # Sync phase present on workers (4 group barriers + final barrier).
        assert result.worker_mean[Phase.SYNC] > 0


def _group_traffic(monkeypatch, cfg):
    """Run ``cfg`` and return the master's offset and written-notice sends
    as ``{group: {"offsets": [dst, ...], "notices": [dst, ...]}}``."""
    from repro.core.protocol import TAG_OFFSETS, TAG_WRITTEN
    from repro.mpi.communicator import RankComm

    kinds = {TAG_OFFSETS: "offsets", TAG_WRITTEN: "notices"}
    traffic = {}
    original = RankComm.isend

    def spy(self, dst, tag, nbytes, payload=None, oob=False):
        if self.rank == 0 and tag in kinds:
            sends = traffic.setdefault(
                payload.group, {"offsets": [], "notices": []}
            )
            sends[kinds[tag]].append(dst)
        return original(self, dst, tag, nbytes, payload, oob)

    monkeypatch.setattr(RankComm, "isend", spy)
    result = S3aSim(cfg).run()
    assert result.file_stats.complete
    assert sorted(traffic) == list(range(cfg.ngroups))
    return traffic


class TestOffsetTrafficPolicy:
    """Which workers hear about each write group, and how."""

    def test_individual_no_sync_messages_only_to_contributors(self, monkeypatch):
        """A worker with no results for a group gets no offset message."""
        cfg = small("ww-list", nprocs=4, nqueries=2, nfragments=2)
        traffic = _group_traffic(monkeypatch, cfg)
        for sends in traffic.values():
            # 2 fragments per query: at most 2 contributing workers of 3.
            assert 1 <= len(sends["offsets"]) <= 2
            assert sends["notices"] == []

    def test_collective_messages_broadcast_to_all_workers(self, monkeypatch):
        cfg = small("ww-coll", nprocs=4, nqueries=2, nfragments=2)
        traffic = _group_traffic(monkeypatch, cfg)
        for sends in traffic.values():
            assert sends == {"offsets": [1, 2, 3], "notices": []}

    def test_mw_query_sync_sends_one_notice_per_worker(self, monkeypatch):
        cfg = small("mw", nprocs=4, nqueries=2, nfragments=2, query_sync=True)
        traffic = _group_traffic(monkeypatch, cfg)
        for sends in traffic.values():
            assert sends == {"offsets": [], "notices": [1, 2, 3]}

    def test_individual_query_sync_broadcasts_offsets(self, monkeypatch):
        cfg = small("ww-list", nprocs=4, nqueries=2, nfragments=2,
                    query_sync=True)
        traffic = _group_traffic(monkeypatch, cfg)
        for sends in traffic.values():
            assert sends == {"offsets": [1, 2, 3], "notices": []}

    def test_hybrid_auto_sends_offsets_only_to_contributors(self, monkeypatch):
        cfg = small("hybrid-auto", nprocs=4, nqueries=2, nfragments=2)
        traffic = _group_traffic(monkeypatch, cfg)
        for sends in traffic.values():
            assert 1 <= len(sends["offsets"]) <= 2
            assert sends["notices"] == []


def _bare_world(cfg):
    """A real env/communicator but no running ranks — handler-level tests."""
    from repro.mpi import Communicator
    from repro.mpi.network import Network, NetworkConfig
    from repro.sim import Environment

    env = Environment()
    network = Network(env, cfg.nprocs, NetworkConfig())
    return env, Communicator(env, network)


def _drive(env, frag):
    """Run one process fragment to completion inside the bare world."""
    out = {}

    def runner(env):
        yield from frag
        out["done"] = True

    env.process(runner(env))
    env.run()
    assert out.get("done"), "handler fragment did not finish"


def _score_message(query_id, fragment_id, worker, count=4):
    import numpy as np

    from repro.core.protocol import ScoreMessage

    return ScoreMessage(
        query_id=query_id,
        fragment_id=fragment_id,
        worker=worker,
        scores=np.arange(count, dtype=np.float64),
        sizes=np.full(count, 128, dtype=np.int64),
    )


class TestProtocolEdgeCases:
    """Handler-level tests of the master/worker message protocol."""

    def _master(self, cfg):
        from repro.core.master import Master

        env, comm = _bare_world(cfg)
        return env, Master(comm.view(0), cfg, fh=None)

    def test_request_after_exhaustion_releases_idempotently(self):
        env, master = self._master(small())
        master.queue.next = len(master.queue.tasks)
        _drive(env, master._handle_request(1))
        assert master.done_set == {1}
        # The same worker asking again is released again, not double-counted.
        _drive(env, master._handle_request(1))
        assert master.done_set == {1}
        assert master.done_workers == 1

    def test_duplicate_score_message_dropped(self):
        env, master = self._master(small())
        _drive(env, master._handle_scores(_score_message(0, 0, worker=1)))
        assert len(master.received[0]) == 1
        first = master.received[0][0]
        _drive(env, master._handle_scores(_score_message(0, 0, worker=2)))
        assert master.received[0][0] is first
        assert master.fault_counters["duplicate_scores_dropped"] == 1

    def test_duplicate_from_owner_keeps_its_batch(self):
        """Regression: a worker that computes the same task twice (requeue
        raced its reborn mailbox) must NOT be told to discard — its single
        stored copy is the one the group dispatch will write."""
        from repro.faults import FaultToleranceConfig

        cfg = small(fault_tolerance=FaultToleranceConfig())
        env, master = self._master(cfg)
        _drive(env, master._handle_scores(_score_message(0, 0, worker=1)))
        assert master.task_owner[(0, 0)] == 1
        sends_before = len(master.pending_sends)
        _drive(env, master._handle_scores(_score_message(0, 0, worker=1)))
        assert "discards_issued" not in master.fault_counters
        assert len(master.pending_sends) == sends_before
        # A duplicate from a *different* worker is stranded: discard it.
        _drive(env, master._handle_scores(_score_message(0, 0, worker=2)))
        assert master.fault_counters["discards_issued"] == 1
        assert len(master.pending_sends) == sends_before + 1

    def test_out_of_order_written_notice_keeps_sync_monotonic(self):
        from repro.core.protocol import WrittenNotice
        from repro.core.worker import Worker

        cfg = small("mw", query_sync=True)
        env, comm = _bare_world(cfg)
        wcomm = comm.sub([1])
        worker = Worker(
            comm.view(1), wcomm.view(0), cfg, workload=None, fh=None
        )
        _drive(env, worker._handle_notice(WrittenNotice(group=2)))
        assert worker.groups_synced == 3
        # A notice for an earlier group arriving late never rewinds.
        _drive(env, worker._handle_notice(WrittenNotice(group=0)))
        assert worker.groups_synced == 3
