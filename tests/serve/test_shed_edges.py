"""Shed-policy edge cases: fallback to reject, slot re-stamping, reuse.

The shed policy evicts the youngest *sheddable* pending query — not
started, not priority.  When nothing qualifies it must fall back to a
plain reject and leave the admission ledger balanced; when a slot is
taken over (possibly repeatedly) the new tenant gets a fresh arrival
stamp and lane, and nothing of the old tenant — tasks, priority bit,
arrival stamp — may leak into the reused slot.
"""

import pytest

from repro.core import S3aSim, SimulationConfig
from repro.core.tasks import TaskQueue
from repro.serve import ArrivalConfig
from repro.serve.admission import Admission


def make_admission(max_pending=2, **kwargs):
    arrival = ArrivalConfig(
        process="poisson", rate=5.0, max_pending=max_pending, policy="shed"
    )
    params = dict(
        nprocs=4, nqueries=8, nfragments=3, check=True, arrival=arrival
    )
    params.update(kwargs)
    cfg = SimulationConfig(strategy="ww-list", **params)
    app = S3aSim(cfg)
    admission = Admission(
        arrival, TaskQueue(), app.world.env,
        nfragments=cfg.nfragments, priority_lane=True,
        recorder=None, rank=0, wake=lambda: None,
    )
    return admission, app


class TestFallbackToReject:
    def test_all_started_rejects_with_balanced_ledger(self):
        admission, app = make_admission(max_pending=2)
        admission.on_arrival(False)
        admission.on_arrival(False)
        s = admission.state
        s.started.update({0, 1})  # both queries have assigned tasks
        admission.on_arrival(False)
        assert s.rejected == 1
        assert s.shed == 0
        assert s.admitted == 2
        arrivals = app.world.env.check.arrivals
        assert arrivals["offered"] == 3
        assert arrivals["admitted"] + arrivals["rejected"] == arrivals["offered"]

    def test_all_priority_rejects_with_balanced_ledger(self):
        admission, app = make_admission(max_pending=2)
        admission.on_arrival(True)
        admission.on_arrival(True)
        admission.on_arrival(False)
        s = admission.state
        assert s.rejected == 1
        assert s.shed == 0
        arrivals = app.world.env.check.arrivals
        assert arrivals["admitted"] + arrivals["rejected"] == arrivals["offered"]

    def test_priority_arrival_can_still_shed_normal_work(self):
        admission, app = make_admission(max_pending=2)
        admission.on_arrival(False)
        admission.on_arrival(False)
        admission.on_arrival(True)  # priority arrival sheds slot 1
        s = admission.state
        assert s.shed == 1
        assert s.rejected == 0
        assert 1 in s.priority  # the reused slot is now in the fast lane


class TestSlotReuse:
    def test_slot_restamped_on_each_takeover(self):
        admission, app = make_admission(max_pending=1)
        admission.on_arrival(False)
        s = admission.state
        # Backdate the tenant, then shed it twice over: each takeover must
        # re-stamp the slot's arrival time to "now".  (The priority tenant
        # arrives last — a priority slot is itself unsheddable.)
        s.arrival_t[0] = -5.0
        admission.on_arrival(False)
        assert s.arrival_t[0] == app.world.env.now
        assert 0 not in s.priority  # the second tenant is normal work
        s.arrival_t[0] = -7.0
        admission.on_arrival(True)
        assert s.arrival_t[0] == app.world.env.now
        assert 0 in s.priority
        assert s.shed == 2
        assert s.admitted == 1  # one slot, three tenants
        assert s.offered == 3

    def test_no_task_leakage_across_takeover(self):
        admission, app = make_admission(max_pending=1, nfragments=3)
        admission.on_arrival(False)
        admission.on_arrival(False)  # sheds slot 0, re-enqueues it
        tasks_for_slot = [t for t in admission.queue.tasks if t.query_id == 0]
        assert len(tasks_for_slot) == admission.nfragments  # not doubled
        assert admission.state.shed == 1

    def test_content_survives_takeover(self):
        # The workload is a function of the slot's content id: a takeover
        # reuses the slot, so it reuses the content — arrival stamp and
        # lane are the only things that move.
        admission, app = make_admission(max_pending=1)
        admission.on_arrival(False)
        assert admission.state.content[0] == 0
        admission.on_arrival(True)
        assert admission.state.content[0] == 0


class TestEndToEnd:
    def test_all_priority_load_never_sheds(self):
        # priority_fraction=1.0: every pending query is priority, so the
        # shed policy degrades to reject on every full-queue arrival and
        # the run still completes with a balanced ledger (checker on).
        cfg = SimulationConfig(
            strategy="ww-list", nprocs=4, nqueries=10, nfragments=3,
            check=True,
            arrival=ArrivalConfig(
                process="poisson", rate=50.0, max_pending=2,
                policy="shed", priority_fraction=1.0,
            ),
        )
        result = S3aSim(cfg).run()
        s = result.serve_stats
        assert s["shed"] == 0.0
        assert s["rejected"] > 0.0
        assert s["admitted"] + s["rejected"] == s["offered"]
        assert s["completed"] == s["admitted"]
        assert result.file_stats.complete

    @pytest.mark.parametrize("strategy", ["mw", "ww-posix", "ww-list"])
    def test_saturating_shed_load_conserves(self, strategy):
        cfg = SimulationConfig(
            strategy=strategy, nprocs=4, nqueries=12, nfragments=3,
            check=True,
            arrival=ArrivalConfig(
                process="poisson", rate=100.0, max_pending=2, policy="shed"
            ),
        )
        result = S3aSim(cfg).run()
        s = result.serve_stats
        assert s["shed"] > 0.0
        assert s["completed"] == s["admitted"]
        assert s["pending"] == 0.0
        assert result.file_stats.complete
