"""Master-side resume validation (unit level)."""

import pytest

from repro.core import SimulationConfig
from repro.core.master import Master
from repro.mpi import MpiWorld


def make_master(cfg, resume_block_sizes=None):
    world = MpiWorld(nranks=cfg.nprocs)
    from repro.mpiio import MPIIOFile, MPIIOHints
    from repro.pvfs import FileSystem, PVFSFile

    fs = FileSystem(world.env, cfg.effective_pvfs())
    file = PVFSFile(cfg.output_path, fs.layout, False)
    fs.files[cfg.output_path] = file
    fh = MPIIOFile(fs, file, MPIIOHints())
    return Master(
        world.comm.view(0), cfg, fh, resume_block_sizes=resume_block_sizes
    )


class TestResumeValidation:
    def test_missing_block_sizes_rejected(self):
        cfg = SimulationConfig(nprocs=3, nqueries=4, nfragments=2,
                               resume_from_query=2)
        with pytest.raises(ValueError, match="prior block size"):
            make_master(cfg, resume_block_sizes=None)
        with pytest.raises(ValueError, match="prior block size"):
            make_master(cfg, resume_block_sizes=[10])  # needs 2

    def test_ledger_preseeded(self):
        cfg = SimulationConfig(nprocs=3, nqueries=4, nfragments=2,
                               resume_from_query=2)
        master = make_master(cfg, resume_block_sizes=[100, 50])
        assert master.ledger.next_query == 2
        assert master.ledger.assigned_bytes == 150
        assert master.groups_dispatched == 2

    def test_task_queue_skips_resumed_queries(self):
        cfg = SimulationConfig(nprocs=3, nqueries=4, nfragments=2,
                               resume_from_query=2)
        master = make_master(cfg, resume_block_sizes=[100, 50])
        queries = {t.query_id for t in master.queue.tasks}
        assert queries == {2, 3}
        assert len(master.queue.tasks) == 4

    def test_fresh_run_needs_no_sizes(self):
        cfg = SimulationConfig(nprocs=3, nqueries=4, nfragments=2)
        master = make_master(cfg)
        assert master.ledger.next_query == 0
        assert len(master.queue.tasks) == 8
