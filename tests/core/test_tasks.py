"""TaskQueue: whole-query pops."""

from repro.core.tasks import TaskQueue


def keys(tasks):
    return [(t.query_id, t.fragment_id) for t in tasks]


def test_pop_query_takes_the_run_at_the_head():
    queue = TaskQueue()
    queue.add_query(0, 3)
    queue.add_query(1, 2)
    assert keys(queue.pop_query()) == [(0, 0), (0, 1), (0, 2)]
    # A requeued lone task sits ahead of the next query and goes out alone.
    assert queue.requeue(0, 1) == 1
    assert keys(queue.pop_query()) == [(0, 1)]
    assert keys(queue.pop_query()) == [(1, 0), (1, 1)]
    assert queue.exhausted()
