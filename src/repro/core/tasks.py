"""The master's task queue: (query, fragment) tasks in hand-out order.

``tasks[:next]`` went out already; ``tasks[next:]`` is the unassigned
tail.  Database segmentation hands tasks out one at a time (``pop``);
query segmentation hands out the head query's whole run of queued tasks
at once (``pop_query``).  Every edit of the tail goes through this object:
admission appends a query (or, for the priority lane, pushes it to the
front), shedding and donation drop unassigned queries, and fault recovery
requeues and unqueues single tasks.
"""

from __future__ import annotations

from typing import Collection, List

from .protocol import TaskAssignment


class TaskQueue:
    """The master's task list and its hand-out cursor."""

    __slots__ = ("tasks", "next")

    def __init__(self) -> None:
        self.tasks: List[TaskAssignment] = []
        #: Index of the next task to hand out.
        self.next = 0

    def exhausted(self) -> bool:
        return self.next >= len(self.tasks)

    def peek(self) -> TaskAssignment:
        return self.tasks[self.next]

    def pop(self) -> TaskAssignment:
        task = self.tasks[self.next]
        self.next += 1
        return task

    def pop_query(self) -> List[TaskAssignment]:
        """Pop the run of tasks at the head that share the head's query."""
        start = self.next
        q = self.tasks[start].query_id
        end = start + 1
        while end < len(self.tasks) and self.tasks[end].query_id == q:
            end += 1
        self.next = end
        return self.tasks[start:end]

    def add_query(self, q: int, nfragments: int, front: bool = False) -> None:
        """Queue all of ``q``'s fragments, at the back or (``front``) ahead
        of every unassigned task."""
        new = [TaskAssignment(q, f) for f in range(nfragments)]
        if front:
            self.tasks[self.next : self.next] = new
        else:
            self.tasks.extend(new)

    def drop_queries(self, queries: Collection[int]) -> None:
        """Remove the unassigned tasks of ``queries``."""
        self.tasks[self.next :] = [
            t for t in self.tasks[self.next :] if t.query_id not in queries
        ]

    def requeue(self, q: int, f: int) -> int:
        """Insert (q, f) at the head of the unassigned tail, unless it is
        already queued; return how many tasks were inserted (0 or 1).

        Front insertion keeps a recompute inside the currently gated write
        group — appending would deadlock WW-Coll, whose gate never opens
        past a group with a missing batch.
        """
        for task in self.tasks[self.next :]:
            if task.query_id == q and task.fragment_id == f:
                return 0
        self.tasks.insert(self.next, TaskAssignment(q, f))
        return 1

    def unqueue(self, q: int, f: int) -> None:
        """Drop a not-yet-assigned (q, f) again."""
        for i in range(self.next, len(self.tasks)):
            task = self.tasks[i]
            if task.query_id == q and task.fragment_id == f:
                del self.tasks[i]
                return
