"""Fork-join over the independent branches of a burst.

Inside a :func:`branch_threads` block, on two or more cores, one worker
thread and every thread that forks share one queue of branches.
:func:`fork` queues every branch but its first, runs the first itself,
then each of its queued branches that no thread has taken yet; while one
of its branches still runs on the other thread, the forking thread runs
any other queued branch instead of waiting idle.  A fork inside a branch
thus reaches whichever thread is free.  Elsewhere, and on one core,
:func:`fork` runs its branches in turn.
"""

from __future__ import annotations

import contextvars
import os
import threading
from contextlib import contextmanager

# the queue of the enclosing block, which its worker also sees
_WORKER = contextvars.ContextVar("oansim_fork_worker", default=None)


class _Fork:
    """One call of :func:`fork`: its branches and their results, its first
    error in order so far and that error's position, and how many of its
    branches are yet to end."""

    def __init__(self, branches):
        self.branches, self.results = branches, [None] * len(branches)
        self.error, self.first, self.left = None, len(branches), len(branches)


class _Queue:
    """The branches queued in one block, oldest first, as ``(fork,
    position)``; its lock guards them and the record of every fork."""

    def __init__(self):
        self.items, self.closed = [], False
        self.cond = threading.Condition()

    def serve(self, done, job=None) -> None:
        """Under the lock, until ``done()``: run the oldest queued branch,
        one of ``job``'s first, or wait for one."""
        while not done():
            queued = [t for t in self.items if t[0] is job] or self.items
            if not queued:
                self.cond.wait()
                continue
            item = queued[0]
            self.items.remove(item)
            self.run(*item)

    def run(self, job: _Fork, i: int) -> None:
        """Run branch ``i`` of ``job`` outside the lock, unless an earlier
        one has failed, and record how it ended."""
        result = exc = None
        self.cond.release()
        try:
            if i < job.first:
                result = job.branches[i]()
        except BaseException as err:  # re-raised by fork
            exc = err
        finally:
            self.cond.acquire()
        job.results[i] = result
        if exc is not None and i < job.first:
            job.error, job.first = exc, i
        job.left -= 1
        self.cond.notify_all()

    def work(self) -> None:
        """The worker's thread: serve the queue until the block ends."""
        _WORKER.set(self)
        with self.cond:
            self.serve(lambda: self.closed)


@contextmanager
def branch_threads():
    """Let :func:`fork` use a second core within the block."""
    if (os.cpu_count() or 1) < 2:
        yield
        return
    queue = _Queue()
    worker = threading.Thread(target=queue.work, daemon=True)
    worker.start()
    token = _WORKER.set(queue)
    try:
        yield
    finally:
        _WORKER.reset(token)
        with queue.cond:
            queue.closed = True
            queue.cond.notify_all()
        worker.join()


def fork(*branches) -> list:
    """The results of independent zero-argument callables, in order.

    If branches raise, the error of the first of them in order reaches
    the caller unchanged, once no thread runs a branch of this fork.
    """
    queue = _WORKER.get()
    if queue is None or len(branches) < 2:
        return [branch() for branch in branches]
    job = _Fork(branches)
    with queue.cond:
        queue.items += [(job, i) for i in range(1, len(branches))]
        queue.cond.notify_all()
        queue.run(job, 0)
        queue.serve(lambda: not job.left, job)
    if job.error is not None:
        raise job.error
    return job.results
