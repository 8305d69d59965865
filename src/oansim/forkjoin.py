"""Fork-join over the independent branches of a burst.

Inside a :func:`branch_threads` block, on two or more cores, :func:`fork`
runs every other branch on the caller's thread and the rest on a single
worker.  Elsewhere, and inside a forked branch, it runs them in turn.
"""

from __future__ import annotations

import contextvars
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

# the worker of the enclosing block; a thread starts from an empty context,
# so the worker never sees one and cannot wait on itself
_WORKER = contextvars.ContextVar("oansim_fork_worker", default=None)


@contextmanager
def branch_threads():
    """Let :func:`fork` use a second core within the block."""
    if (os.cpu_count() or 1) < 2:
        yield
        return
    with ThreadPoolExecutor(max_workers=1) as worker:
        token = _WORKER.set(worker)
        try:
            yield
        finally:
            _WORKER.reset(token)


def _run(branches) -> tuple:
    """The results of ``branches`` up to the first error, and that error."""
    results = []
    for branch in branches:
        try:
            results.append(branch())
        except BaseException as exc:  # re-raised by fork
            return results, exc
    return results, None


def fork(*branches) -> list:
    """The results of independent zero-argument callables, in order.

    If branches raise, the error of the first of them in order reaches
    the caller unchanged, once neither thread runs a branch any more.
    """
    worker = _WORKER.get()
    if worker is None or len(branches) < 2:
        return [branch() for branch in branches]
    token = _WORKER.set(None)
    try:
        odd = worker.submit(_run, branches[1::2])
        even = _run(branches[0::2])
        odd = odd.result()
    finally:
        _WORKER.reset(token)
    # a side stops at its first error: the lower position of the two is
    # the first error in order
    errors = [(2 * len(done) + side, exc)
              for side, (done, exc) in enumerate((even, odd)) if exc is not None]
    if errors:
        raise min(errors)[1]
    results = [None] * len(branches)
    results[0::2], results[1::2] = even[0], odd[0]
    return results
