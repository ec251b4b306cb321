"""One job's independent parts on every CPU this process may run on.

``split(n, part)`` calls ``part(lo, hi)`` over contiguous slices of
``range(n)``, at most one per worker: the calling thread runs the first
slice and a pool of threads runs the rest.  numpy releases the interpreter
lock inside BLAS, its ufunc loops and its copies, and SciPy inside its
filters, so the parts run at the same time.

A caller keeps its result independent of the worker count by giving each
part only work whose every output element is computed from its own slice,
in the same operations as a serial pass, written into arrays the caller
allocated; every sum across slices stays with the caller, after ``split``
returns.  Parts that allocated their own large blocks would make glibc give
each thread its own heap arena, and the process's peak memory would grow.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

#: Workers, the calling thread included: the CPUs this process may run on.
WORKERS = len(os.sched_getaffinity(0))

_lock = threading.Lock()
_pool: ThreadPoolExecutor | None = None
_local = threading.local()


def _enter_worker() -> None:
    _local.in_pool = True


def _forget_pool() -> None:
    # a forked child has none of its parent's threads, so it starts its own pool
    global _lock, _pool
    _lock, _pool = threading.Lock(), None


os.register_at_fork(after_in_child=_forget_pool)


def _executor() -> ThreadPoolExecutor:
    global _pool
    with _lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(WORKERS - 1, thread_name_prefix="eegspeech-split",
                                       initializer=_enter_worker)
        return _pool


def split(n: int, part, grain: int = 1) -> None:
    """Call ``part(lo, hi)`` over contiguous slices that cover ``range(n)``,
    at most one per worker and each of at least ``grain`` items, and return
    once every call has ended.

    A caller sets ``grain`` to the items that carry enough work to pay for
    handing a slice to another thread.  Slices come in order and differ in
    length by at most one, so they are the same on every call at a given
    worker count.  With one slice, or when called from one of the pool's own
    threads (so nested use cannot deadlock), ``part(0, n)`` runs inline, and
    with one worker no pool is created.  If parts raise, the exception of the
    first slice that raised is re-raised, after every part has ended.
    """
    k = min(WORKERS, n // grain)
    if k <= 1 or getattr(_local, "in_pool", False):
        if n > 0:
            part(0, n)
        return
    bounds = [n * i // k for i in range(k + 1)]
    pool = _executor()
    futures = [pool.submit(part, lo, hi) for lo, hi in zip(bounds[1:-1], bounds[2:])]
    try:
        part(bounds[0], bounds[1])
    finally:
        wait(futures)
    for future in futures:
        future.result()
