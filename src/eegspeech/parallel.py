"""One job's independent parts on every CPU this process may run on.

``split(n, part)`` calls ``part(lo, hi)`` over contiguous slices of
``range(n)``, at most one per worker: the calling thread runs the first
slice, and each other slice runs on a thread that the call starts and joins
before it returns, so no thread outlives a call and a fork never copies one.
numpy releases the interpreter lock inside BLAS, its ufunc loops and its
copies, and SciPy inside its filters, so the parts run at the same time.

A caller keeps its result independent of the worker count by giving each
part only work whose every output element is computed from its own slice,
in the same operations as a serial pass, written into arrays the caller
allocated; every sum across slices stays with the caller, after ``split``
returns.  Parts that allocated their own large blocks would make glibc give
each thread its own heap arena, and the process's peak memory would grow.

``Units`` runs independent keyed units of work and hands back each one's
return value, or its exception, by key.  When two units can run at once it
runs each in a forked child of its own, at most ``WORKERS`` children at once
and each at one worker; otherwise it runs each in this process, at this
process's worker count, when its result is asked for.
"""

from __future__ import annotations

import gc
import os
import pickle
import select
import signal
import sys
import threading

#: Workers, the calling thread included: the CPUs this process may run on.
WORKERS = len(os.sched_getaffinity(0))


def split(n: int, part, grain: int = 1) -> None:
    """Call ``part(lo, hi)`` over contiguous slices that cover ``range(n)``,
    at most one per worker and each of at least ``grain`` items, and return
    once every call has ended.

    A caller sets ``grain`` to the items that carry enough work to pay for
    starting a thread.  Slices come in order and differ in length by at most
    one, so they are the same on every call at a given worker count.  The
    calling thread runs the first slice, and each other slice runs on a
    thread this call starts; every such thread has been joined when the call
    returns or raises, even when starting one fails.  With one slice,
    ``part(0, n)`` runs inline and no thread starts.  If parts raise, the
    exception of the first slice that raised is re-raised, after every part
    has ended.
    """
    k = min(WORKERS, n // grain)
    if k <= 1:
        if n > 0:
            part(0, n)
        return
    bounds = [n * i // k for i in range(k + 1)]
    errors = [None] * k

    def run(i):
        try:
            part(bounds[i], bounds[i + 1])
        except BaseException as exc:  # noqa: BLE001 - re-raised by the calling thread
            errors[i] = exc

    threads = []
    try:
        for i in range(1, k):
            thread = threading.Thread(target=run, args=(i,), name=f"eegspeech-split-{i}")
            thread.start()
            threads.append(thread)
        part(bounds[0], bounds[1])
    finally:
        for thread in threads:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc


class UnitFailed(RuntimeError):
    """A unit raised an exception its runner does not pass on, or its child
    ended without a result."""


def _outcome(fn, passes, caught=BaseException) -> tuple[bool, object]:
    """(True, ``fn()``), or (False, the exception of a ``passes`` class, or
    the text of any other ``caught`` one)."""
    try:
        return True, fn()
    except passes as exc:
        return False, exc
    except caught as exc:  # noqa: BLE001 - in a child, sent to the parent as text
        return False, f"{type(exc).__name__}: {exc}"


def _ended(status: int) -> str:
    code = os.waitstatus_to_exitcode(status)
    if code < 0:
        return f"was killed by signal {-code} ({signal.Signals(-code).name})"
    return f"exited with status {code}"


def _run_child(fn, fd: int, passes) -> None:
    """Run ``fn`` in a forked child at one worker, write its outcome to
    ``fd`` and end the child without running the parent's exit handlers."""
    global WORKERS
    WORKERS = 1
    status = 1
    try:
        outcome = _outcome(fn, passes)
        with open(fd, "wb") as pipe:
            pipe.write(pickle.dumps(outcome))
        status = 0
    finally:
        for stream in (sys.stdout, sys.stderr):
            try:
                stream.flush()
            except Exception:  # noqa: BLE001 - a closed stream has nothing to lose
                pass
        os._exit(status)


class Units:
    """Keyed units of work, ``work`` mapping each key to a function of no
    arguments, in the order they start.

    When two units can run at once (``WORKERS`` > 1 and more than one unit),
    each runs in a forked child of its own, while fewer than ``WORKERS`` are
    alive.  A child sees this process's memory as it was at its fork, runs
    at one worker, sends its picklable return value back through a pipe of
    its own and ends with ``os._exit``.  Otherwise nothing forks: a unit runs
    here, at this process's worker count, when its result is asked for.
    ``result(key)`` returns a unit's value.  An exception of one of the
    ``passes`` classes is re-raised there as it was raised; any other
    exception, or a child that ended without a result (a signal, say), is a
    UnitFailed that says what happened; an interrupt here propagates.  Only
    this runner's own children are waited for.  ``close`` (also on leaving a
    ``with`` block) kills and reaps every child still alive and drops the
    units not started.
    """

    def __init__(self, work: dict, passes: tuple[type[BaseException], ...] = ()):
        self.passes = passes
        self._queued = dict(work)
        self._forks = WORKERS > 1 and len(self._queued) > 1
        self._running: dict[int, tuple[object, int]] = {}  # pipe fd -> (key, pid)
        self._outcomes: dict[object, tuple[bool, object]] = {}
        try:
            self._start()
        except BaseException:
            self.close()
            raise

    def __enter__(self) -> "Units":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _start(self) -> None:
        while self._forks and self._queued and len(self._running) < WORKERS:
            key = next(iter(self._queued))
            fn = self._queued.pop(key)
            try:
                self._fork(key, fn)
            except OSError as exc:  # out of processes, memory or descriptors
                self._outcomes[key] = (False, f"the child could not be started: {exc}")

    def _fork(self, key, fn) -> None:
        # a buffer flushed now is not written again by the child
        sys.stdout.flush()
        sys.stderr.flush()
        read_fd, write_fd = os.pipe()
        # the child's collections then skip the parent's objects, whose
        # pages they would otherwise copy
        gc.freeze()
        try:
            pid = os.fork()
        except OSError:
            gc.unfreeze()
            os.close(read_fd)
            os.close(write_fd)
            raise
        if pid == 0:
            os.close(read_fd)
            _run_child(fn, write_fd, self.passes)
        gc.unfreeze()
        os.close(write_fd)
        self._running[read_fd] = (key, pid)

    def _collect(self, fd: int) -> None:
        # the unit stays in _running until it is reaped, so that an
        # interrupted read or wait still leaves it to close()
        key, pid = self._running[fd]
        chunks = []
        while chunk := os.read(fd, 1 << 16):
            chunks.append(chunk)
        _, status = os.waitpid(pid, 0)
        del self._running[fd]
        os.close(fd)
        data = b"".join(chunks)
        try:
            self._outcomes[key] = pickle.loads(data)
        except Exception:  # noqa: BLE001 - nothing, or a message cut short
            self._outcomes[key] = (False, f"the child {_ended(status)} without a result")

    def result(self, key):
        """The value of the unit under ``key``; raises as the class docstring says."""
        if not self._forks:  # an interrupt or exit propagates from here
            self._outcomes[key] = _outcome(self._queued.pop(key), self.passes, Exception)
        while key not in self._outcomes:
            if not self._running:
                raise KeyError(key)
            ready, _, _ = select.select(list(self._running), [], [])
            for fd in ready:
                self._collect(fd)
            self._start()
        ok, value = self._outcomes.pop(key)
        if ok:
            return value
        if isinstance(value, BaseException):
            raise value
        raise UnitFailed(value)

    def close(self) -> None:
        self._queued.clear()
        for _, pid in self._running.values():
            os.kill(pid, signal.SIGKILL)
        for fd, (_, pid) in self._running.items():
            os.waitpid(pid, 0)
            os.close(fd)
        self._running.clear()
