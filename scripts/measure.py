"""The one measuring path of the bench scripts: the figures of one call, the
process's peak memory, and a script's function run in a fresh interpreter.

A fresh interpreter is ``sys.executable script --child args...``.  It
inherits this process's environment, ``PYTHONPATH`` included, and working
directory, so it imports the same ``eegspeech`` this process imported.
"""

import json
import os
import resource
import subprocess
import sys
import time


def measured(fn, who=resource.RUSAGE_SELF, prefix: str = ""):
    """``fn()`` and its figures: ``<prefix>s``, the wall time of the call,
    and the ``getrusage(who)`` differences around it, ``<prefix>utime_s``,
    ``<prefix>stime_s`` and ``<prefix>minflt``."""
    before, start = resource.getrusage(who), time.perf_counter()
    result = fn()
    wall, after = time.perf_counter() - start, resource.getrusage(who)
    return result, {f"{prefix}s": wall,
                    f"{prefix}utime_s": after.ru_utime - before.ru_utime,
                    f"{prefix}stime_s": after.ru_stime - before.ru_stime,
                    f"{prefix}minflt": after.ru_minflt - before.ru_minflt}


def peak_rss_mb() -> float:
    """This process's peak resident set size in MB, Linux's VmHWM: a child's
    ``ru_maxrss`` would start at the peak of the process that started it."""
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) for line in f if line.startswith("VmHWM:")) / 1024


def _pin_to_one_cpu() -> None:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def in_fresh_process(script, *args, one_cpu: bool = False) -> dict:
    """The JSON object on the last stdout line of ``script --child args...``.

    With ``one_cpu`` the child is pinned to one CPU before its interpreter
    starts, so the package reads one worker when it is imported.  A child
    that fails has its stderr printed, and this process exits 1.
    """
    done = subprocess.run([sys.executable, str(script), "--child", *map(str, args)],
                          capture_output=True, text=True,
                          preexec_fn=_pin_to_one_cpu if one_cpu else None)
    if done.returncode != 0:
        print(done.stderr, file=sys.stderr, end="")
        raise SystemExit(1)
    return json.loads(done.stdout.strip().splitlines()[-1])
