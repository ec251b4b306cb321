#!/usr/bin/env python3
"""eegspeech benchmark: a closed loop with one client in one process.

Each repetition runs in a fresh child process (``rep.py``) and calls
``eegspeech.cli.main`` in-process three times: ``synth`` builds a corpus
from ``--seed``, ``train`` or ``crossval`` fits the models, and ``evaluate``
replays the saved bundles.  Repetitions follow one another while a
whole one fits in ``--seconds`` (at least two, so outputs can be compared),
after one set-up-only child that times imports plus ``synth`` alone.

    python3 perfbench/run.py --workload ref62_holdout --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --all --seed 1        # every workload, one table

With ``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics (medians over repetitions).  Times are scaled to a reference host
by the speed of the fixed loop in ``hostspeed.py``, sampled ten times a
second while the work runs, because on a shared host the same work can take
twice as long a few seconds later; the measured wall times are kept in
``result.json``.  With ``--trace 1`` repetitions
alternate untraced and traced, and the metrics are the per-layer ones from
the traced repetitions plus the tracing overhead.  Every repetition checks
its outputs; any failed check makes ``correct`` false and the exit code 1.
Scratch files go under ``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

MIN_REPS = 2
#: A child still running this long after its run started is killed and
#: counted as failed, so one run always ends within 180 s.
DEADLINE_S = 170
#: BLAS threads for every child.  One thread (at most nproc on any host)
#: keeps repeated runs steady on a shared machine; the conv kernels do not
#: call BLAS at all.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "train_s": "s", "evaluate_s": "s",
                    "train_trials_per_s": "1/s", "scored_trials_per_s": "1/s",
                    "peak_rss_mb": "MB", "accuracy": "ratio"}


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else None
    return ref


class Run:
    """The repetitions of one workload at one seed, and their bookkeeping."""

    def __init__(self, workload: str, seed: int, trace: bool):
        self.wl = WORKLOADS[workload]
        self.seed = seed
        self.trace = trace
        self.dir = ROOT / ".bench_work" / f"{workload}-seed{seed}-trace{int(trace)}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.attempted = 0
        self.failures: list[str] = []
        self.env = {**os.environ, **{k: str(BLAS_THREADS) for k in BLAS_ENV}}
        self.count = 0
        self.start = time.perf_counter()

    def child(self, *, setup_only=False, traced=False) -> dict | None:
        """Run ``rep.py`` once in a fresh process; None if it crashed."""
        self.count += 1
        tag = f"child{self.count:02d}"
        rep_dir, result = self.dir / tag, self.dir / f"{tag}.json"
        argv = [sys.executable, str(HERE / "rep.py"), "--workload", self.wl.name,
                "--seed", str(self.seed), "--dir", str(rep_dir), "--result", str(result)]
        if setup_only:
            argv.append("--setup-only")
        if traced:
            argv += ["--trace", "--spans", str(self.dir / f"{tag}.spans.jsonl")]
        with open(self.dir / f"{tag}.log", "w") as log:
            try:
                timeout = max(1.0, DEADLINE_S - (time.perf_counter() - self.start))
                code = subprocess.run(argv, stdout=log, stderr=subprocess.STDOUT,
                                      env=self.env, timeout=timeout).returncode
            except subprocess.TimeoutExpired:
                code = "timeout"
        shutil.rmtree(rep_dir, ignore_errors=True)
        if code != 0 or not result.is_file():
            self.attempted += 1
            self.failures.append(f"{tag}: child exited with {code}")
            return None
        rep = json.loads(result.read_text())
        for name, ok in rep["ops"]:
            self.attempted += 1
            if not ok:
                self.failures.append(f"{tag}: {name}")
        return rep

    def execute(self, seconds: float) -> dict:
        """Set up once, then run repetitions while a whole one still fits in
        ``seconds`` (at least MIN_REPS)."""
        elapsed = lambda: time.perf_counter() - self.start  # noqa: E731
        setup = self.child(setup_only=True)
        reps: list[tuple[bool, dict]] = []
        attempts, last = 0, 0.0
        while attempts < MIN_REPS or elapsed() + last <= seconds:
            traced = self.trace and attempts % 2 == 1
            t = time.perf_counter()
            rep = self.child(traced=traced)
            last = time.perf_counter() - t
            attempts += 1
            if rep is not None:
                reps.append((traced, rep))
        full = [rep for _, rep in reps if "digest" in rep]
        for rep in full[1:]:
            self.attempted += 1
            if rep["digest"] != full[0]["digest"]:
                self.failures.append("outputs differ between repetitions: "
                                     f"{rep['digest']} vs {full[0]['digest']}")
        plain = [rep for traced, rep in reps if not traced and "digest" in rep]
        return {"plain": plain,
                "traced": [rep for traced, rep in reps if traced and "layers" in rep],
                "setup_times": [r["setup_s"] for r in [setup, *(rep for _, rep in reps)] if r],
                "env": setup["env"] if setup else {}}


def median_of(reps, fn):
    values = [fn(r) for r in reps]
    return statistics.median(values) if values else None


def end_to_end(plain, setup_times) -> dict:
    return {
        "setup_s": statistics.median(setup_times) if setup_times else None,
        "train_s": median_of(plain, lambda r: r["train_s"]),
        "evaluate_s": median_of(plain, lambda r: r["evaluate_s"]),
        "train_trials_per_s": median_of(plain, lambda r: r["n_train"] / r["train_s"]),
        "scored_trials_per_s": median_of(plain, lambda r: r["n_scored"] / r["evaluate_s"]),
        "peak_rss_mb": median_of(plain, lambda r: r["peak_rss_mb"]),
        "accuracy": median_of(plain, lambda r: r["accuracy"]),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Measure one workload; returns (result line, full record)."""
    run = Run(name, seed, trace)
    got = run.execute(seconds)
    metrics: dict[str, dict] = {}
    if trace:
        layers = {}
        for key in (got["traced"][0]["layers"] if got["traced"] else {}):
            values = [rep["layers"][key][0] for rep in got["traced"]]
            layers[key] = {"value": statistics.median(values),
                           "unit": got["traced"][0]["layers"][key][1]}
        plain_train = median_of(got["plain"], lambda r: r["train_s"])
        traced_train = median_of(got["traced"], lambda r: r["train_s"])
        if layers and plain_train:
            layers["trace.overhead_ratio"] = {"value": traced_train / plain_train,
                                              "unit": "ratio"}
        metrics = layers
    else:
        for key, value in end_to_end(got["plain"], got["setup_times"]).items():
            if value is not None:
                metrics[key] = {"value": value, "unit": END_TO_END_UNITS[key]}
    if trace and metrics:
        metrics["failed_ratio"] = {"value": len(run.failures) / max(run.attempted, 1),
                                   "unit": "ratio"}
    line = {"correct": not run.failures, "attempted": max(run.attempted, 1),
            "failed": len(run.failures), "metrics": metrics}
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "env": {**got["env"], "nproc": os.cpu_count(),
                "cpus_allowed": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
                "git_commit": git_commit()},
        "sizes": {"synth": run.wl.synth, "config": run.wl.config, "verb": run.wl.verb},
        "repetitions": {"plain": len(got["plain"]), "traced": len(got["traced"])},
        "wall_s": {key: median_of(got["plain"], lambda r: r[key])
                   for key in ("setup_wall_s", "train_wall_s", "evaluate_wall_s")},
        "reference_loop_cpu_s": median_of(got["plain"], lambda r: r["loop_cpu_s"]),
        "failures": run.failures,
        "result": line,
    }
    (run.dir / "result.json").write_text(json.dumps(record, indent=2))
    return line, record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=sorted(WORKLOADS))
    which.add_argument("--all", action="store_true", help="run every workload in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "eegspeech" / "cli.py").is_file():
        print(f"no eegspeech sources under {ROOT / 'src'}; run from a checkout of the repo",
              file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.all else [args.workload]
    all_correct = True
    for name in names:
        line, record = run_workload(name, args.seed, args.seconds, bool(args.trace))
        all_correct &= line["correct"] and bool(line["metrics"])
        for failure in record["failures"]:
            print(f"FAILED {name}: {failure}", file=sys.stderr)
        if args.all:
            for key, metric in line["metrics"].items():
                print(f"{name:15s} {key:42s} {metric['value']:14.6g} {metric['unit']}")
            print(f"{name:15s} {'correct':42s} {str(line['correct']):>14s} "
                  f"({line['failed']} of {line['attempted']} operations failed)")
        else:
            print(json.dumps({"env": record["env"], "sizes": record["sizes"],
                              "repetitions": record["repetitions"]}))
            if not line["metrics"]:
                print(f"{name}: no repetition completed; logs under .bench_work/",
                      file=sys.stderr)
                return 1
            print(json.dumps(line))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
