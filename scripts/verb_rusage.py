#!/usr/bin/env python3
"""Wall time, user and kernel time, minor page faults and peak memory of
each CLI verb of one benchmark workload.

Each run is `run_verbs` in a fresh interpreter, through the hidden
``--child WORKDIR`` entry (``measure.in_fresh_process``), which calls
``eegspeech.cli.main`` in-process as a benchmark repetition does: synth,
then the workload's train or crossval, then evaluate on the saved bundles.
The figures of a verb are ``measure.measured``'s ``getrusage(RUSAGE_SELF)``
differences around its call, so they cover every thread of the process, and
its peak is the process's VmHWM (``measure.peak_rss_mb``) when the verb has
returned.  The ``children_*`` figures are the ``getrusage(RUSAGE_CHILDREN)``
differences of the same call, which cover the (task, fold) units a verb
trains in forked children, and ``children_peak_rss_mb`` is the peak of the
largest child reaped so far.
The workloads are the benchmark's own
(``perfbench/workloads.py``).  The script prints each run and the medians
as JSON; with ``--merge`` it adds them to a JSON file, such as a
``perfbench/run.py`` record, under ``"rusage"``, beside its ``"wall_s"``.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 scripts/verb_rusage.py \\
        --workload loso5_long --seed 1 --runs 3 --merge BENCH_x.json
"""

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from measure import in_fresh_process, measured, peak_rss_mb  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

FIELDS = ("wall_s", "utime_s", "stime_s", "minflt", "peak_rss_mb",
          "children_utime_s", "children_stime_s", "children_minflt", "children_peak_rss_mb")


def run_verbs(workload, seed: int, work: Path) -> dict:
    """Each verb's figures, run in this process on a corpus under ``work``."""
    from eegspeech.cli import main as cli

    data, out, replay = work / "data", work / "out", work / "replay"
    cfg = work / "config.json"
    cfg.write_text(json.dumps(workload.run_config(seed, str(out))))
    verbs = {"synth": workload.synth_argv(str(data), seed),
             workload.verb: [workload.verb, "--config", str(cfg), "--container", str(data)],
             "evaluate": ["evaluate", "--config", str(cfg), "--container", str(data),
                          "--models", str(out), "--out", str(replay)]}
    result = {}
    for verb, argv in verbs.items():
        # the children's figures around this process's, whose wall time is cli's alone
        (code, own), children = measured(lambda: measured(lambda: cli(argv)),
                                         resource.RUSAGE_CHILDREN, "children_")
        if code != 0:
            raise SystemExit(f"{verb} exited with {code}")
        figures = {**own, **children, "wall_s": own["s"], "peak_rss_mb": peak_rss_mb(),
                   "children_peak_rss_mb":  # KiB on Linux
                       resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024}
        result[verb] = {key: figures[key] for key in FIELDS}
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--runs", type=int, default=3, help="fresh child processes")
    parser.add_argument("--merge", help="JSON file to add the figures to, under 'rusage'")
    parser.add_argument("--child", help=argparse.SUPPRESS)  # work directory of one run
    args = parser.parse_args()
    if args.child:
        print(json.dumps(run_verbs(WORKLOADS[args.workload], args.seed, Path(args.child))))
        return 0

    runs = []
    for _ in range(args.runs):
        with tempfile.TemporaryDirectory() as work:
            runs.append(in_fresh_process(__file__, work, "--workload", args.workload,
                                         "--seed", args.seed))
    medians = {verb: {key: statistics.median(run[verb][key] for run in runs)
                      for key in FIELDS} for verb in runs[0]}
    record = {"workload": args.workload, "seed": args.seed,
              "cpus_allowed": len(os.sched_getaffinity(0)), "medians": medians, "runs": runs}
    print(json.dumps(record, indent=2))
    if args.merge:
        path = Path(args.merge)
        merged = json.loads(path.read_text())
        merged["rusage"] = record
        path.write_text(json.dumps(merged, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
