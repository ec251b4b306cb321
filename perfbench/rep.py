"""One benchmark repetition, run in a fresh process by ``run.py``.

Times the import of the CLI plus ``synth`` (set-up), then the training verb
and ``evaluate``, each called in-process through ``eegspeech.cli.main``.
``hostspeed.Sampler`` samples the host's speed throughout, and each of the
three times is reported both as measured (``*_wall_s``) and scaled to the
reference host (``setup_s``, ``train_s``, ``evaluate_s``).  A workload with
``evaluate_calls`` above one replays that many times and keeps the median.
Afterwards it checks the outputs and writes one JSON result file.  With
``--setup-only`` it stops after set-up.  With ``--trace`` the two timed
verbs run once each under the span recorder and the result carries
per-layer metrics.
"""

import time

import hostspeed

_SAMPLER = hostspeed.Sampler()
_SAMPLER.start()
_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import CHANCE_BAND_SD, MIN_ACCURACY, WORKLOADS  # noqa: E402


def tree_digest(root: Path) -> str:
    """sha256 over every file's relative path and bytes, in sorted order."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        vendor = "unknown"
    return {"numpy": numpy.__version__, "scipy": scipy.__version__, "blas": vendor,
            "python": sys.version.split()[0]}


def check_replay(ops, tasks, out: Path, replay: Path) -> int:
    """Append one check per task that the replay reproduced train's
    predictions byte for byte; return the number of trials scored."""
    for task in tasks:
        same = ((out / task / "predictions.csv").read_bytes()
                == (replay / task / "predictions.csv").read_bytes())
        ops.append((f"replay-matches-train:{task}", same))
    reports = [json.loads((replay / t / "report.json").read_text()) for t in tasks]
    return sum(f["n_test"] for r in reports for f in r["folds"] if not f["skipped"])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True, help="scratch directory of this repetition")
    parser.add_argument("--result", required=True, help="JSON file to write")
    parser.add_argument("--spans", help="JSON-lines file for the spans of a traced repetition")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    wl = WORKLOADS[args.workload]
    work = Path(args.dir)
    work.mkdir(parents=True, exist_ok=True)
    data, out = work / "data", work / "out"

    from eegspeech.cli import main as cli

    ops = [("synth", cli(wl.synth_argv(str(data), args.seed)) == 0)]
    result = {"ops": ops}
    result["setup_wall_s"], result["setup_s"] = _SAMPLER.scaled(_T0, time.perf_counter())
    if args.setup_only:
        result["env"] = environment()
        return _finish(args.result, result)

    cfg = work / "config.json"
    cfg.write_text(json.dumps(wl.run_config(args.seed, str(out)), indent=2))
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    # A traced repetition replays once, so that per-layer counts stay per verb.
    replays = [work / f"replay{k}" for k in range(1 if tracer else wl.evaluate_calls)]
    calls = [(wl.verb, "train", [wl.verb, "--config", str(cfg), "--container", str(data)])]
    calls += [("evaluate", "evaluate", ["evaluate", "--config", str(cfg), "--container",
                                        str(data), "--models", str(out), "--out", str(replay)])
              for replay in replays]
    times: dict[str, list[tuple[float, float]]] = {"train": [], "evaluate": []}
    for verb, key, argv in calls:
        start = time.perf_counter()
        with tracer.span(f"cli.{verb}") if tracer else nullcontext():
            code = cli(argv)
        times[key].append(_SAMPLER.scaled(start, time.perf_counter()))
        ops.append((verb, code == 0))
        if code != 0:
            break
    for key, pairs in times.items():
        if pairs:
            result[f"{key}_wall_s"] = statistics.median(wall for wall, _ in pairs)
            result[f"{key}_s"] = statistics.median(scaled for _, scaled in pairs)
    if tracer is not None:
        tracer.close()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not all(ok for _, ok in ops):
        return _finish(args.result, result)

    tasks = wl.config["tasks"]
    result["n_scored"] = [check_replay(ops, tasks, out, replay) for replay in replays][0]
    reports = [json.loads((out / t / "report.json").read_text()) for t in tasks]
    result["n_train"] = sum(f["n_train"] for r in reports for f in r["folds"] if not f["skipped"])
    accuracy = json.loads((out / "summary.json").read_text())["accuracy"]["mean"]
    result["accuracy"] = accuracy
    if wl.separable:
        ops.append(("accuracy-separable", accuracy >= MIN_ACCURACY))
    else:
        sd = 0.5 / math.sqrt(result["n_scored"] / len(tasks))
        ops.append(("accuracy-chance", abs(accuracy - 0.5) <= CHANCE_BAND_SD * sd))
    result["digest"] = {name: tree_digest(path)
                        for name, path in (("data", data), ("out", out), ("replay", replays[0]))}
    for replay in replays[1:]:
        ops.append((f"{replay.name}-matches-replay0",
                    tree_digest(replay) == result["digest"]["replay"]))
    if tracer is not None:
        from tracing import layer_metrics

        result["layers"] = layer_metrics(tracer.spans, [f"cli.{wl.verb}", "cli.evaluate"],
                                         wl.synth["n_trials"])
        if args.spans:
            tracer.write(Path(args.spans))
    return _finish(args.result, result)


def _finish(path: str, result: dict) -> int:
    _SAMPLER.stop()
    loops = sorted(cpu for _, _, cpu in _SAMPLER.samples)
    result["ticks"] = len(loops)
    result["loop_cpu_s"] = loops[len(loops) // 2] if loops else None
    Path(path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
