#!/usr/bin/env python3
"""Per-layer forward and backward times of the level-1 networks at the
reference shapes, written as one JSON file.

Times the CNN's two convolutions and the dense layer after its flatten, and
the LSTM network's two LSTM layers, by calling each layer's ``nn.ops``
kernels on random inputs with the built network's own weights, then Adam
steps over every CNN parameter (the first step on fresh moments apart from
the warm steps), then boosted trees: three trees fitted with
the default ``GbtConfig`` on 1500 x 32 random rows, and each of them
predicting those rows.  Then a fresh child process runs one CNN train step
(forward, backward, Adam) and reports its wall time, user and kernel time,
minor page faults, peak resident set size, the arrays the trained layers
still hold and the gradients its parameters still hold, both of which
should be none; it runs twice, once pinned to one CPU (so ``parallel.split``
runs everything inline) and once on every CPU the script may use.  Then
another fresh child loads an untrained bundle (the three networks at
``--size``, no trees) saved by ``pipeline.save_bundle`` and scores one input
with it, and reports ``pipeline.load_bundle``'s first and warm times, the
time of the first forward after each load (a mapped archive's pages are
mapped as that forward reads them), each load's and forward's user and
kernel time and minor page faults, and its peak resident set size.  Last,
the feature pass: a fresh child preprocesses random trials
(``pipeline.preprocess``, the bandpass and the mean removal) and computes
each one's covariance matrix (``covariance.ccv_matrix``), and reports the
wall time and minor page faults of its first trial, which makes the one
cached filter design (``recording.bandpass_design``), and of ``FEATURE_TRIALS`` x ``--repeats`` warm trials, at the
reference trial (``--size`` channels x 5000 samples at 1 kHz) and at a short
one (8 x 256 samples at 128 Hz).  Each time is the median of ``--repeats``
runs (a warm feature-pass figure is the median over its warm trials), and
the runs are kept beside it.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 scripts/bench_layers.py --out BENCH_layers.json

The defaults are the reference shapes: 62x62 input and batch 64, which make
the dense layer 215 296 -> 64 and the CNN 13.8 M parameters.  A run at the
defaults needs about 2 GB of memory.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import eegspeech
from eegspeech import gbt, networks, parallel, pipeline
from eegspeech.nn import Adam, infer_shapes
from eegspeech.nn import ops

#: The child scripts' own peak RSS in MB, Linux's VmHWM: a child's
#: ``ru_maxrss`` would start at the peak of the process that started it.
_PEAK_MB = """
with open("/proc/self/status") as f:
    peak_mb = next(int(line.split()[1]) for line in f if line.startswith("VmHWM:")) / 1024
"""

#: One CNN train step in a fresh interpreter, on one CPU when its fourth
#: argument is "one" (set before the package reads its worker count); prints
#: the step's wall time, user and kernel time and minor page faults, the
#: worker count, its peak RSS (``_PEAK_MB``), the MB of arrays the trained
#: model's layers still hold (caches a backward should have released) and the
#: MB of gradients its parameters still hold (gradients Adam should have
#: released).
_CNN_STEP = """
import json, os, resource, sys, time
if sys.argv[4] == "one":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import numpy as np
sys.path.insert(0, sys.argv[1])
from eegspeech import networks, parallel
size, batch = int(sys.argv[2]), int(sys.argv[3])
rng = np.random.default_rng(0)
x = rng.normal(size=(batch, size, size))
y = np.arange(batch) % 2
before = resource.getrusage(resource.RUSAGE_SELF)
start = time.perf_counter()
model = networks.train_cnn(x, y, networks.NetworkHyper(epochs=1, batch_size=batch), seed=0)
s = time.perf_counter() - start
after = resource.getrusage(resource.RUSAGE_SELF)

def held(value):
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, dict):
        value = list(value.values())
    return sum(map(held, value)) if isinstance(value, (list, tuple)) else 0

""" + _PEAK_MB + """
print(json.dumps({"s": s,
                  "utime_s": after.ru_utime - before.ru_utime,
                  "stime_s": after.ru_stime - before.ru_stime,
                  "minflt": after.ru_minflt - before.ru_minflt,
                  "workers": parallel.WORKERS,
                  "peak_rss_mb": peak_mb,
                  "held_mb": sum(held(vars(layer)) for layer in model.net.layers) / 2**20,
                  "grad_mb": sum(held(t.grad) for _, t in model.net.parameters()) / 2**20}))
"""

#: Loads one saved bundle in a fresh interpreter, once and then ``repeats``
#: more times, and scores one input of ``size`` x ``size`` with each loaded
#: bundle before dropping it: a mapped archive's pages are mapped when first
#: read, so the first forward pays for what the load deferred.  Prints each
#: load's and each forward's wall time, user and kernel time and minor page
#: faults, and the peak RSS (``_PEAK_MB``).
_BUNDLE_LOAD = """
import json, resource, sys, time
import numpy as np
sys.path.insert(0, sys.argv[1])
from eegspeech import pipeline
inputs = np.zeros((1, int(sys.argv[4]), int(sys.argv[4])))
runs = []

def timed(key, fn, run):
    before, start = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
    result = fn()
    run[key + "_s"] = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    run[key + "_utime_s"] = after.ru_utime - before.ru_utime
    run[key + "_stime_s"] = after.ru_stime - before.ru_stime
    run[key + "_minflt"] = after.ru_minflt - before.ru_minflt
    return result

for _ in range(int(sys.argv[3]) + 1):
    run = {}
    bundle = timed("load", lambda: pipeline.load_bundle(sys.argv[2]), run)
    timed("forward", lambda: bundle.predict_proba(inputs), run)
    runs.append(run)
    del bundle
""" + _PEAK_MB + """
print(json.dumps({"runs": runs, "peak_rss_mb": peak_mb}))
"""


#: Preprocesses and reduces ``1 + trials`` random trials of the given shape
#: and rate in a fresh interpreter, one at a time as the feature pass does;
#: prints each trial's wall time and minor page faults.
_FEATURE_PASS = """
import json, resource, sys, time
import numpy as np
sys.path.insert(0, sys.argv[1])
from eegspeech import covariance, pipeline
from eegspeech.config import RunConfig
from eegspeech.recording import Recording
channels, times, trials = int(sys.argv[2]), int(sys.argv[3]), int(sys.argv[5])
rate = float(sys.argv[4])
cfg = RunConfig(seed=0, tasks=("uw",))
rng = np.random.default_rng(4)
names = tuple(f"c{c}" for c in range(channels))
runs, minflt = [], []
for _ in range(1 + trials):
    rec = Recording("s00", "/uw/", rng.normal(size=(channels, times)), rate, names)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    covariance.ccv_matrix(pipeline.preprocess(rec, cfg))
    runs.append(time.perf_counter() - start)
    minflt.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    del rec
print(json.dumps({"runs": runs, "minflt": minflt}))
"""

#: Warm trials per ``--repeats`` in the feature pass: a short trial takes
#: under a millisecond, so one trial per repeat would time mostly noise.
FEATURE_TRIALS = 20


def _timed(fn, repeats: int):
    """The median wall time of ``repeats`` calls, every run, and the last result."""
    runs = []
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        runs.append(time.perf_counter() - start)
    return statistics.median(runs), runs, result


def _layer_entry(forward, backward, in_shape, weights, repeats: int) -> dict:
    fwd_s, fwd_runs, out = _timed(forward, repeats)
    grad = np.random.default_rng(1).normal(size=out.shape)
    bwd_s, bwd_runs, _ = _timed(lambda: backward(grad), repeats)
    return {"input": list(in_shape), "weights": list(weights.shape),
            "forward_s": fwd_s, "backward_s": bwd_s,
            "forward_runs": fwd_runs, "backward_runs": bwd_runs}


def bench_layers(size: int, batch: int, repeats: int) -> dict:
    rng = np.random.default_rng(0)
    layers = {}
    for name, model, specs in (("cnn", networks.build_cnn_model(size), networks.CNN_SPECS),
                               ("lstm", networks.build_lstm_model(size), networks.LSTM_SPECS)):
        in_shapes = [model.input_shape] + infer_shapes(specs, model.input_shape)
        for i, (spec, layer) in enumerate(zip(specs, model.net.layers)):
            if not (spec.kind in ("conv2d", "lstm")
                    or spec.kind == "dense" and specs[i - 1].kind == "flatten"):
                continue
            x = rng.normal(size=(batch, *in_shapes[i]))
            if spec.kind == "conv2d":
                w, b = layer.weights.data, layer.bias.data
                entry = _layer_entry(lambda: ops.conv2d_forward(x, w, b),
                                     lambda g: ops.conv2d_backward(x, w, g), x.shape, w, repeats)
            elif spec.kind == "lstm":
                cache = {}

                def forward():
                    hs, cache["lstm"] = ops.lstm_forward(x, layer.wx.data, layer.wh.data,
                                                         layer.bias.data)
                    return hs
                entry = _layer_entry(forward, lambda g: ops.lstm_backward(cache["lstm"], g),
                                     x.shape, layer.wx.data, repeats)
            else:
                w, b = layer.weights.data, layer.bias.data
                entry = _layer_entry(lambda: ops.dense_forward(x, w, b),
                                     lambda g: ops.dense_backward(x, w, g), x.shape, w, repeats)
            layers[f"{name}.layer{i}.{spec.kind}"] = entry
    return layers


def bench_adam(size: int, repeats: int) -> dict:
    """The first step on fresh moment buffers (what a training run pays once)
    and the median of ``repeats`` warm steps.  A step releases its gradients,
    so fresh ones, as a backward pass would write them, are set before each
    step, outside the timing."""
    params = networks.build_cnn_model(size).net.parameters()
    rng = np.random.default_rng(2)
    grads = [rng.normal(size=tensor.shape) for _, tensor in params]
    adam = Adam(params)
    runs = []
    for _ in range(repeats + 1):
        for (_, tensor), g in zip(params, grads):
            tensor.grad = g.copy()
        start = time.perf_counter()
        adam.step()
        runs.append(time.perf_counter() - start)
    return {"params": sum(t.size for _, t in params), "first_s": runs[0],
            "warm_s": statistics.median(runs[1:]), "warm_runs": runs[1:]}


#: The boosted trees' reference shape: about as many rows as the reference
#: fold's training trials, and the autoencoder's 32 features.
TREE_ROWS, TREE_FEATURES = 1500, 32


def bench_trees(repeats: int, n_trees: int = 3) -> dict:
    rng = np.random.default_rng(3)
    x = rng.normal(size=(TREE_ROWS, TREE_FEATURES))
    y = (x[:, 0] + rng.normal(size=TREE_ROWS) > 0).astype(np.float64)
    config = gbt.GbtConfig(n_estimators=n_trees)
    fit_s, fit_runs, model = _timed(lambda: gbt.fit(x, y, config), repeats)
    predict_s, predict_runs, _ = _timed(lambda: [tree.predict(x) for tree in model.trees],
                                        repeats)
    return {"rows": TREE_ROWS, "features": TREE_FEATURES, "trees": n_trees,
            "max_depth": config.max_depth,
            "nodes": sum(tree.n_nodes() for tree in model.trees),
            "fit_s_per_tree": fit_s / n_trees, "predict_s_per_tree": predict_s / n_trees,
            "fit_runs": fit_runs, "predict_runs": predict_runs}


def bench_cnn_step(size: int, batch: int) -> dict:
    package_root = str(Path(eegspeech.__file__).resolve().parents[1])
    result = {"batch": batch}
    for key, cpus in (("one_cpu", "one"), ("all_cpus", "all")):
        done = subprocess.run([sys.executable, "-c", _CNN_STEP, package_root, str(size),
                               str(batch), cpus], capture_output=True, text=True, check=True)
        result[key] = json.loads(done.stdout.strip().splitlines()[-1])
    return result


def bench_bundle_load(size: int, repeats: int) -> dict:
    cnn, lstm = networks.build_cnn_model(size), networks.build_lstm_model(size)
    dae = networks.build_dae_model(networks.FUSED_DIM)
    dae.mean, dae.std = np.zeros(networks.FUSED_DIM), np.ones(networks.FUSED_DIM)
    bundle = pipeline.ModelBundle(
        task_id="bench", fold_name="holdout", mode=pipeline.HOLDOUT, config_fingerprint="bench",
        kept_channels=tuple(range(size)), input_size=size, cnn=cnn, lstm=lstm, dae=dae,
        ensemble=gbt.Ensemble(config=gbt.GbtConfig(n_estimators=0), base_score=0.0),
        test_trial_ids=(), dev_accuracy=0.5)
    params = sum(t.size for model in (cnn, lstm, dae) for _, t in model.net.parameters())
    package_root = str(Path(eegspeech.__file__).resolve().parents[1])
    with tempfile.TemporaryDirectory() as tmp:
        pipeline.save_bundle(bundle, tmp)
        archive_mb = (Path(tmp) / pipeline.BUNDLE_ARCHIVE).stat().st_size / 2**20
        done = subprocess.run([sys.executable, "-c", _BUNDLE_LOAD, package_root, tmp,
                               str(repeats), str(size)],
                              capture_output=True, text=True, check=True)
    timed = json.loads(done.stdout.strip().splitlines()[-1])
    runs = timed["runs"]
    warm_runs = [run["load_s"] for run in runs[1:]]
    return {"params": params, "archive_mb": archive_mb, "first_s": runs[0]["load_s"],
            "warm_s": statistics.median(warm_runs), "warm_runs": warm_runs,
            "first_forward_s": runs[0]["forward_s"],
            "warm_forward_s": statistics.median(run["forward_s"] for run in runs[1:]),
            "runs": runs, "peak_rss_mb": timed["peak_rss_mb"]}


def bench_feature_pass(size: int, repeats: int) -> dict:
    package_root = str(Path(eegspeech.__file__).resolve().parents[1])
    result = {}
    for key, channels, times, rate in (("reference", size, 5000, 1000.0),
                                       ("short", 8, 256, 128.0)):
        done = subprocess.run([sys.executable, "-c", _FEATURE_PASS, package_root,
                               str(channels), str(times), str(rate),
                               str(FEATURE_TRIALS * repeats)],
                              capture_output=True, text=True, check=True)
        timed = json.loads(done.stdout.strip().splitlines()[-1])
        runs, minflt = timed["runs"], timed["minflt"]
        result[key] = {"channels": channels, "times": times, "rate_hz": rate,
                       "first_s": runs[0], "first_minflt": minflt[0],
                       "warm_s": statistics.median(runs[1:]),
                       "warm_minflt": statistics.median(minflt[1:]),
                       "warm_runs": runs[1:], "warm_minflt_runs": minflt[1:]}
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--size", type=int, default=62, help="input matrix side")
    parser.add_argument("--batch", type=int, default=64, help="rows per batch (at least 4)")
    parser.add_argument("--repeats", type=int, default=3, help="timed runs per kernel")
    args = parser.parse_args()
    if args.batch < 4 or args.repeats < 1:
        parser.error("--batch must be at least 4 and --repeats at least 1")
    result = {
        "input_size": args.size,
        "batch": args.batch,
        "repeats": args.repeats,
        "env": {"numpy": np.__version__, "cpus": len(os.sched_getaffinity(0)),
                "workers": parallel.WORKERS,
                **{k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}},
        "layers": bench_layers(args.size, args.batch, args.repeats),
        "adam_step": bench_adam(args.size, args.repeats),
        "trees": bench_trees(args.repeats),
        "cnn_train_step": bench_cnn_step(args.size, args.batch),
        "bundle_load": bench_bundle_load(args.size, args.repeats),
        "feature_pass": bench_feature_pass(args.size, args.repeats),
    }
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps({**{name: [round(e["forward_s"], 4), round(e["backward_s"], 4)]
                         for name, e in result["layers"].items()},
                      "tree": [round(result["trees"]["fit_s_per_tree"], 4),
                               round(result["trees"]["predict_s_per_tree"], 4)],
                      "cnn_train_step": [round(result["cnn_train_step"][k]["s"], 4)
                                         for k in ("one_cpu", "all_cpus")],
                      "bundle_load": [round(result["bundle_load"][k], 4)
                                      for k in ("first_s", "warm_s", "first_forward_s",
                                                "warm_forward_s")],
                      "feature_pass": {k: [round(e["first_s"], 5), round(e["warm_s"], 5)]
                                       for k, e in result["feature_pass"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
