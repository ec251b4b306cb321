#!/usr/bin/env python3
"""Per-layer forward and backward times of the level-1 networks at the
reference shapes, written as one JSON file.

Times the CNN's two convolutions and the dense layer after its flatten, and
the LSTM network's two LSTM layers, by calling each layer's ``nn.ops``
kernels on random inputs with the built network's own weights, then Adam
steps over every CNN parameter (the first step on fresh moments apart from
the warm steps), then boosted trees: three trees fitted with
the default ``GbtConfig`` on 1500 x 32 random rows, and each of them
predicting those rows.  The rest runs in fresh interpreters, each one
``child_*`` function of this script behind the hidden ``--child NAME
ARGS...`` entry, measured through ``measure.py``.  `child_cnn_step` runs one
CNN train step (forward, backward, Adam) and reports its wall time, user and
kernel time, minor page faults, peak resident set size, the arrays the
trained layers still hold and the gradients its parameters still hold, both
of which should be none; it runs twice, once pinned to one CPU (so
``parallel.split`` runs everything inline) and once on every CPU the script
may use.  `child_bundle_load` loads an untrained bundle (the three networks
at ``--size``, no trees) saved by ``pipeline.save_bundle`` and scores one
input with it, and reports ``pipeline.load_bundle``'s first and warm times,
the time of the first forward after each load (a mapped archive's pages are
mapped as that forward reads them), each load's and forward's user and
kernel time and minor page faults, and its peak resident set size.  Last,
the feature pass: `child_feature_pass` preprocesses random trials
(``pipeline.preprocess``, the bandpass and the mean removal) and computes
each one's covariance matrix (``covariance.ccv_matrix``), and reports the
wall time and minor page faults of its first trial, which makes the one
cached filter design (``recording.bandpass_design``), and of
``FEATURE_TRIALS`` x ``--repeats`` warm trials, at the reference trial
(``--size`` channels x 5000 samples at 1 kHz) and at a short one (8 x 256
samples at 128 Hz).  Each time is the median of ``--repeats``
runs (a warm feature-pass figure is the median over its warm trials), and
the runs are kept beside it.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 scripts/bench_layers.py --out BENCH_layers.json

The defaults are the reference shapes: 62x62 input and batch 64, which make
the dense layer 215 296 -> 64 and the CNN 13.8 M parameters.  A run at the
defaults needs about 2 GB of memory.
"""

import argparse
import inspect
import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from eegspeech import covariance, gbt, networks, parallel, pipeline
from eegspeech.config import RunConfig
from eegspeech.nn import Adam, infer_shapes
from eegspeech.nn import ops
from eegspeech.recording import Recording

sys.path.insert(0, str(Path(__file__).resolve().parent))
from measure import in_fresh_process, measured, peak_rss_mb  # noqa: E402

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


def _held_bytes(value) -> int:
    """Bytes of the arrays in ``value``, a layer's attributes or a gradient."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, dict):
        value = list(value.values())
    return sum(map(_held_bytes, value)) if isinstance(value, (list, tuple)) else 0


def child_cnn_step(size: int, batch: int) -> dict:
    """One CNN train step: its wall time, user and kernel time and minor page
    faults, the worker count, the peak RSS, the MB of arrays the trained
    model's layers still hold (caches a backward should have released) and
    the MB of gradients its parameters still hold (gradients Adam should have
    released)."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=(batch, size, size))
    y = np.arange(batch) % 2
    model, figures = measured(lambda: networks.train_cnn(
        x, y, networks.NetworkHyper(epochs=1, batch_size=batch), seed=0))
    return {**figures, "workers": parallel.WORKERS, "peak_rss_mb": peak_rss_mb(),
            "held_mb": sum(_held_bytes(vars(layer)) for layer in model.net.layers) / 2**20,
            "grad_mb": sum(_held_bytes(t.grad) for _, t in model.net.parameters()) / 2**20}


def child_bundle_load(root: str, repeats: int, size: int) -> dict:
    """Loads the bundle saved under ``root`` once and then ``repeats`` more
    times, and scores one input of ``size`` x ``size`` with each loaded
    bundle before dropping it: a mapped archive's pages are mapped when first
    read, so the first forward pays for what the load deferred.  Each load's
    and each forward's figures (`measured`), and the peak RSS."""
    inputs = np.zeros((1, size, size))
    runs = []
    for _ in range(repeats + 1):
        bundle, load = measured(lambda: pipeline.load_bundle(root), prefix="load_")
        _, forward = measured(lambda: bundle.predict_proba(inputs), prefix="forward_")
        runs.append({**load, **forward})
        del bundle
    return {"runs": runs, "peak_rss_mb": peak_rss_mb()}


def child_feature_pass(channels: int, times: int, rate: float, trials: int) -> dict:
    """Preprocesses and reduces ``1 + trials`` random trials of the given
    shape and rate, one at a time as the feature pass does: each trial's wall
    time and minor page faults."""
    cfg = RunConfig(seed=0, tasks=("uw",))
    rng = np.random.default_rng(4)
    names = tuple(f"c{c}" for c in range(channels))
    runs, minflt = [], []
    for _ in range(1 + trials):
        rec = Recording("s00", "/uw/", rng.normal(size=(channels, times)), rate, names)
        _, figures = measured(lambda: covariance.ccv_matrix(pipeline.preprocess(rec, cfg)))
        runs.append(figures["s"])
        minflt.append(figures["minflt"])
        del rec
    return {"runs": runs, "minflt": minflt}


#: The functions ``--child NAME ARGS...`` runs in a fresh interpreter; each
#: argument is converted by its parameter's annotation.
CHILDREN = {"cnn_step": child_cnn_step, "bundle_load": child_bundle_load,
            "feature_pass": child_feature_pass}


def bench_cnn_step(size: int, batch: int) -> dict:
    result = {"batch": batch}
    for key, one_cpu in (("one_cpu", True), ("all_cpus", False)):
        result[key] = in_fresh_process(__file__, "cnn_step", size, batch, one_cpu=one_cpu)
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
    with tempfile.TemporaryDirectory() as tmp:
        pipeline.save_bundle(bundle, tmp)
        archive_mb = (Path(tmp) / pipeline.BUNDLE_ARCHIVE).stat().st_size / 2**20
        timed = in_fresh_process(__file__, "bundle_load", tmp, repeats, size)
    runs = timed["runs"]
    warm_runs = [run["load_s"] for run in runs[1:]]
    return {"params": params, "archive_mb": archive_mb, "first_s": runs[0]["load_s"],
            "warm_s": statistics.median(warm_runs), "warm_runs": warm_runs,
            "first_forward_s": runs[0]["forward_s"],
            "warm_forward_s": statistics.median(run["forward_s"] for run in runs[1:]),
            "runs": runs, "peak_rss_mb": timed["peak_rss_mb"]}


def bench_feature_pass(size: int, repeats: int) -> dict:
    result = {}
    for key, channels, times, rate in (("reference", size, 5000, 1000.0),
                                       ("short", 8, 256, 128.0)):
        timed = in_fresh_process(__file__, "feature_pass", channels, times, rate,
                                 FEATURE_TRIALS * repeats)
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
    parser.add_argument("--out", help="JSON file to write (required)")
    parser.add_argument("--size", type=int, default=62, help="input matrix side")
    parser.add_argument("--batch", type=int, default=64, help="rows per batch (at least 4)")
    parser.add_argument("--repeats", type=int, default=3, help="timed runs per kernel")
    parser.add_argument("--child", nargs="+", help=argparse.SUPPRESS)  # NAME ARGS...
    args = parser.parse_args()
    if args.child:
        name, *values = args.child
        fn = CHILDREN[name]
        params = inspect.signature(fn).parameters.values()
        print(json.dumps(fn(*(param.annotation(v) for param, v in zip(params, values)))))
        return 0
    if args.out is None:
        parser.error("the following arguments are required: --out")
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
