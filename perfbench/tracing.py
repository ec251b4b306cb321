"""Outside-in span recorder for one benchmark repetition.

Each traced function is replaced, where its callers look it up, by a wrapper
that records a span: name, parent span, start, end, the time its child spans
cover, and counts read from the call's arguments and result.  Nothing under
``src/`` changes; ``Tracer.close`` puts every original function back.  Spans
stay in memory and are written out once, when the repetition ends.

Kernel work (FLOPs and bytes moved) is computed from the call shapes, not
measured: FLOPs count the multiply-adds of each op's matrix products, and
bytes count every operand and result array read or written once.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from eegspeech import container, covariance, gbt, networks, pipeline
from eegspeech.nn import network as nn_network
from eegspeech.nn import ops
from eegspeech.nn.optim import Adam

KERNELS = ("conv2d_forward", "conv2d_backward", "lstm_forward", "lstm_backward",
           "dense_forward", "dense_backward")


# --- kernel work models ------------------------------------------------------

def conv_work(b, c_in, h, w, c_out, kh, kw, backward):
    """(flops, bytes) of a valid stride-1 convolution over a batch of b."""
    oh, ow = h - kh + 1, w - kw + 1
    macs = b * c_out * oh * ow * c_in * kh * kw
    x, wt, y = b * c_in * h * w, c_out * c_in * kh * kw, b * c_out * oh * ow
    if not backward:
        return 2 * macs, 8 * (x + wt + y)
    # weight gradient plus the full correlation that gives the input gradient
    return 2 * macs + 2 * b * c_in * h * w * c_out * kh * kw, 8 * (2 * x + 2 * wt + y)


def dense_work(rows, n_in, n_out, backward):
    macs = rows * n_in * n_out
    x, wt, y = rows * n_in, n_in * n_out, rows * n_out
    if not backward:
        return 2 * macs, 8 * (x + wt + y)
    return 4 * macs, 8 * (2 * x + 2 * wt + y)


def lstm_work(b, steps, n_in, units, backward):
    macs = b * steps * 4 * units * (n_in + units)
    x, wt, h = b * steps * n_in, 4 * units * (n_in + units), b * steps * units
    if not backward:
        return 2 * macs, 8 * (x + wt + h)
    return 4 * macs, 8 * (2 * x + 2 * wt + h)


def _batched(shape, core_ndim):
    return (1, *shape) if len(shape) == core_ndim else tuple(shape)


def _conv_counts(backward):
    def count(args, kwargs, result):
        b, c_in, h, w = _batched(np.shape(args[0]), 3)
        c_out, _, kh, kw = args[1].shape
        return _kernel_counts(b, conv_work(b, c_in, h, w, c_out, kh, kw, backward))
    return count


def _dense_counts(backward):
    def count(args, kwargs, result):
        n_out, n_in = args[1].shape
        rows = int(np.size(args[0])) // n_in
        return _kernel_counts(rows, dense_work(rows, n_in, n_out, backward))
    return count


def _lstm_fwd(args, kwargs, result):
    b, steps, n_in = _batched(np.shape(args[0]), 2)
    units = args[2].shape[1]
    return _kernel_counts(b, lstm_work(b, steps, n_in, units, False))


def _lstm_bwd(args, kwargs, result):
    b, steps, units = _batched(np.shape(args[1]), 2)
    n_in = result[1].shape[1]  # the input-weight gradient is (4 * units, n_in)
    return _kernel_counts(b, lstm_work(b, steps, n_in, units, True))


def _kernel_counts(rows, work):
    return {"rows": rows, "flops": work[0], "bytes": work[1]}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _adam_params(args, kwargs, result):
    return {"params": sum(t.data.size for _, t in args[0].params)}


def _fit_counts(args, kwargs, result):
    trees = len(result.trees)
    return {"trees": trees, "nodes": sum(t.n_nodes() for t in result.trees),
            "tree_rows": trees * len(args[0])}


def _split_cells(args, kwargs, result):
    return {"cells": len(args[0]) * len(args[3])}


def _predict_rows(args, kwargs, result):
    return {"rows": len(args[1])}


def _trial_cells(args, kwargs, result):
    channels, samples = args[0].samples.shape
    return {"cells": channels * samples, "pair_cells": channels * channels * samples}


def _manifest_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(Path(args[0]) / container.MANIFEST_NAME)}


def _record_bytes(args, kwargs, result):
    return {"bytes": args[1].length}


#: (object looked up by callers, attribute, span name, counts from the call).
#: Functions imported by name are wrapped in the importing module, because
#: that is where their callers look them up.
TARGETS = [
    *[(ops, k, f"nn.ops.{k}", m) for k, m in zip(
        KERNELS, (_conv_counts(False), _conv_counts(True), _lstm_fwd, _lstm_bwd,
                  _dense_counts(False), _dense_counts(True)))],
    (Adam, "step", "nn.optim.Adam.step", _adam_params),
    (pipeline, "save_tensors", "nn.checkpoint.save_tensors", _file_bytes),
    (pipeline, "load_tensors", "nn.checkpoint.load_tensors", _file_bytes),
    (networks, "train_cnn", "networks.train_cnn", None),
    (networks, "train_lstm", "networks.train_lstm", None),
    (networks, "train_dae", "networks.train_dae", None),
    (networks, "extract_fused", "networks.extract_fused", None),
    (networks, "encode", "networks.encode", None),
    (gbt, "fit", "gbt.fit", _fit_counts),
    (gbt, "best_split", "gbt.best_split", _split_cells),
    (gbt.Ensemble, "predict_proba", "gbt.Ensemble.predict_proba", _predict_rows),
    (pipeline, "bandpass_filter", "recording.bandpass_filter", _trial_cells),
    (covariance, "ccv_matrix", "covariance.ccv_matrix", _trial_cells),
    (covariance, "reject_channels", "covariance.reject_channels", None),
    (covariance, "to_network_input", "covariance.to_network_input", None),
    (pipeline, "run_task", "pipeline.run_task", None),
    (pipeline, "evaluate_bundles", "pipeline.evaluate_bundles", None),
    (pipeline, "fit_channel_rejection", "pipeline.fit_channel_rejection", None),
    (pipeline, "save_bundle", "pipeline.save_bundle", None),
    (pipeline, "load_bundle", "pipeline.load_bundle", None),
    (container, "read_container", "container.read_container", _manifest_bytes),
    (container, "load_recording", "container.load_recording", _record_bytes),
]


# --- recorder ----------------------------------------------------------------

class Tracer:
    """Records spans for the wrapped functions until ``close`` is called.

    A span is ``[id, parent_id, name, start, end, child_s, counts]``; a
    span's self time is its duration minus ``child_s``.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._originals: list[tuple[object, str, object]] = []
        for owner, attr, name, counter in TARGETS:
            original = owner.__dict__[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, counter))

    def close(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        """Record one span around a block."""
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    def _open(self, name: str) -> list:
        stack = self._stack()
        with self._lock:
            record = [len(self.spans), stack[-1][0] if stack else None, name, 0.0, 0.0, 0.0, {}]
            self.spans.append(record)
        stack.append(record)
        record[3] = time.perf_counter()
        return record

    def _close(self, record: list) -> None:
        record[4] = time.perf_counter()
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1][5] += record[4] - record[3]

    def _wrap(self, fn, name, counter):
        tracer = self

        def traced(*args, **kwargs):
            record = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(record)
            if counter is not None:  # counted after the span ends, outside its time
                record[6] = counter(args, kwargs, result)
            return result

        return traced

    def write(self, path: Path) -> None:
        with open(path, "w") as f:
            for span_id, parent, name, start, end, child_s, counts in self.spans:
                f.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                    "start": start, "end": end,
                                    "self_s": end - start - child_s, **counts}) + "\n")


# --- per-layer metrics -------------------------------------------------------

class _Totals:
    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.counts: dict[str, float] = {}


def _totals(spans) -> dict[str, _Totals]:
    out: dict[str, _Totals] = {}
    for _, _, name, start, end, child_s, counts in spans:
        t = out.setdefault(name, _Totals())
        t.calls += 1
        t.s += end - start
        t.self_s += end - start - child_s
        for key, value in counts.items():
            t.counts[key] = t.counts.get(key, 0) + value
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, verb_names, n_trials: int) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of one traced repetition, as name -> (value, unit).

    Layers that did not run report 0.  ``Adam.step.params`` is the mean
    parameter count per step, over all three networks' optimisers.
    """
    tot = _totals(spans)
    get = lambda name: tot.get(name, _Totals())  # noqa: E731
    m: dict[str, tuple[float, str]] = {}
    for k in KERNELS:
        t = get(f"nn.ops.{k}")
        flops, moved = t.counts.get("flops", 0), t.counts.get("bytes", 0)
        m[f"nn.ops.{k}.calls"] = (t.calls, "count")
        m[f"nn.ops.{k}.s"] = (t.s, "s")
        m[f"nn.ops.{k}.rows_per_call"] = (_ratio(t.counts.get("rows", 0), t.calls), "rows")
        m[f"nn.ops.{k}.gflop"] = (flops / 1e9, "GFLOP-computed")
        m[f"nn.ops.{k}.gflop_per_s"] = (_ratio(flops / 1e9, t.s), "GFLOP/s-computed")
        m[f"nn.ops.{k}.mb"] = (moved / 1e6, "MB-computed")
    for net in ("cnn", "lstm", "dae"):
        t = get(f"networks.train_{net}")
        m[f"networks.train_{net}.s"] = (t.s, "s")
        m[f"networks.train_{net}.self_s"] = (t.self_s, "s")
    for fn in ("extract_fused", "encode"):
        t = get(f"networks.{fn}")
        m[f"networks.{fn}.calls"] = (t.calls, "count")
        m[f"networks.{fn}.s"] = (t.s, "s")
    t = get("nn.optim.Adam.step")
    m["nn.optim.Adam.step.calls"] = (t.calls, "count")
    m["nn.optim.Adam.step.s"] = (t.s, "s")
    m["nn.optim.Adam.step.params"] = (_ratio(t.counts.get("params", 0), t.calls), "count")
    for fn in ("save_tensors", "load_tensors"):
        t = get(f"nn.checkpoint.{fn}")
        m[f"nn.checkpoint.{fn}.s"] = (t.s, "s")
        m[f"nn.checkpoint.{fn}.bytes"] = (t.counts.get("bytes", 0), "bytes")
    t = get("gbt.fit")
    m["gbt.fit.s"] = (t.s, "s")
    m["gbt.fit.trees"] = (t.counts.get("trees", 0), "count")
    m["gbt.fit.nodes"] = (t.counts.get("nodes", 0), "count")
    m["gbt.fit.s_per_tree"] = (_ratio(t.s, t.counts.get("trees", 0)), "s")
    t = get("gbt.best_split")
    m["gbt.best_split.calls"] = (t.calls, "count")
    m["gbt.best_split.s"] = (t.s, "s")
    t = get("gbt.Ensemble.predict_proba")
    m["gbt.Ensemble.predict_proba.calls"] = (t.calls, "count")
    m["gbt.Ensemble.predict_proba.rows"] = (t.counts.get("rows", 0), "count")
    m["gbt.Ensemble.predict_proba.s"] = (t.s, "s")
    for name in ("recording.bandpass_filter", "covariance.ccv_matrix",
                 "covariance.reject_channels", "covariance.to_network_input"):
        t = get(name)
        m[f"{name}.calls"] = (t.calls, "count")
        m[f"{name}.s"] = (t.s, "s")
    m["recording.preprocess_per_trial"] = (
        _ratio(get("recording.bandpass_filter").calls, n_trials), "ratio")
    for fn in ("run_task", "evaluate_bundles", "fit_channel_rejection", "save_bundle",
               "load_bundle"):
        m[f"pipeline.{fn}.s"] = (get(f"pipeline.{fn}").s, "s")
    for fn in ("read_container", "load_recording"):
        t = get(f"container.{fn}")
        m[f"container.{fn}.s"] = (t.s, "s")
        m[f"container.{fn}.bytes"] = (t.counts.get("bytes", 0), "bytes")
    verbs = [tot[v] for v in verb_names if v in tot]
    m["pipeline.span_coverage"] = (
        _ratio(sum(v.s - v.self_s for v in verbs), sum(v.s for v in verbs)), "ratio")
    m["pipeline.ref_fold_projected_h"] = (project_reference_fold(tot) / 3600.0, "h")
    return m


# --- reference-fold projection -----------------------------------------------

#: One fold of one task at the README's reference configuration.
REFERENCE = {"n_train": 1500, "n_scored": 375, "input_size": 62, "channels": 62,
             "samples": 256, "epochs": {"cnn": 50, "lstm": 50, "dae": 200},
             "batch": 64, "trees": 5000, "depth": 10, "features": networks.DAE_LATENT,
             "subsample": 0.8, "colsample": 0.4}


def network_work(specs, input_shape, backward):
    """Per-example (flops by kernel, parameter count) of one pass through a
    sequential spec list, from the shapes ``infer_shapes`` gives."""
    flops = dict.fromkeys(KERNELS, 0)
    params = 0
    suffix = "backward" if backward else "forward"
    shape = tuple(input_shape)
    for spec, out_shape in zip(specs, nn_network.infer_shapes(specs, input_shape)):
        if spec.kind == "conv2d":
            c_in, h, w = shape
            f, _ = conv_work(1, c_in, h, w, spec.filters, spec.kernel, spec.kernel, backward)
            flops[f"conv2d_{suffix}"] += f
            params += spec.filters * (c_in * spec.kernel ** 2 + 1)
        elif spec.kind == "dense":
            f, _ = dense_work(1, shape[0], spec.units, backward)
            flops[f"dense_{suffix}"] += f
            params += spec.units * (shape[0] + 1)
        elif spec.kind == "lstm":
            steps, n_in = shape
            f, _ = lstm_work(1, steps, n_in, spec.units, backward)
            flops[f"lstm_{suffix}"] += f
            params += 4 * spec.units * (n_in + spec.units + 1)
        shape = out_shape
    return flops, params


def project_reference_fold(tot: dict[str, _Totals]) -> float:
    """Seconds one reference fold would take at this repetition's measured rates.

    Kernel time is the reference fold's computed FLOPs per kernel over the
    FLOP rate each kernel reached here; Adam is priced per parameter update,
    tree fitting per row-column cell scanned by the split search plus a
    per-row cost for the rest of each boosting round, and preprocessing per
    channel-sample.  Returns 0 when a kernel the projection needs did not run.
    """
    ref = REFERENCE
    size = ref["input_size"]
    n_all = ref["n_train"] + ref["n_scored"]
    nets = {"cnn": (networks.CNN_SPECS, (1, size, size)),
            "lstm": (networks.LSTM_SPECS, (size, size)),
            "dae": (networks.dae_specs(networks.FUSED_DIM), (networks.FUSED_DIM,))}
    flops = dict.fromkeys(KERNELS, 0.0)
    param_updates = 0.0
    for net, (specs, shape) in nets.items():
        fwd, params = network_work(specs, shape, False)
        bwd, _ = network_work(specs, shape, True)
        epochs = ref["epochs"][net]
        # training passes, then one eval pass per trial (fuse or encode)
        for k in KERNELS:
            flops[k] += epochs * ref["n_train"] * (fwd[k] + bwd[k]) + n_all * fwd[k]
        param_updates += epochs * math.ceil(ref["n_train"] / ref["batch"]) * params

    seconds = 0.0
    for k in KERNELS:
        t = tot.get(f"nn.ops.{k}")
        if t is None or not t.counts.get("flops"):
            return 0.0
        seconds += flops[k] * t.s / t.counts["flops"]

    def rate(name, key):
        t = tot.get(name)
        return t.s / t.counts[key] if t is not None and t.counts.get(key) else 0.0

    seconds += param_updates * rate("nn.optim.Adam.step", "params")
    cells = (round(ref["subsample"] * ref["n_train"]) * round(ref["colsample"] * ref["features"])
             * ref["depth"])
    seconds += ref["trees"] * cells * rate("gbt.best_split", "cells")
    fit, split = tot.get("gbt.fit"), tot.get("gbt.best_split")
    if fit is not None and fit.counts.get("tree_rows"):
        other = fit.s - (split.s if split is not None else 0.0)
        seconds += ref["trees"] * ref["n_train"] * other / fit.counts["tree_rows"]
    trial = ref["channels"] * ref["samples"]
    seconds += n_all * trial * rate("recording.bandpass_filter", "cells")
    seconds += n_all * trial * ref["channels"] * rate("covariance.ccv_matrix", "pair_cells")
    return seconds
