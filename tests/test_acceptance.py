"""The release gate: every criterion prints one PASS/FAIL line and has a
pinned tolerance and runtime budget.

Each test accumulates its failures into a list so the printed verdict
reflects the whole criterion, not just the first broken case.
"""

import dataclasses
import json
import time

import numpy as np
import pytest

from test_gbt import _assert_same_structure, _cfg as gbt_cfg, _oracle_fit

from eegspeech import gbt, metrics, networks, pipeline, synth
from eegspeech import rng as rng_mod
from eegspeech.cli import main as cli_main
from eegspeech.config import CovarianceSettings, NetworkHyper, RunConfig
from eegspeech.covariance import ccv_matrix
from eegspeech.nn import LayerSpec, build_network, ops
from eegspeech.nn.gradcheck import gradient_check
from eegspeech.nn.tensor import Tensor
from eegspeech.recording import Recording


def _verdict(capsys, name: str, failures: list, elapsed: float, limit: float):
    ok = not failures and elapsed <= limit
    detail = f"{elapsed:.1f}s of {limit:.0f}s"
    if failures:
        detail += f"; {len(failures)} failure(s), first: {failures[0]}"
    with capsys.disabled():
        print(f"{'PASS' if ok else 'FAIL'}: {name} ({detail})")
    assert not failures, f"{name}: {failures[:3]}"
    assert elapsed <= limit, f"{name}: runtime {elapsed:.1f}s over {limit:.0f}s budget"


def _random_recording(rng):
    n_channels = int(rng.integers(2, 9))
    n_times = int(rng.integers(16, 65))
    return Recording(subject_id="s00", prompt="/uw/",
                     samples=rng.normal(size=(n_channels, n_times)),
                     sample_rate_hz=128.0,
                     channel_names=tuple(f"c{c}" for c in range(n_channels)))


def test_covariance_suite(capsys):
    """1000 seeded trials: symmetry, PSD, double-loop agreement, exact
    permutation and power-of-two scaling behaviour."""
    start = time.perf_counter()
    failures = []
    for trial in range(1000):
        rng = np.random.default_rng(trial)
        rec = _random_recording(rng)
        cov = ccv_matrix(rec, lag=0)
        v = cov.values
        x = rec.samples
        c, n = x.shape

        if not np.array_equal(v, v.T):
            failures.append(f"trial {trial}: asymmetric")
            continue
        scale = np.abs(v).max()
        if np.linalg.eigvalsh(v).min() < -1e-8 * scale:
            failures.append(f"trial {trial}: not PSD")
            continue

        mean = x.mean(axis=1)
        reference = np.empty((c, c))
        for i in range(c):
            for j in range(c):
                acc = 0.0
                for t in range(n):
                    acc += (x[i, t] - mean[i]) * (x[j, t] - mean[j])
                reference[i, j] = acc / n
        if np.abs(v - reference).max() > 1e-10 * max(scale, 1e-30):
            failures.append(f"trial {trial}: oracle mismatch")
            continue

        perm = rng.permutation(c)
        permuted = dataclasses.replace(
            rec, samples=x[perm],
            channel_names=tuple(rec.channel_names[p] for p in perm))
        if not np.array_equal(ccv_matrix(permuted, lag=0).values, v[np.ix_(perm, perm)]):
            failures.append(f"trial {trial}: permutation not exact")
            continue

        scaled = dataclasses.replace(rec, samples=4.0 * x)
        if not np.array_equal(ccv_matrix(scaled, lag=0).values, 16.0 * v):
            failures.append(f"trial {trial}: scaling not exact")
    _verdict(capsys, "covariance suite (1000 trials, PSD + 1e-10 oracle)",
             failures, time.perf_counter() - start, 30.0)


def _grad_instance(kind: str, seed: int) -> float:
    """Worst finite-difference relative error for one seeded instance."""
    rng = np.random.default_rng(seed)
    if kind == "dense":
        x = Tensor(rng.normal(size=(3, 4)))
        w = Tensor(rng.normal(size=(5, 4)))
        b = Tensor(rng.normal(size=5))
        r = rng.normal(size=(3, 5))
        dx, dw, db = ops.dense_backward(x.data, w.data, r)
        x.grad[...], w.grad[...], b.grad[...] = dx, dw, db
        return gradient_check(
            lambda: float(np.sum(ops.dense_forward(x.data, w.data, b.data) * r)),
            [x, w, b])
    if kind == "conv2d":
        x = Tensor(rng.normal(size=(2, 2, 5, 5)))
        w = Tensor(rng.normal(size=(3, 2, 3, 3)))
        b = Tensor(rng.normal(size=3))
        r = rng.normal(size=(2, 3, 3, 3))
        dx, dw, db = ops.conv2d_backward(x.data, w.data, r)
        x.grad[...], w.grad[...], b.grad[...] = dx, dw, db
        return gradient_check(
            lambda: float(np.sum(ops.conv2d_forward(x.data, w.data, b.data) * r)),
            [x, w, b])
    if kind == "lstm":
        units, inputs, steps, batch = 2, 3, 4, 2
        xs = Tensor(rng.normal(size=(batch, steps, inputs)))
        wx = Tensor(rng.normal(scale=0.5, size=(4 * units, inputs)))
        wh = Tensor(rng.normal(scale=0.5, size=(4 * units, units)))
        b = Tensor(rng.normal(scale=0.5, size=4 * units))
        h0 = Tensor(rng.normal(size=(batch, units)))
        c0 = Tensor(rng.normal(size=(batch, units)))
        r = rng.normal(size=(batch, steps, units))
        _, cache = ops.lstm_forward(xs.data, wx.data, wh.data, b.data, h0.data, c0.data)
        grads = ops.lstm_backward(cache, r)
        tensors = [xs, wx, wh, b, h0, c0]
        for tensor, grad in zip(tensors, grads):
            tensor.grad[...] = grad
        return gradient_check(
            lambda: float(np.sum(ops.lstm_forward(
                xs.data, wx.data, wh.data, b.data, h0.data, c0.data)[0] * r)),
            tensors)
    if kind in ops.ACTIVATIONS:
        x = Tensor(rng.uniform(0.1, 2.0, size=12) * rng.choice([-1.0, 1.0], size=12))
        r = rng.normal(size=12)
        out = ops.activation_forward(x.data, kind)
        x.grad[...] = ops.activation_backward(x.data, out, kind, r)
        return gradient_check(
            lambda: float(np.sum(ops.activation_forward(x.data, kind) * r)), [x])
    if kind == "softmax-ce":
        logits = Tensor(rng.normal(size=(4, 2)))
        targets = rng.integers(0, 2, size=4)
        logits.grad[...] = ops.cross_entropy_logit_grad(ops.softmax(logits.data), targets)
        return gradient_check(
            lambda: ops.bce_loss_batch(ops.softmax(logits.data), targets), [logits])
    if kind == "mse":
        pred = Tensor(rng.normal(size=10))
        target = rng.normal(size=10)
        pred.grad[...] = ops.mse_grad(pred.data, target)
        return gradient_check(lambda: ops.mse_loss(pred.data, target), [pred])
    if kind == "dae-stack":
        x = rng.normal(size=(3, 6))
        specs = [
            LayerSpec("dense", units=4), LayerSpec("activation", fn="relu"),
            LayerSpec("dense", units=2), LayerSpec("activation", fn="sigmoid"),
            LayerSpec("dense", units=4), LayerSpec("activation", fn="sigmoid"),
            LayerSpec("dense", units=6), LayerSpec("activation", fn="tanh"),
        ]
        net = build_network(specs, (6,), np.random.default_rng(seed))
        net.zero_grad()
        out = net.forward(x)
        net.backward(ops.mse_grad(out, x))
        return gradient_check(lambda: ops.mse_loss(net.forward(x), x),
                              [t for _, t in net.parameters()])
    raise ValueError(kind)


def test_gradient_suite(capsys):
    """Every layer kind against central differences, 20 instances each."""
    start = time.perf_counter()
    failures = []
    kinds = ("dense", "conv2d", "lstm", "relu", "sigmoid", "tanh",
             "softmax-ce", "mse", "dae-stack")
    for base, kind in enumerate(kinds):
        for instance in range(20):
            err = _grad_instance(kind, 1000 * base + instance)
            if not err < 1e-4:
                failures.append(f"{kind}[{instance}]: rel err {err:.2e}")
    _verdict(capsys, "gradient suite (9 kinds x 20 instances, < 1e-4)",
             failures, time.perf_counter() - start, 120.0)


def test_gbt_oracle_equivalence(capsys):
    """100 small instances: fitted trees identical to the brute-force oracle."""
    start = time.perf_counter()
    failures = []
    for seed in range(100):
        rng = np.random.default_rng(20_000 + seed)
        n = int(rng.integers(10, 51))
        n_features = int(rng.integers(1, 5))
        x = np.round(rng.normal(size=(n, n_features)), 2)
        y = (rng.random(n) < 0.5).astype(np.float64)
        if y.sum() < 2 or (1 - y).sum() < 2:
            y[:2] = 1.0
            y[2:4] = 0.0
        cfg = gbt_cfg(n_estimators=3, max_depth=int(rng.integers(1, 4)),
                      learning_rate=0.3,
                      reg_lambda=float(rng.choice([0.0, 0.3, 1.0])),
                      min_child_weight=float(rng.choice([0.0, 1.0])))
        model = gbt.fit(x, y, cfg)
        base, trees, scores = _oracle_fit(x, y, cfg)
        try:
            assert model.base_score == pytest.approx(base, abs=1e-12)
            assert len(model.trees) == len(trees)
            for ours, ref in zip(model.trees, trees):
                _assert_same_structure(ours.root, ref.root)
            assert np.allclose(model.raw_scores(x), scores, atol=1e-10)
        except AssertionError as exc:
            failures.append(f"seed {seed}: {str(exc).splitlines()[0]}")
    _verdict(capsys, "gbt oracle equivalence (100 instances, identical trees)",
             failures, time.perf_counter() - start, 60.0)


def _e2e_recordings(seed, shuffle_prompts=False):
    trials = synth.generate_synthetic_recordings(200, 8, 3, separability=3.0,
                                                 seed=seed)
    prompts = [prompt for _, _, prompt, _ in trials]
    if shuffle_prompts:
        order = rng_mod.stream(seed, "shuffle-control").permutation(len(prompts))
        prompts = [prompts[i] for i in order]
    names = tuple(f"ch{c:02d}" for c in range(8))
    recs = [Recording(subject_id=subject, prompt=prompts[i],
                      samples=np.asarray(samples, dtype=np.float64),
                      sample_rate_hz=128.0, channel_names=names)
            for i, (_, subject, _, samples) in enumerate(trials)]
    return recs, [trial_id for trial_id, *_ in trials]


def _e2e_config(seed):
    return RunConfig(seed=seed, tasks=("uw",),
                     covariance=CovarianceSettings(input_size=8),
                     cnn=NetworkHyper(epochs=5),
                     lstm=NetworkHyper(epochs=5),
                     dae=NetworkHyper(epochs=20),
                     gbt=gbt.GbtConfig(n_estimators=100, seed=seed))


def test_end_to_end_synthetic(capsys):
    """Separable corpus must be learned; a label-shuffled control must not."""
    start = time.perf_counter()
    failures = []
    cfg = _e2e_config(seed=42)
    task = pipeline.task_from_config(cfg, "uw")
    plan = pipeline.SplitPlan("random_holdout", seed=cfg.seed)

    recs, ids = _e2e_recordings(seed=42)
    _, report = pipeline.run_task(recs, task, plan, cfg, trial_ids=ids)
    if not report.accuracy >= 0.90:
        failures.append(f"separable accuracy {report.accuracy:.3f} < 0.90")
    if not report.kappa >= 0.8:
        failures.append(f"separable kappa {report.kappa:.3f} < 0.8")

    shuffled, ids = _e2e_recordings(seed=42, shuffle_prompts=True)
    _, control = pipeline.run_task(shuffled, task, plan, cfg, trial_ids=ids)
    if not 0.35 <= control.accuracy <= 0.65:
        failures.append(f"shuffled control accuracy {control.accuracy:.3f} "
                        "outside [0.35, 0.65]")
    _verdict(capsys, "end-to-end synthetic (acc >= 0.90, kappa >= 0.8, "
             "shuffled control chance-level)", failures,
             time.perf_counter() - start, 300.0)


def test_metrics_arithmetic(capsys):
    start = time.perf_counter()
    failures = []
    summary = metrics.summarize([75.55, 73.45, 85.23, 81.99, 73.30])
    if abs(summary.mean - 77.90) > 0.01:
        failures.append(f"mean {summary.mean:.4f} != 77.90 +- 0.01")
    if abs(summary.std - 5.41) > 0.01:
        failures.append(f"std {summary.std:.4f} != 5.41 +- 0.01")
    deltas = metrics.improvement_over([75.55, 73.45, 85.23, 81.99, 73.30],
                                      [56.64, 63.50, 18.08, 79.16, 59.60])
    expected = [18.91, 9.95, 67.15, 2.83, 13.70]
    for got, want in zip(deltas, expected):
        if abs(got - want) > 0.01:
            failures.append(f"delta {got:.4f} != {want} +- 0.01")
    _verdict(capsys, "metrics arithmetic (mean 77.90, std 5.41, pinned deltas)",
             failures, time.perf_counter() - start, 10.0)


def test_crossval_determinism(capsys, tmp_path):
    """Two identical crossval invocations must be byte-identical everywhere."""
    start = time.perf_counter()
    failures = []
    data = tmp_path / "data"
    assert cli_main(["synth", "--out", str(data), "--n-trials", "24",
                     "--n-channels", "6", "--n-subjects", "3", "--seed", "7"]) == 0
    outputs = []
    for run in ("one", "two"):
        out = tmp_path / run
        cfg_path = tmp_path / f"{run}.json"
        cfg_path.write_text(json.dumps({
            "seed": 7, "tasks": ["uw"], "output_dir": str(out),
            "covariance": {"input_size": 6},
            "cnn": {"epochs": 2, "batch_size": 16},
            "lstm": {"epochs": 2, "batch_size": 16},
            "dae": {"epochs": 3, "batch_size": 16},
            "gbt": {"n_estimators": 20, "max_depth": 3},
        }))
        if cli_main(["crossval", "--config", str(cfg_path),
                     "--container", str(data)]) != 0:
            failures.append(f"run {run} did not exit 0")
        outputs.append(out)
    if not failures:
        first = {p.relative_to(outputs[0]): p.read_bytes()
                 for p in sorted(outputs[0].rglob("*")) if p.is_file()}
        second = {p.relative_to(outputs[1]): p.read_bytes()
                  for p in sorted(outputs[1].rglob("*")) if p.is_file()}
        if set(first) != set(second):
            failures.append("output file sets differ")
        else:
            for rel, blob in first.items():
                if second[rel] != blob:
                    failures.append(f"{rel} differs between runs")
        if not first:
            failures.append("no output files produced")
    _verdict(capsys, "crossval determinism (byte-identical reports and checkpoints)",
             failures, time.perf_counter() - start, 300.0)


def test_shape_contract(capsys, monkeypatch):
    start = time.perf_counter()
    failures = []
    cnn = networks.build_cnn_model(8, seed=0)
    if cnn.penultimate(np.zeros((1, 8, 8))).shape != (1, 128):
        failures.append("cnn penultimate is not 128-dim")
    lstm = networks.build_lstm_model(8, seed=0)
    if lstm.penultimate(np.zeros((1, 8, 8))).shape != (1, 1024):
        failures.append("lstm penultimate is not 1024-dim")
    fused = networks.extract_fused(cnn, lstm, np.zeros((1, 8, 8)))
    if fused.shape != (1, 1152):
        failures.append("fused vector is not 1152-dim")
    dae = networks.build_dae_model(1152, seed=0)
    if networks.encode(dae, np.zeros((1, 1152))).shape != (1, 32):
        failures.append("latent code is not 32-dim")

    bad_cnn = list(networks.CNN_SPECS)
    bad_cnn[9] = LayerSpec("dense", units=96)
    monkeypatch.setattr(networks, "CNN_SPECS", bad_cnn)
    try:
        networks.build_cnn_model(8)
        failures.append("cnn width deviation did not fail at build")
    except ValueError:
        pass
    monkeypatch.undo()

    bad_dae = networks.dae_specs(64)
    bad_dae[6] = LayerSpec("dense", units=16)
    monkeypatch.setattr(networks, "dae_specs", lambda d: bad_dae)
    try:
        networks.build_dae_model(64)
        failures.append("dae width deviation did not fail at build")
    except ValueError:
        pass
    _verdict(capsys, "shape contract (128/1024/1152/32 enforced at build)",
             failures, time.perf_counter() - start, 60.0)
