"""The three networks of the hierarchy and their training loops.

Level 1 trains a CNN and an LSTM network in parallel roles on the same square
input matrices, each ending in a 2-class softmax.  Their penultimate hidden
activations (128 and 1024 wide) are concatenated into a 1152-dim fused vector.
Level 2 compresses fused vectors with an unsupervised autoencoder whose 32-dim
latent code feeds the boosted-tree classifier at level 3.
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass, field

import numpy as np

from . import rng as rng_mod
from .nn import Adam, LayerSpec, Network, build_network, infer_shapes
from .nn import ops
from .nn.checkpoint import write_bytes_atomic

# Architecture constants; the penultimate/latent widths are load-bearing for
# the fusion arithmetic and are re-checked at build time.
CNN_PENULTIMATE = 128
LSTM_PENULTIMATE = 1024
FUSED_DIM = CNN_PENULTIMATE + LSTM_PENULTIMATE
DAE_LATENT = 32

#: Rows per eval-mode forward pass: the reference batch size.  One pass over
#: a reference-scale corpus (about 1875 trials of 62x62 input) would hold
#: about 10 GB of conv activations at once.
EVAL_CHUNK = 64

CNN_SPECS = [
    LayerSpec("conv2d", filters=32, kernel=3),
    LayerSpec("activation", fn="relu"),
    LayerSpec("conv2d", filters=64, kernel=3),
    LayerSpec("activation", fn="relu"),
    LayerSpec("dropout", rate=0.25),
    LayerSpec("flatten"),
    LayerSpec("dense", units=64),
    LayerSpec("activation", fn="relu"),
    LayerSpec("dropout", rate=0.50),
    LayerSpec("dense", units=CNN_PENULTIMATE),
    LayerSpec("activation", fn="relu"),
    LayerSpec("dense", units=2),
    LayerSpec("softmax"),
]

LSTM_SPECS = [
    LayerSpec("lstm", units=128),
    LayerSpec("lstm", units=256),
    LayerSpec("dropout", rate=0.25),
    LayerSpec("dense", units=512),
    LayerSpec("activation", fn="relu"),
    LayerSpec("dropout", rate=0.50),
    LayerSpec("dense", units=LSTM_PENULTIMATE),
    LayerSpec("activation", fn="relu"),
    LayerSpec("dense", units=2),
    LayerSpec("softmax"),
]


def dae_specs(input_dim: int) -> list[LayerSpec]:
    return [
        LayerSpec("dense", units=512),
        LayerSpec("activation", fn="relu"),
        LayerSpec("dropout", rate=0.25),
        LayerSpec("dense", units=128),
        LayerSpec("activation", fn="relu"),
        LayerSpec("dropout", rate=0.25),
        LayerSpec("dense", units=DAE_LATENT),
        LayerSpec("activation", fn="sigmoid"),
        LayerSpec("dropout", rate=0.25),
        LayerSpec("dense", units=128),
        LayerSpec("activation", fn="sigmoid"),
        LayerSpec("dense", units=512),
        LayerSpec("activation", fn="relu"),
        LayerSpec("dense", units=input_dim),
        LayerSpec("activation", fn="tanh"),
    ]


@dataclass(frozen=True)
class NetworkHyper:
    """Budget and optimiser settings for one network's training run."""

    epochs: int
    batch_size: int = 64
    learning_rate: float = 0.001

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")


@dataclass
class EpochStats:
    epoch: int
    loss: float
    accuracy: float


def _eval_rows(net: Network, x: np.ndarray, stop: int | None = None) -> np.ndarray:
    """Eval-mode forward over a stack of rows, EVAL_CHUNK rows at a time,
    up to and including layer ``stop``."""
    return np.concatenate([net.forward(x[i:i + EVAL_CHUNK], train=False, stop=stop)
                           for i in range(0, len(x), EVAL_CHUNK)])


@dataclass
class _Branch:
    """A level-1 classifier over a stack of square input matrices."""

    net: Network
    input_size: int
    feature_index: int
    trace: list[EpochStats] = field(default_factory=list)

    def arrange(self, matrices) -> np.ndarray:
        raise NotImplementedError

    def predict_proba(self, matrices) -> np.ndarray:
        """Class probabilities, one row per input matrix."""
        return _eval_rows(self.net, self.arrange(matrices))

    def penultimate(self, matrices) -> np.ndarray:
        return _eval_rows(self.net, self.arrange(matrices), self.feature_index)


@dataclass
class CnnModel(_Branch):
    def arrange(self, matrices) -> np.ndarray:
        """A stack of square matrices as one-channel images."""
        return np.asarray(matrices, dtype=np.float64)[:, None, :, :]


@dataclass
class LstmModel(_Branch):
    def arrange(self, matrices) -> np.ndarray:
        """A stack of square matrices as sequences of rows."""
        return np.asarray(matrices, dtype=np.float64)


@dataclass
class DaeModel:
    net: Network
    latent_index: int
    mean: np.ndarray
    std: np.ndarray
    trace: list[EpochStats] = field(default_factory=list)

    def standardize(self, features: np.ndarray) -> np.ndarray:
        return (features - self.mean) / self.std


def _check_labels(labels) -> np.ndarray:
    y = np.asarray(labels, dtype=np.int64)
    if y.ndim != 1:
        raise ValueError("labels must be a flat vector")
    if not np.isin(y, (0, 1)).all():
        raise ValueError("labels must be binary (0/1)")
    counts = np.bincount(y, minlength=2)
    if counts.min() == 0:
        raise ValueError("single-class input: both classes must be present")
    if counts.min() < 2:
        raise ValueError("need at least 2 examples per class")
    return y


def _train_classifier(net: Network, x: np.ndarray, y: np.ndarray,
                      hyper: NetworkHyper, seed: int, name: str) -> list[EpochStats]:
    adam = Adam(net.parameters(), learning_rate=hyper.learning_rate)
    shuffle_rng = rng_mod.stream(seed, name, "shuffle")
    net.set_dropout_rng(rng_mod.stream(seed, name, "dropout"))
    n = len(x)
    trace = []
    for epoch in range(hyper.epochs):
        order = shuffle_rng.permutation(n)
        losses = []
        hits = 0
        for start in range(0, n, hyper.batch_size):
            idx = order[start:start + hyper.batch_size]
            xb, yb = x[idx], y[idx]
            probs = net.forward(xb, train=True)
            losses.append(ops.bce_loss_batch(probs, yb) * len(idx))
            hits += int((probs.argmax(axis=1) == yb).sum())
            net.zero_grad()
            dlogits = ops.cross_entropy_logit_grad(probs, yb)
            net.backward(dlogits, start=len(net.layers) - 2)
            adam.step()
        trace.append(EpochStats(epoch, sum(losses) / n, hits / n))
    net.set_dropout_rng(None)
    return trace


def _stack_inputs(inputs) -> np.ndarray:
    x = np.stack([np.asarray(m, dtype=np.float64) for m in inputs])
    if x.ndim != 3 or x.shape[1] != x.shape[2]:
        raise ValueError(f"inputs must be square matrices, got shape {x.shape[1:]}")
    return x


def _verify_width(specs: list[LayerSpec], input_shape, index: int, expected: int,
                  what: str) -> None:
    """Raise unless spec ``index`` outputs ``expected`` features."""
    width = infer_shapes(specs, input_shape)[index][-1]
    if width != expected:
        raise ValueError(f"{what} width is {width}, expected {expected}")


def build_cnn_model(input_size: int, seed: int = 0) -> CnnModel:
    """An untrained CNN of the reference architecture for the given matrix size."""
    shape = (1, input_size, input_size)
    _verify_width(CNN_SPECS, shape, 10, CNN_PENULTIMATE, "cnn penultimate")
    net = build_network(CNN_SPECS, shape, rng_mod.stream(seed, "cnn", "init"))
    return CnnModel(net=net, input_size=input_size, feature_index=net.spec_outputs[10])


def build_lstm_model(input_size: int, seed: int = 0) -> LstmModel:
    shape = (input_size, input_size)
    _verify_width(LSTM_SPECS, shape, 7, LSTM_PENULTIMATE, "lstm penultimate")
    net = build_network(LSTM_SPECS, shape, rng_mod.stream(seed, "lstm", "init"))
    return LstmModel(net=net, input_size=input_size, feature_index=net.spec_outputs[7])


def build_dae_model(input_dim: int, seed: int = 0) -> DaeModel:
    specs = dae_specs(input_dim)
    _verify_width(specs, (input_dim,), 7, DAE_LATENT, "dae latent")
    net = build_network(specs, (input_dim,), rng_mod.stream(seed, "dae", "init"))
    return DaeModel(net=net, latent_index=net.spec_outputs[7],
                    mean=np.zeros(input_dim), std=np.ones(input_dim))


def train_cnn(inputs, labels, hyper: NetworkHyper, seed: int) -> CnnModel:
    """Train the convolutional branch on square input matrices."""
    x = _stack_inputs(inputs)
    y = _check_labels(labels)
    if len(x) != len(y):
        raise ValueError("inputs and labels disagree in length")
    model = build_cnn_model(x.shape[1], seed=seed)
    model.trace = _train_classifier(model.net, model.arrange(x), y, hyper, seed, "cnn")
    return model


def train_lstm(inputs, labels, hyper: NetworkHyper, seed: int) -> LstmModel:
    """Train the recurrent branch, reading the matrix row by row as a sequence."""
    x = _stack_inputs(inputs)
    y = _check_labels(labels)
    if len(x) != len(y):
        raise ValueError("inputs and labels disagree in length")
    model = build_lstm_model(x.shape[1], seed=seed)
    model.trace = _train_classifier(model.net, model.arrange(x), y, hyper, seed, "lstm")
    return model


def extract_fused(cnn: CnnModel, lstm: LstmModel, matrices) -> np.ndarray:
    """Fused vectors for a stack of input matrices: the two penultimate
    activation vectors side by side (CNN first), one row per matrix."""
    return np.concatenate([cnn.penultimate(matrices), lstm.penultimate(matrices)], axis=1)


def train_dae(features, hyper: NetworkHyper, seed: int) -> DaeModel:
    """Fit the autoencoder on fused feature vectors (unsupervised, MSE).

    Inputs are standardised per dimension with training-set statistics
    (stored on the model); constant dimensions standardise to zero.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or len(x) < 2:
        raise ValueError("need a 2-D feature array with at least 2 rows")
    model = build_dae_model(x.shape[1], seed=seed)
    model.mean = x.mean(axis=0)
    std = x.std(axis=0)
    model.std = np.where(std == 0.0, 1.0, std)
    z = model.standardize(x)
    net = model.net
    adam = Adam(net.parameters(), learning_rate=hyper.learning_rate)
    shuffle_rng = rng_mod.stream(seed, "dae", "shuffle")
    net.set_dropout_rng(rng_mod.stream(seed, "dae", "dropout"))
    n = len(z)
    for epoch in range(hyper.epochs):
        order = shuffle_rng.permutation(n)
        losses = []
        for start in range(0, n, hyper.batch_size):
            idx = order[start:start + hyper.batch_size]
            zb = z[idx]
            recon = net.forward(zb, train=True)
            losses.append(ops.mse_loss(recon, zb) * len(idx))
            net.zero_grad()
            net.backward(ops.mse_grad(recon, zb))
            adam.step()
        model.trace.append(EpochStats(epoch, sum(losses) / n, 0.0))
    net.set_dropout_rng(None)
    return model


def encode(dae: DaeModel, features) -> np.ndarray:
    """Latent codes for a stack of fused feature vectors (eval mode)."""
    z = dae.standardize(np.asarray(features, dtype=np.float64))
    return _eval_rows(dae.net, z, dae.latent_index)


def reconstruction_mse(dae: DaeModel, features) -> float:
    z = dae.standardize(np.asarray(features, dtype=np.float64))
    return ops.mse_loss(_eval_rows(dae.net, z), z)


def write_trace_csv(path: str | os.PathLike, trace: list[EpochStats]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["epoch", "loss", "accuracy"])
    for row in trace:
        writer.writerow([row.epoch, repr(row.loss), repr(row.accuracy)])
    write_bytes_atomic(path, buf.getvalue().encode("utf-8"))
