"""The three networks of the hierarchy, as one model type with one training loop.

Level 1 trains a CNN and an LSTM network in parallel roles on the same square
input matrices, each ending in two class logits.  Their penultimate hidden
activations (128 and 1024 wide) are concatenated into a 1152-dim fused vector.
Level 2 compresses fused vectors with an unsupervised autoencoder whose 32-dim
latent code feeds the boosted-tree classifier at level 3.  Each network is a
`Model`: the layer stack, the shape its rows take, the index of its feature
layer and an input standardisation.  `_fit` trains all three with minibatch
Adam: cross-entropy against labels for the branches, MSE against their own
standardised input for the autoencoder.
"""

from __future__ import annotations

import os
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from . import metrics
from . import rng as rng_mod
from .bounds import check_bounds
from .nn import Adam, LayerSpec, Network, infer_shapes, initial_state
from .nn import ops
from .nn.checkpoint import write_csv_atomic

# Architecture constants; the penultimate/latent widths are load-bearing for
# the fusion arithmetic and are re-checked at build time.
CNN_PENULTIMATE = 128
LSTM_PENULTIMATE = 1024
FUSED_DIM = CNN_PENULTIMATE + LSTM_PENULTIMATE
DAE_LATENT = 32

#: Rows per eval-mode forward pass: the reference batch size.  One pass over
#: a reference-scale corpus (about 1875 trials of 62x62 input) would hold
#: about 10 GB of conv activations at once.  A 64-row chunk also holds the
#: 32->64 conv layer's transient im2col block, 64*288*58*58*8 B or about
#: 496 MB: one block per call, which the split's workers fill and share.
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
]

LSTM_SPECS = [
    LayerSpec("lstm", units=128),
    LayerSpec("lstm", units=256),
    LayerSpec("last_step"),
    LayerSpec("dropout", rate=0.25),
    LayerSpec("dense", units=512),
    LayerSpec("activation", fn="relu"),
    LayerSpec("dropout", rate=0.50),
    LayerSpec("dense", units=LSTM_PENULTIMATE),
    LayerSpec("activation", fn="relu"),
    LayerSpec("dense", units=2),
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

    epochs: int = field(metadata={"minimum": 0})
    batch_size: int = field(default=64, metadata={"minimum": 1})
    learning_rate: float = field(default=0.001, metadata={"exclusiveMinimum": 0})

    def __post_init__(self):
        check_bounds(self)


@dataclass
class EpochStats:
    epoch: int
    loss: float
    accuracy: float


@dataclass
class Model:
    """One network of the hierarchy and the way rows reach it.

    Rows are reshaped to ``input_shape`` and then standardised with ``mean``
    and ``std``: the autoencoder's training-set statistics, and for the two
    branches 0 and 1, which leave every value bit for bit as it was.
    ``feature_index`` is the layer whose output is the model's feature: the
    penultimate layer of a branch, the latent code of the autoencoder.
    """

    net: Network
    input_shape: tuple[int, ...]
    feature_index: int
    mean: np.ndarray | float = 0.0
    std: np.ndarray | float = 1.0
    trace: list[EpochStats] = field(default_factory=list)

    def standardize(self, rows) -> np.ndarray:
        x = np.asarray(rows, dtype=np.float64)
        return (x.reshape(len(x), *self.input_shape) - self.mean) / self.std

    def penultimate(self, rows) -> np.ndarray:
        """The feature layer's output per row."""
        return _eval_rows(self, rows, self.feature_index)


def _eval_rows(model: Model, rows, stop: int | None = None) -> np.ndarray:
    """Eval-mode forward over a stack of rows, EVAL_CHUNK rows at a time,
    up to and including layer ``stop``."""
    x = np.asarray(rows, dtype=np.float64)
    return np.concatenate([model.net.forward(model.standardize(x[i:i + EVAL_CHUNK]),
                                             train=False, stop=stop)
                           for i in range(0, len(x), EVAL_CHUNK)])


def _fit(model: Model, x: np.ndarray, targets: np.ndarray, hyper: NetworkHyper,
         seed: int, name: str) -> None:
    """Minibatch Adam on standardised rows, appending one EpochStats per epoch.

    Integer targets are class labels: softmax cross-entropy on the output
    logits, the softmax part of the loss.  Float targets are regressed with
    MSE, and the accuracy column stays 0.
    """
    net = model.net
    classify = targets.dtype.kind == "i"
    adam = Adam(net.parameters(), learning_rate=hyper.learning_rate)
    shuffle_rng = rng_mod.stream(seed, name, "shuffle")
    net.set_dropout_rng(rng_mod.stream(seed, name, "dropout"))
    n = len(x)
    for epoch in range(hyper.epochs):
        order = shuffle_rng.permutation(n)
        loss = 0.0
        hits = 0
        for start in range(0, n, hyper.batch_size):
            idx = order[start:start + hyper.batch_size]
            xb, tb = x[idx], targets[idx]
            out = net.forward(xb, train=True)
            if classify:
                probs = ops.softmax(out)
                loss += ops.bce_loss_batch(probs, tb) * len(idx)
                hits += int((probs.argmax(axis=1) == tb).sum())
                grad = ops.cross_entropy_logit_grad(probs, tb)
            else:
                loss += ops.mse_loss(out, tb) * len(idx)
                grad = ops.mse_grad(out, tb)
            net.backward(grad)
            adam.step()
        model.trace.append(EpochStats(epoch, loss / n, hits / n))
    net.set_dropout_rng(None)


def _architecture(name: str, size: int) -> tuple[list[LayerSpec], tuple[int, ...], int]:
    """Network ``name``'s layer specs, input shape and feature layer for input
    side (or, for the autoencoder, input width) ``size``.  Raises ValueError
    if the feature layer (built from the spec at that index) does not output
    the width the fusion arithmetic reads."""
    if name == "cnn":
        specs, shape, index, width, what = (CNN_SPECS, (1, size, size), 10, CNN_PENULTIMATE,
                                            "penultimate")
    elif name == "lstm":
        specs, shape, index, width, what = (LSTM_SPECS, (size, size), 8, LSTM_PENULTIMATE,
                                            "penultimate")
    else:
        specs, shape, index, width, what = dae_specs(size), (size,), 7, DAE_LATENT, "latent"
    actual = infer_shapes(specs, shape)[index][-1]
    if actual != width:
        raise ValueError(f"{name} {what} width is {actual}, expected {width}")
    return specs, shape, index


def build_model(name: str, size: int, state: Mapping[str, np.ndarray],
                prefix: str = "") -> Model:
    """Network ``name`` ("cnn", "lstm" or "dae") at ``size``, its parameters
    ``state``'s arrays under ``prefix`` themselves (see `Network.from_state`)."""
    specs, shape, index = _architecture(name, size)
    return Model(net=Network.from_state(specs, shape, state, prefix), input_shape=shape,
                 feature_index=index)


def _untrained(name: str, size: int, seed: int) -> Model:
    specs, shape, _ = _architecture(name, size)  # checked before any weight is drawn
    return build_model(name, size, initial_state(specs, shape, rng_mod.stream(seed, name, "init")))


def build_cnn_model(input_size: int, seed: int = 0) -> Model:
    """An untrained CNN of the reference architecture for the given matrix
    size; it reads each matrix as a one-channel image."""
    return _untrained("cnn", input_size, seed)


def build_lstm_model(input_size: int, seed: int = 0) -> Model:
    """An untrained LSTM network; it reads each matrix row by row as a sequence."""
    return _untrained("lstm", input_size, seed)


def build_dae_model(input_dim: int, seed: int = 0) -> Model:
    return _untrained("dae", input_dim, seed)


def _train_branch(name: str, inputs, labels, hyper: NetworkHyper, seed: int) -> Model:
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 3 or x.shape[1] != x.shape[2]:
        raise ValueError(f"inputs must be square matrices, got shape {x.shape[1:]}")
    problem = metrics.label_problem(labels)
    if problem:
        raise ValueError(problem)
    y = np.asarray(labels, dtype=np.int64)
    if len(x) != len(y):
        raise ValueError("inputs and labels disagree in length")
    model = _untrained(name, x.shape[1], seed)
    _fit(model, model.standardize(x), y, hyper, seed, name)
    return model


def train_cnn(inputs, labels, hyper: NetworkHyper, seed: int) -> Model:
    """Train the convolutional branch on square input matrices."""
    return _train_branch("cnn", inputs, labels, hyper, seed)


def train_lstm(inputs, labels, hyper: NetworkHyper, seed: int) -> Model:
    """Train the recurrent branch on square input matrices."""
    return _train_branch("lstm", inputs, labels, hyper, seed)


def extract_fused(cnn: Model, lstm: Model, matrices) -> np.ndarray:
    """Fused vectors for a stack of input matrices: the two penultimate
    activation vectors side by side (CNN first), one row per matrix."""
    return np.concatenate([cnn.penultimate(matrices), lstm.penultimate(matrices)], axis=1)


def train_dae(features, hyper: NetworkHyper, seed: int) -> Model:
    """Fit the autoencoder on fused feature vectors (unsupervised, MSE).

    Inputs are standardised per dimension with training-set statistics
    (stored on the model); constant dimensions standardise to zero.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or len(x) < 2:
        raise ValueError("need a 2-D feature array with at least 2 rows")
    model = build_dae_model(x.shape[1], seed=seed)
    std = x.std(axis=0)
    model.mean, model.std = x.mean(axis=0), np.where(std == 0.0, 1.0, std)
    z = model.standardize(x)
    _fit(model, z, z, hyper, seed, "dae")
    return model


def encode(dae: Model, features) -> np.ndarray:
    """Latent codes for a stack of fused feature vectors (eval mode)."""
    return dae.penultimate(features)


def reconstruction_mse(dae: Model, features) -> float:
    return ops.mse_loss(_eval_rows(dae, features), dae.standardize(features))


def write_trace_csv(path: str | os.PathLike, trace: list[EpochStats]) -> None:
    write_csv_atomic(path, [["epoch", "loss", "accuracy"],
                            *([row.epoch, repr(row.loss), repr(row.accuracy)] for row in trace)])
