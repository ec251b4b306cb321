"""The benchmark's span recorder still fits the package: every function it
wraps exists under the name it looks up, its counters read the calls the
package makes, and its work model reads the reference architectures.  A
rename or a changed call shape under src/ fails here before it breaks the
benchmark."""

import sys
from pathlib import Path

import numpy as np
import pytest

from eegspeech import gbt, networks
from eegspeech.nn import build_network
from eegspeech.rng import stream

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402


def test_tracer_wraps_and_restores_every_target():
    def current():
        return [owner.__dict__[attr] for owner, attr, _, _ in tracing.TARGETS]

    originals = current()
    tracer = tracing.Tracer()
    try:
        wrapped = current()
    finally:
        tracer.close()
    assert all(w is not o for w, o in zip(wrapped, originals))
    assert all(r is o for r, o in zip(current(), originals))


@pytest.mark.parametrize("name", ["cnn", "lstm", "dae"])
def test_network_work_counts_the_built_parameters(name):
    specs, shape = {
        "cnn": (networks.CNN_SPECS, (1, 8, 8)),
        "lstm": (networks.LSTM_SPECS, (8, 8)),
        "dae": (networks.dae_specs(networks.FUSED_DIM), (networks.FUSED_DIM,)),
    }[name]
    forward, params = tracing.network_work(specs, shape, backward=False)
    backward, _ = tracing.network_work(specs, shape, backward=True)
    assert sum(forward.values()) > 0
    assert sum(backward.values()) > 0
    net = build_network(specs, shape, stream(0, "perfbench-compat"))
    assert params == sum(t.data.size for _, t in net.parameters())


def test_traced_tree_fit_and_predict_count_their_work():
    # The tracer's counters read positional arguments and the fitted ensemble,
    # so a changed call shape in gbt would fail every traced benchmark run.
    rng = np.random.default_rng(9)
    x = rng.normal(size=(40, 6))
    y = (x[:, 0] > 0).astype(np.float64)
    tracer = tracing.Tracer()
    try:
        model = gbt.fit(x, y, gbt.GbtConfig(n_estimators=3, max_depth=3, min_child_weight=0.1))
        model.predict_proba(x[:7])
    finally:
        tracer.close()
    spans = {}
    for _, _, name, *_, counts in tracer.spans:
        spans.setdefault(name, []).append(counts)
    [fit] = spans["gbt.fit"]
    assert fit["trees"] == 3
    assert fit["nodes"] == sum(tree.n_nodes() for tree in model.trees)
    assert fit["tree_rows"] == 3 * 40
    assert spans["gbt.best_split"] and all(c["cells"] > 0 for c in spans["gbt.best_split"])
    assert spans["gbt.Ensemble.predict_proba"] == [{"rows": 7}]


def test_traced_adam_steps_count_every_parameter():
    # The tracer reads Adam.step's bound instance for its parameter count, so
    # a changed step signature would fail every traced benchmark run.
    features = np.random.default_rng(10).normal(size=(10, 12))
    tracer = tracing.Tracer()
    try:
        dae = networks.train_dae(features, networks.NetworkHyper(epochs=2, batch_size=4), 0)
    finally:
        tracer.close()
    steps = [counts for _, _, name, *_, counts in tracer.spans if name == "nn.optim.Adam.step"]
    assert len(steps) == 2 * 3  # two epochs of three batches
    n_params = sum(t.data.size for _, t in dae.net.parameters())
    assert all(counts == {"params": n_params} for counts in steps)
