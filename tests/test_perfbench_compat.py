"""The benchmark's span recorder still fits the package: every function it
wraps exists under the name it looks up, and its work model reads the
reference architectures.  A rename under src/ fails here before it breaks
the benchmark."""

import sys
from pathlib import Path

import pytest

from eegspeech import networks
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
