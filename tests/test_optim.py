"""The in-place Adam step against the textbook form it replaced.

``_ReferenceAdam`` is the earlier ``Adam.step`` verbatim: it allocates fresh
temporaries and leaves the gradients alone.  The in-place step must give
bit-equal weights and moments, and must allocate no parameter-sized array.
"""

import tracemalloc

import numpy as np

from eegspeech.nn import Adam, Tensor
from eegspeech.nn.optim import BETA1, BETA2, EPSILON


class _ReferenceAdam(Adam):
    def step(self) -> None:
        """Apply one update from the gradients currently stored on the params."""
        self.step_count += 1
        b1, b2 = BETA1, BETA2
        bias1 = 1.0 - b1 ** self.step_count
        bias2 = 1.0 - b2 ** self.step_count
        for name, tensor in self.params:
            g = tensor.grad
            m = self._m[name]
            v = self._v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            m_hat = m / bias1
            v_hat = v / bias2
            tensor.data -= self.learning_rate * m_hat / (np.sqrt(v_hat) + EPSILON)


#: Parameter shapes of different sizes and ranks, so each takes a different
#: slice of the shared scratch array (the largest first, then smaller ones).
SHAPES = [(7, 5, 3), (11,), (4, 6), (1,)]


def _gradient(rng, shape):
    """Gradients from 1e-9 to 1e6 in magnitude, both signs, with exact zeros."""
    g = rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-9, 6, size=shape)
    g[rng.random(shape) < 0.2] = 0.0
    return g


def _params(seed):
    rng = np.random.default_rng(seed)
    return [(f"p{i}", Tensor(rng.normal(size=shape))) for i, shape in enumerate(SHAPES)]


def test_in_place_step_matches_the_reference_bit_for_bit():
    ours, ref = _params(0), _params(0)
    adam = Adam(ours, learning_rate=0.003)
    reference = _ReferenceAdam(ref, learning_rate=0.003)
    rng = np.random.default_rng(1)
    for _ in range(8):
        for (_, a), (_, b) in zip(ours, ref):
            g = _gradient(rng, a.shape)
            a.grad = g.copy()
            b.grad = g.copy()
        adam.step()
        reference.step()
        for (name, a), (_, b) in zip(ours, ref):
            assert a.data.tobytes() == b.data.tobytes(), name
            assert adam._m[name].tobytes() == reference._m[name].tobytes(), name
            assert adam._v[name].tobytes() == reference._v[name].tobytes(), name
    assert adam.step_count == reference.step_count == 8


def test_scratch_is_one_array_of_the_largest_parameter():
    adam = Adam(_params(2))
    bases = {id(s.base) for s in adam._scratch.values()}
    assert len(bases) == 1
    assert next(iter(adam._scratch.values())).base.size == max(int(np.prod(s)) for s in SHAPES)


def test_warm_step_allocates_no_parameter_sized_array():
    t = Tensor(np.random.default_rng(3).normal(size=1_000_000))
    adam = Adam([("w", t)])
    t.grad = np.ones(t.shape)
    adam.step()
    t.grad = np.full(t.shape, 0.5)
    tracemalloc.start()
    try:
        adam.step()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one float64 temporary of this parameter would be 8 MB
    assert peak < 1_000_000
