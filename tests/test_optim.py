"""The blocked, in-place Adam step against the textbook form it replaced.

``_ReferenceAdam`` is the earlier ``Adam.step`` verbatim: it allocates fresh
temporaries and leaves the gradients alone.  The blocked step must give
bit-equal weights and moments, leave its gradients' bytes alone, and
allocate no parameter-sized array.
"""

import tracemalloc

import numpy as np
import pytest

from eegspeech.nn import Adam, Tensor, optim
from eegspeech.nn.optim import BETA1, BETA2, BLOCK, EPSILON

from conftest import workers


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
#: slice of the shared work buffers (the largest first, then smaller ones).
SHAPES = [(7, 5, 3), (11,), (4, 6), (1,)]
#: Parameters on either side of the block edges, in several ranks: one
#: element, one short of a block, one block, one past it, and two blocks
#: and a short tail.
BLOCK_SHAPES = [(1,), (BLOCK - 1, 1), (8, BLOCK // 8), (BLOCK + 1,), (1, 2 * BLOCK + 3, 1)]


def _gradient(rng, shape):
    """Gradients from 1e-9 to 1e6 in magnitude, both signs, with exact zeros
    of both signs (a -0 gradient gives a -0 first-moment increment)."""
    g = rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-9, 6, size=shape)
    zeros = rng.random(shape)
    g[zeros < 0.2] = 0.0
    g[zeros < 0.1] = -0.0
    return g


def _params(seed, shapes=SHAPES):
    rng = np.random.default_rng(seed)
    return [(f"p{i}", Tensor(rng.normal(size=shape))) for i, shape in enumerate(shapes)]


def _assert_steps_match_the_reference(shapes):
    ours, ref = _params(0, shapes), _params(0, shapes)
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


def test_in_place_step_matches_the_reference_bit_for_bit():
    _assert_steps_match_the_reference(SHAPES)


def test_blocked_step_matches_the_reference_at_block_edges():
    _assert_steps_match_the_reference(BLOCK_SHAPES)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("shapes", [BLOCK_SHAPES, [(BLOCK,)] * 6],
                         ids=["cuts-inside-parameters", "cuts-on-parameter-edges"])
def test_split_step_matches_the_reference_at_every_worker_count(monkeypatch, n, shapes):
    # one block per worker is enough to split, so these steps cut their
    # elements into n parts: inside parameters, or on their edges
    monkeypatch.setattr(optim, "SPLIT_BLOCKS", 1)
    with workers(n):
        _assert_steps_match_the_reference(shapes)


def test_a_fresh_gradient_is_zeros_made_on_first_read():
    t = Tensor(np.ones((3, 4)))
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        grad = t.grad
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert after - before >= grad.nbytes
    assert t.grad is grad and grad.shape == (3, 4) and not grad.any()
    grad[...] = 1.0  # writable, and kept
    assert t.grad.sum() == 12.0
    t.grad = None
    assert t.grad is None


def test_work_buffers_hold_at_most_block_elements():
    for shapes in (SHAPES, BLOCK_SHAPES):
        adam = Adam(_params(2, shapes))
        largest = max(int(np.prod(s)) for s in shapes)
        assert [w.size for w in adam._work] == [min(BLOCK, largest)] * 2


def test_step_reads_the_gradient_and_leaves_its_bytes():
    params = _params(3, BLOCK_SHAPES)
    rng = np.random.default_rng(4)
    grads = []
    for _, t in params:
        t.grad = _gradient(rng, t.shape)
        grads.append((t.grad, t.grad.tobytes()))
    Adam(params).step()
    for (name, t), (g, before) in zip(params, grads):
        assert g.tobytes() == before, name
        assert t.grad is None, name


def test_step_without_a_gradient_names_the_parameter():
    params = _params(5)
    adam = Adam(params)
    for _, t in params:
        t.grad = np.ones(t.shape)
    adam.step()
    params[0][1].grad = np.ones(params[0][1].shape)
    before = [t.data.copy() for _, t in params]
    with pytest.raises(ValueError, match="^p1 has no gradient; run a backward pass"):
        adam.step()
    # the step checks every gradient before it updates anything
    assert adam.step_count == 1
    assert all(np.array_equal(t.data, b) for (_, t), b in zip(params, before))


def test_first_step_allocates_nothing_beyond_the_moments():
    t = Tensor(np.random.default_rng(6).normal(size=1_000_000))
    t.grad = np.ones(t.shape)
    tracemalloc.start()
    try:
        adam = Adam([("w", t)])
        adam.step()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    moments = adam._m["w"].nbytes + adam._v["w"].nbytes
    # one float64 temporary of this parameter would be 8 MB
    assert peak - moments < 1_000_000


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
