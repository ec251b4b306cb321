import numpy as np

from .tensor import Tensor

BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


class Adam:
    """Adam with bias correction over a fixed list of named parameters, with
    the moment decays ``BETA1``/``BETA2`` and the denominator's ``EPSILON``.

    Holds first/second moment buffers and the step counter; update order is
    the parameter list order, so runs are reproducible.  The update runs in
    place: one scratch array the size of the largest parameter, shared by
    all of them, plus each parameter's own ``grad``, so a step allocates no
    parameter-sized temporary.
    """

    def __init__(self, params: list[tuple[str, Tensor]], learning_rate: float = 0.001):
        if not learning_rate > 0:
            raise ValueError("learning_rate must be positive")
        self.params = list(params)
        self.learning_rate = learning_rate
        self.step_count = 0
        self._m = {name: np.zeros(t.shape) for name, t in self.params}
        self._v = {name: np.zeros(t.shape) for name, t in self.params}
        scratch = np.empty(max((t.size for _, t in self.params), default=0))
        self._scratch = {name: scratch[:t.size].reshape(t.shape) for name, t in self.params}

    def step(self) -> None:
        """Apply one update from the gradients currently stored on the params.

        The step consumes each ``tensor.grad``: it is the second work buffer,
        and the step sets it to ``None`` once the parameter is updated, so a
        trained network holds no gradient and a fresh backward pass must write
        one before the next step.  Every operation is the same IEEE operation
        on the same operands as the textbook ``m += (1 - b1) * g``,
        ``v += (1 - b2) * g * g`` and ``data -= lr * m_hat / (sqrt(v_hat) + eps)``,
        so the weights match that form bit for bit.
        """
        self.step_count += 1
        b1, b2 = BETA1, BETA2
        bias1 = 1.0 - b1 ** self.step_count
        bias2 = 1.0 - b2 ** self.step_count
        for name, tensor in self.params:
            g = tensor.grad
            m = self._m[name]
            v = self._v[name]
            s = self._scratch[name]
            v *= b2
            np.multiply(1.0 - b2, g, out=s)
            s *= g
            v += s
            m *= b1
            g *= 1.0 - b1
            m += g
            np.divide(m, bias1, out=s)
            s *= self.learning_rate
            np.divide(v, bias2, out=g)
            np.sqrt(g, out=g)
            g += EPSILON
            s /= g
            tensor.data -= s
            tensor.grad = None
