import numpy as np

from .tensor import Tensor


class Adam:
    """Adam with bias correction over a fixed list of named parameters.

    Holds first/second moment buffers and the step counter; update order is
    the parameter list order, so runs are reproducible.
    """

    def __init__(self, params: list[tuple[str, Tensor]], learning_rate: float = 0.001,
                 beta1: float = 0.9, beta2: float = 0.999, epsilon: float = 1e-8):
        if not 0 < beta1 < 1 or not 0 < beta2 < 1:
            raise ValueError("beta1 and beta2 must lie in (0, 1)")
        if not epsilon > 0:
            raise ValueError("epsilon must be positive")
        if not learning_rate > 0:
            raise ValueError("learning_rate must be positive")
        self.params = list(params)
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.step_count = 0
        self._m = {name: np.zeros_like(t.data) for name, t in self.params}
        self._v = {name: np.zeros_like(t.data) for name, t in self.params}

    def step(self) -> None:
        """Apply one update from the gradients currently stored on the params."""
        self.step_count += 1
        b1, b2 = self.beta1, self.beta2
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
            tensor.data -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)
