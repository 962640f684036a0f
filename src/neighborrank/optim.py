"""Adam optimizer over named parameter tensors."""
from __future__ import annotations

import numpy as np

from .autodiff import Tensor


class TrainingStalled(RuntimeError):
    """A training epoch left every trainable parameter bitwise unchanged."""


class Adam:
    """Bias-corrected Adam; update is lr * m_hat / (sqrt(v_hat) + eps).

    Keeps one first/second moment buffer per parameter and a shared step
    counter t that advances by one per step() call. Parameters with no
    gradient in a step are treated as having zero gradient.
    """

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = dict(params)
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.t = 0
        self.m = {name: np.zeros(p.shape) for name, p in self.params.items()}
        self.v = {name: np.zeros(p.shape) for name, p in self.params.items()}

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        for name, p in self.params.items():
            g = p.grad if p.grad is not None else np.zeros(p.shape)
            if not np.isfinite(g).all():
                raise FloatingPointError(f"non-finite gradient for parameter {name!r}")
            m = self.m[name]
            v = self.v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            p.value -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()


def raise_if_unchanged(before: dict[str, np.ndarray], params: dict[str, Tensor],
                       where: str):
    """Raise TrainingStalled when no parameter differs from its `before` copy.

    Only reads the parameters. An epoch that changes nothing has learnt
    nothing, most often because graph construction was switched off.
    """
    if all(before[name].tobytes() == p.value.tobytes() for name, p in params.items()):
        raise TrainingStalled(f"{where} left all {len(params)} trainable parameters "
                              f"unchanged; was graph construction switched off "
                              f"(no_grad)?")
