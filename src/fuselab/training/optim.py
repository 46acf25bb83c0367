"""Plain SGD and adaptive-moment optimizers over parameter tensors.

Optimizers only ever touch the tensors they were constructed with, which
is what makes the discriminator/generator parameter partition directly
assertable during minimax training.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from ..exceptions import ConfigError
from ..numcore import Tensor


class SGD:
    def __init__(self, params: Sequence[Tensor], lr: float = 1e-2):
        if lr <= 0:
            raise ConfigError(f"learning rate must be positive, got {lr}")
        self.params = list(params)
        self.lr = lr

    def step(self, ascent: bool = False) -> None:
        sign = 1.0 if ascent else -1.0
        for p in self.params:
            if p.grad is not None:
                p.data += sign * self.lr * p.grad


class Adam:
    def __init__(self, params: Sequence[Tensor], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        if lr <= 0:
            raise ConfigError(f"learning rate must be positive, got {lr}")
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._m: Dict[int, np.ndarray] = {}
        self._v: Dict[int, np.ndarray] = {}
        self._t = 0

    def step(self, ascent: bool = False) -> None:
        self._t += 1
        b1t = 1.0 - self.beta1 ** self._t
        b2t = 1.0 - self.beta2 ** self._t
        sign = 1.0 if ascent else -1.0
        for p in self.params:
            if p.grad is None:
                continue
            key = id(p)
            m = self._m.setdefault(key, np.zeros_like(p.data))
            v = self._v.setdefault(key, np.zeros_like(p.data))
            m *= self.beta1
            m += (1.0 - self.beta1) * p.grad
            v *= self.beta2
            v += (1.0 - self.beta2) * (p.grad * p.grad)
            update = (m / b1t) / (np.sqrt(v / b2t) + self.eps)
            p.data += sign * self.lr * update


def make_optimizer(kind: str, params: Sequence[Tensor], lr: float,
                   beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
    if kind == "sgd":
        return SGD(params, lr)
    if kind == "adam":
        return Adam(params, lr, beta1, beta2, eps)
    raise ConfigError(f"unknown optimizer {kind!r}, expected sgd or adam")


DEFAULT_LR = {"sgd": 1e-2, "adam": 1e-3}
