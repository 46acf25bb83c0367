"""Plain SGD and adaptive-moment optimizers over parameter tensors.

Optimizers only ever touch the tensors they were constructed with, which
is what makes the discriminator/generator parameter partition directly
assertable during minimax training. Both only descend: a caller that
ascends an objective backpropagates its negation.
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

    def step(self) -> None:
        for p in self.params:
            if p.grad is not None:
                p.data -= self.lr * p.grad


class Adam:
    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, params: Sequence[Tensor], lr: float = 1e-3):
        if lr <= 0:
            raise ConfigError(f"learning rate must be positive, got {lr}")
        self.params = list(params)
        self.lr = lr
        self._m: Dict[int, np.ndarray] = {}
        self._v: Dict[int, np.ndarray] = {}
        self._t = 0

    def step(self) -> None:
        self._t += 1
        b1t = 1.0 - self.BETA1 ** self._t
        b2t = 1.0 - self.BETA2 ** self._t
        for p in self.params:
            if p.grad is None:
                continue
            key = id(p)
            m = self._m.setdefault(key, np.zeros_like(p.data))
            v = self._v.setdefault(key, np.zeros_like(p.data))
            m *= self.BETA1
            m += (1.0 - self.BETA1) * p.grad
            v *= self.BETA2
            v += (1.0 - self.BETA2) * (p.grad * p.grad)
            update = (m / b1t) / (np.sqrt(v / b2t) + self.EPS)
            p.data -= self.lr * update


def make_optimizer(kind: str, params: Sequence[Tensor], lr: float):
    if kind == "sgd":
        return SGD(params, lr)
    if kind == "adam":
        return Adam(params, lr)
    raise ConfigError(f"unknown optimizer {kind!r}, expected sgd or adam")


DEFAULT_LR = {"sgd": 1e-2, "adam": 1e-3}
