"""Plain SGD and adaptive-moment optimizers over parameter tensors.

Optimizers only ever touch the tensors they were constructed with, which
is what makes the discriminator/generator parameter partition directly
assertable during minimax training. ``step(grads)`` takes one gradient
per parameter, in ``params`` order, as ``loss.backward(opt.params)``
returns them; a None gradient leaves its parameter alone. Both only
descend: a caller that ascends an objective backpropagates its negation.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..exceptions import ConfigError
from ..numcore import Tensor


class SGD:
    def __init__(self, params: Sequence[Tensor], lr: float = 1e-2):
        if lr <= 0:
            raise ConfigError(f"learning rate must be positive, got {lr}")
        self.params = list(params)
        self.lr = lr

    def step(self, grads: Sequence[Optional[np.ndarray]]) -> None:
        for p, g in zip(self.params, grads, strict=True):
            if g is not None:
                p.data -= self.lr * g


class Adam:
    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, params: Sequence[Tensor], lr: float = 1e-3):
        if lr <= 0:
            raise ConfigError(f"learning rate must be positive, got {lr}")
        self.params = list(params)
        self.lr = lr
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._t = 0

    def step(self, grads: Sequence[Optional[np.ndarray]]) -> None:
        self._t += 1
        b1t = 1.0 - self.BETA1 ** self._t
        b2t = 1.0 - self.BETA2 ** self._t
        for p, g, m, v in zip(self.params, grads, self._m, self._v, strict=True):
            if g is None:
                continue
            m *= self.BETA1
            m += (1.0 - self.BETA1) * g
            v *= self.BETA2
            v += (1.0 - self.BETA2) * (g * g)
            update = (m / b1t) / (np.sqrt(v / b2t) + self.EPS)
            p.data -= self.lr * update


def make_optimizer(kind: str, params: Sequence[Tensor], lr: float):
    if kind == "sgd":
        return SGD(params, lr)
    if kind == "adam":
        return Adam(params, lr)
    raise ConfigError(f"unknown optimizer {kind!r}, expected sgd or adam")


DEFAULT_LR = {"sgd": 1e-2, "adam": 1e-3}
