"""Adaptive-moment optimizer over parameter tensors, and plain SGD.

Optimizers only ever touch the tensors they were constructed with, which
is what makes the discriminator/generator parameter partition directly
assertable during minimax training. ``step(grads)`` takes one gradient
per parameter, in ``params`` order, as ``loss.backward(opt.params)``
returns them; a None gradient leaves its parameter alone. Both only
descend: a caller that ascends an objective backpropagates its negation.

Adam keeps its two moments in flat float64 buffers, one segment per
parameter in ``params`` order, next to a flat gradient buffer and one
scratch buffer of the same size. A step copies each gradient into its
segment and runs Adam's arithmetic in place over each run of consecutive
parameters that have a gradient (the whole buffer when none is None), in
the order and rounding of the per-tensor formula, and allocates no
array. The gradient buffer ends up holding lr times the update, which
is subtracted from each parameter's own ``data``: a parameter shares no
memory with the optimizer, so loading a model may rebind ``data``. A
None gradient leaves its parameter and both its moment segments as they
were.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..exceptions import ConfigError
from ..numcore import Tensor


class SGD:
    # kept only because the benchmark harness patches SGD.step; nothing constructs it
    def __init__(self, params: Sequence[Tensor], lr: float = 1e-2):
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
        ends = np.cumsum([0] + [p.data.size for p in self.params]).tolist()
        self._spans = list(zip(ends[:-1], ends[1:]))
        size = ends[-1]
        self._m, self._v = np.zeros(size), np.zeros(size)
        # the gathered gradient, which becomes the update, and a scratch buffer
        self._g, self._s = np.empty(size), np.empty(size)
        self._views = [self._g[lo:hi].reshape(p.data.shape)
                       for (lo, hi), p in zip(self._spans, self.params)]
        self._t = 0

    def step(self, grads: Sequence[Optional[np.ndarray]]) -> None:
        self._t += 1
        b1t = 1.0 - self.BETA1 ** self._t
        b2t = 1.0 - self.BETA2 ** self._t
        runs: List[List[int]] = []  # [lo, hi) of consecutive parameters with a gradient
        for (lo, hi), g, view in zip(self._spans, grads, self._views, strict=True):
            if g is None:
                continue
            view[...] = g
            if runs and runs[-1][1] == lo:
                runs[-1][1] = hi
            else:
                runs.append([lo, hi])
        for lo, hi in runs:
            m, v, u, s = self._m[lo:hi], self._v[lo:hi], self._g[lo:hi], self._s[lo:hi]
            m *= self.BETA1
            m += np.multiply(u, 1.0 - self.BETA1, out=s)
            v *= self.BETA2
            np.multiply(u, u, out=s)
            s *= 1.0 - self.BETA2
            v += s
            np.divide(v, b2t, out=s)
            np.sqrt(s, out=s)
            s += self.EPS
            np.divide(m, b1t, out=u)
            u /= s
            u *= self.lr
        for p, g, view in zip(self.params, grads, self._views):
            if g is not None:
                p.data -= view

