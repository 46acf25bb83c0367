"""Dense float64 tensors with reverse-mode automatic differentiation.

A Tensor wraps a numpy array. Differentiable operations (see ops.py)
link their output to the input tensors, so every result carries the
compute graph that produced it as a DAG of parent references. Tensor has
no operator sugar: arithmetic and reductions are the ops functions
(nc.add, nc.mul, nc.tsum, ...), values are read through ``data``, and
only ``reshape`` is a method.

Every op outside ``no_graph()`` records its node; no tensor carries a
flag for whether it wants a gradient. ``loss.backward(wrt)`` alone
decides: it runs, in reverse topological order, the backward closures of
only the nodes with a parent that has a tensor of wrt at or below it,
and returns d(loss)/d(t) for each tensor t of wrt, in order: a fresh
array per tensor, leaf or intermediate, or None where the loss does not
depend on t. It stores nothing on any tensor, so calls are independent:
a second call returns the same arrays, and a caller may scale one
returned array in place without touching another. ``detach()`` is the
stop-gradient.

A node's closure is called as ``closure(g, needs)``: g is d(loss)/d(node)
and needs holds one bool per parent, True where that parent has a
tensor of wrt at or below it. It returns one gradient per parent, in
order, and None for each parent whose entry in needs is False, which it
need not compute; ``backward`` reads only the needed entries.

Graph construction and backward are single-threaded per graph; distinct
graphs are independent (there is no global tape) and may run on distinct
threads. A Tensor with no graph references is plain data and safe to
share.

Every op checks its value before it makes its node: one inf or nan
anywhere in it is a DomainError, recorded or not. The check decides as
``np.isfinite(data).all()`` does, at a fraction of its fixed cost, which
outweighs the arithmetic of most nodes here (see ``Tensor._from_op``).

Inside ``with no_graph():`` ops still compute their values and still
reject non-finite results, but return plain data: no parents and no
backward closure. Inference and the finite-difference probes of
gradcheck run this way. The mode is a per-thread flag, so a thread
inside ``no_graph()`` does not change what graphs other threads build;
blocks nest and restore the outer mode on exit, exceptions included. Tensors constructed directly (parameters,
inputs) are unaffected, and ``backward()`` inside the block raises
ContractError instead of silently returning no gradient.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..exceptions import ContractError, DomainError

Arrayish = Union["Tensor", np.ndarray, float, int, Sequence]
Backward = Callable[[np.ndarray, Tuple[bool, ...]], Tuple[Optional[np.ndarray], ...]]


class _GraphMode(threading.local):
    building = True


_mode = _GraphMode()


@contextmanager
def no_graph():
    """Run ops on this thread without recording the compute graph."""
    previous = _mode.building
    _mode.building = False
    try:
        yield
    finally:
        _mode.building = previous


class Tensor:
    """A node in the compute graph: value and provenance."""

    __slots__ = ("data", "name", "_op", "_parents", "_backward")

    def __init__(self, data: Arrayish, name: Optional[str] = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.name = name
        self._op: Optional[str] = None
        self._parents: Tuple[Tensor, ...] = ()
        # Maps the gradient flowing into this node, and which parents need
        # a gradient, to a gradient (or None) for each parent.
        self._backward: Optional[Backward] = None

    # -- construction used by ops --------------------------------------

    @classmethod
    def _from_op(
        cls,
        data: np.ndarray,
        op: str,
        parents: Tuple["Tensor", ...],
        backward: Backward,
    ) -> "Tensor":
        """The node of an op's value: data, checked finite, with the graph
        references when the graph is recorded.

        The check decides as np.isfinite(data).all(): math.isfinite for a
        0-d value, and otherwise a count of np.isfinite's True entries
        against the size, which skips the reduction machinery ndarray.all
        runs, at about half its cost on the small arrays most nodes hold.
        It warns on nothing finite; the isfinite of a sum would be cheaper
        still but warns, as the sum overflows, on finite data such as
        [1e308, 1e308]."""
        if not (math.isfinite(data) if data.ndim == 0
                else np.count_nonzero(np.isfinite(data)) == data.size):
            raise DomainError(f"op '{op}' produced a non-finite value")
        out = cls(data)
        if _mode.building:
            out._op = op
            out._parents = parents
            out._backward = backward
        return out

    # -- basic queries ---------------------------------------------------

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def detach(self) -> "Tensor":
        """A view of the same values with no graph attached."""
        return Tensor(self.data)

    def __repr__(self) -> str:
        head = f"Tensor(shape={self.shape}"
        if self.name:
            head += f", name={self.name!r}"
        if self._op:
            head += f", op={self._op!r}"
        return head + ")"

    # -- autodiff ----------------------------------------------------------

    def backward(self, wrt: Sequence["Tensor"]) -> List[Optional[np.ndarray]]:
        """d(self)/d(t) for each tensor t of wrt, in order, or None where
        self does not depend on t. The loss must hold a single value."""
        if not _mode.building:
            raise ContractError("backward() inside no_graph(): no graph was recorded, "
                                "so no gradient would reach any parameter")
        if self.data.size != 1:
            raise ContractError(f"backward() requires a scalar loss, got shape {self.shape}")
        wanted = {id(t) for t in wrt}
        found: dict = {}
        flows = {id(self): np.ones_like(self.data)}
        for node, needs in reversed(self._topo_order(wanted)):
            # every live node below the loss has a live child, which sent it a flow
            g = flows.pop(id(node))
            if id(node) in wanted:
                # a flow may be shared with another node; the caller gets its own
                found[id(node)] = 0.0 + g
            if not any(needs):
                continue
            for parent, need, pg in zip(node._parents, needs, node._backward(g, needs)):
                if need:
                    key = id(parent)
                    flows[key] = flows[key] + pg if key in flows else pg
        return [found.get(id(t)) for t in wrt]

    def _topo_order(self, wanted: set) -> List[Tuple["Tensor", Tuple[bool, ...]]]:
        """Post-order DFS over the nodes with a wanted id at or below them,
        each with its needs: per parent, whether that parent is such a
        node. Parents precede children, so are judged first."""
        order: list = []
        live = set()
        seen = set()
        stack: list = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                needs = tuple(id(p) in live for p in node._parents)
                if id(node) in wanted or any(needs):
                    live.add(id(node))
                    order.append((node, needs))
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        return order

    # -- reshaping, which the encoders write as a method -------------------

    def reshape(self, *shape):
        from . import ops

        return ops.reshape(self, shape)


def as_tensor(x: Arrayish) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


def clip_grad_norm(grads: Sequence[np.ndarray], max_norm: float) -> float:
    """Scale the gradient arrays in place so their joint L2 norm is at most
    max_norm. Returns the pre-clip norm."""
    total = 0.0
    for g in grads:
        total += float(np.sum(g * g))
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for g in grads:
            g *= scale
    return norm
