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
need not compute; ``backward`` reads only the needed entries. It must not
write into g, which may be a wanted tensor's flow that backward copies
for the caller only after the walk.

The walk keys its sets and dicts on the tensors themselves (Tensor has
no ``__eq__``, so it hashes by identity). A depth-first walk from the
loss, over each node's parents last first, lists the nodes whose
closures run, parents before children; backward runs them in reverse and
adds each gradient a closure returns to the flow its parent has so far.
That order is part of the gradients' bits: a tensor that receives three
or more flows sums them in it (two flows give the same bits in either
order), so it must not change. tests/reference_ops.py keeps the walk
keyed on id() that fixed it, and the tests compare every gradient of the
shipped training steps with that walk's.

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

_ZERO = np.zeros(())


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
        wanted = set(wrt)
        flows = {self: np.ones_like(self.data)}
        for node, needs in reversed(self._topo_order(wanted)):
            # every live node below the loss has a live child, which sent it
            # a flow; a wanted node's flow stays for the caller
            g = flows[node] if node in wanted else flows.pop(node)
            for parent, need, pg in zip(node._parents, needs, node._backward(g, needs)):
                if need:
                    sent = flows.get(parent)
                    flows[parent] = pg if sent is None else sent + pg
        # a flow may be shared with another node, so the caller gets its own
        # copy; adding a 0-d zero, not the float 0.0, skips a scalar
        # conversion and rounds the same: -0.0 becomes +0.0
        return [None if (g := flows.get(t)) is None else g + _ZERO for t in wrt]

    def _topo_order(self, wanted: set) -> List[Tuple["Tensor", Tuple[bool, ...]]]:
        """The nodes whose closures backward runs, parents before children,
        each with its needs: per parent, whether a wanted tensor lies at or
        below it, which makes the parent live. A wanted tensor is live, and
        so is a node with a live parent; backward runs the closure of the
        latter only.

        A post-order DFS from the loss: each stack entry resumes an
        iterator over its node's parents, last parent first, so every
        parent is visited once, and a leaf (no parents) needs no entry, as
        only a wanted one is live. A node is judged after all its parents.
        The order fixes the order in which backward sums a tensor's flows
        (see the module docstring)."""
        order: list = []
        live = set(wanted)
        seen = set()
        stack: list = [(self, reversed(self._parents))]
        while stack:
            node, parents = stack[-1]
            for p in parents:
                if p._parents and p not in seen:
                    seen.add(p)
                    stack.append((p, reversed(p._parents)))
                    break
            else:
                stack.pop()
                needs = tuple([p in live for p in node._parents])
                if True in needs:
                    live.add(node)
                    order.append((node, needs))
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
