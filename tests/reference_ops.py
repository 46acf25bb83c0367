"""Reference graph nodes that the library no longer has, for tests that
check an op bit for bit against the primitive chain it replaced.

linear, relu and sigmoid are the steps dense fuses with its activation
(tanh and softmax are still numcore ops), and the recurrence's reference
cell is built from them; linear is also dense's own plain (in,) and
(batch, in) kernel as it was before dense ran that form as a stack of
one, so it is the plain form's reference. tslice is basic indexing as a
graph node, the op the summary grid and that cell were built from;
argmax_maxpool2d is max pooling as it was before its forward became
strided np.maximums.
topo_order and backward are the backward walk as it was keyed on id(),
whose order of summing flows the library's walk keeps. Each is written
exactly as the library wrote it.
"""

import numpy as np

from fuselab import numcore as nc
from fuselab.exceptions import ShapeError
from fuselab.numcore.ops import _sigmoid


def linear(x, w: nc.Tensor, b: nc.Tensor) -> nc.Tensor:
    """Affine map y = x W^T + b for x of shape (in,) or (batch, in).

    The bias add over batch rows is part of this op's definition, not an
    implicit broadcast.
    """
    x, w, b = nc.as_tensor(x), nc.as_tensor(w), nc.as_tensor(b)
    if w.ndim != 2:
        raise ShapeError(f"linear: weight must be 2-D, got {w.shape}")
    if x.ndim not in (1, 2) or x.shape[-1] != w.shape[1]:
        raise ShapeError(f"linear: input {x.shape} does not match weight {w.shape}")
    if b.shape != (w.shape[0],):
        raise ShapeError(f"linear: bias {b.shape} does not match weight {w.shape}")
    out = x.data @ w.data.T + b.data

    def backward(g, needs):
        need_x, need_w, need_b = needs
        gx = g @ w.data if need_x else None
        if x.ndim == 1:
            gw = np.outer(g, x.data) if need_w else None
            gb = g.copy() if need_b else None
        else:
            gw = g.T @ x.data if need_w else None
            gb = g.sum(axis=0) if need_b else None
        return gx, gw, gb

    return nc.Tensor._from_op(out, "linear", (x, w, b), backward)


def sigmoid(a) -> nc.Tensor:
    a = nc.as_tensor(a)
    out = _sigmoid(a.data)

    def backward(g, needs):
        return (g * out * (1.0 - out),)

    return nc.Tensor._from_op(out, "sigmoid", (a,), backward)


def relu(a) -> nc.Tensor:
    a = nc.as_tensor(a)
    out = np.maximum(a.data, 0.0)

    def backward(g, needs):
        return (g * (a.data > 0.0),)

    return nc.Tensor._from_op(out, "relu", (a,), backward)


def tslice(a: nc.Tensor, key) -> nc.Tensor:
    """Basic indexing (ints and slices); the gradient scatters into zeros."""
    out = a.data[key]

    def backward(g, needs):
        ga = np.zeros_like(a.data)
        ga[key] += g
        return (ga,)

    return nc.Tensor._from_op(np.array(out, dtype=np.float64), "slice", (a,), backward)


def argmax_maxpool2d(x: nc.Tensor, size: int = 2) -> nc.Tensor:
    """Non-overlapping max pooling by argmax over each flattened window,
    whose first maximum takes the gradient."""
    b_, h, w, c = x.shape
    ho, wo = h // size, w // size
    cropped = x.data[:, : ho * size, : wo * size, :]
    windows = cropped.reshape(b_, ho, size, wo, size, c).transpose(0, 1, 3, 5, 2, 4)
    flat = windows.reshape(b_, ho, wo, c, size * size)
    arg = np.argmax(flat, axis=-1)
    out = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]

    def backward(g, needs):
        gflat = np.zeros_like(flat)
        np.put_along_axis(gflat, arg[..., None], g[..., None], axis=-1)
        gwin = gflat.reshape(b_, ho, wo, c, size, size).transpose(0, 1, 4, 2, 5, 3)
        gx = np.zeros_like(x.data)
        gx[:, : ho * size, : wo * size, :] = gwin.reshape(b_, ho * size, wo * size, c)
        return (gx,)

    return nc.Tensor._from_op(out, "maxpool2d", (x,), backward)


def topo_order(loss: nc.Tensor, wanted: set):
    """Tensor._topo_order as it was keyed on id(): wanted holds ids."""
    order = []
    live = set()
    seen = set()
    stack = [(loss, False)]
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


def backward(loss: nc.Tensor, wrt, flow_counts=None):
    """Tensor.backward as it was keyed on id(). With a dict flow_counts,
    it also counts there, per node, the flows that node received."""
    wanted = {id(t) for t in wrt}
    found = {}
    flows = {id(loss): np.ones_like(loss.data)}
    for node, needs in reversed(topo_order(loss, wanted)):
        g = flows.pop(id(node))
        if id(node) in wanted:
            found[id(node)] = 0.0 + g
        if not any(needs):
            continue
        for parent, need, pg in zip(node._parents, needs, node._backward(g, needs)):
            if need:
                key = id(parent)
                flows[key] = flows[key] + pg if key in flows else pg
                if flow_counts is not None:
                    flow_counts[parent] = flow_counts.get(parent, 0) + 1
    return [found.get(id(t)) for t in wrt]
