"""Differentiable primitives over Tensor.

Each op has one spelling, the function here; Tensor adds only reshape
as a method.

Each op records a backward closure ``backward(g, needs)`` (see tensor.py):
given d(loss)/d(out) and one bool per parent, it returns one gradient per
parent and None for each parent not needed. An op with several parents
computes only the needed gradients, so, for example, conv2d over raw
grids computes no grid gradient; a one-parent op ignores needs, as
backward calls no closure without a needed parent.

A layer is one node: dense is a linear map and its activation, conv2d
may carry its relu, cell_means is the visual summary grid and
cross_entropy the classifier's loss. Each runs the numpy expressions of
the chain of one-step ops it stands for, in the same order, so it
computes the same values, forward and backward, bit for bit
(tests/reference_ops.py keeps the steps numcore no longer has);
cross_entropy takes class indices and skips the chain's products with
the zeros of one-hot targets, which change no bit. dense has one
kernel: K layers of one shape side by side over a (K, batch, in) stack,
each slab through its own weight and bias tensors, where a plain (in,)
or (batch, in) input is a stack of one, read through views; stack and
side_by_side move tensors in and out of such stacks.

conv2d is one matrix product over im2col columns laid out by channel
count: a 1-channel grid (the raw input) as tap-major rows, one per kernel
tap, and any other as position-major rows, each output position's window
as a row; both are built from a strided view. Its backward builds the
columns again instead of holding them with the graph, so a recorded conv
holds its input grid, not the kh*kw times larger columns.

The reductions' backward closures fill one fresh array each: tsum and
tmean broadcast g into np.empty, and cell_means divides g by the cell
counts once and repeats each cell over its grid rows and columns.

Shape discipline: operand shapes must conform exactly; the only implicit
broadcast is scalar-with-tensor. Batched ops (dense, row_scale,
gated_recurrence) treat a leading axis as the batch and say so
explicitly -- there is no silent numpy-style broadcasting anywhere else.
conv2d, maxpool2d and cell_means take only (batch, H, W, C) grids.
dense and conv2d require their bias.

log clamps its input upward to LOG_EPS = 1e-12 (probabilities saturate
during adversarial training); strictly negative inputs are a domain
error, as is division by zero.
"""

from __future__ import annotations

import itertools
import math
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from ..exceptions import ContractError, DomainError, ShapeError
from .tensor import Arrayish, Tensor, _mode, as_tensor

LOG_EPS = 1e-12

Axis = Union[None, int, Tuple[int, ...]]


def _binary_shapes(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape == b.shape or a.ndim == 0 or b.ndim == 0:
        return
    raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not conform")


def _mean(a: np.ndarray, axis: Axis, count: int):
    """np.mean(a, axis) of float64 a, whose reduced axes hold count
    entries: the two ufunc calls np.mean makes, without its Python
    wrapper, so the same bits."""
    return np.true_divide(np.add.reduce(a, axis), count)


def _reduce_to(shape: Tuple[int, ...], g: np.ndarray) -> np.ndarray:
    """Collapse a gradient back to a scalar operand's shape."""
    if g.shape == shape:
        return g
    return np.sum(g).reshape(shape)


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a: Arrayish, b: Arrayish) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _binary_shapes(a, b, "add")
    out = a.data + b.data

    def backward(g, needs):
        return (_reduce_to(a.shape, g) if needs[0] else None,
                _reduce_to(b.shape, g) if needs[1] else None)

    return Tensor._from_op(out, "add", (a, b), backward)


def sub(a: Arrayish, b: Arrayish) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _binary_shapes(a, b, "sub")
    out = a.data - b.data

    def backward(g, needs):
        return (_reduce_to(a.shape, g) if needs[0] else None,
                _reduce_to(b.shape, -g) if needs[1] else None)

    return Tensor._from_op(out, "sub", (a, b), backward)


def mul(a: Arrayish, b: Arrayish) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _binary_shapes(a, b, "mul")
    out = a.data * b.data

    def backward(g, needs):
        return (_reduce_to(a.shape, g * b.data) if needs[0] else None,
                _reduce_to(b.shape, g * a.data) if needs[1] else None)

    return Tensor._from_op(out, "mul", (a, b), backward)


def div(a: Arrayish, b: Arrayish) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _binary_shapes(a, b, "div")
    if np.any(b.data == 0.0):
        raise DomainError("div: division by zero")
    out = a.data / b.data

    def backward(g, needs):
        ga = _reduce_to(a.shape, g / b.data) if needs[0] else None
        gb = _reduce_to(b.shape, -g * a.data / (b.data * b.data)) if needs[1] else None
        return ga, gb

    return Tensor._from_op(out, "div", (a, b), backward)


def neg(a: Arrayish) -> Tensor:
    a = as_tensor(a)

    def backward(g, needs):
        return (-g,)

    return Tensor._from_op(-a.data, "neg", (a,), backward)


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Arrayish, b: Arrayish) -> Tensor:
    """Matrix product for 1-D and 2-D operands; inner dimensions must match."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim == 0 or b.ndim == 0 or a.ndim > 2 or b.ndim > 2:
        raise ShapeError(f"matmul: operands must be 1-D or 2-D, got {a.shape} and {b.shape}")
    a2 = a.data if a.ndim == 2 else a.data.reshape(1, -1)
    b2 = b.data if b.ndim == 2 else b.data.reshape(-1, 1)
    if a2.shape[1] != b2.shape[0]:
        raise ShapeError(f"matmul: inner dimensions differ between {a.shape} and {b.shape}")
    out2 = a2 @ b2
    out_shape = (a.shape[:1] if a.ndim == 2 else ()) + (b.shape[1:] if b.ndim == 2 else ())
    out = out2.reshape(out_shape)

    def backward(g, needs):
        g2 = g.reshape(out2.shape)
        ga = (g2 @ b2.T).reshape(a.shape) if needs[0] else None
        gb = (a2.T @ g2).reshape(b.shape) if needs[1] else None
        return ga, gb

    return Tensor._from_op(out, "matmul", (a, b), backward)


def row_scale(m: Arrayish, v: Arrayish) -> Tensor:
    """Scale each row of m (batch, n) by the matching entry of v (batch,)."""
    m, v = as_tensor(m), as_tensor(v)
    if m.ndim != 2 or v.ndim != 1 or m.shape[0] != v.shape[0]:
        raise ShapeError(f"row_scale: shapes {m.shape} and {v.shape} do not conform")
    out = m.data * v.data[:, None]

    def backward(g, needs):
        return (g * v.data[:, None] if needs[0] else None,
                np.sum(g * m.data, axis=1) if needs[1] else None)

    return Tensor._from_op(out, "row_scale", (m, v), backward)


# ---------------------------------------------------------------------------
# shape manipulation


def concat(tensors: Sequence[Arrayish], axis: int = 0) -> Tensor:
    ts = [as_tensor(t) for t in tensors]
    if not ts:
        raise ShapeError("concat: need at least one tensor")
    base = ts[0]
    for t in ts[1:]:
        if t.ndim != base.ndim:
            raise ShapeError(f"concat: ranks differ between {base.shape} and {t.shape}")
        for ax in range(base.ndim):
            if ax != axis % base.ndim and t.shape[ax] != base.shape[ax]:
                raise ShapeError(f"concat: shapes {base.shape} and {t.shape} differ off-axis")
    out = np.concatenate([t.data for t in ts], axis=axis)
    offsets = list(itertools.accumulate((t.shape[axis % t.ndim] for t in ts), initial=0))

    def backward(g, needs):
        grads = []
        for i, need in enumerate(needs):
            sl = [slice(None)] * g.ndim
            sl[axis % g.ndim] = slice(offsets[i], offsets[i + 1])
            grads.append(g[tuple(sl)] if need else None)
        return tuple(grads)

    return Tensor._from_op(out, "concat", tuple(ts), backward)


def stack(tensors: Sequence[Arrayish]) -> Tensor:
    """K tensors of one shape as one (K, ...) stack, slab k being tensors[k]."""
    ts = [as_tensor(t) for t in tensors]
    if not ts or any(t.shape != ts[0].shape for t in ts):
        raise ShapeError(f"stack: need tensors of one shape, got {[t.shape for t in ts]}")
    out = np.stack([t.data for t in ts])

    def backward(g, needs):
        return tuple(g[k] if need else None for k, need in enumerate(needs))

    return Tensor._from_op(out, "stack", tuple(ts), backward)


def side_by_side(x: Arrayish) -> Tensor:
    """The slabs of a (K, batch, n) stack laid side by side as one (batch,
    K*n) array: slab k fills columns k*n to (k+1)*n."""
    x = as_tensor(x)
    if x.ndim != 3:
        raise ShapeError(f"side_by_side: need a (K, batch, n) stack, got {x.shape}")
    k, batch, n = x.shape
    out = np.concatenate(list(x.data), axis=1)

    def backward(g, needs):
        return (np.ascontiguousarray(g.reshape(batch, k, n).transpose(1, 0, 2)),)

    return Tensor._from_op(out, "side_by_side", (x,), backward)


def take_rows(a: Arrayish, idx: np.ndarray) -> Tensor:
    """Gather rows by integer index; duplicate indices accumulate on backward."""
    a = as_tensor(a)
    idx = np.asarray(idx, dtype=np.intp)
    if a.ndim < 1:
        raise ShapeError("take_rows: operand must have at least one axis")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise ShapeError(f"take_rows: index out of range for leading axis {a.shape[0]}")
    out = a.data[idx]

    def backward(g, needs):
        ga = np.zeros_like(a.data)
        np.add.at(ga, idx, g)
        return (ga,)

    return Tensor._from_op(out, "take_rows", (a,), backward)


def reshape(a: Arrayish, shape: Tuple[int, ...]) -> Tensor:
    a = as_tensor(a)
    out = a.data.reshape(shape)

    def backward(g, needs):
        return (g.reshape(a.shape),)

    return Tensor._from_op(out, "reshape", (a,), backward)


# ---------------------------------------------------------------------------
# reductions


def tsum(a: Arrayish, axis: Axis = None) -> Tensor:
    a = as_tensor(a)
    out = np.sum(a.data, axis=axis)

    def backward(g, needs):
        ga = np.empty(a.shape)
        ga[...] = g if axis is None else np.expand_dims(g, axis)
        return (ga,)

    return Tensor._from_op(np.asarray(out), "sum", (a,), backward)


def tmean(a: Arrayish, axis: Axis = None) -> Tensor:
    a = as_tensor(a)
    if axis is None:
        count = a.size
    elif isinstance(axis, tuple):
        count = math.prod(a.shape[ax] for ax in axis)
    else:
        count = a.shape[axis]
    out = _mean(a.data, axis, count)

    def backward(g, needs):
        ga = np.empty(a.shape)
        ga[...] = (g if axis is None else np.expand_dims(g, axis)) / count
        return (ga,)

    return Tensor._from_op(np.asarray(out), "mean", (a,), backward)


def squared_norm(a: Arrayish) -> Tensor:
    """Sum of squared entries, as a scalar."""
    a = as_tensor(a)
    out = np.sum(a.data * a.data)

    def backward(g, needs):
        return (2.0 * g * a.data,)

    return Tensor._from_op(np.asarray(out), "squared_norm", (a,), backward)


# ---------------------------------------------------------------------------
# nonlinearities


def tlog(a: Arrayish) -> Tensor:
    """Natural log; inputs in [0, LOG_EPS) are clamped up to LOG_EPS."""
    a = as_tensor(a)
    if np.any(a.data < 0.0):
        raise DomainError("log: negative argument")
    clamped = np.maximum(a.data, LOG_EPS)
    out = np.log(clamped)

    def backward(g, needs):
        return (g / clamped,)

    return Tensor._from_op(out, "log", (a,), backward)


def cross_entropy(labels: np.ndarray, probs: Arrayish) -> Tensor:
    """Mean over the n rows of (n, C) probs of -log(probs[row, label]) for
    (n,) class indices labels in 0..C-1, as one node: log's clamp, then
    the values the log, mul, sum, mean and neg chain gives on one-hot
    targets, whose other entries add only zeros. Its backward is that
    chain's ((-g / n) * targets) / clamped: (-g / n) / clamped at each
    label, and elsewhere the zero of (-g / n)'s sign."""
    p = as_tensor(probs)
    labels = np.asarray(labels)
    if p.ndim != 2 or labels.shape != p.shape[:1] or labels.dtype.kind not in "iu":
        raise ShapeError(f"cross_entropy: labels {labels.shape} {labels.dtype} must be "
                         f"the integer class of each row of predictions {p.shape}")
    n, classes = p.shape
    if labels.size and (labels.min() < 0 or labels.max() >= classes):
        raise ShapeError(f"cross_entropy: label out of range for {classes} classes")
    if np.any(p.data < 0.0):
        raise DomainError("log: negative argument")
    rows = np.arange(n)
    picked = np.maximum(p.data[rows, labels], LOG_EPS)
    out = -_mean(np.log(picked), None, n)

    def backward(g, needs):
        scale = -g / n
        grad = np.full(p.shape, scale * 0.0)
        grad[rows, labels] = scale / picked
        return (grad,)

    return Tensor._from_op(np.asarray(out), "cross_entropy", (p,), backward)


def tanh(a: Arrayish) -> Tensor:
    a = as_tensor(a)
    out = np.tanh(a.data)

    def backward(g, needs):
        return (_activation_grad(g, out, "tanh"),)

    return Tensor._from_op(out, "tanh", (a,), backward)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Stable logistic: 1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) for
    x < 0. Both branches read e = exp(-|x|), which cannot overflow."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def _softmax(z: np.ndarray, axis: int, mask: Optional[np.ndarray] = None) -> np.ndarray:
    if mask is None:
        shifted = z - np.max(z, axis=axis, keepdims=True)
    else:
        peak = np.max(z, axis=axis, keepdims=True, initial=-np.inf, where=mask)
        shifted = np.where(mask, z - peak, -np.inf)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def softmax(a: Arrayish, axis: int = -1, mask: Optional[np.ndarray] = None) -> Tensor:
    """Stable softmax along one axis (max subtraction before exp).

    With a boolean mask of a's shape, entries where it is False get weight
    exactly 0 and the others normalize among themselves; every slice along
    the axis needs one True entry.
    """
    a = as_tensor(a)
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != a.shape or not mask.any(axis=axis).all():
            raise ShapeError(f"softmax: mask {mask.shape} must match {a.shape} and "
                             f"keep an entry in every slice")
    out = _softmax(a.data, axis, mask)

    def backward(g, needs):
        return (_activation_grad(g, out, "softmax", axis),)

    return Tensor._from_op(out, "softmax", (a,), backward)


def clamp(a: Arrayish, lo: float, hi: float) -> Tensor:
    """Clip values to [lo, hi]; gradient passes only where unclipped."""
    a = as_tensor(a)
    out = np.clip(a.data, lo, hi)
    mask = (a.data > lo) & (a.data < hi)

    def backward(g, needs):
        return (g * mask,)

    return Tensor._from_op(out, "clamp", (a,), backward)


# ---------------------------------------------------------------------------
# dense layers, one node each


ACTIVATIONS = ("identity", "sigmoid", "tanh", "relu", "softmax")


def _activate(z: np.ndarray, activation: str) -> np.ndarray:
    """The activation applied to z, which it may overwrite."""
    if activation == "identity":
        return z
    if activation == "relu":
        return np.maximum(z, 0.0, out=z)
    if activation == "sigmoid":
        return _sigmoid(z)
    if activation == "tanh":
        return np.tanh(z, out=z)
    return _softmax(z, -1)


def _activation_grad(g: np.ndarray, out: np.ndarray, activation: str,
                     axis: int = -1) -> np.ndarray:
    """d(loss)/d(pre-activation) from g = d(loss)/d(out), read from out
    alone: the activation's derivative written in terms of its value.
    axis is the one softmax normalizes over."""
    if activation == "identity":
        return g
    if activation == "relu":
        return g * (out > 0.0)
    if activation == "sigmoid":
        return g * out * (1.0 - out)
    if activation == "tanh":
        return g * (1.0 - out * out)
    dot = np.sum(g * out, axis=axis, keepdims=True)
    return out * (g - dot)


def dense(x: Arrayish, w, b, activation: str = "identity") -> Tensor:
    """activation(x W^T + b) as one node: the affine map, then relu,
    sigmoid, tanh or softmax over the last axis (or identity). The bias
    add over batch rows is part of the op, not an implicit broadcast.

    One kernel runs K layers of one shape side by side: x is (K, batch,
    in) and w and b are sequences of K weights (out, in) and K biases
    (out,), slab k going through w[k] and b[k]. Those 2K tensors are the
    parents, so each layer keeps its own parameters. A plain layer, x of
    (in,) or (batch, in) with one weight and one bias Tensor, is a stack
    of one read through views, and its output keeps x's leading shape.
    The forward is one batched matmul against the weights stacked inside
    the op, and the backward forms g W, g^T x and the row sums once for
    all K slabs, handing slab k to w[k] and b[k]. A batched matmul
    computes each slab as the 2-D product would, so a plain layer gets
    the bits of x W^T + b.
    """
    x = as_tensor(x)
    if activation not in ACTIVATIONS:
        raise ContractError(f"dense: unknown activation {activation!r}, "
                            f"expected one of {ACTIVATIONS}")
    xshape = x.data.shape
    if len(xshape) == 3 and xshape[0] > 0:
        ws, bs = [as_tensor(t) for t in w], [as_tensor(t) for t in b]
        k = xshape[0]
    elif len(xshape) in (1, 2):
        ws, bs = [as_tensor(w)], [as_tensor(b)]
        k = 1
    else:
        raise ShapeError(f"dense: input must be (in,), (batch, in) or (K, batch, in) "
                         f"with K >= 1, got {xshape}")
    if len(ws) != k or len(bs) != k:
        raise ShapeError(f"dense: a stack of {k} needs {k} weights and {k} biases, "
                         f"got {len(ws)} and {len(bs)}")
    shape = ws[0].data.shape
    if len(shape) != 2 or xshape[-1] != shape[1]:
        raise ShapeError(f"dense: input {xshape} does not match weight {shape}")
    for wk, bk in zip(ws, bs):
        if wk.data.shape != shape or bk.data.shape != shape[:1]:
            raise ShapeError(f"dense: weights and biases must all be {shape} and "
                             f"({shape[0]},), got {wk.shape} and {bk.shape}")
    if k == 1:
        wd, bd = ws[0].data[None], bs[0].data
    else:
        wd = np.empty((k, *shape))
        bd = np.empty((k, 1, shape[0]))
        for i, (wk, bk) in enumerate(zip(ws, bs)):
            wd[i] = wk.data
            bd[i, 0] = bk.data
    xd = x.data.reshape(k, -1, shape[1])
    out = xd @ wd.transpose(0, 2, 1)
    out += bd
    out = _activate(out, activation)

    def backward(g, needs):
        g = _activation_grad(g.reshape(out.shape), out, activation)
        gx = (g @ wd).reshape(xshape) if needs[0] else None
        gw = g.transpose(0, 2, 1) @ xd if True in needs[1 : k + 1] else None
        gb = g.sum(axis=1) if True in needs[k + 1 :] else None
        return (gx, *[gw[i] if needs[1 + i] else None for i in range(k)],
                *[gb[i] if needs[1 + k + i] else None for i in range(k)])

    return Tensor._from_op(out.reshape(xshape[:-1] + shape[:1]), "dense", (x, *ws, *bs),
                           backward)


# ---------------------------------------------------------------------------
# recurrence


def gated_recurrence(x: Arrayish, w_fwd: Arrayish, b_fwd: Arrayish, w_bwd: Arrayish,
                     b_bwd: Arrayish, lengths: Optional[np.ndarray] = None) -> Tensor:
    """Hidden states of a bidirectional gated recurrent cell run over a
    batch of sequences.

    x is (batch, T, e). Each direction has its own w (4h, e+h), which
    stacks the input, forget, output and candidate gate weights, and its
    own b (4h,), their biases: w_fwd, b_fwd run time forwards, w_bwd,
    b_bwd backwards. From zero states, each step computes gates =
    [x_t, h] W^T + b, i, f, o = sigmoid and g = tanh of the four gate
    blocks, c = f c + i g and h = o tanh(c). The result is (batch, T, 2h):
    the forward direction's states, then the backward direction's, both
    indexed by input position. It is one graph node, and its backward is
    backpropagation through time. Both directions run in one loop over
    stacked (2, batch, .) arrays, so a step costs one set of numpy calls.

    lengths (batch,), each in 1..T, gives every row its own length; None
    means every row is T long. A row keeps its cell state on the steps
    past its length and ignores x there, so the backward direction starts
    it at its own last token (a zero cell gives a zero hidden state). Its
    states at those padded positions are 0 and carry no gradient, and its
    dx there is 0.

    A recorded call keeps every step's cell input, gate pre-activations
    and activations, cell state and its tanh for the backward. A call
    under no_graph() keeps every step's cell input, whose h part is the
    previous step's hidden state, but one step of the rest (two of the
    cell state), and each gate's largest magnitude over the steps for the
    finiteness check.

    The backward runs the steps from T-1 down to 0 and stores each
    step's gate gradients, in reverse-time rows (row 0 is step T-1), and
    the gradient of its whole cell input [x_t, h], from which the step
    before reads dh. After the loop it forms every step's dw term in one
    batched matmul and sums the terms over the rows, and db sums each
    row's batch, then the rows, so both add the steps to a zero start in
    the order the loop made them, step T-1 first; dx is the x part of
    the stored cell-input gradients.

    Every value, forward and backward, is rounded as in the same cell
    built from the primitive ops above, so both give the same values;
    when every row is T long the op runs no masking at all. A non-finite
    gate pre-activation or cell state is a domain error, although sigmoid
    and tanh would saturate it to a finite state.
    """
    x, w_fwd, b_fwd, w_bwd, b_bwd = (as_tensor(a) for a in (x, w_fwd, b_fwd, w_bwd, b_bwd))
    if x.ndim != 3 or w_fwd.ndim != 2 or w_fwd.shape[0] < 4 or w_fwd.shape[0] % 4:
        raise ShapeError(f"gated_recurrence: need x (batch, T, e) and w (4h, e+h), "
                         f"got {x.shape} and {w_fwd.shape}")
    batch, steps, e = x.shape
    hd = w_fwd.shape[0] // 4
    if (w_fwd.shape[1] != e + hd or w_bwd.shape != w_fwd.shape
            or b_fwd.shape != (4 * hd,) or b_bwd.shape != (4 * hd,)):
        raise ShapeError(f"gated_recurrence: x {x.shape}, w {w_fwd.shape} and {w_bwd.shape}, "
                         f"b {b_fwd.shape} and {b_bwd.shape} do not conform")
    xd = x.data
    held = None  # (steps, 2, batch, 1): True where step s is past the row's length
    if lengths is not None:
        lengths = np.asarray(lengths)
        if (lengths.shape != (batch,) or not np.issubdtype(lengths.dtype, np.integer)
                or (batch and (lengths.min() < 1 or lengths.max() > steps))):
            raise ShapeError(f"gated_recurrence: lengths must be {batch} integers in "
                             f"1..{steps}, got {lengths!r}")
        if (lengths != steps).any():
            times = np.arange(steps)
            held = (np.stack([times, times[::-1]], axis=1)[:, :, None, None]
                    >= lengths[:, None])
            xd = np.where((times < lengths[:, None])[:, :, None], xd, 0.0)
    wd = np.empty((2, 4 * hd, e + hd))
    wd[0], wd[1] = w_fwd.data, w_bwd.data
    wt = wd.transpose(0, 2, 1)
    bd = np.empty((2, 1, 4 * hd))
    bd[0, 0], bd[1, 0] = b_fwd.data, b_bwd.data
    # per step and direction: the cell input [x_t, h], the gate
    # pre-activations, their activations i, f, o, g, the cell state and
    # its tanh. Direction 1 reads the sequence reversed, so its step s is
    # input position T-1-s. cats has one row more than the steps: row 0
    # holds the zero start state and step s writes its h straight into
    # row s+1. Only the backward reads past steps, so a graph-free call
    # keeps one step of the rest, and two of the cells: a held row's
    # step copies the previous cell state after writing its own. For the
    # check it keeps the gates' largest magnitudes, which np.maximum
    # leaves non-finite once one step's were; a non-finite cell state
    # stays non-finite on every later step, so the last one shows it.
    recording = _mode.building
    kept = steps if recording else 1
    peak = None if recording else np.zeros((2, batch, 4 * hd))
    cats = np.empty((steps + 1, 2, batch, e + hd))
    seq = np.swapaxes(xd, 0, 1)
    cats[:steps, 0, :, :e] = seq
    cats[:steps, 1, :, :e] = seq[::-1]
    cats[0, :, :, e:] = 0.0
    hs = cats[1:, :, :, e:]  # every step's h, held rows' included
    gates = np.empty((kept, 2, batch, 4 * hd))
    acts = np.empty((kept, 2, batch, 4 * hd))
    cells = np.empty((steps if recording else 2, 2, batch, hd))
    tcells = np.empty((kept, 2, batch, hd))
    zeros = np.zeros((2, batch, hd))
    c = zeros
    for s in range(steps):
        k = s % kept
        z, act = gates[k], acts[k]
        np.matmul(cats[s], wt, out=z)
        z += bd
        act[:, :, : 3 * hd] = _sigmoid(z[:, :, : 3 * hd])
        np.tanh(z[:, :, 3 * hd :], out=act[:, :, 3 * hd :])
        i, f, o, g = (act[:, :, : hd], act[:, :, hd : 2 * hd], act[:, :, 2 * hd : 3 * hd],
                      act[:, :, 3 * hd :])
        fresh = np.add(f * c, i * g, out=cells[s % len(cells)])
        if held is not None:
            np.copyto(fresh, c, where=held[s])
        c = fresh
        np.multiply(o, np.tanh(c, out=tcells[k]), out=hs[s])
        if peak is not None:
            np.maximum(peak, np.abs(z), out=peak)
    if not (np.isfinite(gates if peak is None else peak).all()
            and np.isfinite(cells if recording else c).all()):
        raise DomainError("op 'gated_recurrence' produced a non-finite gate or cell state")
    states = hs if held is None else np.where(held, 0.0, hs)
    out = np.empty((batch, steps, 2 * hd))
    out[:, :, :hd] = np.swapaxes(states[:, 0], 0, 1)
    out[:, :, hd:] = np.swapaxes(states[::-1, 1], 0, 1)

    def backward(dout, needs):
        # sigmoid a passes d on as (d * a) * (1 - a), tanh a as d * (1 - a * a)
        need_x, need_wf, need_bf, need_wb, need_bb = needs
        need_w, need_b = need_wf or need_wb, need_bf or need_bb
        douts = np.empty((steps, 2, batch, hd))
        douts[:, 0] = np.swapaxes(dout[:, :, :hd], 0, 1)
        douts[:, 1] = np.swapaxes(dout[:, ::-1, hd:], 0, 1)
        sig, cand = acts[..., : 3 * hd], acts[..., 3 * hd :]
        dsig = 1.0 - sig
        dtanh_g = 1.0 - cand * cand
        dtanh_c = 1.0 - tcells * tcells
        # row steps-1-s of dgates is step s's, so the steps' terms of dw
        # and db are summed below in the order this loop makes them; dcats
        # holds each step's gradient of its whole cell input [x_t, h]
        dgates = np.empty((steps, 2, batch, 4 * hd))
        dcats = np.empty((steps, 2, batch, e + hd))
        dc_next = None  # what step s+1 sends back to c of step s
        for s in range(steps - 1, -1, -1):
            act = acts[s]
            i, f, o, g = (act[:, :, : hd], act[:, :, hd : 2 * hd], act[:, :, 2 * hd : 3 * hd],
                          act[:, :, 3 * hd :])
            dh = douts[s] if s == steps - 1 else douts[s] + dcats[s + 1, :, :, e:]
            dc = dh * o * dtanh_c[s]
            if dc_next is not None:
                dc += dc_next
            if held is not None:
                # a held row's step is constant: its output is 0 and its
                # state is the zero start or a state no later step reads.
                # dh and dc are this backward's own arrays, douts[s] too
                np.copyto(dh, 0.0, where=held[s])
                np.copyto(dc, 0.0, where=held[s])
            dg = dgates[steps - 1 - s]
            np.multiply(dc, g, out=dg[:, :, :hd])
            np.multiply(dc, cells[s - 1] if s else zeros, out=dg[:, :, hd : 2 * hd])
            np.multiply(dh, tcells[s], out=dg[:, :, 2 * hd : 3 * hd])
            dg[:, :, : 3 * hd] *= sig[s]
            dg[:, :, : 3 * hd] *= dsig[s]
            np.multiply(dc * i, dtanh_g[s], out=dg[:, :, 3 * hd :])
            np.matmul(dg, wd, out=dcats[s])
            dc_next = dc * f
        # each step's (4h, e+h) product in one batched matmul, then the
        # steps' terms summed from a zero start, step T-1 first
        dw = (np.matmul(dgates.transpose(0, 1, 3, 2), cats[:steps][::-1]).sum(axis=0, initial=0.0)
              if need_w else None)
        db = dgates.sum(axis=2).sum(axis=0, initial=0.0) if need_b else None
        # each position's dx is what the forward direction sent it plus
        # what the backward one did
        dx = (np.swapaxes(dcats[:, 0, :, :e], 0, 1) + np.swapaxes(dcats[::-1, 1, :, :e], 0, 1)
              if need_x else None)
        return (dx, dw[0] if need_wf else None, db[0] if need_bf else None,
                dw[1] if need_wb else None, db[1] if need_bb else None)

    return Tensor._from_op(out, "gated_recurrence", (x, w_fwd, b_fwd, w_bwd, b_bwd), backward)


# ---------------------------------------------------------------------------
# convolution and pooling over (batch, H, W, C) grids


def _columns(xd: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """The im2col matrix of (batch, H, W, C) grids: one row per output
    position, holding its (kh, kw, C) window in kernel order."""
    b_, h, w, c = xd.shape
    ho, wo = h - kh + 1, w - kw + 1
    s0, s1, s2, s3 = xd.strides
    windows = np.lib.stride_tricks.as_strided(
        xd, shape=(b_, ho, wo, kh, kw, c), strides=(s0, s1, s2, s1, s2, s3),
        writeable=False)
    return windows.reshape(b_ * ho * wo, kh * kw * c)


def _taps(xd: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """The transpose of the im2col matrix of (batch, H, W, 1) grids, laid
    out tap-major: one row per kernel tap (p, q), in kernel order, holding
    that tap's value at every output position, copied from one strided
    view."""
    b_, h, w, _ = xd.shape
    ho, wo = h - kh + 1, w - kw + 1
    s0, s1, s2, _ = xd.strides
    taps = np.lib.stride_tricks.as_strided(
        xd, shape=(kh, kw, b_, ho, wo), strides=(s1, s2, s0, s1, s2), writeable=False)
    return taps.reshape(kh * kw, b_ * ho * wo)


def conv2d(x: Arrayish, kernel: Tensor, bias: Tensor, relu: bool = False) -> Tensor:
    """Stride-1 valid 2-D convolution of (batch, H, W, C) grids with
    kernel (kh, kw, C, F), plus one bias (F,) per filter, and with relu
    True its relu, in the same node.

    Lowered to matrix products over the im2col columns (one row per
    output position, its (kh, kw, C) window flattened): the output is
    columns @ kernel, the kernel gradient columns.T @ g and the grid
    gradient g @ kernel.T, copied tap-major and added back tap by tap.

    The columns are laid out by channel count. A 1-channel grid, the raw
    input the first conv reads, takes tap-major rows (_taps) when the
    kernel has at most 3x3 taps and two or more filters: there the
    products taps.T @ kernel and (g.T @ taps.T).T were measured bitwise
    equal to the position-major ones, at about half their cost. A single
    filter, or 16 or more taps with few filters, takes another BLAS path
    whose sums differ, so those, and grids with more channels, keep
    position-major rows. The backward rebuilds the columns rather than
    keeping them alive with the graph, and computes no grid gradient for
    a grid that needs none (the raw input grids). The relu's mask is read
    from the node's own output, so a conv without relu holds nothing
    larger than its grid, and one with relu nothing larger than its
    output."""
    x, kernel, bias = as_tensor(x), as_tensor(kernel), as_tensor(bias)
    if kernel.ndim != 4:
        raise ShapeError(f"conv2d: kernel must be (kh, kw, cin, cout), got {kernel.shape}")
    if x.ndim != 4:
        raise ShapeError(f"conv2d: expected (batch, H, W, C), got {x.shape}")
    kh, kw, cin, cout = kernel.shape
    b_, h, w, c = x.shape
    if c != cin:
        raise ShapeError(f"conv2d: input channels {c} do not match kernel {kernel.shape}")
    if h < kh or w < kw:
        raise ShapeError(f"conv2d: grid {x.shape} smaller than receptive field {(kh, kw)}")
    if bias.shape != (cout,):
        raise ShapeError(f"conv2d: bias {bias.shape} does not match {cout} filters")
    ho, wo = h - kh + 1, w - kw + 1
    xd = x.data
    km = kernel.data.reshape(kh * kw * c, cout)
    tap_major = c == 1 and cout > 1 and kh * kw <= 9
    out = _taps(xd, kh, kw).T @ km if tap_major else _columns(xd, kh, kw) @ km
    out = out.reshape(b_, ho, wo, cout)
    out += bias.data
    rectified = np.maximum(out, 0.0, out=out) if relu else None

    def backward(g, needs):
        need_x, need_k, need_b = needs
        if rectified is not None:
            g = g * (rectified > 0.0)
        g2 = g.reshape(-1, cout)
        gk = None
        if need_k:
            gk = ((g2.T @ _taps(xd, kh, kw).T).T if tap_major
                  else _columns(xd, kh, kw).T @ g2).reshape(kernel.shape)
        gx = None
        if need_x:
            gcols = (g2 @ km.T).reshape(b_, ho, wo, kh, kw, c)
            gtaps = np.ascontiguousarray(gcols.transpose(3, 4, 0, 1, 2, 5))
            gx = np.zeros_like(xd)
            for p in range(kh):
                for q in range(kw):
                    gx[:, p : p + ho, q : q + wo, :] += gtaps[p, q]
        gb = g.sum(axis=(0, 1, 2)) if need_b else None
        return gx, gk, gb

    return Tensor._from_op(out, "conv2d", (x, kernel, bias), backward)


def maxpool2d(x: Arrayish, size: int = 2) -> Tensor:
    """Non-overlapping max pooling of (batch, H, W, C) grids; trailing
    rows/cols that do not fill a window are dropped.

    The forward is one np.maximum per window tap over strided views. The
    backward sends each window's gradient to its first maximal tap in
    row-major window order, as argmax picks it, so ties (the zeros a relu
    leaves) send it to one tap only."""
    x = as_tensor(x)
    if x.ndim != 4:
        raise ShapeError(f"maxpool2d: expected (batch, H, W, C), got {x.shape}")
    b_, h, w, c = x.shape
    ho, wo = h // size, w // size
    if ho < 1 or wo < 1:
        raise ShapeError(f"maxpool2d: grid {x.shape} smaller than pool window {size}")
    xd = x.data
    taps = [(np.s_[:, p : ho * size : size, q : wo * size : size, :])
            for p in range(size) for q in range(size)]
    out = xd[taps[0]].copy()
    for tap in taps[1:]:
        np.maximum(out, xd[tap], out=out)

    def backward(g, needs):
        gx = np.zeros_like(xd)
        free = np.ones(out.shape, dtype=bool)  # windows whose maximum is not found yet
        for tap in taps:
            first = (xd[tap] == out) & free
            gx[tap] = np.where(first, g, 0.0)
            free &= ~first
        return (gx,)

    return Tensor._from_op(out, "maxpool2d", (x,), backward)


def cell_means(x: Arrayish, grid: int) -> Tensor:
    """Average-pool (batch, H, W, C) grids onto a grid x grid summary grid
    as one node, flattened to (batch, grid*grid*C): cell (i, j) covers
    rows round(i*H/grid) to round((i+1)*H/grid) and the columns cut
    likewise, and the cells' channel means follow in row-major order.
    Each cell is one mean, as np.mean computes it, so the values are
    those of a slice, mean and concat chain; uneven cells (odd H or W) are averaged as such.

    The backward divides g by each cell's count once, then repeats each
    cell over its grid rows and columns, and adds 0.0 as the chain's
    scatter into zeros did, so a -0.0 gradient becomes +0.0 there too."""
    x = as_tensor(x)
    if x.ndim != 4:
        raise ShapeError(f"cell_means: expected (batch, H, W, C), got {x.shape}")
    b_, h, w, c = x.shape
    if grid < 1 or h < grid or w < grid:
        raise ShapeError(f"cell_means: grid {x.shape} smaller than the {grid}x{grid} "
                         f"summary grid")
    h_cuts = [round(i * h / grid) for i in range(grid + 1)]
    w_cuts = [round(j * w / grid) for j in range(grid + 1)]
    cells = [np.s_[:, h_cuts[i] : h_cuts[i + 1], w_cuts[j] : w_cuts[j + 1], :]
             for i in range(grid) for j in range(grid)]
    counts = [(rows.stop - rows.start) * (cols.stop - cols.start)
              for _, rows, cols, _ in cells]
    xd = x.data
    out = np.concatenate([_mean(xd[cell], (1, 2), count) for cell, count in zip(cells, counts)],
                         axis=1)

    def backward(g, needs):
        per_cell = g.reshape(b_, grid, grid, c) / np.reshape(counts, (grid, grid, 1))
        # each cell row repeated over its grid rows, each cell column over
        # its grid columns
        gx = np.repeat(np.repeat(per_cell, np.diff(h_cuts), axis=1), np.diff(w_cuts), axis=2)
        return (np.add(gx, 0.0, out=gx),)

    return Tensor._from_op(out, "cell_means", (x,), backward)
