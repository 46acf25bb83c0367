"""Differentiable primitives over Tensor.

Each op has one spelling, the function here; Tensor adds only indexing
and reshape as methods.

Each op records a backward closure ``backward(g, needs)`` (see tensor.py):
given d(loss)/d(out) and one bool per parent, it returns one gradient per
parent and None for each parent not needed. An op with several parents
computes only the needed gradients, so, for example, conv2d over raw
grids computes no grid gradient; a one-parent op ignores needs, as
backward calls no closure without a needed parent.

conv2d is one matrix product over im2col columns (each output position's
window as a row, built from a sliding-window view); its backward builds
the columns again instead of holding them with the graph, so a recorded
conv holds its input grid, not the kh*kw times larger columns.

Shape discipline: operand shapes must conform exactly; the only implicit
broadcast is scalar-with-tensor. Batched ops (linear, row_scale,
gated_recurrence) treat a leading axis as the batch and say so
explicitly -- there is no silent numpy-style broadcasting anywhere else.
conv2d and maxpool2d take only (batch, H, W, C) grids. linear and conv2d
require their bias.

log clamps its input upward to LOG_EPS = 1e-12 (probabilities saturate
during adversarial training); strictly negative inputs are a domain
error, as is division by zero.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

from ..exceptions import DomainError, ShapeError
from .tensor import Arrayish, Tensor, _recording, as_tensor

LOG_EPS = 1e-12

Axis = Union[None, int, Tuple[int, ...]]


def _binary_shapes(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape == b.shape or a.ndim == 0 or b.ndim == 0:
        return
    raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not conform")


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


def linear(x: Arrayish, w: Tensor, b: Tensor) -> Tensor:
    """Affine map y = x W^T + b for x of shape (in,) or (batch, in).

    The bias add over batch rows is part of this op's definition, not an
    implicit broadcast.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
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

    return Tensor._from_op(out, "linear", (x, w, b), backward)


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
    sizes = [t.shape[axis % t.ndim] for t in ts]
    offsets = np.cumsum([0] + sizes)

    def backward(g, needs):
        grads = []
        for i, need in enumerate(needs):
            sl = [slice(None)] * g.ndim
            sl[axis % g.ndim] = slice(offsets[i], offsets[i + 1])
            grads.append(g[tuple(sl)] if need else None)
        return tuple(grads)

    return Tensor._from_op(out, "concat", tuple(ts), backward)


def tslice(a: Arrayish, key) -> Tensor:
    """Basic indexing (ints and slices); gradient scatters into zeros."""
    a = as_tensor(a)
    out = a.data[key]

    def backward(g, needs):
        ga = np.zeros_like(a.data)
        ga[key] += g
        return (ga,)

    return Tensor._from_op(np.array(out, dtype=np.float64), "slice", (a,), backward)


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
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        gx = np.expand_dims(g, axis)
        return (np.broadcast_to(gx, a.shape).copy(),)

    return Tensor._from_op(np.asarray(out), "sum", (a,), backward)


def tmean(a: Arrayish, axis: Axis = None) -> Tensor:
    a = as_tensor(a)
    out = np.mean(a.data, axis=axis)
    if axis is None:
        count = a.size
    elif isinstance(axis, tuple):
        count = int(np.prod([a.shape[ax] for ax in axis]))
    else:
        count = a.shape[axis]

    def backward(g, needs):
        if axis is None:
            return (np.broadcast_to(g / count, a.shape).copy(),)
        gx = np.expand_dims(g, axis) / count
        return (np.broadcast_to(gx, a.shape).copy(),)

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


def tanh(a: Arrayish) -> Tensor:
    a = as_tensor(a)
    out = np.tanh(a.data)

    def backward(g, needs):
        return (g * (1.0 - out * out),)

    return Tensor._from_op(out, "tanh", (a,), backward)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Stable logistic: 1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) for
    x < 0. Both branches read e = exp(-|x|), which cannot overflow."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def sigmoid(a: Arrayish) -> Tensor:
    a = as_tensor(a)
    out = _sigmoid(a.data)

    def backward(g, needs):
        return (g * out * (1.0 - out),)

    return Tensor._from_op(out, "sigmoid", (a,), backward)


def relu(a: Arrayish) -> Tensor:
    a = as_tensor(a)
    out = np.maximum(a.data, 0.0)

    def backward(g, needs):
        return (g * (a.data > 0.0),)

    return Tensor._from_op(out, "relu", (a,), backward)


def softmax(a: Arrayish, axis: int = -1, mask: Optional[np.ndarray] = None) -> Tensor:
    """Stable softmax along one axis (max subtraction before exp).

    With a boolean mask of a's shape, entries where it is False get weight
    exactly 0 and the others normalize among themselves; every slice along
    the axis needs one True entry.
    """
    a = as_tensor(a)
    if mask is None:
        shifted = a.data - np.max(a.data, axis=axis, keepdims=True)
    else:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != a.shape or not mask.any(axis=axis).all():
            raise ShapeError(f"softmax: mask {mask.shape} must match {a.shape} and "
                             f"keep an entry in every slice")
        peak = np.max(a.data, axis=axis, keepdims=True, initial=-np.inf, where=mask)
        shifted = np.where(mask, a.data - peak, -np.inf)
    e = np.exp(shifted)
    out = e / np.sum(e, axis=axis, keepdims=True)

    def backward(g, needs):
        dot = np.sum(g * out, axis=axis, keepdims=True)
        return (out * (g - dot),)

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
    under no_graph() keeps every step's cell input and hidden state but
    one step of the rest, and each gate's largest magnitude over the
    steps for the finiteness check.

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
    wd = np.stack([w_fwd.data, w_bwd.data])
    wt = wd.transpose(0, 2, 1)
    bd = np.stack([b_fwd.data, b_bwd.data])[:, None, :]
    # per step and direction: the cell input [x_t, h], the gate
    # pre-activations, their activations i, f, o, g, the cell state and
    # its tanh. Direction 1 reads the sequence reversed, so its step s is
    # input position T-1-s. Only the backward reads past steps, so a
    # graph-free call keeps one step of all but the cell inputs. For the
    # check it keeps the gates' largest magnitudes, which np.maximum
    # leaves non-finite once one step's were; a non-finite cell state
    # stays non-finite on every later step, so the last one shows it.
    recording = _recording()
    kept = steps if recording else 1
    peak = None if recording else np.zeros((2, batch, 4 * hd))
    cats = np.empty((steps, 2, batch, e + hd))
    seq = np.swapaxes(xd, 0, 1)
    cats[:, 0, :, :e] = seq
    cats[:, 1, :, :e] = seq[::-1]
    gates = np.empty((kept, 2, batch, 4 * hd))
    acts = np.empty((kept, 2, batch, 4 * hd))
    cells = np.empty((kept, 2, batch, hd))
    tcells = np.empty((kept, 2, batch, hd))
    states = np.empty((steps, 2, batch, hd))
    zeros = np.zeros((2, batch, hd))
    h = c = zeros
    for s in range(steps):
        k = s % kept
        cat, z, act = cats[s], gates[k], acts[k]
        cat[:, :, e:] = h
        np.matmul(cat, wt, out=z)
        z += bd
        act[:, :, : 3 * hd] = _sigmoid(z[:, :, : 3 * hd])
        np.tanh(z[:, :, 3 * hd :], out=act[:, :, 3 * hd :])
        i, f, o, g = (act[:, :, : hd], act[:, :, hd : 2 * hd], act[:, :, 2 * hd : 3 * hd],
                      act[:, :, 3 * hd :])
        if held is None:
            c = np.add(f * c, i * g, out=cells[k])
            tc = np.tanh(c, out=tcells[k])
            h = np.multiply(o, tc, out=states[s])
        else:
            keep = held[s]
            c = np.where(keep, c, f * c + i * g)
            cells[k] = c
            tc = np.tanh(c, out=tcells[k])
            h = o * tc
            states[s] = np.where(keep, 0.0, h)
        if peak is not None:
            np.maximum(peak, np.abs(z), out=peak)
    if not (np.isfinite(gates if peak is None else peak).all() and np.isfinite(cells).all()):
        raise DomainError("op 'gated_recurrence' produced a non-finite gate or cell state")
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
        dw = np.zeros_like(wd) if need_w else None
        db = np.zeros((2, 4 * hd)) if need_b else None
        dxs = np.empty((steps, 2, batch, e)) if need_x else None
        dgates = np.empty((2, batch, 4 * hd))
        dh_next = dc_next = None  # what step s+1 sends back to h and c of step s
        for s in range(steps - 1, -1, -1):
            act = acts[s]
            i, f, o, g = (act[:, :, : hd], act[:, :, hd : 2 * hd], act[:, :, 2 * hd : 3 * hd],
                          act[:, :, 3 * hd :])
            dh = douts[s] if dh_next is None else douts[s] + dh_next
            dc = dh * o * dtanh_c[s]
            if dc_next is not None:
                dc += dc_next
            if held is not None:
                # a held row's step is constant: its output is 0 and its
                # state is the zero start or a state no later step reads
                dh = np.where(held[s], 0.0, dh)
                dc = np.where(held[s], 0.0, dc)
            np.multiply(dc, g, out=dgates[:, :, :hd])
            np.multiply(dc, cells[s - 1] if s else zeros, out=dgates[:, :, hd : 2 * hd])
            np.multiply(dh, tcells[s], out=dgates[:, :, 2 * hd : 3 * hd])
            dgates[:, :, : 3 * hd] *= sig[s]
            dgates[:, :, : 3 * hd] *= dsig[s]
            np.multiply(dc * i, dtanh_g[s], out=dgates[:, :, 3 * hd :])
            dcat = dgates @ wd
            if need_w:
                dw += dgates.transpose(0, 2, 1) @ cats[s]
            if need_b:
                db += dgates.sum(axis=1)
            if need_x:
                dxs[s] = dcat[:, :, :e]
            dh_next = dcat[:, :, e:]
            dc_next = dc * f
        # each position's dx is what the forward direction sent it plus
        # what the backward one did
        dx = (np.swapaxes(dxs[:, 0], 0, 1) + np.swapaxes(dxs[::-1, 1], 0, 1)
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
    windows = np.lib.stride_tricks.sliding_window_view(xd, (kh, kw), axis=(1, 2))
    return windows.transpose(0, 1, 2, 4, 5, 3).reshape(
        b_ * (h - kh + 1) * (w - kw + 1), kh * kw * c)


def conv2d(x: Arrayish, kernel: Tensor, bias: Tensor) -> Tensor:
    """Stride-1 valid 2-D convolution of (batch, H, W, C) grids with
    kernel (kh, kw, C, F), plus one bias (F,) per filter.

    Lowered to matrix products over the im2col columns (one row per
    output position, its (kh, kw, C) window flattened): the output is
    columns @ kernel, the kernel gradient columns.T @ g and the grid
    gradient g @ kernel.T, scattered back tap by tap. The backward
    rebuilds the columns rather than keeping them alive with the graph,
    and computes no grid gradient for a grid that needs none (the raw
    input grids)."""
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
    out = (_columns(xd, kh, kw) @ km).reshape(b_, ho, wo, cout)
    out += bias.data

    def backward(g, needs):
        need_x, need_k, need_b = needs
        g2 = g.reshape(-1, cout)
        gk = (_columns(xd, kh, kw).T @ g2).reshape(kernel.shape) if need_k else None
        gx = None
        if need_x:
            gcols = (g2 @ km.T).reshape(b_, ho, wo, kh, kw, c)
            gx = np.zeros_like(xd)
            for p in range(kh):
                for q in range(kw):
                    gx[:, p : p + ho, q : q + wo, :] += gcols[:, :, :, p, q, :]
        gb = g.sum(axis=(0, 1, 2)) if need_b else None
        return gx, gk, gb

    return Tensor._from_op(out, "conv2d", (x, kernel, bias), backward)


def maxpool2d(x: Arrayish, size: int = 2) -> Tensor:
    """Non-overlapping max pooling of (batch, H, W, C) grids; trailing
    rows/cols that do not fill a window are dropped."""
    x = as_tensor(x)
    if x.ndim != 4:
        raise ShapeError(f"maxpool2d: expected (batch, H, W, C), got {x.shape}")
    b_, h, w, c = x.shape
    ho, wo = h // size, w // size
    if ho < 1 or wo < 1:
        raise ShapeError(f"maxpool2d: grid {x.shape} smaller than pool window {size}")
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

    return Tensor._from_op(out, "maxpool2d", (x,), backward)
