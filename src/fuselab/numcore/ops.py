"""Differentiable primitives over Tensor.

Shape discipline: operand shapes must conform exactly; the only implicit
broadcast is scalar-with-tensor. Batched variants (linear, conv2d,
row_scale, gated_recurrence) treat a leading axis as the batch and say so
explicitly -- there is no silent numpy-style broadcasting anywhere else.

log clamps its input upward to LOG_EPS = 1e-12 (probabilities saturate
during adversarial training); strictly negative inputs are a domain
error, as is division by zero.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

from ..exceptions import DomainError, ShapeError
from .tensor import Arrayish, Tensor, as_tensor

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

    def backward(g):
        return _reduce_to(a.shape, g), _reduce_to(b.shape, g)

    return Tensor._from_op(out, "add", (a, b), backward)


def sub(a: Arrayish, b: Arrayish) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _binary_shapes(a, b, "sub")
    out = a.data - b.data

    def backward(g):
        return _reduce_to(a.shape, g), _reduce_to(b.shape, -g)

    return Tensor._from_op(out, "sub", (a, b), backward)


def mul(a: Arrayish, b: Arrayish) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _binary_shapes(a, b, "mul")
    out = a.data * b.data

    def backward(g):
        return _reduce_to(a.shape, g * b.data), _reduce_to(b.shape, g * a.data)

    return Tensor._from_op(out, "mul", (a, b), backward)


def div(a: Arrayish, b: Arrayish) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _binary_shapes(a, b, "div")
    if np.any(b.data == 0.0):
        raise DomainError("div: division by zero")
    out = a.data / b.data

    def backward(g):
        ga = _reduce_to(a.shape, g / b.data)
        gb = _reduce_to(b.shape, -g * a.data / (b.data * b.data))
        return ga, gb

    return Tensor._from_op(out, "div", (a, b), backward)


def neg(a: Arrayish) -> Tensor:
    a = as_tensor(a)

    def backward(g):
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

    def backward(g):
        g2 = g.reshape(out2.shape)
        ga = (g2 @ b2.T).reshape(a.shape)
        gb = (a2.T @ g2).reshape(b.shape)
        return ga, gb

    return Tensor._from_op(out, "matmul", (a, b), backward)


def linear(x: Arrayish, w: Tensor, b: Optional[Tensor] = None) -> Tensor:
    """Affine map y = x W^T + b for x of shape (in,) or (batch, in).

    The bias add over batch rows is part of this op's definition, not an
    implicit broadcast.
    """
    x, w = as_tensor(x), as_tensor(w)
    if w.ndim != 2:
        raise ShapeError(f"linear: weight must be 2-D, got {w.shape}")
    if x.ndim not in (1, 2) or x.shape[-1] != w.shape[1]:
        raise ShapeError(f"linear: input {x.shape} does not match weight {w.shape}")
    if b is not None and b.shape != (w.shape[0],):
        raise ShapeError(f"linear: bias {b.shape} does not match weight {w.shape}")
    out = x.data @ w.data.T
    if b is not None:
        out = out + b.data

    if b is None:

        def backward(g):
            if x.ndim == 1:
                return g @ w.data, np.outer(g, x.data)
            return g @ w.data, g.T @ x.data

        return Tensor._from_op(out, "linear", (x, w), backward)

    def backward_b(g):
        if x.ndim == 1:
            return g @ w.data, np.outer(g, x.data), g.copy()
        return g @ w.data, g.T @ x.data, g.sum(axis=0)

    return Tensor._from_op(out, "linear", (x, w, b), backward_b)


def row_scale(m: Arrayish, v: Arrayish) -> Tensor:
    """Scale each row of m (batch, n) by the matching entry of v (batch,)."""
    m, v = as_tensor(m), as_tensor(v)
    if m.ndim != 2 or v.ndim != 1 or m.shape[0] != v.shape[0]:
        raise ShapeError(f"row_scale: shapes {m.shape} and {v.shape} do not conform")
    out = m.data * v.data[:, None]

    def backward(g):
        return g * v.data[:, None], np.sum(g * m.data, axis=1)

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

    def backward(g):
        grads = []
        for i, t in enumerate(ts):
            sl = [slice(None)] * g.ndim
            sl[axis % g.ndim] = slice(offsets[i], offsets[i + 1])
            grads.append(g[tuple(sl)])
        return tuple(grads)

    return Tensor._from_op(out, "concat", tuple(ts), backward)


def tslice(a: Arrayish, key) -> Tensor:
    """Basic indexing (ints and slices); gradient scatters into zeros."""
    a = as_tensor(a)
    out = a.data[key]

    def backward(g):
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

    def backward(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, idx, g)
        return (ga,)

    return Tensor._from_op(out, "take_rows", (a,), backward)


def reshape(a: Arrayish, shape: Tuple[int, ...]) -> Tensor:
    a = as_tensor(a)
    out = a.data.reshape(shape)

    def backward(g):
        return (g.reshape(a.shape),)

    return Tensor._from_op(out, "reshape", (a,), backward)


def transpose(a: Arrayish, axes: Optional[Tuple[int, ...]] = None) -> Tensor:
    a = as_tensor(a)
    out = np.transpose(a.data, axes)
    inv = None if axes is None else tuple(np.argsort(axes))

    def backward(g):
        return (np.transpose(g, inv),)

    return Tensor._from_op(out, "transpose", (a,), backward)


# ---------------------------------------------------------------------------
# reductions


def tsum(a: Arrayish, axis: Axis = None) -> Tensor:
    a = as_tensor(a)
    out = np.sum(a.data, axis=axis)

    def backward(g):
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

    def backward(g):
        if axis is None:
            return (np.broadcast_to(g / count, a.shape).copy(),)
        gx = np.expand_dims(g, axis) / count
        return (np.broadcast_to(gx, a.shape).copy(),)

    return Tensor._from_op(np.asarray(out), "mean", (a,), backward)


def squared_norm(a: Arrayish) -> Tensor:
    """Sum of squared entries, as a scalar."""
    a = as_tensor(a)
    out = np.sum(a.data * a.data)

    def backward(g):
        return (2.0 * g * a.data,)

    return Tensor._from_op(np.asarray(out), "squared_norm", (a,), backward)


# ---------------------------------------------------------------------------
# nonlinearities


def texp(a: Arrayish) -> Tensor:
    a = as_tensor(a)
    with np.errstate(over="ignore"):
        out = np.exp(a.data)

    def backward(g):
        return (g * out,)

    return Tensor._from_op(out, "exp", (a,), backward)


def tlog(a: Arrayish) -> Tensor:
    """Natural log; inputs in [0, LOG_EPS) are clamped up to LOG_EPS."""
    a = as_tensor(a)
    if np.any(a.data < 0.0):
        raise DomainError("log: negative argument")
    clamped = np.maximum(a.data, LOG_EPS)
    out = np.log(clamped)

    def backward(g):
        return (g / clamped,)

    return Tensor._from_op(out, "log", (a,), backward)


def tanh(a: Arrayish) -> Tensor:
    a = as_tensor(a)
    out = np.tanh(a.data)

    def backward(g):
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

    def backward(g):
        return (g * out * (1.0 - out),)

    return Tensor._from_op(out, "sigmoid", (a,), backward)


def relu(a: Arrayish) -> Tensor:
    a = as_tensor(a)
    out = np.maximum(a.data, 0.0)

    def backward(g):
        return (g * (a.data > 0.0),)

    return Tensor._from_op(out, "relu", (a,), backward)


def softmax(a: Arrayish, axis: int = -1) -> Tensor:
    """Stable softmax along one axis (max subtraction before exp)."""
    a = as_tensor(a)
    shifted = a.data - np.max(a.data, axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / np.sum(e, axis=axis, keepdims=True)

    def backward(g):
        dot = np.sum(g * out, axis=axis, keepdims=True)
        return (out * (g - dot),)

    return Tensor._from_op(out, "softmax", (a,), backward)


def clamp(a: Arrayish, lo: float, hi: float) -> Tensor:
    """Clip values to [lo, hi]; gradient passes only where unclipped."""
    a = as_tensor(a)
    out = np.clip(a.data, lo, hi)
    mask = (a.data > lo) & (a.data < hi)

    def backward(g):
        return (g * mask,)

    return Tensor._from_op(out, "clamp", (a,), backward)


# ---------------------------------------------------------------------------
# recurrence


def gated_recurrence(x: Arrayish, w: Arrayish, b: Arrayish, reverse: bool = False) -> Tensor:
    """Hidden states of a gated recurrent cell run over a batch of sequences.

    x is (batch, T, e); w (4h, e+h) stacks the input, forget, output and
    candidate gate weights, b (4h,) their biases. From zero states, each
    step computes gates = [x_t, h] W^T + b, i, f, o = sigmoid and g = tanh
    of the four gate blocks, c = f c + i g and h = o tanh(c). The result
    stacks the states to (batch, T, h), indexed by input position also
    when reverse=True runs time backwards. It is one graph node, and its
    backward is backpropagation through time.

    Every value, forward and backward, is rounded as in the same cell
    built from the primitive ops above, so both give the same values.
    A non-finite gate pre-activation or cell state is a domain error,
    although sigmoid and tanh would saturate it to a finite state.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.ndim != 3 or w.ndim != 2 or w.shape[0] < 4 or w.shape[0] % 4:
        raise ShapeError(f"gated_recurrence: need x (batch, T, e) and w (4h, e+h), "
                         f"got {x.shape} and {w.shape}")
    batch, steps, e = x.shape
    hd = w.shape[0] // 4
    if w.shape[1] != e + hd or b.shape != (4 * hd,):
        raise ShapeError(f"gated_recurrence: x {x.shape}, w {w.shape} and b {b.shape} "
                         f"do not conform")
    times = range(steps - 1, -1, -1) if reverse else range(steps)
    xd, wd, bd = x.data, w.data, b.data
    # per step: the cell input [x_t, h], the gate pre-activations, their
    # activations i, f, o, g, the cell state and its tanh
    cats = np.empty((steps, batch, e + hd))
    seq = np.swapaxes(xd, 0, 1)
    cats[:, :, :e] = seq[::-1] if reverse else seq
    gates = np.empty((steps, batch, 4 * hd))
    acts = np.empty_like(gates)
    cells = np.empty((steps, batch, hd))
    tcells = np.empty_like(cells)
    out = np.empty((batch, steps, hd))
    zeros = np.zeros((batch, hd))
    h = c = zeros
    for s, t in enumerate(times):
        cat, z, act = cats[s], gates[s], acts[s]
        cat[:, e:] = h
        np.matmul(cat, wd.T, out=z)
        z += bd
        act[:, : 3 * hd] = _sigmoid(z[:, : 3 * hd])
        np.tanh(z[:, 3 * hd :], out=act[:, 3 * hd :])
        i, f, o, g = act[:, :hd], act[:, hd : 2 * hd], act[:, 2 * hd : 3 * hd], act[:, 3 * hd :]
        c = np.add(f * c, i * g, out=cells[s])
        tc = np.tanh(c, out=tcells[s])
        h = np.multiply(o, tc, out=out[:, t, :])
    if not (np.isfinite(gates).all() and np.isfinite(cells).all()):
        raise DomainError("op 'gated_recurrence' produced a non-finite gate or cell state")

    def backward(dout):
        # sigmoid a passes d on as (d * a) * (1 - a), tanh a as d * (1 - a * a)
        sig, cand = acts[:, :, : 3 * hd], acts[:, :, 3 * hd :]
        dsig = 1.0 - sig
        dtanh_g = 1.0 - cand * cand
        dtanh_c = 1.0 - tcells * tcells
        dx = np.zeros_like(xd)
        dw = np.zeros_like(wd)
        db = np.zeros_like(bd)
        dgates = np.empty((batch, 4 * hd))
        dh_next = dc_next = None  # what step s+1 sends back to h and c of step s
        for s in range(steps - 1, -1, -1):
            t = times[s]
            act = acts[s]
            i, f, o, g = act[:, :hd], act[:, hd : 2 * hd], act[:, 2 * hd : 3 * hd], act[:, 3 * hd :]
            dh = dout[:, t, :] if dh_next is None else dout[:, t, :] + dh_next
            dc = dh * o * dtanh_c[s]
            if dc_next is not None:
                dc += dc_next
            np.multiply(dc, g, out=dgates[:, :hd])
            np.multiply(dc, cells[s - 1] if s else zeros, out=dgates[:, hd : 2 * hd])
            np.multiply(dh, tcells[s], out=dgates[:, 2 * hd : 3 * hd])
            dgates[:, : 3 * hd] *= sig[s]
            dgates[:, : 3 * hd] *= dsig[s]
            np.multiply(dc * i, dtanh_g[s], out=dgates[:, 3 * hd :])
            dcat = dgates @ wd
            dw += dgates.T @ cats[s]
            db += dgates.sum(axis=0)
            dx[:, t, :] = dcat[:, :e]
            dh_next = dcat[:, e:]
            dc_next = dc * f
        return dx, dw, db

    return Tensor._from_op(out, "gated_recurrence", (x, w, b), backward)


# ---------------------------------------------------------------------------
# convolution and pooling (batch-aware; stride-1 valid convolution)


def _as_batched_grid(x: Tensor, op: str) -> Tuple[np.ndarray, bool]:
    if x.ndim == 3:
        return x.data[None, ...], True
    if x.ndim == 4:
        return x.data, False
    raise ShapeError(f"{op}: expected (H, W, C) or (batch, H, W, C), got {x.shape}")


def conv2d(x: Arrayish, kernel: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Valid 2-D convolution of an H x W x C grid with kernel (kh, kw, C, F)."""
    x = as_tensor(x)
    kernel = as_tensor(kernel)
    if kernel.ndim != 4:
        raise ShapeError(f"conv2d: kernel must be (kh, kw, cin, cout), got {kernel.shape}")
    xb, squeeze = _as_batched_grid(x, "conv2d")
    kh, kw, cin, cout = kernel.shape
    b_, h, w, c = xb.shape
    if c != cin:
        raise ShapeError(f"conv2d: input channels {c} do not match kernel {kernel.shape}")
    if h < kh or w < kw:
        raise ShapeError(f"conv2d: grid {x.shape} smaller than receptive field {(kh, kw)}")
    ho, wo = h - kh + 1, w - kw + 1
    out = np.zeros((b_, ho, wo, cout))
    for p in range(kh):
        for q in range(kw):
            out += xb[:, p : p + ho, q : q + wo, :] @ kernel.data[p, q]
    if bias is not None:
        if bias.shape != (cout,):
            raise ShapeError(f"conv2d: bias {bias.shape} does not match {cout} filters")
        out = out + bias.data
    parents = (x, kernel) if bias is None else (x, kernel, bias)

    def backward(g):
        gb = g if not squeeze else g[None, ...]
        gx = np.zeros_like(xb)
        gk = np.zeros_like(kernel.data)
        for p in range(kh):
            for q in range(kw):
                patch = xb[:, p : p + ho, q : q + wo, :]
                gk[p, q] = np.einsum("bhwc,bhwf->cf", patch, gb)
                gx[:, p : p + ho, q : q + wo, :] += gb @ kernel.data[p, q].T
        gx = gx[0] if squeeze else gx
        if bias is None:
            return gx, gk
        return gx, gk, gb.sum(axis=(0, 1, 2))

    return Tensor._from_op(out[0] if squeeze else out, "conv2d", parents, backward)


def maxpool2d(x: Arrayish, size: int = 2) -> Tensor:
    """Non-overlapping max pooling; trailing rows/cols that do not fill a
    window are dropped."""
    x = as_tensor(x)
    xb, squeeze = _as_batched_grid(x, "maxpool2d")
    b_, h, w, c = xb.shape
    ho, wo = h // size, w // size
    if ho < 1 or wo < 1:
        raise ShapeError(f"maxpool2d: grid {x.shape} smaller than pool window {size}")
    cropped = xb[:, : ho * size, : wo * size, :]
    windows = cropped.reshape(b_, ho, size, wo, size, c).transpose(0, 1, 3, 5, 2, 4)
    flat = windows.reshape(b_, ho, wo, c, size * size)
    arg = np.argmax(flat, axis=-1)
    out = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]

    def backward(g):
        gb = g if not squeeze else g[None, ...]
        gflat = np.zeros_like(flat)
        np.put_along_axis(gflat, arg[..., None], gb[..., None], axis=-1)
        gwin = gflat.reshape(b_, ho, wo, c, size, size).transpose(0, 1, 4, 2, 5, 3)
        gx = np.zeros_like(xb)
        gx[:, : ho * size, : wo * size, :] = gwin.reshape(b_, ho * size, wo * size, c)
        return (gx[0] if squeeze else gx,)

    return Tensor._from_op(out[0] if squeeze else out, "maxpool2d", (x,), backward)
