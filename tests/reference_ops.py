"""Reference graph nodes that the library no longer has, for tests that
check an op bit for bit against the primitive chain it replaced.

tslice is basic indexing as a graph node, the op the summary grid and
the recurrence's reference cell were built from; argmax_maxpool2d is
max pooling as it was before its forward became strided np.maximums.
Each is written exactly as the library wrote it.
"""

import numpy as np

from fuselab import numcore as nc


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
