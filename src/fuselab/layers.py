"""Neural building blocks and the two modality encoders.

Both encoders emit a latent vector of the same dimension d, asserted at
construction and per forward pass, so any fusion mechanism can consume
their outputs interchangeably.

Encoders are immutable during inference and safe to share read-only
across threads; training mutates parameters and must be serialized by
the caller.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import numcore as nc
from .exceptions import ConfigError, InputError, ShapeError
from .numcore import Tensor

INIT_SCALE = 0.08  # uniform init half-width for the recurrent gates


def _glorot(rng: np.random.Generator, shape: Tuple[int, ...],
            fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


class DenseLayer:
    """Fully connected layer y = activation(W x + b), one dense node: the
    op's stack of one, or slab k of a stack of K (see stacked)."""

    def __init__(self, in_dim: int, out_dim: int, activation: str = "identity",
                 rng: Optional[np.random.Generator] = None, name: str = "dense"):
        if out_dim < 1 or in_dim < 1:
            raise ConfigError(f"dense layer dims must be positive, got {in_dim}x{out_dim}")
        if activation not in nc.ACTIVATIONS:
            raise ConfigError(f"unknown activation '{activation}', expected one of "
                              f"{nc.ACTIVATIONS}")
        rng = rng or np.random.default_rng(0)
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.activation = activation
        self.name = name
        self.weights = Tensor(_glorot(rng, (out_dim, in_dim), in_dim, out_dim),
                              name=f"{name}.weights")
        self.bias = Tensor(np.zeros(out_dim), name=f"{name}.bias")

    def __call__(self, x: Tensor) -> Tensor:
        """Apply the layer to a vector (in,) or a batch (n, in)."""
        if x.shape[-1] != self.in_dim:
            raise ShapeError(f"{self.name}: input {x.shape} does not match weights "
                             f"{self.weights.shape}")
        return nc.dense(x, self.weights, self.bias, self.activation)

    def parameters(self) -> List[Tensor]:
        return [self.weights, self.bias]


def stacked(layers: Sequence[DenseLayer], x: Tensor) -> Tensor:
    """K dense layers of one shape and activation run side by side over a
    (K, batch, in) stack, slab k through layers[k], as one node."""
    if len({(layer.in_dim, layer.out_dim, layer.activation) for layer in layers}) != 1:
        raise ShapeError(f"stacked: layers {[layer.name for layer in layers]} differ in "
                         f"shape or activation")
    return nc.dense(x, [layer.weights for layer in layers], [layer.bias for layer in layers],
                    layers[0].activation)


class EmbeddingTable:
    """Token-id to vector lookup; an id outside the table raises ShapeError
    (Vocab.encode maps unknown words to its own OOV id)."""

    def __init__(self, vocab_size: int, dim: int,
                 rng: Optional[np.random.Generator] = None, name: str = "embed"):
        if vocab_size < 1 or dim < 1:
            raise ConfigError(f"embedding table dims must be positive, got {vocab_size}x{dim}")
        rng = rng or np.random.default_rng(0)
        self.dim = dim
        self.matrix = Tensor(rng.uniform(-INIT_SCALE, INIT_SCALE, size=(vocab_size, dim)),
                             name=f"{name}.matrix")

    def lookup(self, ids: Sequence[int]) -> Tensor:
        return nc.take_rows(self.matrix, ids)

    def parameters(self) -> List[Tensor]:
        return [self.matrix]


class RecurrentTextEncoder:
    """Bidirectional gated recurrence with additive word attention.

    Each direction runs a standard input/forget/output/candidate cell, with
    its own weights, over the embedded token sequence; one fused
    `gated_recurrence` op runs both and returns each position's forward
    and backward hidden states side by side. Those are scored against a
    learned query vector, softmax-normalized, and the attention-weighted
    sum is projected to the latent dimension d.
    """

    def __init__(self, vocab_size: int, embed_dim: int, hidden_dim: int, latent_dim: int,
                 rng: Optional[np.random.Generator] = None):
        if latent_dim < 1 or hidden_dim < 1:
            raise ConfigError("encoder dims must be positive")
        rng = rng or np.random.default_rng(0)
        self.latent_dim = latent_dim
        self.hidden_dim = hidden_dim
        self.embedding = EmbeddingTable(vocab_size, embed_dim, rng=rng, name="text.embed")
        self.fwd = self._make_cell(embed_dim, hidden_dim, rng, "text.fwd")
        self.bwd = self._make_cell(embed_dim, hidden_dim, rng, "text.bwd")
        self.query = Tensor(rng.uniform(-INIT_SCALE, INIT_SCALE, size=2 * hidden_dim),
                            name="text.attn_query")
        self.proj = DenseLayer(2 * hidden_dim, latent_dim, "identity", rng, name="text.proj")

    @staticmethod
    def _make_cell(embed_dim: int, hidden_dim: int, rng, name: str) -> Dict[str, Tensor]:
        # one stacked weight for the four gates; forget-gate bias starts at 1
        w = rng.uniform(-INIT_SCALE, INIT_SCALE, size=(4 * hidden_dim, embed_dim + hidden_dim))
        b = np.zeros(4 * hidden_dim)
        b[hidden_dim : 2 * hidden_dim] = 1.0
        return {
            "w": Tensor(w, name=f"{name}.w"),
            "b": Tensor(b, name=f"{name}.b"),
        }

    def parameters(self) -> List[Tensor]:
        return (self.embedding.parameters() + self.recurrent_parameters()
                + [self.query] + self.proj.parameters())

    def recurrent_parameters(self) -> List[Tensor]:
        return [self.fwd["w"], self.fwd["b"], self.bwd["w"], self.bwd["b"]]

    def encode_batch(self, ids_batch: np.ndarray,
                     lengths: Optional[np.ndarray] = None) -> Tuple[Tensor, Tensor]:
        """Encode a (batch, length) id matrix to (batch, d) latents.

        lengths (batch,), each in 1..length, gives every row its own
        length; the ids past it are padding, which neither direction reads
        and attention weighs exactly 0. None means every row is full.

        Returns (latents, attention weights of shape (batch, length)).
        """
        ids_batch = np.asarray(ids_batch)
        if ids_batch.ndim != 2 or ids_batch.shape[1] < 1:
            raise InputError(f"encode_batch: need a (batch, length>=1) id matrix, "
                             f"got {ids_batch.shape}")
        batch, length = ids_batch.shape
        if lengths is not None:
            lengths = np.asarray(lengths)
            if lengths.shape == (batch,) and (lengths == length).all():
                lengths = None
        embedded = self.embedding.lookup(ids_batch.reshape(-1)).reshape(
            batch, length, self.embedding.dim)
        # (batch, length, 2h) bidirectional states; the op checks lengths
        states = nc.gated_recurrence(embedded, self.fwd["w"], self.fwd["b"], self.bwd["w"],
                                     self.bwd["b"], lengths=lengths)
        flat = states.reshape(batch * length, 2 * self.hidden_dim)
        scores = nc.matmul(flat, self.query).reshape(batch, length)
        valid = None if lengths is None else np.arange(length) < lengths[:, None]
        weights = nc.softmax(scores, axis=-1, mask=valid)
        context = nc.tsum(nc.row_scale(flat, weights.reshape(batch * length))
                          .reshape(batch, length, 2 * self.hidden_dim), axis=1)
        latent = self.proj(context)
        if latent.shape != (batch, self.latent_dim):
            raise ShapeError(f"text encoder emitted {latent.shape}, "
                             f"expected ({batch}, {self.latent_dim})")
        return latent, weights


class ConvVisualEncoder:
    """Two stride-1 3x3 convolutions with max pooling, then a projection.

    The feature maps are average-pooled onto a fixed 2x2 spatial grid
    before the projection, so the latent size is independent of the
    admissible input grid size while coarse position (which quadrant a
    feature sits in) survives.
    """

    KERNEL = 3
    POOL = 2
    SUMMARY_GRID = 2

    def __init__(self, in_channels: int, latent_dim: int, channels: Tuple[int, int] = (8, 16),
                 rng: Optional[np.random.Generator] = None):
        if latent_dim < 1 or in_channels < 1:
            raise ConfigError("encoder dims must be positive")
        rng = rng or np.random.default_rng(0)
        self.latent_dim = latent_dim
        self.in_channels = in_channels
        c1, c2 = channels
        k = self.KERNEL
        fan1 = k * k * in_channels
        fan2 = k * k * c1
        self.kernel1 = Tensor(_glorot(rng, (k, k, in_channels, c1), fan1, c1),
                              name="visual.kernel1")
        self.bias1 = Tensor(np.zeros(c1), name="visual.bias1")
        self.kernel2 = Tensor(_glorot(rng, (k, k, c1, c2), fan2, c2), name="visual.kernel2")
        self.bias2 = Tensor(np.zeros(c2), name="visual.bias2")
        s = self.SUMMARY_GRID
        self.proj = DenseLayer(s * s * c2, latent_dim, "identity", rng, name="visual.proj")

    def parameters(self) -> List[Tensor]:
        return [self.kernel1, self.bias1, self.kernel2, self.bias2] + self.proj.parameters()

    def encode_batch(self, grids: Tensor) -> Tensor:
        """Encode (batch, H, W, C) grids to (batch, d) latents."""
        if grids.ndim != 4:
            raise ShapeError(f"encode_batch: need (batch, H, W, C), got {grids.shape}")
        h = nc.conv2d(grids, self.kernel1, self.bias1, relu=True)
        h = nc.maxpool2d(h, self.POOL)
        h = nc.conv2d(h, self.kernel2, self.bias2, relu=True)
        latent = self.proj(nc.cell_means(h, self.SUMMARY_GRID))
        if latent.shape[-1] != self.latent_dim:
            raise ShapeError(f"visual encoder emitted {latent.shape}")
        return latent

