"""Fusion mechanisms: concatenation, autoencoder bottleneck, adversarial.

All three map a pair of equal-dimension latents (z_v, z_t) to one fused
vector of the configured output dimension, so the classifier interface
does not care which mechanism a model was built with.

The adversarial mechanism keeps one generator/discriminator pair per
modality: the text-side generator maps z_t (plus normal noise) toward
the visual latent distribution, where z_v carries the true label, and
the visual-side module mirrors that with the roles swapped. A
feed-forward combiner turns the two generator outputs into the fused
vector. Discriminator scores are clamped away from {0, 1} before any
log so the adversarial objective stays finite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from . import numcore as nc
from .exceptions import ConfigError, ShapeError
from .layers import DenseLayer
from .numcore import Tensor

D_CLAMP = 1e-7  # discriminator outputs live in [D_CLAMP, 1 - D_CLAMP]


@dataclass
class FusionResult:
    """Fused vector plus the mechanism's auxiliary outputs."""

    z_fuse: Tensor
    z: Optional[Tensor] = None        # concatenated input latents (auto)
    noise: Dict[str, np.ndarray] = field(default_factory=dict)  # generator noise (gan)


def _check_pair(z_v: Tensor, z_t: Tensor, dim: int) -> None:
    if z_v.ndim != 2:
        raise ShapeError(f"fuse: need (batch, d) latents, got {z_v.shape}")
    if z_v.shape != z_t.shape:
        raise ShapeError(f"fuse: latent shapes {z_v.shape} and {z_t.shape} differ")
    if z_v.shape[-1] != dim:
        raise ShapeError(f"fuse: latent dim {z_v.shape[-1]} does not match configured {dim}")


class ConcatFusion:
    """Concatenation baseline, optionally followed by a projection layer.

    Without the projection the fused vector is the raw 2d concatenation;
    with it, a relu dense layer (so the fused code is not a purely linear
    readout) maps 2d down to out_dim.
    """

    def __init__(self, latent_dim: int, out_dim: Optional[int] = None,
                 rng: Optional[np.random.Generator] = None):
        self.latent_dim = latent_dim
        self.projection = None
        if out_dim is None:
            self.out_dim = 2 * latent_dim
        else:
            self.out_dim = out_dim
            self.projection = DenseLayer(2 * latent_dim, out_dim, "relu",
                                         rng, name="fusion.proj")

    def parameters(self) -> List[Tensor]:
        return self.projection.parameters() if self.projection else []

    def fuse_batch(self, z_v: Tensor, z_t: Tensor,
                   rng: Optional[np.random.Generator] = None) -> FusionResult:
        _check_pair(z_v, z_t, self.latent_dim)
        z = nc.concat([z_v, z_t], axis=1)
        z_fuse = self.projection(z) if self.projection else z
        return FusionResult(z_fuse=z_fuse, z=z)


class AutoFusion:
    """Autoencoder over [z_v; z_t]; the bottleneck code is the fused vector.

    The bottleneck must compress (out_dim < 2d). Training adds the
    reconstruction penalty auto_fusion_loss, the decoder's one use, so
    the code retains as much of both latents as it can.
    """

    def __init__(self, latent_dim: int, out_dim: int,
                 rng: Optional[np.random.Generator] = None):
        if not out_dim < 2 * latent_dim:
            raise ConfigError(f"auto-fusion bottleneck {out_dim} must be smaller than "
                              f"the concatenated latents (2x{latent_dim})")
        self.latent_dim = latent_dim
        self.out_dim = out_dim
        self.encoder = DenseLayer(2 * latent_dim, out_dim, "tanh", rng, name="fusion.enc")
        self.decoder = DenseLayer(out_dim, 2 * latent_dim, "identity", rng, name="fusion.dec")

    def parameters(self) -> List[Tensor]:
        return self.encoder.parameters() + self.decoder.parameters()

    def fuse_batch(self, z_v: Tensor, z_t: Tensor,
                   rng: Optional[np.random.Generator] = None) -> FusionResult:
        _check_pair(z_v, z_t, self.latent_dim)
        z = nc.concat([z_v, z_t], axis=1)
        return FusionResult(z_fuse=self.encoder(z), z=z)


class GanFusionModule:
    """One adversarial module: a generator G(source + noise) and a
    discriminator D scoring vectors of the target modality's dimension."""

    def __init__(self, latent_dim: int, noise_dim: int, name: str,
                 rng: Optional[np.random.Generator] = None,
                 hidden_dim: Optional[int] = None):
        if noise_dim < 1:
            raise ConfigError("noise_dim must be positive")
        self.latent_dim = latent_dim
        self.noise_dim = noise_dim
        self.name = name
        hidden = hidden_dim if hidden_dim is not None else 2 * latent_dim
        self.gen_hidden = DenseLayer(latent_dim + noise_dim, hidden, "relu", rng,
                                     name=f"{name}.gen_hidden")
        self.gen_out = DenseLayer(hidden, latent_dim, "identity", rng, name=f"{name}.gen_out")
        self.disc_hidden = DenseLayer(latent_dim, hidden, "relu", rng,
                                      name=f"{name}.disc_hidden")
        self.disc_out = DenseLayer(hidden, 1, "sigmoid", rng, name=f"{name}.disc_out")

    def generator_parameters(self) -> List[Tensor]:
        return self.gen_hidden.parameters() + self.gen_out.parameters()

    def discriminator_parameters(self) -> List[Tensor]:
        return self.disc_hidden.parameters() + self.disc_out.parameters()

    def sample_noise(self, batch: int, rng: Optional[np.random.Generator]) -> np.ndarray:
        """Standard normal noise; zeros when no generator is supplied
        (deterministic inference)."""
        if rng is None:
            return np.zeros((batch, self.noise_dim))
        return rng.standard_normal((batch, self.noise_dim))

    def generate(self, source: Tensor, noise: np.ndarray) -> Tensor:
        if noise.shape != (source.shape[0], self.noise_dim):
            raise ShapeError(f"generate: noise {noise.shape} does not match "
                             f"({source.shape[0]}, {self.noise_dim})")
        g_in = nc.concat([source, Tensor(noise)], axis=1)
        return self.gen_out(self.gen_hidden(g_in))

    def discriminate(self, z_d: Tensor) -> Tensor:
        """Probability that z_d came from the real target distribution,
        clamped into [D_CLAMP, 1 - D_CLAMP]."""
        score = self.disc_out(self.disc_hidden(z_d))
        return nc.clamp(score, D_CLAMP, 1.0 - D_CLAMP)

    def adversarial(self, real: Tensor, z_g: Tensor) -> GanLossParts:
        """J_adv = E[log D(real)] + E[log(1 - D(z_g))] over the minibatch,
        the objective this module's discriminator ascends."""
        d_real = self.discriminate(real)
        d_fake = self.discriminate(z_g)
        j_adv = nc.add(nc.tmean(nc.tlog(d_real)), nc.tmean(nc.tlog(nc.sub(1.0, d_fake))))
        return GanLossParts(j_adv=j_adv, d_real=d_real, d_fake=d_fake)


@dataclass
class GanLossParts:
    j_adv: Tensor           # log D(real) + log(1 - D(z_g)), minibatch mean
    d_real: Tensor
    d_fake: Tensor


def gan_adv_loss(module: GanFusionModule, real: Tensor, source: Tensor,
                 rng: Optional[np.random.Generator] = None,
                 noise: Optional[np.ndarray] = None) -> GanLossParts:
    """Adversarial objective of one module over (batch, d) latents: generate
    from source, then score against real (GanFusionModule.adversarial).

    The discriminator ascends this; the generator descends its
    non-saturating surrogate (generator_loss).
    """
    if real.shape != source.shape:
        raise ShapeError(f"gan_adv_loss: latent shapes {real.shape} and {source.shape} differ")
    if noise is None:
        noise = module.sample_noise(source.shape[0], rng)
    return module.adversarial(real, module.generate(source, noise))


def generator_loss(parts: GanLossParts) -> Tensor:
    """Generator-side term to MINIMIZE for one module: the non-saturating
    form -E[log D(z_g)] in place of the minimax term E[log(1 - D(z_g))]."""
    return nc.neg(nc.tmean(nc.tlog(parts.d_fake)))


class GanFusion:
    """Both adversarial modules plus the feed-forward combiner.

    The combiner consumes the two generator outputs ([z_g_text; z_g_visual]);
    set append_raw_latents to also feed it the raw encoder latents.
    """

    def __init__(self, latent_dim: int, out_dim: int, append_raw_latents: bool = False,
                 rng: Optional[np.random.Generator] = None):
        self.latent_dim = latent_dim
        self.out_dim = out_dim
        self.noise_dim = max(1, latent_dim // 4)
        self.append_raw_latents = append_raw_latents
        self.text_module = GanFusionModule(latent_dim, self.noise_dim, "fusion.gan_t", rng)
        self.visual_module = GanFusionModule(latent_dim, self.noise_dim, "fusion.gan_v", rng)
        in_dim = 4 * latent_dim if append_raw_latents else 2 * latent_dim
        self.combiner = DenseLayer(in_dim, out_dim, "relu", rng, name="fusion.combiner")

    def parameters(self) -> List[Tensor]:
        """Every fusion parameter, discriminators included."""
        return self.generator_parameters() + self.discriminator_parameters()

    def generator_parameters(self) -> List[Tensor]:
        """Parameters updated by the main (generator-side) descent step."""
        return (self.text_module.generator_parameters()
                + self.visual_module.generator_parameters()
                + self.combiner.parameters())

    def discriminator_parameters(self) -> List[Tensor]:
        return (self.text_module.discriminator_parameters()
                + self.visual_module.discriminator_parameters())

    def fuse_batch(self, z_v: Tensor, z_t: Tensor,
                   rng: Optional[np.random.Generator] = None) -> FusionResult:
        _check_pair(z_v, z_t, self.latent_dim)
        batch = z_v.shape[0]
        noise_t = self.text_module.sample_noise(batch, rng)
        noise_v = self.visual_module.sample_noise(batch, rng)
        z_g_t = self.text_module.generate(z_t, noise_t)
        z_g_v = self.visual_module.generate(z_v, noise_v)
        pieces = [z_g_t, z_g_v]
        if self.append_raw_latents:
            pieces += [z_v, z_t]
        z_fuse = self.combiner(nc.concat(pieces, axis=1))
        return FusionResult(z_fuse=z_fuse, noise={"t": noise_t, "v": noise_v})


def auto_fusion_loss(z: Tensor, z_hat: Tensor) -> Tensor:
    """Reconstruction penalty ||z_hat - z||^2, minibatch mean over (batch, 2d) rows."""
    if z.shape != z_hat.shape:
        raise ShapeError(f"auto_fusion_loss: shapes {z.shape} and {z_hat.shape} differ")
    diff = nc.sub(z_hat, z)
    return nc.tmean(nc.tsum(nc.mul(diff, diff), axis=1))
