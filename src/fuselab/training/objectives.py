"""The classification objective and the main training objective.

main_objective is the one definition of what the main descent step
minimizes; the training loop steps on it and the gradient suite checks
it against finite differences:
  concat, unimodal  J = J_C
  auto              J = J_C + J_auto
  gan               J = J_C + (generator-side adversarial term)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from .. import numcore as nc
from ..exceptions import ConfigError, ShapeError
from ..fusion import AutoFusion, GanFusion, auto_fusion_loss, generator_loss
from ..numcore import Tensor


def batch_cross_entropy(targets: np.ndarray, probs: Tensor) -> Tensor:
    """Mean cross-entropy of predicted rows against one-hot target rows.

    probs pass through the clamped log, so a saturated softmax cannot
    produce an infinite loss.
    """
    if targets.shape != probs.shape:
        raise ShapeError(f"batch_cross_entropy: targets {targets.shape} vs "
                         f"predictions {probs.shape}")
    picked = nc.tsum(nc.mul(Tensor(targets), nc.tlog(probs)), axis=1)
    return nc.neg(nc.tmean(picked))


def one_hot(indices: Sequence[int], num_classes: int) -> np.ndarray:
    out = np.zeros((len(indices), num_classes))
    out[np.arange(len(indices)), list(indices)] = 1.0
    return out


@dataclass
class Objective:
    j: Tensor                 # what the main step minimizes
    j_c: Tensor
    j_f: float = 0.0          # the fusion objective: J_auto, or J_adv_t + J_adv_v
    parts: Dict[str, float] = field(default_factory=dict)


def main_objective(model, batch, latents: Dict[str, Tensor],
                   rng: Optional[np.random.Generator]) -> Objective:
    """The main objective of one prepared batch (model.prepare) from its
    encoder latents (model.head draws the adversarial noise from rng).

    The fusion term reads detached latents, a deliberate stop-gradient
    that confines it to the fusion module: J_C alone reaches the encoders.
    """
    space = model.label_space
    if (batch.labels < 0).any():
        raise ConfigError(f"dataset labels do not match the model label space "
                          f"{list(space.names)}")
    probs, result = model.head(latents, rng)
    targets = one_hot(batch.labels, space.num_classes)
    j_c = batch_cross_entropy(targets, probs)
    mech = model.mechanism

    if isinstance(mech, GanFusion):
        # one adversarial pass per module, on z_g regenerated from detached
        # latents with the noise fuse_batch drew: the values the combiner read
        parts, gen_terms = {}, []
        for key, module, real, source in (("t", mech.text_module, "visual", "text"),
                                          ("v", mech.visual_module, "text", "visual")):
            z_g = module.generate(latents[source].detach(), result.noise[key])
            adv = module.adversarial(latents[real].detach(), z_g)
            parts[f"j_adv_{key}"] = float(adv.j_adv.data)
            gen_terms.append(generator_loss(adv))
        term = nc.add(*gen_terms)
        j_f = parts["j_adv_t"] + parts["j_adv_v"]
        parts["gen_term"] = float(term.data)
    elif isinstance(mech, AutoFusion):
        z = result.z.detach()
        term = auto_fusion_loss(z, mech.decoder(mech.encoder(z)))
        j_f = float(term.data)
        parts = {"j_auto": j_f}
    else:
        return Objective(j_c, j_c)

    return Objective(nc.add(j_c, term), j_c, j_f, parts)
