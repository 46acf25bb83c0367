"""The classification objective and the main training objective.

main_objective is the one definition of what the main descent step
minimizes; the training loop steps on it and the gradient suite checks
it against finite differences:
  concat, unimodal  J = J_C
  auto              J = J_C + J_auto
  gan               J = J_C + (generator-side adversarial term)
J_C is classification_objective, one nc.cross_entropy node over the
softmax rows at the class indices model.prepare read from the labels;
the term is fusion_term, and main_objective adds the two. The suite probes each parameter against
only the parts of J it reaches: the encoders against J_C alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from .. import numcore as nc
from ..exceptions import ConfigError
from ..fusion import (AutoFusion, FusionResult, GanFusion, auto_fusion_loss, gan_adv_loss,
                      generator_loss)
from ..numcore import Tensor


@dataclass
class Objective:
    j: Tensor                 # what the main step minimizes
    j_c: Tensor
    j_f: float = 0.0          # the fusion objective: J_auto, or J_adv_t + J_adv_v
    parts: Dict[str, float] = field(default_factory=dict)


def classification_objective(model, batch, latents: Dict[str, Tensor],
                             rng: Optional[np.random.Generator]
                             ) -> Tuple[Tensor, Optional[FusionResult]]:
    """J_C of one prepared batch (model.prepare) from its encoder latents,
    plus the fusion auxiliaries of a multimodal model (model.head draws
    the adversarial noise from rng)."""
    if (batch.labels < 0).any():
        raise ConfigError(f"dataset labels do not match the model label space "
                          f"{list(model.label_space.names)}")
    probs, result = model.head(latents, rng)
    return nc.cross_entropy(batch.labels, probs), result


def fusion_term(model, latents: Dict[str, Tensor], result: Optional[FusionResult]
                ) -> Tuple[Optional[Tensor], float, Dict[str, float]]:
    """The mechanism's term of J (None for concat and unimodal models),
    the fusion objective J_F and its parts, from a batch's encoder latents
    and the FusionResult that classification_objective returned for them.

    The term reads detached latents, a deliberate stop-gradient that
    confines it to the fusion module: J_C alone reaches the encoders.
    The GAN term therefore regenerates z_g from the latents' values (3
    nodes for both modules) rather than reading fuse_batch's live z_g.
    """
    mech = model.mechanism
    if isinstance(mech, GanFusion):
        # one stacked adversarial pass for both modules, on z_g regenerated
        # from the latents' values with the noise fuse_batch drew: the
        # values the combiner read, with no path back to the encoders
        real, source = mech.adversarial_inputs(latents["visual"], latents["text"])
        adv = gan_adv_loss(mech.modules, real, source, noise=result.noise)
        term = generator_loss(adv)
        j_adv_t, j_adv_v = (float(v) for v in adv.j_adv.data)
        return term, j_adv_t + j_adv_v, {"j_adv_t": j_adv_t, "j_adv_v": j_adv_v,
                                         "gen_term": float(term.data)}
    if isinstance(mech, AutoFusion):
        z = result.z.detach()
        term = auto_fusion_loss(z, mech.decoder(mech.encoder(z)))
        j_f = float(term.data)
        return term, j_f, {"j_auto": j_f}
    return None, 0.0, {}


def main_objective(model, batch, latents: Dict[str, Tensor],
                   rng: Optional[np.random.Generator]) -> Objective:
    """The main objective of one prepared batch from its encoder latents:
    classification_objective's J_C plus fusion_term's term."""
    j_c, result = classification_objective(model, batch, latents, rng)
    term, j_f, parts = fusion_term(model, latents, result)
    if term is None:
        return Objective(j_c, j_c)
    return Objective(nc.add(j_c, term), j_c, j_f, parts)
