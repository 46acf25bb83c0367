"""The gradient verification suite behind `fuselab gradcheck`.

Checks, at tolerance tol against central finite differences:
  - every tensor primitive at random points, and the fused gated
    recurrence in both directions,
  - each layer (dense, embedding, recurrent encoder, conv encoder),
  - the fusion losses (reconstruction and adversarial) and the batch
    cross-entropy,
  - end to end, for all three mechanisms on d=4, 2-class toys, the
    gradient the main training step takes (main_objective) through the
    one head each mechanism has (concat's projection, the GAN combiner
    over generator outputs and raw latents): the fusion term stops at
    the encoders, so the encoder parameters are checked against J_C and
    every other parameter against J (J_C, J_C + J_auto, or J_C + the
    generator-side adversarial term).

Random draws are seeded, and toy inputs carry noise so no relu sits
exactly on its kink (where finite differences are undefined).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

import numpy as np

from . import numcore as nc
from .datakit import SyntheticSpec, Vocab, generate_synthetic
from .fusion import (
    AutoFusion,
    GanFusionModule,
    auto_fusion_loss,
    gan_adv_loss,
    generator_loss,
)
from .layers import ConvVisualEncoder, DenseLayer, RecurrentTextEncoder
from .numcore import CheckReport, Tensor, grad_check, grad_check_params
from .training import ModelConfig, build_model
from .training.objectives import Objective, batch_cross_entropy, main_objective, one_hot


def _primitive_checks(rng: np.random.Generator, h: float, tol: float) -> List[CheckReport]:
    const = lambda shape: Tensor(rng.normal(size=shape))
    cases: List[Tuple[str, Tuple[int, ...], Callable]] = [
        ("op add", (5,), lambda c=const((5,)): lambda x: nc.tsum(nc.add(x, c))),
        ("op sub", (5,), lambda c=const((5,)): lambda x: nc.tsum(nc.sub(c, x))),
        ("op mul", (5,), lambda c=const((5,)): lambda x: nc.tsum(nc.mul(x, c))),
        ("op div", (5,), lambda c=const((5,)): lambda x: nc.tsum(
            nc.div(c, nc.add(nc.mul(x, x), 1.0)))),
        ("op matmul", (2, 4), lambda c=const((4, 3)): lambda x: nc.tsum(nc.matmul(x, c))),
        ("op linear", (2, 4), lambda w=const((3, 4)), b=const((3,)):
            lambda x: nc.tsum(nc.linear(x, w, b))),
        ("op concat", (4,), lambda c=const((3,)): lambda x: nc.squared_norm(
            nc.concat([x, c], axis=0))),
        ("op slice", (3, 3), lambda: lambda x: nc.tsum(x[1:, :2])),
        ("op take_rows", (3, 2), lambda: lambda x: nc.tsum(
            nc.take_rows(x, np.array([0, 2, 2])))),
        ("op reshape", (2, 3), lambda: lambda x: nc.squared_norm(nc.reshape(x, (6,)))),
        ("op sum", (3, 4), lambda: lambda x: nc.squared_norm(nc.tsum(x, axis=0))),
        ("op mean", (3, 4), lambda: lambda x: nc.squared_norm(nc.tmean(x, axis=1))),
        ("op log", (5,), lambda: lambda x: nc.tsum(nc.tlog(nc.add(nc.mul(x, x), 0.5)))),
        ("op tanh", (5,), lambda: lambda x: nc.tsum(nc.tanh(x))),
        ("op sigmoid", (5,), lambda: lambda x: nc.tsum(nc.sigmoid(x))),
        ("op relu", (5,), lambda: lambda x: nc.tsum(nc.relu(x))),
        ("op softmax", (2, 4), lambda: lambda x: nc.squared_norm(nc.softmax(x, axis=-1))),
        ("op squared_norm", (5,), lambda: lambda x: nc.squared_norm(x)),
        ("op row_scale", (3, 4), lambda c=const((3,)): lambda x: nc.tsum(
            nc.row_scale(x, c))),
        ("op conv2d", (1, 6, 6, 1), lambda k=const((3, 3, 1, 2)), b=const((2,)):
            lambda x: nc.squared_norm(nc.conv2d(x, k, b))),
        ("op maxpool2d", (1, 6, 6, 2), lambda: lambda x: nc.squared_norm(
            nc.maxpool2d(x, 2))),
    ]
    reports = []
    for label, shape, factory in cases:
        f = factory()
        point = Tensor(rng.normal(size=shape))
        report = grad_check(f, point, h=h, tol=tol, label=label)
        reports.append(report)

    # the fused recurrence, batch 2 with lengths 4 and 2, so the held
    # steps of the shorter row are checked too. Both directions read the
    # same (w, b) here, so w and b each get the sum of the two directions'
    # gradients; the tests check distinct direction weights. Its own
    # generator leaves the draws of every other check as they were
    own = np.random.default_rng(19)
    x = Tensor(own.normal(size=(2, 4, 3)), name="x")
    w = Tensor(own.uniform(-0.6, 0.6, size=(8, 5)), name="w")
    b = Tensor(own.normal(size=8), name="b")
    weights = Tensor(own.normal(size=(2, 4, 4)))
    lengths = np.array([4, 2])

    def recurrence():
        states = nc.gated_recurrence(x, w, b, w, b, lengths=lengths)
        return nc.tsum(nc.mul(states, weights))

    reports.append(_summary("op gated_recurrence",
                            grad_check_params(recurrence, [x, w, b], h, tol)))
    return reports


def _layer_checks(rng: np.random.Generator, h: float, tol: float) -> List[CheckReport]:
    reports: List[CheckReport] = []

    dense = DenseLayer(4, 3, "sigmoid", np.random.default_rng(1), name="dense")
    x = Tensor(rng.normal(size=4))
    reports.append(_summary("layer dense", grad_check_params(
        lambda: nc.squared_norm(dense(x)), dense.parameters(), h, tol)))

    text = RecurrentTextEncoder(vocab_size=9, embed_dim=3, hidden_dim=3,
                                latent_dim=4, rng=np.random.default_rng(2))
    ids = np.random.default_rng(3).integers(0, 9, size=(2, 6))
    target = np.random.default_rng(4).normal(size=(2, 4))
    reports.append(_summary("layer text_encoder", grad_check_params(
        lambda: nc.squared_norm(nc.sub(text.encode_batch(ids)[0], Tensor(target))),
        text.parameters(), h, tol)))

    visual = ConvVisualEncoder(in_channels=1, latent_dim=4, channels=(2, 3),
                               rng=np.random.default_rng(5))
    grids = Tensor(np.random.default_rng(6).normal(size=(2, 10, 10, 1)))
    vtarget = np.random.default_rng(7).normal(size=(2, 4))
    reports.append(_summary("layer visual_encoder", grad_check_params(
        lambda: nc.squared_norm(nc.sub(visual.encode_batch(grids), Tensor(vtarget))),
        visual.parameters(), h, tol)))
    return reports


def _loss_checks(rng: np.random.Generator, h: float, tol: float) -> List[CheckReport]:
    reports: List[CheckReport] = []

    mech = AutoFusion(latent_dim=4, out_dim=4, rng=np.random.default_rng(8))
    z_v = Tensor(rng.normal(size=(1, 4)))
    z_t = Tensor(rng.normal(size=(1, 4)))

    def auto_loss():
        out = mech.fuse_batch(z_v, z_t)
        return auto_fusion_loss(out.z, mech.decoder(out.z_fuse))

    reports.append(_summary("loss reconstruction",
                            grad_check_params(auto_loss, mech.parameters(), h, tol)))

    module = GanFusionModule(latent_dim=4, name="gan", rng=np.random.default_rng(9))
    real = Tensor(rng.normal(size=(2, 4)))
    source = Tensor(rng.normal(size=(2, 4)))
    noise = rng.standard_normal((2, 1))
    params = module.generator_parameters() + module.discriminator_parameters()
    reports.append(_summary("loss adversarial", grad_check_params(
        lambda: gan_adv_loss(module, real, source, noise=noise).j_adv, params, h, tol)))
    reports.append(_summary("loss generator_term", grad_check_params(
        lambda: generator_loss(gan_adv_loss(module, real, source, noise=noise)),
        module.generator_parameters(), h, tol)))

    targets = one_hot([1, 2], 3)
    reports.append(grad_check(
        lambda logits: batch_cross_entropy(targets, nc.softmax(logits)),
        Tensor(rng.normal(size=(2, 3))), h=h, tol=tol, label="loss batch_cross_entropy"))
    return reports


def _end_to_end_objective(model, pubs, seed: int = 17) -> Callable[[], Objective]:
    """The main objective of model on pubs, prepared once; each evaluation
    seeds a fresh rng, so every probe draws the same GAN noise."""
    batch = model.prepare(pubs)
    return lambda: main_objective(model, batch, model.encode(batch),
                                  np.random.default_rng(seed))


def end_to_end_check(model, pubs, h: float, tol: float) -> Dict[str, CheckReport]:
    """Per-parameter checks of the main step's gradient on pubs: the
    encoder parameters against J_C, which alone reaches them, and every
    other parameter against J. Parameters keep model.parameters() order."""
    objective = _end_to_end_objective(model, pubs)
    encoders = [p for encoder in (model.text_encoder, model.visual_encoder)
                if encoder is not None for p in encoder.parameters()]
    skip = {id(p) for p in encoders}
    rest = [p for p in model.parameters() if id(p) not in skip]
    return {**grad_check_params(lambda: objective().j_c, encoders, h, tol),
            **grad_check_params(lambda: objective().j, rest, h, tol)}


def _end_to_end_checks(h: float, tol: float) -> List[CheckReport]:
    ds = generate_synthetic(SyntheticSpec(task="xor-crossmodal", n=2, seed=11,
                                          noise=0.2))
    vocab = Vocab.from_texts([p.text for p in ds])
    reports: List[CheckReport] = []
    for fusion in ("concat", "auto", "gan"):
        config = ModelConfig(input_modes="multimodal", fusion=fusion, latent_dim=4,
                             embed_dim=3, hidden_dim=2, visual_channels=(2, 3),
                             normalize_text=False, seed=13)
        model = build_model(config, ds.label_space, vocab)
        reports.append(_summary(f"end_to_end {fusion}",
                                end_to_end_check(model, ds.publications, h, tol)))
    return reports


def _summary(label: str, reports) -> CheckReport:
    worst = max(reports.values(), key=lambda r: r.max_rel_err)
    return CheckReport(max_rel_err=worst.max_rel_err,
                       passed=all(r.passed for r in reports.values()),
                       worst_coord=worst.worst_coord,
                       analytic_at_worst=worst.analytic_at_worst,
                       numeric_at_worst=worst.numeric_at_worst,
                       label=f"{label} ({worst.label})")


def run_gradient_suite(tol: float = 1e-4, h: float = 1e-5,
                       seed: int = 0) -> List[CheckReport]:
    rng = np.random.default_rng(seed)
    reports: List[CheckReport] = []
    reports += _primitive_checks(rng, h, tol)
    reports += _layer_checks(rng, h, tol)
    reports += _loss_checks(rng, h, tol)
    reports += _end_to_end_checks(h, tol)
    return reports
