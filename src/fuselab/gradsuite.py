"""The gradient verification suite behind `fuselab gradcheck`.

Checks, at tolerance tol against central finite differences:
  - every tensor primitive at random points, the fused gated
    recurrence in both directions, and the one-node layer ops in the
    forms the models run (dense stacked, cell_means, conv2d with relu),
  - each layer (dense, embedding, recurrent encoder over a batch of
    uneven lengths, so its masked attention and held steps too, conv
    encoder),
  - the fusion losses (reconstruction and adversarial) and the batch
    cross-entropy,
  - end to end, for all three mechanisms on d=4, 2-class toys, the
    gradient the main training step takes (main_objective) through the
    one head each mechanism has (concat's projection, the GAN combiner
    over generator outputs and raw latents). J is J_C, J_C + J_auto, or
    J_C + the generator-side adversarial term, and the fusion term stops
    at the encoders. Each parameter's probes recompute only the parts of
    J it reaches (end_to_end_groups): an encoder's, J_C on its own
    modality's live latents; every other one's, J_C, the term or both,
    with the rest held at values computed once. A held part has the
    bits a probe would recompute, so no checked value changes.

Random draws are seeded, and toy inputs carry noise so no relu sits
exactly on its kink (where finite differences are undefined).
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Tuple

import numpy as np

from . import numcore as nc
from .datakit import SyntheticSpec, Vocab, generate_synthetic
from .fusion import (
    AutoFusion,
    GanFusionModule,
    GanStack,
    auto_fusion_loss,
    gan_adv_loss,
    generator_loss,
)
from .layers import ConvVisualEncoder, DenseLayer, RecurrentTextEncoder
from .numcore import CheckReport, Tensor, grad_check, grad_check_params
from .training import ModelConfig, build_model
from .training.objectives import classification_objective, fusion_term, main_objective


def _primitive_checks(rng: np.random.Generator, h: float, tol: float) -> List[CheckReport]:
    const = lambda shape: Tensor(rng.normal(size=shape))
    cases: List[Tuple[str, Tuple[int, ...], Callable]] = [
        ("op add", (5,), lambda c=const((5,)): lambda x: nc.tsum(nc.add(x, c))),
        ("op sub", (5,), lambda c=const((5,)): lambda x: nc.tsum(nc.sub(c, x))),
        ("op mul", (5,), lambda c=const((5,)): lambda x: nc.tsum(nc.mul(x, c))),
        ("op div", (5,), lambda c=const((5,)): lambda x: nc.tsum(
            nc.div(c, nc.add(nc.mul(x, x), 1.0)))),
        ("op matmul", (2, 4), lambda c=const((4, 3)): lambda x: nc.tsum(nc.matmul(x, c))),
        ("op concat", (4,), lambda c=const((3,)): lambda x: nc.squared_norm(
            nc.concat([x, c], axis=0))),
        ("op take_rows", (3, 2), lambda: lambda x: nc.tsum(
            nc.take_rows(x, np.array([0, 2, 2])))),
        ("op reshape", (2, 3), lambda: lambda x: nc.squared_norm(nc.reshape(x, (6,)))),
        ("op sum", (3, 4), lambda: lambda x: nc.squared_norm(nc.tsum(x, axis=0))),
        ("op mean", (3, 4), lambda: lambda x: nc.squared_norm(nc.tmean(x, axis=1))),
        ("op log", (5,), lambda: lambda x: nc.tsum(nc.tlog(nc.add(nc.mul(x, x), 0.5)))),
        ("op tanh", (5,), lambda: lambda x: nc.tsum(nc.tanh(x))),
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
        point = Tensor(rng.normal(size=shape))
        reports.append(grad_check(factory(), point, h=h, tol=tol, label=label))

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
    reports += _layer_op_checks(h, tol)
    return reports


def _layer_op_checks(h: float, tol: float) -> List[CheckReport]:
    """The one-node layer ops in the forms the models run them that the
    primitive checks do not reach: dense stacked two deep, cell_means
    over uneven cells and conv2d with its relu. Each draws from its own
    generator."""
    reports: List[CheckReport] = []
    own = np.random.default_rng(23)
    x = Tensor(own.normal(size=(2, 3, 4)), name="x")
    ws = [Tensor(own.normal(size=(3, 4)), name=f"w{k}") for k in range(2)]
    bs = [Tensor(own.normal(size=3), name=f"b{k}") for k in range(2)]
    weights = Tensor(own.normal(size=(2, 3, 3)))
    reports.append(_summary("op dense stacked", grad_check_params(
        lambda: nc.tsum(nc.mul(nc.dense(x, ws, bs, "sigmoid"), weights)),
        [x] + ws + bs, h, tol)))

    own = np.random.default_rng(29)
    grid = Tensor(own.normal(size=(2, 5, 5, 3)), name="x")
    reports.append(_summary("op cell_means", grad_check_params(
        lambda: nc.squared_norm(nc.cell_means(grid, 2)), [grid], h, tol)))

    own = np.random.default_rng(31)
    grid = Tensor(own.normal(size=(1, 6, 6, 1)), name="x")
    kernel = Tensor(own.normal(size=(3, 3, 1, 2)), name="kernel")
    bias = Tensor(own.normal(size=2), name="bias")
    reports.append(_summary("op conv2d relu", grad_check_params(
        lambda: nc.squared_norm(nc.conv2d(grid, kernel, bias, relu=True)),
        [grid, kernel, bias], h, tol)))
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
    lengths = np.array([6, 3])  # the second row's steps past 3 are padding
    target = np.random.default_rng(4).normal(size=(2, 4))
    reports.append(_summary("layer text_encoder", grad_check_params(
        lambda: nc.squared_norm(nc.sub(text.encode_batch(ids, lengths)[0], Tensor(target))),
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

    # one module, run as the stack of one that training runs two of
    module = GanFusionModule(latent_dim=4, name="gan", rng=np.random.default_rng(9))
    stack = GanStack([module])
    real = Tensor(rng.normal(size=(1, 2, 4)))
    source = Tensor(rng.normal(size=(1, 2, 4)))
    noise = rng.standard_normal((1, 2, 1))
    params = module.generator_parameters() + module.discriminator_parameters()
    reports.append(_summary("loss adversarial", grad_check_params(
        lambda: gan_adv_loss(stack, real, source, noise=noise).j_adv, params, h, tol)))
    reports.append(_summary("loss generator_term", grad_check_params(
        lambda: generator_loss(gan_adv_loss(stack, real, source, noise=noise)),
        module.generator_parameters(), h, tol)))

    labels = np.array([1, 2])
    reports.append(grad_check(
        lambda logits: nc.cross_entropy(labels, nc.softmax(logits)),
        Tensor(rng.normal(size=(2, 3))), h=h, tol=tol, label="loss batch_cross_entropy"))
    return reports


# seeds the rng of every end-to-end evaluation, so every probe draws the
# same GAN noise
END_TO_END_SEED = 17


def end_to_end_groups(model, batch) -> List[Tuple[str, Callable[[], Tensor], List[Tensor]]]:
    """The probe groups of the main step's gradient on a prepared batch:
    consecutive runs of model.parameters(), each with its group and the
    objective its parameters are probed against, which recomputes only
    the parts of J = J_C + term that they reach and holds every other
    part at its value from latents encoded once:
      "text", "visual"  an encoder's: J_C on that modality's live latents
      "J_C"             reached by J_C alone: J_C + the fixed term (or J_C
                        when the mechanism has no term)
      "term"            reached by the term alone: the fixed J_C + term
      "J"               reached by both, or by neither: J
    Which parts a head parameter reaches is read from the backward of J_C
    and of the term. A fixed part holds the bits a probe would recompute,
    so every objective's value is J's (J_C's for the encoders).

    Every evaluation draws from one generator, put back to its state as
    seeded with END_TO_END_SEED first, so it draws what a fresh
    np.random.default_rng(END_TO_END_SEED) would, without building one
    per probe."""
    with nc.no_graph():
        latents = model.encode(batch)
    rng = np.random.default_rng(END_TO_END_SEED)
    seeded_state = rng.bit_generator.state

    def seeded() -> np.random.Generator:
        rng.bit_generator.state = seeded_state
        return rng

    def seeded_j_c(live: Dict[str, Tensor]):
        return classification_objective(model, batch, {**latents, **live}, seeded())

    j_c, result = seeded_j_c({})
    term = fusion_term(model, latents, result)[0]
    group: Dict[int, str] = {}
    objectives: Dict[str, Callable[[], Tensor]] = {}
    for modality, encoder in model.encoders().items():
        group.update((id(p), modality) for p in encoder.parameters())
        objectives[modality] = lambda m=modality: seeded_j_c(
            model.encode_modality(batch, m))[0]
    head = [p for p in model.parameters() if id(p) not in group]
    by_j_c = j_c.backward(head)
    by_term = [None] * len(head) if term is None else term.backward(head)
    for p, g_c, g_t in zip(head, by_j_c, by_term):
        group[id(p)] = ("J" if (g_c is None) == (g_t is None)
                        else "J_C" if g_t is None else "term")

    fixed_j_c = j_c.detach()
    fixed_term = None if term is None else term.detach()

    def j_c_alone() -> Tensor:
        live = seeded_j_c({})[0]
        return live if fixed_term is None else nc.add(live, fixed_term)

    objectives["J_C"] = j_c_alone
    objectives["term"] = lambda: nc.add(fixed_j_c, fusion_term(model, latents, result)[0])
    objectives["J"] = lambda: main_objective(model, batch, latents, seeded()).j
    return [(name, objectives[name], list(run)) for name, run in
            itertools.groupby(model.parameters(), key=lambda p: group[id(p)])]


def end_to_end_check(model, pubs, h: float, tol: float) -> Dict[str, CheckReport]:
    """Per-parameter checks of the main step's gradient on pubs, each group
    of end_to_end_groups against its own objective. Parameters keep
    model.parameters() order."""
    reports: Dict[str, CheckReport] = {}
    for _, objective, params in end_to_end_groups(model, model.prepare(pubs)):
        reports.update(grad_check_params(objective, params, h, tol))
    return reports


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
