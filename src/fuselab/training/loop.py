"""The training loop, including alternating minimax updates for the
adversarial mechanism.

Per batch, the encoders run once and every step below reuses their
latents:
  concat      the head, then one descent step on J_C
  auto        the head, then one descent step on J_C + J_auto
  gan         one discriminator ascent step on J_adv (touching only
              discriminator parameters), then the head and one descent
              step on J_C + (generator-side adversarial term) touching
              encoders, generators, combiner, and classifier

Both steps use Adam at the configured lr. Each backward names the
parameters its optimizer updates, and that list alone decides what is
differentiated. The discriminator step reads the latents' values, not
their graph, generates z_g without recording a graph, and scores both
adversarial modules as one stacked pass, one node per layer
(fusion.GanStack).

The main step's objective is objectives.main_objective, the one the
gradient suite checks. Its fusion term stops at the encoders, which
descend J_C alone. The reported J_F column is always the fusion
objective itself (J_auto, or J_adv = text module + visual module); the J
column is the quantity the main step actually minimized.

All randomness (batch order, adversarial noise) flows from the single
configured seed, so identical runs produce bitwise-identical curves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import numcore as nc
from ..datakit import BatchStream, Dataset
from ..exceptions import ConfigError, DivergenceError, DomainError, InputError
from ..fusion import GanFusion
from ..metrics import MetricsReport, evaluate
from ..numcore import Tensor, clip_grad_norm
from .model import FusionModel, PreparedBatch
from .objectives import main_objective
from .optim import Adam

# Rows per inference batch: batching amortizes the per-op overhead, and a
# cap keeps peak memory flat however large the dataset.
PREDICT_BATCH = 64

# The recurrent parameters' gradients are clipped to this joint L2 norm.
CLIP_NORM = 5.0


@dataclass
class TrainConfig:
    epochs: int = 5
    batch_size: int = 32
    lr: float = 1e-3                     # Adam's, for the discriminator step too
    seed: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"lr must be finite and positive, got {self.lr}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch size must be positive")


@dataclass
class LossReport:
    step: int
    j_c: float
    j_f: float
    j: float
    parts: Dict[str, float] = field(default_factory=dict)

    CSV_HEADER = "step,J_C,J_F,J"

    def csv_row(self) -> str:
        return f"{self.step},{self.j_c!r},{self.j_f!r},{self.j!r}"


@dataclass
class TrainResult:
    model: FusionModel
    curves: List[LossReport]
    val_reports: List[MetricsReport] = field(default_factory=list)

    def loss_csv(self) -> str:
        lines = [LossReport.CSV_HEADER] + [r.csv_row() for r in self.curves]
        return "\n".join(lines) + "\n"


def _finite_or_raise(value: float, step: int, what: str) -> float:
    if not np.isfinite(value):
        raise DivergenceError(f"{what} became non-finite at step {step}", step=step)
    return value


def train(model: FusionModel, dataset: Dataset, config: TrainConfig,
          val_dataset: Optional[Dataset] = None) -> TrainResult:
    """Train in place and return the model with its per-step loss curves."""
    if len(dataset) < 1:
        raise InputError("train: empty dataset")
    if set(dataset.label_space.names) != set(model.label_space.names):
        raise ConfigError(f"dataset label space {list(dataset.label_space.names)} "
                          f"does not match model {list(model.label_space.names)}")

    main_opt = Adam(model.main_parameters(), config.lr)
    disc_opt = None
    if isinstance(model.mechanism, GanFusion):
        disc_opt = Adam(model.discriminator_parameters(), config.lr)

    rng = np.random.default_rng(config.seed)
    prepared = model.prepare(dataset.publications)
    stream = BatchStream(dataset, config.batch_size, seed=config.seed)

    curves: List[LossReport] = []
    val_reports: List[MetricsReport] = []
    step = 0

    for _ in range(config.epochs):
        for idx in stream.indices():
            try:
                curves.append(_train_step(model, prepared.take(idx), rng,
                                          main_opt, disc_opt, step))
            except DomainError as exc:
                raise DivergenceError(f"non-finite value at step {step}: {exc}",
                                      step=step)
            step += 1

        if val_dataset is not None and len(val_dataset):
            val_reports.append(evaluate_model(model, val_dataset))

    return TrainResult(model, curves, val_reports)


def _train_step(model: FusionModel, batch: PreparedBatch, rng: np.random.Generator,
                main_opt, disc_opt, step: int) -> LossReport:
    """One main descent step on main_objective over a prepared batch, after
    the discriminator step when a discriminator optimizer is given."""
    latents = model.encode(batch)
    if disc_opt is not None:
        step_discriminator(model, latents, disc_opt, rng, step)

    objective = main_objective(model, batch, latents, rng)
    j = objective.j
    _finite_or_raise(float(j.data), step, "training objective")
    grads = j.backward(main_opt.params)
    recurrent = model.recurrent_parameters()
    if recurrent:
        index = {id(p): i for i, p in enumerate(main_opt.params)}
        clip_grad_norm([grads[index[id(p)]] for p in recurrent], CLIP_NORM)
    main_opt.step(grads)

    return LossReport(
        step=step,
        j_c=_finite_or_raise(float(objective.j_c.data), step, "J_C"),
        j_f=_finite_or_raise(objective.j_f, step, "J_F"),
        j=float(j.data),
        parts=objective.parts,
    )


def step_discriminator(model: FusionModel, latents: Dict[str, Tensor], disc_opt,
                       rng: np.random.Generator, step: int) -> None:
    """One ascent update on J_adv, the sum of both modules' objectives,
    from one stacked pass; only discriminator parameters change.

    latents are the batch's encoder outputs, as the main step reads them.
    The step reads their values only, and generates z_g under no_graph:
    its backward is with respect to disc_opt.params alone, so neither the
    encoder graph nor the generators' would be walked for anything.
    """
    mech: GanFusion = model.mechanism
    real, source = mech.adversarial_inputs(latents["visual"], latents["text"])
    noise = mech.modules.sample_noise(source.shape[1], rng)
    with nc.no_graph():
        z_g = mech.modules.generate(source, noise)
    j_adv = nc.tsum(mech.modules.adversarial(real, z_g).j_adv)
    _finite_or_raise(float(j_adv.data), step, "J_adv")
    disc_opt.step(nc.neg(j_adv).backward(disc_opt.params))  # ascent on J_adv


def evaluate_model(model: FusionModel, dataset: Dataset) -> MetricsReport:
    truths, preds = predict_dataset(model, dataset)
    return evaluate(truths, preds, dataset.label_space)


def predict_dataset(model: FusionModel, dataset: Dataset) -> Tuple[List[str], List[str]]:
    """True and predicted labels. The dataset is prepared once, then
    scored in consecutive batches of PREDICT_BATCH without recording a
    graph or drawing noise, so each publication gets the label it gets
    in a dataset of its own; the argmax takes the lowest index on ties."""
    if len(dataset) < 1:
        raise InputError("evaluate: empty dataset")
    pubs = dataset.publications
    prepared = model.prepare(pubs)
    names = model.label_space.names
    preds: List[str] = []
    with nc.no_graph():
        for start in range(0, len(pubs), PREDICT_BATCH):
            chunk = prepared
            if len(pubs) > PREDICT_BATCH:
                chunk = prepared.take(np.arange(start, min(start + PREDICT_BATCH, len(pubs))))
            probs, _ = model.forward_batch(chunk)
            preds.extend(names[int(i)] for i in np.argmax(probs.data, axis=1))
    return [p.label for p in pubs], preds
