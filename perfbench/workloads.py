"""The benchmark's workloads, driven through fuselab's public API.

Each workload makes its inputs from the seed (prepare), builds what a
user builds before the work starts (setup, timed), warms up, and then
repeats a unit of work. A unit reports its wall time, the items it
handled, how many of its outputs were checked and found wrong, and its
windows: pieces whose work repeats exactly in every other window of the
run (an epoch, a pass over the requests, a suite), each with its wall
time, items and the latency of each operation inside it. Window and
operation times are scaled to the nominal host speed from the readings
taken between them (hostspeed).

Library functions are called through their module (``training.train``,
not a name imported into this file), so that the tracer's wrappers,
which rebind the names inside fuselab, see every call.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

import fuselab.datakit as datakit
import fuselab.experiment as experiment
import fuselab.gradsuite as gradsuite
import fuselab.metrics as metrics
import fuselab.training as training
from fuselab.config import load_experiment_config
from fuselab.datakit import Dataset, SyntheticSpec

import socialgen
from hostspeed import Timeline
from tracing import ProbeClock, StepClock


@dataclass
class Window:
    """A piece of a unit whose work repeats exactly in the run's other
    windows: its wall time and the latency of each operation inside it,
    both at the nominal host speed, the items it handled, and its wall
    time as measured."""

    wall_s: float
    items: int
    op_s: List[float]
    raw_wall_s: float


@dataclass
class Unit:
    """One unit of work: its wall time, the items it handled, its windows,
    and how many outputs were checked and found wrong."""

    wall_s: float
    items: int
    windows: List[Window]
    attempted: int
    failed: int
    steps: int = 0


@dataclass
class Outcome:
    """Checks made after the timed units, and the quality they measured."""

    quality: float
    attempted: int
    failed: int
    notes: dict = field(default_factory=dict)


class Workload:
    name = ""
    item = ""       # what items_per_s counts
    operation = ""  # what one op_ms sample times

    def __init__(self, root: Path, timeline: Timeline):
        self.root = root
        self.timeline = timeline

    def prepare(self, seed: int, workdir: Path) -> None:
        raise NotImplementedError

    def setup(self) -> Optional[Tuple[float, float]]:
        """Build what a user builds before the work starts. A set-up that
        times itself returns (seconds at the nominal host speed, seconds
        as measured); otherwise the caller times it."""
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def unit(self) -> Unit:
        raise NotImplementedError

    def finish(self) -> Outcome:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def _window(self, span: Tuple[float, float], items: int, op_spans) -> Window:
        """The window over span, from perf_counter() stamps, with operations
        over op_spans; the host speed readings inside it are left out."""
        return Window(wall_s=self.timeline.scaled(*span), items=items,
                      op_s=[self.timeline.scaled(a, b) for a, b in op_spans],
                      raw_wall_s=self.timeline.unread(*span))


def _curve_rows(result) -> List[str]:
    return result.loss_csv().splitlines()[1:]


def _mismatches(rows: List[str], reference: List[str]) -> int:
    return sum(a != b for a, b in zip(rows, reference)) + abs(len(rows) - len(reference))


class TrainWorkload(Workload):
    """One unit is one train() call on a freshly built model, with
    per-epoch validation as ``fuselab train`` runs it; a window is one
    epoch, its validation pass included. Model and training seeds come
    from the shipped config; the data come from the seed and are written
    as JSON Lines, which set-up reads back."""

    item = "trained sample (train-split publication x epoch)"
    operation = "main training step, from the end of the step or validation pass before it"
    config_file = ""
    n = 0
    split: Tuple[float, float, float] = (0.8, 0.1, 0.1)
    train_overrides: dict = {}
    f1_floor = 0.0

    def __init__(self, root: Path, timeline: Timeline):
        super().__init__(root, timeline)
        self.clock = StepClock(timeline)
        self.reference: Optional[List[str]] = None
        self.first_model = None

    def prepare(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.config = load_experiment_config(self.root / "configs" / self.config_file)
        self.train_config = dataclasses.replace(self.config.train, **self.train_overrides)
        self.path = workdir / "train.jsonl"
        datakit.save_jsonl(self.generate(seed), self.path)
        self.clock.install()

    def generate(self, seed: int) -> Dataset:
        raise NotImplementedError

    def setup(self) -> None:
        dataset = datakit.load_jsonl(self.path)
        self.train_ds, self.val_ds, self.test_ds = datakit.split_dataset(
            dataset, self.split, seed=self.seed)
        self.vocab = experiment.build_vocab(self.train_ds, self.config.model,
                                            self.config.vocab_size)
        self.model = training.build_model(self.config.model, self.train_ds.label_space,
                                          self.vocab)

    def _fresh_model(self):
        return training.build_model(self.config.model, self.train_ds.label_space, self.vocab)

    def warm_up(self) -> None:
        batch = self.train_config.batch_size
        small = Dataset(self.train_ds.publications[: 4 * batch], self.train_ds.label_space)
        val = Dataset(self.val_ds.publications[:8], self.val_ds.label_space)
        training.train(self.model, small,
                       dataclasses.replace(self.train_config, epochs=1), val_dataset=val)

    def unit(self) -> Unit:
        model = self._fresh_model()
        self.clock.watch(model)
        self.timeline.read()
        start = time.perf_counter()
        result = training.train(model, self.train_ds, self.train_config,
                                val_dataset=self.val_ds)
        end = time.perf_counter()
        epochs = self.clock.epochs(start)
        steps = sum(len(step_spans) for _, step_spans in epochs)
        if len(epochs) != self.train_config.epochs or steps != len(result.curves):
            raise RuntimeError(f"step clock saw {len(epochs)} epochs of {steps} main "
                               f"steps, train() ran {self.train_config.epochs} epochs "
                               f"of {len(result.curves)}")
        rows = _curve_rows(result)
        if self.reference is None:
            self.reference = rows
            self.first_model = model
        self.timeline.read()
        return Unit(wall_s=self.timeline.unread(start, end),
                    items=len(self.train_ds) * len(epochs),
                    windows=[self._window(epoch, len(self.train_ds), step_spans)
                             for epoch, step_spans in epochs],
                    attempted=len(rows), failed=_mismatches(rows, self.reference),
                    steps=steps)

    def finish(self) -> Outcome:
        report = training.evaluate_model(self.first_model, self.test_ds)
        return Outcome(quality=report.macro_f1, attempted=1,
                       failed=int(report.macro_f1 < self.f1_floor),
                       notes={"test_publications": len(self.test_ds),
                              "f1_floor": self.f1_floor})

    def close(self) -> None:
        self.clock.uninstall()


class TrainXorGan(TrainWorkload):
    name = "train-xor-gan"
    config_file = "xor-gan.ini"
    n = 1280                  # 1024 train (32 full batches of 32), 64 validation, 192 test
    split = (0.8, 0.05, 0.15)
    train_overrides = {"epochs": 8}
    f1_floor = 0.9

    def generate(self, seed: int) -> Dataset:
        return datakit.generate_synthetic(
            SyntheticSpec(task="xor-crossmodal", n=self.n, seed=seed))


class TrainTextSocial(TrainWorkload):
    name = "train-text-social"
    config_file = "text-only.ini"
    n = 400                   # 240 train, 40 validation, 120 test
    split = (0.6, 0.1, 0.3)
    train_overrides = {"epochs": 2, "batch_size": 4, "lr": 0.003}
    f1_floor = 0.75

    def generate(self, seed: int) -> Dataset:
        generator = socialgen.SocialPostGenerator(seed)
        dataset = generator.dataset(self.n)
        self.properties = socialgen.describe(generator.properties)
        return dataset

    def finish(self) -> Outcome:
        outcome = super().finish()
        outcome.notes["posts"] = self.properties
        return outcome


class EvalXorGan(Workload):
    """Batch-of-one inference with a saved GAN-fusion model. One unit
    scores the whole held-out set as a series of evaluate_model requests.

    The model is trained and saved by a child process, so that this
    process's peak RSS covers loading and inference only. It is the same
    for every seed, so it is kept beside the runs' work directories under
    a digest of fuselab's sources, the config and this file, and trained
    again only when one of them changes."""

    name = "eval-xor-gan"
    item = "publication scored by evaluate_model"
    operation = "one evaluate_model request over 32 publications"
    model_data_seed = 1       # the saved model is the same for every seed
    model_n = 1280
    model_epochs = 8
    n = 640
    request = 32
    noise = 0.1

    train_code = ("import sys; sys.path[:0] = [{src!r}, {here!r}]; import workloads; "
                  "workloads.EvalXorGan.train_model({root!r}, {path!r})")

    def __init__(self, root: Path, timeline: Timeline):
        super().__init__(root, timeline)
        self.reports: Optional[list] = None
        self.predictions: Optional[List[List[str]]] = None

    @classmethod
    def train_model(cls, root: str, path: str) -> None:
        """Train the xor-gan.ini model and save it to path."""
        config = load_experiment_config(Path(root) / "configs" / "xor-gan.ini")
        data = datakit.generate_synthetic(
            SyntheticSpec(task="xor-crossmodal", n=cls.model_n, seed=cls.model_data_seed))
        train_ds, _, _ = datakit.split_dataset(data, (0.8, 0.1, 0.1),
                                               seed=cls.model_data_seed)
        model = training.build_model(config.model, train_ds.label_space,
                                     experiment.build_vocab(train_ds, config.model))
        training.train(model, train_ds,
                       dataclasses.replace(config.train, epochs=cls.model_epochs))
        training.save_model(model, path)

    def _model_digest(self) -> str:
        digest = hashlib.sha256()
        sources = sorted((self.root / "src" / "fuselab").rglob("*"))
        for path in sources + [self.root / "configs" / "xor-gan.ini", Path(__file__).resolve()]:
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(self.root)).encode() + b"\0")
                digest.update(path.read_bytes())
        return digest.hexdigest()[:16]

    def prepare(self, seed: int, workdir: Path) -> None:
        self.model_path = workdir.parent / f"xor-gan-{self._model_digest()}.fuse"
        if not self.model_path.is_file():
            fresh = workdir / "xor-gan.fuse"
            code = self.train_code.format(src=str(self.root / "src"),
                                          here=str(Path(__file__).resolve().parent),
                                          root=str(self.root), path=str(fresh))
            subprocess.run([sys.executable, "-c", code], cwd=self.root, check=True,
                           capture_output=True, timeout=600)
            os.replace(fresh, self.model_path)
        heldout = datakit.generate_synthetic(SyntheticSpec(
            task="xor-crossmodal", n=self.n, seed=seed, noise=self.noise))
        self.data_path = workdir / "heldout.jsonl"
        datakit.save_jsonl(heldout, self.data_path)

    def setup(self) -> None:
        self.model = training.load_model(self.model_path)
        self.dataset = datakit.load_jsonl(self.data_path)
        pubs, space = self.dataset.publications, self.dataset.label_space
        self.requests = [Dataset(pubs[i : i + self.request], space)
                         for i in range(0, len(pubs), self.request)]

    def _predict(self) -> List[List[str]]:
        return [training.predict_dataset(self.model, request)[1] for request in self.requests]

    def warm_up(self) -> None:
        """Also fixes the reference: each request's predicted labels, and
        the reports they give."""
        space = self.dataset.label_space
        self.predictions = self._predict()
        self.reports = [metrics.evaluate([p.label for p in request], preds, space)
                        for request, preds in zip(self.requests, self.predictions)]

    def unit(self) -> Unit:
        spans, reports = [], []
        self.timeline.read()
        for request in self.requests:
            start = time.perf_counter()
            reports.append(training.evaluate_model(self.model, request))
            spans.append((start, time.perf_counter()))
            self.timeline.read()
        failed = sum(len(req) for req, got, ref in zip(self.requests, reports, self.reports)
                     if got != ref)
        window = self._window((spans[0][0], spans[-1][1]), len(self.dataset), spans)
        return Unit(wall_s=window.raw_wall_s, items=len(self.dataset), windows=[window],
                    attempted=len(self.dataset), failed=failed)

    def finish(self) -> Outcome:
        """Every publication gets a label; the labels of each request match
        the reference one by one, when predicted again request by request
        and when predicted over the whole set at once."""
        space = self.dataset.label_space
        reference = [label for preds in self.predictions for label in preds]
        truths, whole = training.predict_dataset(self.model, self.dataset)
        again = [label for preds in self._predict() for label in preds]
        failed = 0
        for preds in (whole, again):
            failed += sum(p != r or p not in space.names for p, r in zip(preds, reference))
            failed += abs(len(preds) - len(self.dataset))
        report = metrics.evaluate(truths, whole, space)
        return Outcome(quality=report.macro_f1, attempted=2 * len(self.dataset), failed=failed,
                       notes={"publications": len(self.dataset), "noise": self.noise})


class Gradcheck(Workload):
    """The gradient suite behind ``fuselab gradcheck`` at tol 1e-4. A window
    is one suite."""

    name = "gradcheck"
    item = "gradient check in run_gradient_suite"
    operation = "one evaluation of a check's objective (analytic pass or finite-difference probe)"
    tol = 1e-4
    setup_code = ("import sys, time; sys.path[:0] = [{src!r}, {here!r}]; "
                  "from hostspeed import Timeline; timeline = Timeline(); timeline.read(); "
                  "start = time.perf_counter(); import fuselab.gradsuite; "
                  "end = time.perf_counter(); timeline.read(); "
                  "print(timeline.scaled(start, end), end - start)")

    def __init__(self, root: Path, timeline: Timeline):
        super().__init__(root, timeline)
        self.clock = ProbeClock(timeline)
        self.passed: List[float] = []

    def prepare(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.clock.install()

    def setup(self) -> Tuple[float, float]:
        """The suite reads no inputs; its set-up is importing the package
        in a fresh interpreter. The child times the import between its own
        host speed readings, taken once numpy (which they use) is loaded,
        since it may run on the other vCPU."""
        code = self.setup_code.format(src=str(self.root / "src"),
                                      here=str(Path(__file__).resolve().parent))
        child = subprocess.run([sys.executable, "-c", code], cwd=self.root, check=True,
                               capture_output=True, text=True, timeout=120)
        scaled, measured = (float(x) for x in child.stdout.split())
        return scaled, measured

    def warm_up(self) -> None:
        from fuselab import numcore as nc
        from fuselab.layers import DenseLayer

        rng = np.random.default_rng(0)
        nc.grad_check(lambda x: nc.tsum(nc.tanh(x)), nc.Tensor(rng.normal(size=8)))
        dense = DenseLayer(4, 3, "sigmoid", rng)
        x = nc.Tensor(rng.normal(size=4))
        nc.grad_check_params(lambda: nc.squared_norm(dense(x)), dense.parameters())

    def unit(self) -> Unit:
        self.clock.probes.clear()
        self.timeline.read()
        start = time.perf_counter()
        reports = gradsuite.run_gradient_suite(tol=self.tol, seed=self.seed)
        end = time.perf_counter()
        self.timeline.read()
        failed = sum(not r.passed for r in reports)
        self.passed.append((len(reports) - failed) / len(reports))
        window = self._window((start, end), len(reports), self.clock.probes)
        return Unit(wall_s=window.raw_wall_s, items=len(reports), windows=[window],
                    attempted=len(reports), failed=failed)

    def finish(self) -> Outcome:
        return Outcome(quality=min(self.passed), attempted=0, failed=0)

    def close(self) -> None:
        self.clock.uninstall()


WORKLOADS = {w.name: w for w in (TrainXorGan, TrainTextSocial, EvalXorGan, Gradcheck)}
