"""Objectives, the training loop, prediction, and persistence."""

import dataclasses
import hashlib
import json
import math
import struct
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from fuselab import numcore as nc
from fuselab.datakit import (
    Dataset,
    LabelSpace,
    Publication,
    SyntheticSpec,
    Vocab,
    generate_synthetic,
    split_dataset,
)
from fuselab.exceptions import (
    ConfigError,
    DivergenceError,
    FormatError,
    InputError,
    ShapeError,
)
from fuselab.fusion import GanFusion
from fuselab.numcore import Tensor
from fuselab.training import (
    FusionModel,
    ModelConfig,
    TrainConfig,
    build_model,
    evaluate_model,
    load_model,
    predict_dataset,
    save_model,
    train,
)
from fuselab.training.loop import PREDICT_BATCH
from fuselab.training.model import PreparedBatch

ROOT = Path(__file__).resolve().parent.parent


def _dataset(n=200, seed=1, task="xor-crossmodal"):
    return generate_synthetic(SyntheticSpec(task=task, n=n, seed=seed))


def _model(ds, fusion="concat", seed=3, **extra):
    base = dict(latent_dim=8, embed_dim=6, hidden_dim=4, visual_channels=(3, 5),
                normalize_text=False, seed=seed)
    base.update(extra)
    mc = ModelConfig(input_modes="multimodal", fusion=fusion, **base)
    vocab = Vocab.from_texts([p.text for p in ds])
    return build_model(mc, ds.label_space, vocab)


def _row_ce(label, y):
    """nc.cross_entropy of one class index against one prediction row."""
    return nc.cross_entropy(np.array([label]), Tensor([y]))


class TestCrossEntropy:
    def test_perfect_prediction_is_zero(self):
        assert _row_ce(1, [0.0, 1.0, 0.0]).data.item() == 0.0

    def test_uniform_prediction_is_log_c(self):
        assert abs(_row_ce(0, [0.5, 0.5]).data.item() - math.log(2)) < 1e-12
        loss4 = _row_ce(2, [0.25] * 4)
        assert abs(loss4.data.item() - math.log(4)) < 1e-12

    def test_hand_value(self):
        loss = _row_ce(0, [0.8, 0.2])
        assert abs(loss.data.item() - 0.223144) < 1e-6
        assert abs(loss.data.item() - (-math.log(0.8))) < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            nc.cross_entropy(np.array([0, 1]), Tensor([[1.0, 0.0, 0.0]]))

    @pytest.mark.parametrize("labels", [[-1, 0], [0, 3], [[0], [1]], [0.0, 1.0]],
                             ids=["minus-one", "num-classes", "column", "floats"])
    def test_labels_outside_the_classes_or_misshapen(self, labels):
        """Labels -1 and C, an (n, 1) label column and float labels are
        each a ShapeError, as take_rows rejects an index out of range."""
        with pytest.raises(ShapeError):
            nc.cross_entropy(np.array(labels), Tensor(np.full((2, 3), 1.0 / 3)))

    def test_nonnegative_for_one_hot_targets(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            y = nc.softmax(Tensor(rng.normal(size=5))).data
            assert _row_ce(rng.integers(5), y).data.item() >= 0.0

    def test_gradient_matches_finite_differences(self):
        labels = np.array([1])

        def f(logits):
            return nc.cross_entropy(labels, nc.softmax(logits))

        report = nc.grad_check(f, Tensor(np.random.default_rng(2).normal(size=(1, 3))),
                               h=1e-5, tol=1e-4)
        assert report.passed, report

    def test_batch_loss_is_mean_of_sample_losses(self):
        probs = Tensor(np.array([[0.8, 0.2], [0.4, 0.6]]))
        plain = nc.cross_entropy(np.array([0, 1]), probs).data.item()
        expected = (-math.log(0.8) - math.log(0.6)) / 2
        assert abs(plain - expected) < 1e-12


class TestTrainLoop:
    def test_concat_objective_is_classifier_only(self):
        ds = _dataset(120)
        model = _model(ds, "concat")
        res = train(model, ds, TrainConfig(epochs=1, batch_size=30, seed=0))
        for rec in res.curves:
            assert rec.j == rec.j_c
            assert rec.j_f == 0.0

    def test_auto_fusion_descends_in_200_steps(self):
        ds = _dataset(320, seed=7)
        model = _model(ds, "auto", fusion_out_dim=8)
        # 320 samples / 16 per batch = 20 steps per epoch; 10 epochs = 200
        res = train(model, ds, TrainConfig(epochs=10, batch_size=16, seed=3))
        assert len(res.curves) == 200
        first = res.curves[0].j_f
        last = res.curves[-1].j_f
        assert last < 0.5 * first, (first, last)

    def test_deterministic_loss_curves(self):
        ds = _dataset(160)

        def run():
            model = _model(ds, "gan", fusion_out_dim=8)
            res = train(model, ds, TrainConfig(epochs=2, batch_size=32, seed=9))
            return [(r.j_c, r.j_f, r.j) for r in res.curves]

        assert run() == run()

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_divergence_raises_with_step_index(self):
        # the first Adam step moves every weight by about lr, so the recurrent
        # gates overflow at the next step
        ds = _dataset(60)
        model = _model(ds, "auto", fusion_out_dim=8)
        config = TrainConfig(epochs=3, batch_size=20, seed=0, lr=1e160)
        with pytest.raises(DivergenceError, match="gated_recurrence") as exc:
            train(model, ds, config)
        assert exc.value.step == 1

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_recurrent_gates_diverge_at_their_step(self):
        # saturated gates keep the states finite; the fused op still reports them
        ds = _dataset(60)
        model = _model(ds, "concat")
        model.text_encoder.embedding.matrix.data[...] = 1e308
        model.text_encoder.fwd["w"].data[...] = 1.0
        with pytest.raises(DivergenceError, match="gated_recurrence") as exc:
            train(model, ds, TrainConfig(epochs=1, batch_size=20, seed=0))
        assert exc.value.step == 0

    def test_label_space_mismatch_rejected(self):
        from fuselab.datakit import Dataset, LabelSpace

        ds = _dataset(60)
        model = _model(ds, "concat")
        other_space = LabelSpace(("X", "Y"))
        relabeled = Dataset(
            [Publication(id=p.id, label="X", text=p.text, visual=p.visual)
             for p in _dataset(60)],
            other_space)
        with pytest.raises(ConfigError):
            train(model, relabeled, TrainConfig(epochs=1, batch_size=20))


class TestParameterPartition:
    def test_disc_updates_touch_only_disc_params_every_step(self):
        """Snapshot diff over a 100-step run: discriminator ascent never
        moves main parameters, the main step never moves discriminators."""
        ds = _dataset(100, seed=5)
        model = _model(ds, "gan", fusion_out_dim=8)
        config = TrainConfig(epochs=10, batch_size=10, seed=1)

        from fuselab.training.loop import step_discriminator, _train_step
        from fuselab.training.optim import Adam
        from fuselab.datakit import BatchStream

        main_params = model.main_parameters()
        disc_params = model.discriminator_parameters()
        main_opt = Adam(main_params, config.lr)
        disc_opt = Adam(disc_params, config.lr)
        rng = np.random.default_rng(config.seed)
        stream = BatchStream(ds, config.batch_size, seed=config.seed)

        step = 0
        for _ in range(config.epochs):
            for idx in stream.indices():
                batch = model.prepare([ds.publications[i] for i in idx])
                main_before = [p.data.copy() for p in main_params]
                latents = model.encode(batch)  # as _train_step passes them
                step_discriminator(model, latents, disc_opt, rng)
                for before, p in zip(main_before, main_params):
                    assert np.array_equal(before, p.data), \
                        f"discriminator step moved {p.name} at step {step}"

                disc_before = [p.data.copy() for p in disc_params]
                # main step only (discriminator already stepped above)
                _train_step(model, batch, rng, main_opt, None, step)
                for before, p in zip(disc_before, disc_params):
                    assert np.array_equal(before, p.data), \
                        f"main step moved {p.name} at step {step}"
                step += 1
                if step >= 100:
                    return
        assert step >= 100

    def test_disc_step_needs_no_detached_latents(self, monkeypatch):
        """On the xor-gan toy, the discriminator gradients from the latents
        as encoded are bitwise those from detached copies, and the backward
        runs no closure of an encoder or generator node to get them."""
        from fuselab.training.loop import step_discriminator

        ds = _dataset(40, seed=5)
        batch = _model(ds).prepare(ds.publications[:10])
        from_op = nc.Tensor._from_op.__func__
        runs = []
        for detach in (True, False):
            model = _model(ds, "gan", fusion_out_dim=8)
            called, grads = [], []

            def counted(cls, data, op, parents, backward):
                return from_op(cls, data, op, parents,
                               lambda g, needs: called.append(op) or backward(g, needs))

            recorder = SimpleNamespace(params=model.discriminator_parameters(),
                                       step=grads.append)
            monkeypatch.setattr(nc.Tensor, "_from_op", classmethod(counted))
            latents = model.encode(batch)
            if detach:
                latents = {name: z.detach() for name, z in latents.items()}
            rng = np.random.default_rng(7)
            for _ in range(2):  # the second step reads the same latents
                step_discriminator(model, latents, recorder, rng)
            monkeypatch.undo()
            runs.append(([[g.tobytes() for g in step] for step in grads], called))
        (detached, detached_called), (encoded, encoded_called) = runs
        assert len(encoded) == 2 and encoded == detached
        assert encoded_called == detached_called

    def test_main_step_computes_no_discriminator_gradient(self, monkeypatch):
        """The main step's backward passes through the discriminator layers
        but computes no gradient for their weights."""
        from fuselab.training.loop import _train_step
        from fuselab.training.optim import Adam

        ds = _dataset(40, seed=5)
        model = _model(ds, "gan", fusion_out_dim=8)
        batch = model.prepare(ds.publications[:10])
        config = TrainConfig()
        main_opt = Adam(model.main_parameters(), config.lr)
        disc = {id(p) for p in model.discriminator_parameters()}
        from_op = nc.Tensor._from_op.__func__
        reached, computed = [], []

        def counted(cls, data, op, parents, backward):
            def closure(g, needs):
                grads = backward(g, needs)
                for p, pg in zip(parents, grads):
                    if id(p) in disc:
                        reached.append(op)
                        if pg is not None:
                            computed.append(op)
                return grads

            return from_op(cls, data, op, parents, closure)

        monkeypatch.setattr(nc.Tensor, "_from_op", classmethod(counted))
        _train_step(model, batch, np.random.default_rng(7), main_opt, None, 0)
        monkeypatch.undo()
        assert reached and not computed, computed


def _adam_reference(values, lr, steps):
    """Parameter values after each step of the per-tensor Adam formula."""
    from fuselab.training.optim import Adam

    values = [v.copy() for v in values]
    m = [np.zeros_like(v) for v in values]
    v2 = [np.zeros_like(v) for v in values]
    after = []
    for t, grads in enumerate(steps, start=1):
        b1t = 1.0 - Adam.BETA1 ** t
        b2t = 1.0 - Adam.BETA2 ** t
        for i, g in enumerate(grads):
            m[i] *= Adam.BETA1
            m[i] += (1.0 - Adam.BETA1) * g
            v2[i] *= Adam.BETA2
            v2[i] += (1.0 - Adam.BETA2) * (g * g)
            update = (m[i] / b1t) / (np.sqrt(v2[i] / b2t) + Adam.EPS)
            values[i] -= lr * update
        after.append([v.copy() for v in values])
    return after


class TestAdam:
    SHAPES = [(3, 4), (5,), (), (2, 3, 2), (1, 1), (7,)]

    def _run(self, steps, lr=0.01, between=lambda opt: None):
        """Adam's values after each step next to the reference's;
        `between(opt)` runs before each step."""
        from fuselab.training.optim import Adam

        rng = np.random.default_rng(4)
        start = [rng.normal(size=shape) for shape in self.SHAPES]
        params = [Tensor(v.copy(), name=f"p{i}") for i, v in enumerate(start)]
        opt = Adam(params, lr=lr)
        got = []
        for grads in steps:
            between(opt)
            opt.step(grads)
            got.append([p.data.copy() for p in params])
        return got, _adam_reference(start, lr, steps)

    def _grads(self, rng):
        return [rng.normal(size=shape) * 10.0 ** rng.integers(-3, 3) for shape in self.SHAPES]

    def test_flat_step_is_bitwise_the_per_tensor_formula(self):
        rng = np.random.default_rng(8)
        got, want = self._run([self._grads(rng) for _ in range(5)])
        for step_got, step_want in zip(got, want):
            assert [a.tobytes() for a in step_got] == [b.tobytes() for b in step_want]

    def test_none_gradient_leaves_parameter_and_moments_alone(self):
        """Before each full step, six steps that each miss one or more
        gradients (the first parameter's, the last's, or some between)
        raise ContractError naming the first missing parameter and change
        no state: were the step count, a moment or a parameter moved, the
        next full step would differ from the reference's, which never saw
        the failed steps."""
        from fuselab.exceptions import ContractError

        rng = np.random.default_rng(9)
        missing = [{0}, {5}, {1, 2}, {5, 3}, {0, 4}, {2}]

        def fail_without(opt):
            for gone in missing:
                grads = [None if i in gone else g for i, g in enumerate(self._grads(rng))]
                t = opt._t
                before = [a.tobytes() for a in (opt._m, opt._v, opt._g)
                          + tuple(p.data for p in opt.params)]
                with pytest.raises(ContractError, match=rf"\bp{min(gone)}\b"):
                    opt.step(grads)
                assert opt._t == t
                assert [a.tobytes() for a in (opt._m, opt._v, opt._g)
                        + tuple(p.data for p in opt.params)] == before

        got, want = self._run([self._grads(rng) for _ in range(4)], between=fail_without)
        for step_got, step_want in zip(got, want):
            assert [a.tobytes() for a in step_got] == [b.tobytes() for b in step_want]

    def test_step_allocates_no_array(self):
        import tracemalloc

        from fuselab.training.optim import Adam

        params = [Tensor(np.ones((64, 64))), Tensor(np.ones(100)), Tensor(np.ones(()))]
        grads = [np.full(p.shape, 0.5) for p in params]
        opt = Adam(params)
        opt.step(grads)
        tracemalloc.start()
        try:
            opt.step(grads)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < params[0].data.nbytes // 8, peak


class TestGanTerms:
    def _run(self, model, batch):
        """The main objective of a prepared batch at rng seed 1."""
        from fuselab.training.objectives import main_objective

        return main_objective(model, batch, model.encode(batch), np.random.default_rng(1))

    @pytest.mark.parametrize("fusion", ["auto", "gan"])
    def test_fusion_term_reaches_no_encoder(self, fusion):
        """J's encoder gradients are bitwise J_C's, and every parameter the
        fusion term trains (the autoencoder, or the generators) gets that
        term on top of J_C's gradient."""
        ds = _dataset(20)
        model = _model(ds, fusion, fusion_out_dim=8)
        batch = model.prepare(ds.publications[:8])
        mech = model.mechanism
        encoders = model.text_encoder.parameters() + model.visual_encoder.parameters()
        trained = (mech.parameters() if fusion == "auto" else
                   mech.text_module.generator_parameters()
                   + mech.visual_module.generator_parameters())

        j_c_only = self._run(model, batch).j_c.backward(encoders + trained)
        full = self._run(model, batch).j.backward(encoders + trained)
        n = len(encoders)
        for a, b in zip(j_c_only[:n], full[:n]):
            assert a.tobytes() == b.tobytes()
        for a, b in zip(j_c_only[n:], full[n:]):
            assert b is not None and (a is None or not np.array_equal(a, b))

    def test_generator_term_scores_the_combiners_z_g(self, monkeypatch):
        """The stacked adversarial pass scores a z_g that is bitwise the one
        the combiner consumed, slab by slab: each generator applied to its
        live latent with the noise fuse_batch drew."""
        from fuselab import numcore as nc
        from fuselab.fusion import GanStack

        ds = _dataset(20)
        model = _model(ds, "gan", fusion_out_dim=8)
        batch = model.prepare(ds.publications[:8])
        latents = model.encode(batch)
        _, result = model.head(latents, np.random.default_rng(1))
        want = model.mechanism.modules.generate(
            nc.stack([latents["text"], latents["visual"]]), result.noise).data

        generated, scored = [], []
        generate, adversarial = GanStack.generate, GanStack.adversarial
        monkeypatch.setattr(GanStack, "generate",
                            lambda stack, *args: generated.append(generate(stack, *args))
                            or generated[-1])
        monkeypatch.setattr(GanStack, "adversarial",
                            lambda stack, real, z_g: scored.append(z_g.data)
                            or adversarial(stack, real, z_g))
        self._run(model, batch)
        # fuse_batch generates the combiner's z_g first, then the
        # generator term regenerates it from the latents' values
        assert len(generated) == 2 and len(scored) == 1
        combiners = generated[0].data
        assert want.shape == (2, 8, 8)
        assert scored[0].tobytes() == combiners.tobytes() == want.tobytes()


def _staged_checks(model, pubs):
    """The (group, objective, parameters) runs of
    gradsuite.end_to_end_groups, each objective unevaluated, after checking
    that gradsuite.end_to_end_check hands exactly these objectives and
    parameters to grad_check_params, in this order."""
    from fuselab import gradsuite

    groups, calls, end_to_end_groups = [], [], gradsuite.end_to_end_groups

    def grouped(model, batch):
        groups.extend(end_to_end_groups(model, batch))
        return groups

    def record(f, params, h, tol):
        calls.append((f, list(params)))
        return {p.name: nc.CheckReport(max_rel_err=0.0, passed=True) for p in params}

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gradsuite, "end_to_end_groups", grouped)
        patch.setattr(gradsuite, "grad_check_params", record)
        gradsuite.end_to_end_check(model, pubs, h=1e-5, tol=1e-4)
    assert len(calls) == len(groups)
    for (f, params), (_, objective, run) in zip(calls, groups):
        assert f is objective and [id(p) for p in params] == [id(p) for p in run]
    return groups


# the parts of J = J_C + term that each probe group's objective holds at
# their base-point values (an encoder's group reads J_C alone, so only
# the other modality's latent)
HELD = {"text": {"visual"}, "visual": {"text"}, "J_C": {"text", "visual", "term"},
        "term": {"text", "visual", "j_c"}, "J": {"text", "visual"}}


def _parts(model, batch):
    """The bytes of each part of the main objective, recomputed in full."""
    from fuselab.gradsuite import END_TO_END_SEED
    from fuselab.training.objectives import classification_objective, fusion_term

    with nc.no_graph():
        latents = model.encode(batch)
        j_c, result = classification_objective(
            model, batch, latents, np.random.default_rng(END_TO_END_SEED))
        term = fusion_term(model, latents, result)[0]
    parts = {"text": latents["text"], "visual": latents["visual"], "j_c": j_c,
             "term": term}
    return {name: part.data.tobytes() for name, part in parts.items() if part is not None}


class TestMainObjective:
    def test_gradient_suite_checks_the_objective_train_step_reports(self):
        """Each staged end-to-end objective evaluates, bit for bit, to what
        the main step reports for the same model, batch and seeded rng: J_C
        for an encoder's group, J for every other group."""
        from fuselab.gradsuite import END_TO_END_SEED
        from fuselab.training.loop import _train_step
        from fuselab.training.optim import Adam

        ds = _dataset(20, seed=4)
        batch = ds.publications[:6]
        groups = {"concat": ["J_C"], "auto": ["J", "term", "J_C"],
                  "gan": ["J", "J_C", "term", "J_C"]}
        for fusion, head_groups in groups.items():
            model = _model(ds, fusion)
            staged = _staged_checks(model, batch)
            values = [f().data.item() for _, f, _ in staged]
            opt = Adam(model.main_parameters(), TrainConfig().lr)
            report = _train_step(model, model.prepare(batch),
                                 np.random.default_rng(END_TO_END_SEED), opt, None, 0)
            assert [group for group, _, _ in staged] == ["text", "visual"] + head_groups
            assert values == [report.j_c if group in ("text", "visual") else report.j
                              for group, _, _ in staged], fusion
            if fusion == "gan":
                assert report.j != report.j_c + report.j_f  # not J_C + J_adv

    @pytest.mark.parametrize("fusion", ["concat", "auto", "gan"])
    def test_staged_checks_differentiate_the_gradient_train_step_takes(
            self, monkeypatch, fusion):
        """Backpropagated over their parameters, the staged end-to-end
        objectives give, bit for bit, the gradient the main step takes
        (before any clip), and for the discriminators the gradient of J on
        live latents; every parameter is checked exactly once, in
        model.parameters() order."""
        from fuselab.gradsuite import END_TO_END_SEED
        from fuselab.training import loop
        from fuselab.training.objectives import main_objective

        ds = _dataset(20, seed=4)
        model = _model(ds, fusion)
        pubs = ds.publications[:6]
        staged = {}
        for _, f, params in _staged_checks(model, pubs):
            for p, g in zip(params, f().backward(params)):
                assert p.name not in staged
                staged[p.name] = g.tobytes()
        assert list(staged) == [p.name for p in model.parameters()]

        taken, norms, clip = [], [], loop.clip_grad_norm
        opt = SimpleNamespace(params=model.main_parameters(),
                              step=lambda grads: taken.append([g.copy() for g in grads]))
        monkeypatch.setattr(loop, "clip_grad_norm",
                            lambda grads, max_norm: norms.append(clip(grads, max_norm)))
        rng = np.random.default_rng(END_TO_END_SEED)
        loop._train_step(model, model.prepare(pubs), rng, opt, None, 0)
        assert norms and max(norms) <= loop.CLIP_NORM  # the clip scaled nothing
        (grads,) = taken
        trained = {p.name: g.tobytes() for p, g in zip(opt.params, grads)}

        disc = model.discriminator_parameters()
        assert bool(disc) == (fusion == "gan")
        if disc:
            batch = model.prepare(pubs)
            live = main_objective(model, batch, model.encode(batch),
                                  np.random.default_rng(END_TO_END_SEED)).j
            trained.update((p.name, g.tobytes()) for p, g in zip(disc, live.backward(disc)))
        assert sorted(trained) == sorted(staged)
        assert [name for name in staged if staged[name] != trained[name]] == []

    @pytest.mark.parametrize("fusion", ["concat", "auto", "gan"])
    def test_moving_a_parameter_leaves_the_parts_its_group_holds(self, fusion):
        """A probe of any parameter, by +h or -h in its first or last
        coordinate, leaves bit-identical every part of J that the
        parameter's group holds at its base-point value, recomputed in
        full; and some probe of each group moves a part it recomputes."""
        ds = _dataset(20, seed=4)
        model = _model(ds, fusion)
        pubs = ds.publications[:6]
        batch = model.prepare(pubs)
        base = _parts(model, batch)
        moved_any = set()
        for group, _, params in _staged_checks(model, pubs):
            for p in params:
                flat = p.data.reshape(-1)
                for i in {0, flat.size - 1}:
                    orig = flat[i]
                    for step in (1e-5, -1e-5):
                        flat[i] = orig + step
                        moved = _parts(model, batch)
                        flat[i] = orig
                        changed = {name for name in base if moved[name] != base[name]}
                        assert changed.isdisjoint(HELD[group]), (p.name, i, changed)
                        moved_any.update([group] if changed else [])
        assert moved_any == {group for group, _, _ in _staged_checks(model, pubs)}

    @pytest.mark.parametrize("fusion", ["concat", "auto", "gan"])
    def test_staged_objectives_repeat_the_fresh_generator_draws(self, fusion):
        """Every staged objective, which restores one shared generator's
        state before it draws, returns the same bytes on each call, with
        the graph and without, in any order, and they are the bytes a
        fresh np.random.default_rng(END_TO_END_SEED) gives: J_C for an
        encoder's group, J for every other."""
        from fuselab import gradsuite
        from fuselab.training.objectives import classification_objective, main_objective

        ds = _dataset(20, seed=4)
        model = _model(ds, fusion)
        batch = model.prepare(ds.publications[:6])
        staged = gradsuite.end_to_end_groups(model, batch)
        with nc.no_graph():
            latents = model.encode(batch)
            fresh = lambda: np.random.default_rng(gradsuite.END_TO_END_SEED)
            want = {"j_c": classification_objective(model, batch, latents, fresh())[0],
                    "j": main_objective(model, batch, latents, fresh()).j}
        first = [f().data.tobytes() for _, f, _ in staged]
        with nc.no_graph():
            again = [f().data.tobytes() for _, f, _ in reversed(staged)][::-1]
        assert again == first
        assert first == [want["j_c" if group in ("text", "visual") else "j"].data.tobytes()
                         for group, _, _ in staged]


def _probs(model, pubs):
    """Class probabilities of pubs from one graph-free batched forward."""
    with nc.no_graph():
        probs, _ = model.forward_batch(model.prepare(pubs))
    return probs.data


def _label_alone(model, pub):
    """The label predict_dataset gives pub in a dataset of its own."""
    _, (label,) = predict_dataset(model, Dataset([pub], model.label_space))
    return label


class TestPredict:
    """One publication through the graph-free forward."""

    def test_zero_classifier_gives_uniform_distribution(self):
        ds = _dataset(20)
        model = _model(ds, "concat")
        model.classifier.weights.data[...] = 0.0
        model.classifier.bias.data[...] = 0.0
        assert np.allclose(_probs(model, [ds[0]]), 0.5, atol=0)
        assert _label_alone(model, ds[0]) == model.label_space.names[0]  # lowest-index tie-break

    def test_argmax_invariant_under_constant_logit_shift(self):
        ds = _dataset(20)
        model = _model(ds, "concat")
        label_before = _label_alone(model, ds[0])
        model.classifier.bias.data += 7.25  # same shift on every class logit
        assert _label_alone(model, ds[0]) == label_before

    def test_trained_model_prediction_repeatable(self):
        ds = _dataset(80)
        model = _model(ds, "gan", fusion_out_dim=8)
        train(model, ds, TrainConfig(epochs=1, batch_size=20, seed=2))
        assert np.array_equal(_probs(model, [ds[3]]), _probs(model, [ds[3]]))
        assert _label_alone(model, ds[3]) == _label_alone(model, ds[3])

    def test_missing_modality_rejected(self):
        ds = _dataset(20)
        model = _model(ds, "concat")
        with pytest.raises(InputError):
            _probs(model, [Publication(id="t", label="0", text="just words")])


class TestPredictDataset:
    """predict_dataset scores in graph-free batches of PREDICT_BATCH and
    gives each publication the label it gets in a dataset of its own."""

    def _assert_matches_singles(self, model, ds):
        truths, preds = predict_dataset(model, ds)
        assert truths == [p.label for p in ds]
        assert preds == [_label_alone(model, p) for p in ds]
        singles = [_probs(model, [p])[0] for p in ds]
        assert np.allclose(_probs(model, ds.publications), singles, rtol=0, atol=1e-12)
        return preds

    def test_gan_model_labels_match_predict(self):
        ds = _dataset(80)
        model = _model(ds, "gan", fusion_out_dim=8)
        train(model, ds, TrainConfig(epochs=1, batch_size=20, seed=2))
        heldout = Dataset(_dataset(67, seed=9).publications, ds.label_space)
        # move the class-1 bias to the mean logit gap so both labels occur
        logits = np.log(_probs(model, heldout.publications))
        model.classifier.bias.data[1] -= np.mean(logits[:, 1] - logits[:, 0])
        preds = self._assert_matches_singles(model, heldout)
        assert len(preds) == 67 and len(set(preds)) == 2

    def test_text_model_with_entity_tuples_labels_match_predict(self):
        rng = np.random.default_rng(11)
        words = ["the", "dog", "chased", "a", "ball", "quickly", "@user", "#tag",
                 "sooo", "good", "bad", "cat", "saw", "hello", ":)"]
        space = LabelSpace(("a", "b", "c"))
        pubs = [Publication(id=f"s{i}", label=space.names[i % 3],
                            text=" ".join(rng.choice(words, size=int(rng.integers(1, 12)))))
                for i in range(67)]
        ds = Dataset(pubs, space)
        vocab = Vocab.from_texts([p.text for p in ds])
        model = build_model(
            ModelConfig(input_modes="text", fusion=None, latent_dim=6,
                        embed_dim=4, hidden_dim=3, seed=4),
            space, vocab)
        assert model.config.wants_entity_tuple
        assert len({len(p.text.split()) for p in pubs}) > 5
        preds = self._assert_matches_singles(model, ds)
        assert len(set(preds)) > 1

    @pytest.mark.parametrize("n", [1, 64, 65, 130])
    def test_one_graph_free_forward_per_batch(self, n, monkeypatch):
        ds = _dataset(n)
        model = _model(ds, "concat")
        calls = []
        forward = FusionModel.forward_batch

        def counted(self, pubs, rng=None):
            probs, result = forward(self, pubs, rng)
            calls.append(len(pubs))
            assert probs._parents == () and probs._backward is None
            return probs, result

        monkeypatch.setattr(FusionModel, "forward_batch", counted)
        taken = []
        take = PreparedBatch.take
        monkeypatch.setattr(PreparedBatch, "take",
                            lambda self, rows: taken.append(len(rows)) or take(self, rows))
        truths, preds = predict_dataset(model, ds)
        assert len(calls) == math.ceil(n / PREDICT_BATCH)
        assert max(calls) <= PREDICT_BATCH and sum(calls) == n
        assert len(truths) == len(preds) == n
        # a dataset that fits one batch is scored as prepared, with no take
        assert taken == ([] if n <= PREDICT_BATCH else calls)


class TestEncodeOrder:
    def test_one_bucket_in_input_order_is_not_gathered(self):
        # xor publications share one text length and one grid shape
        ds = _dataset(40)
        model = _model(ds, "concat")
        latents = model.encode(model.prepare(ds.publications[:12]))
        assert latents["text"]._op != "take_rows"
        assert latents["visual"]._op != "take_rows"

    def test_mixed_lengths_come_back_in_input_order(self, monkeypatch):
        """A batch of mixed text lengths is one padded encode_batch call,
        and each row equals the publication encoded on its own."""
        from fuselab.layers import RecurrentTextEncoder

        ds = _dataset(40)
        model = _model(ds, "concat")
        pubs = [Publication(id=p.id, label=p.label, visual=p.visual,
                            text=" ".join(p.text.split()[: 1 + k % 4]))
                for k, p in enumerate(ds.publications[:9])]
        calls = []
        encode_batch = RecurrentTextEncoder.encode_batch
        monkeypatch.setattr(RecurrentTextEncoder, "encode_batch",
                            lambda self, ids, lengths=None: calls.append(ids.shape)
                            or encode_batch(self, ids, lengths))
        batch = model.encode(model.prepare(pubs))["text"]
        assert calls == [(9, 4)]
        for row, pub in zip(batch.data, pubs):
            single = model.encode(model.prepare([pub]))["text"]
            assert np.allclose(row, single.data[0], atol=1e-12)


class TestPrepare:
    """FusionModel.prepare reads each publication once; train() and
    predict_dataset take prepared rows by index."""

    WORDS = ["the", "dog", "chased", "a", "ball", "quickly", "@user", "#tag",
             "sooo", "good", "cat", "saw"]

    def _text_model(self, n=24, **config):
        """A text-only model, or the one `config` sets up, over n posts in
        three classes; post i also carries a 12x12 grid filled with i."""
        rng = np.random.default_rng(6)
        space = LabelSpace(("a", "b", "c"))
        pubs = [Publication(id=f"s{i}", label=space.names[i % 3],
                            text=" ".join(rng.choice(self.WORDS, size=1 + i % 7)),
                            visual=np.full((12, 12, 1), float(i)))
                for i in range(n)]
        ds = Dataset(pubs, space)
        config = {"input_modes": "text", **config}
        model = build_model(ModelConfig(latent_dim=6, embed_dim=4, hidden_dim=3, seed=4,
                                        **config),
                            space, Vocab.from_texts([p.text for p in pubs]))
        return model, ds

    def test_train_normalizes_each_publication_once(self, monkeypatch):
        import fuselab.training.model as model_module

        model, ds = self._text_model()
        assert model.config.normalize_text and model.config.wants_entity_tuple
        seen = []
        normalize = model_module.normalize
        monkeypatch.setattr(model_module, "normalize",
                            lambda text: seen.append(text) or normalize(text))
        train(model, ds, TrainConfig(epochs=3, batch_size=5, seed=1))
        assert sorted(seen) == sorted(p.full_text() for p in ds)

    def test_take_trims_to_its_longest_row(self):
        model, ds = self._text_model(input_modes="multimodal", fusion="concat")
        prepared = model.prepare(ds.publications)
        assert len(prepared) == len(ds) and prepared.ids.shape[1] == prepared.lengths.max()
        assert prepared.tuple_ids is None
        rows = [8, 0, 2]
        part = prepared.take(rows)
        assert len(part) == 3 and part.labels.tolist() == [2, 0, 2]
        assert part.grids.shape == (3, 12, 12, 1)
        assert part.grids[:, 0, 0, 0].tolist() == rows
        assert part.ids.shape[1] < prepared.ids.shape[1]
        assert part.lengths.tolist() == prepared.lengths[rows].tolist()
        assert part.ids.shape == (3, part.lengths.max())
        assert np.array_equal(part.ids, prepared.ids[rows, : part.lengths.max()])
        assert part.tuple_ids is None

    def test_take_trims_the_tuple_ids_of_a_text_model(self):
        model, ds = self._text_model()
        prepared = model.prepare(ds.publications)
        assert prepared.grids is None
        assert prepared.tuple_ids.shape == (len(ds), max(1, prepared.tuple_counts.max()))
        rows = [8, 0, 2]
        part = prepared.take(rows)
        assert len(part) == 3 and part.labels.tolist() == [2, 0, 2]
        assert part.ids.shape[1] < prepared.ids.shape[1]
        assert part.lengths.tolist() == prepared.lengths[rows].tolist()
        assert np.array_equal(part.ids, prepared.ids[rows, : part.lengths.max()])
        assert part.tuple_counts.tolist() == prepared.tuple_counts[rows].tolist()
        assert part.tuple_ids.shape == (3, max(1, part.tuple_counts.max()))
        assert part.tuple_ids.shape[1] < prepared.tuple_ids.shape[1]
        assert np.array_equal(part.tuple_ids,
                              prepared.tuple_ids[rows, : part.tuple_ids.shape[1]])

    @pytest.mark.parametrize("rows", [[[3, 1, 4], [1, 5, 9]], [[2]], [[7, 1], [], [8, 2, 8]],
                                      [[], []], []])
    def test_padded_ids_equal_the_general_padding(self, rows):
        """Equal-length rows take a fast path whose arrays are bitwise
        the ones the general padding builds."""
        from fuselab.training.model import _padded

        width = max([1] + [len(row) for row in rows])
        want_ids = np.zeros((len(rows), width), dtype=np.intp)
        for i, row in enumerate(rows):
            want_ids[i, : len(row)] = row
        want_lengths = np.array([len(row) for row in rows], dtype=np.intp)
        for got, want in zip(_padded(rows), (want_ids, want_lengths)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.flags.c_contiguous and got.tobytes() == want.tobytes()

    def test_invalid_record_fails_at_prepare_with_its_id(self):
        model, ds = self._text_model(4)
        pubs = ds.publications + [Publication(id="no-text", label="a",
                                              visual=np.zeros((12, 12, 1)))]
        with pytest.raises(InputError, match="no-text"):
            model.prepare(pubs)

    @pytest.mark.parametrize("input_modes", ["text", "visual", "multimodal"])
    def test_prepared_batches_hold_only_arrays(self, input_modes):
        """Nothing after prepare reads a Publication: every field of a
        prepared batch, and of rows taken from it, is an array or None."""
        fusion = "concat" if input_modes == "multimodal" else None
        model, ds = self._text_model(8, input_modes=input_modes, fusion=fusion)
        prepared = model.prepare(ds.publications)
        for batch in (prepared, prepared.take([5, 1])):
            for field in dataclasses.fields(batch):
                value = getattr(batch, field.name)
                assert value is None or isinstance(value, np.ndarray), field.name

    def test_grids_of_two_shapes_fail_at_prepare_with_both(self):
        model, ds = self._text_model(4, input_modes="visual")
        pubs = ds.publications + [Publication(id="wide", label="a",
                                              visual=np.zeros((14, 14, 1)))]
        with pytest.raises(InputError, match=r"publication wide: visual grid is "
                                             r"\(14, 14, 1\), publication s0's is "
                                             r"\(12, 12, 1\)"):
            model.prepare(pubs)

    def test_out_of_space_label_fails_the_objective_not_prediction(self):
        from fuselab.training.objectives import main_objective

        model, ds = self._text_model(4)
        pubs = ds.publications + [Publication(id="stray", label="z", text="the cat")]
        batch = model.prepare(pubs)
        assert batch.labels.tolist() == [0, 1, 2, 0, -1]
        with pytest.raises(ConfigError, match="label space"):
            main_objective(model, batch, model.encode(batch), None)
        truths, preds = predict_dataset(model, Dataset(pubs, ds.label_space))
        assert truths == ["a", "b", "c", "a", "z"] and len(preds) == 5


@pytest.fixture
def read_counts(monkeypatch):
    """The texts normalize is called on and the number of
    extract_entity_tuple calls, counted through every fuselab module
    attribute that holds either function, as the benchmark's tracer
    rebinds them."""
    from fuselab.textprep import extract_entity_tuple, normalize

    counts = SimpleNamespace(normalized=Counter(), tuples=0)

    def counted_normalize(text):
        counts.normalized[text] += 1
        return normalize(text)

    def counted_tuple(text):
        counts.tuples += 1
        return extract_entity_tuple(text)

    for name, module in list(sys.modules.items()):
        if module is None or not (name == "fuselab" or name.startswith("fuselab.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is normalize:
                monkeypatch.setattr(module, attr, counted_normalize)
            elif value is extract_entity_tuple:
                monkeypatch.setattr(module, attr, counted_tuple)
    return counts


def _text_only_config(**data):
    """The shipped text-only experiment, its synthetic data resized."""
    from fuselab.config import load_experiment_config

    config = load_experiment_config(ROOT / "configs" / "text-only.ini")
    spec = dataclasses.replace(config.data.synthetic, **data)
    return dataclasses.replace(config, data=dataclasses.replace(config.data, synthetic=spec))


class TestReadOnce:
    """Each publication's text is normalized, and its entity tuple
    extracted, once for the life of the Publication, whichever of the
    vocabulary, training and validation reads it first."""

    def _split(self, n=30):
        model, ds = TestPrepare()._text_model(n)
        train_ds = Dataset(ds.publications[: 2 * n // 3], ds.label_space)
        val_ds = Dataset(ds.publications[2 * n // 3 :], ds.label_space)
        return model, train_ds, val_ds

    def test_an_experiment_reads_each_publication_once(self, read_counts):
        from fuselab.experiment import prepare_data, run_experiment

        config = _text_only_config(n=60)
        config = dataclasses.replace(config, train=dataclasses.replace(config.train,
                                                                       epochs=2))
        result = run_experiment(config)
        pubs = [p for part in prepare_data(config) for p in part]
        assert result.split_sizes == (48, 6, 6) and len(pubs) == 60
        assert read_counts.normalized == Counter(p.full_text() for p in pubs)
        assert read_counts.tuples == 60

    def test_validation_reads_its_split_once_over_the_epochs(self, read_counts):
        model, train_ds, val_ds = self._split()
        result = train(model, train_ds, TrainConfig(epochs=3, batch_size=5, seed=1),
                       val_dataset=val_ds)
        assert len(result.val_reports) == 3
        assert read_counts.normalized == Counter(p.full_text()
                                                 for p in train_ds.publications
                                                 + val_ds.publications)
        assert read_counts.tuples == len(train_ds) + len(val_ds)

    def test_a_fresh_load_reads_again(self, read_counts, tmp_path):
        from fuselab.datakit import load_jsonl, save_jsonl

        model, ds, _ = self._split()
        path = tmp_path / "posts.jsonl"
        save_jsonl(ds, path)
        first = load_jsonl(path)
        model.prepare(first.publications)
        model.prepare(first.publications)
        assert sum(read_counts.normalized.values()) == len(ds)
        model.prepare(load_jsonl(path).publications)
        assert sum(read_counts.normalized.values()) == 2 * len(ds)
        assert read_counts.tuples == 2 * len(ds)

    def test_a_changed_text_is_read_afresh(self, read_counts):
        model, ds, _ = self._split()
        pub = ds.publications[0]
        before = model.prepare([pub])
        pub.text = "the cat saw a ball"
        after = model.prepare([pub])
        assert read_counts.normalized["the cat saw a ball"] == 1
        assert after.ids.tolist() == [model.vocab.encode("the cat saw a ball")]
        assert after.ids.tolist() != before.ids.tolist()
        pub.caption = "quickly"
        assert model.prepare([pub]).ids.tolist() == [
            model.vocab.encode("the cat saw a ball quickly")]
        copy = dataclasses.replace(pub)
        model.prepare([copy])
        assert read_counts.normalized["the cat saw a ball quickly"] == 2

    def test_raw_text_models_read_nothing(self, read_counts):
        model, ds, val_ds = self._split()
        raw = build_model(dataclasses.replace(model.config, input_modes="multimodal",
                                              fusion="concat", normalize_text=False),
                          ds.label_space, model.vocab)
        train(raw, ds, TrainConfig(epochs=2, batch_size=5, seed=1), val_dataset=val_ds)
        assert not read_counts.normalized and read_counts.tuples == 0

    def test_a_warm_read_prepares_the_bytes_of_a_cold_one(self):
        """On the shipped text-only config: the vocabulary, in order, and
        every prepared array are the same from publications read before
        (by build_vocab, then by prepare) as from ones never read."""
        from fuselab.experiment import build_vocab, prepare_data
        from fuselab.textprep import normalize

        config = _text_only_config()
        warm, cold = prepare_data(config)[0], prepare_data(config)[0]
        vocab = build_vocab(warm, config.model)
        assert vocab.words == Vocab.from_texts(
            [" ".join(t.surface for t in normalize(p.full_text()).tokens)
             for p in cold]).words
        model = build_model(config.model, warm.label_space, vocab)
        first = model.prepare(warm.publications)
        assert build_vocab(warm, config.model).words == vocab.words
        want = model.prepare(cold.publications)
        for got in (first, model.prepare(warm.publications)):
            for field in dataclasses.fields(want):
                a, b = getattr(got, field.name), getattr(want, field.name)
                assert (a is None and b is None) or (
                    a.dtype == b.dtype and a.shape == b.shape
                    and a.tobytes() == b.tobytes()), field.name


def _rehashed(header, **config):
    """Edit the header's model config and recompute its config hash."""
    header["config"].update(config)
    blob = json.dumps(header["config"], sort_keys=True).encode("utf-8")
    header["config_hash"] = hashlib.sha256(blob).hexdigest()


def _rewrite_header(path, mutate):
    """Edit a model file's header in place, keeping its checksum valid."""
    from fuselab.training.model import MAGIC

    raw = path.read_bytes()
    start = len(MAGIC) + 4
    (header_len,) = struct.unpack_from("<Q", raw, start)
    header = json.loads(raw[start + 8 : start + 8 + header_len])
    mutate(header)
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    body = (raw[:start] + struct.pack("<Q", len(blob)) + blob
            + raw[start + 8 + header_len : -32])
    path.write_bytes(body + hashlib.sha256(body).digest())


class TestPersistence:
    def test_round_trip_bitwise(self, tmp_path):
        ds = _dataset(60)
        model = _model(ds, "gan", fusion_out_dim=8)
        train(model, ds, TrainConfig(epochs=1, batch_size=20, seed=4))
        path = tmp_path / "model.fuse"
        save_model(model, path)
        loaded = load_model(path)
        for (name_a, a), (name_b, b) in zip(model.named_parameters(),
                                            loaded.named_parameters()):
            assert name_a == name_b
            assert np.array_equal(a.data, b.data), name_a

    def test_load_then_predict_matches_presave(self, tmp_path):
        ds = _dataset(60)
        model = _model(ds, "auto", fusion_out_dim=8)
        train(model, ds, TrainConfig(epochs=1, batch_size=20, seed=4))
        path = tmp_path / "model.fuse"
        save_model(model, path)
        loaded = load_model(path)
        for pub in ds.publications[:10]:
            assert np.array_equal(_probs(model, [pub]), _probs(loaded, [pub]))
            assert _label_alone(model, pub) == _label_alone(loaded, pub)

    def test_truncated_file_fails_checksum(self, tmp_path):
        ds = _dataset(30)
        model = _model(ds, "concat")
        path = tmp_path / "model.fuse"
        save_model(model, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 10])
        with pytest.raises(FormatError):
            load_model(path)

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "noise.fuse"
        path.write_bytes(b"not a model at all, sorry")
        with pytest.raises(FormatError):
            load_model(path)

    @pytest.mark.parametrize("key, mutate", [
        ("visual_feature_dim", lambda h: h["config"].update(visual_feature_dim=0)),
        ("'config'", lambda h: h.pop("config")),
        ("'params'", lambda h: h.pop("params")),
        ("'params'", lambda h: h["params"][0].pop("shape")),
        ("'vocab'", lambda h: h.update(vocab=5)),
        ("'label_space'", lambda h: h.update(label_space=5)),
        ("'config'", lambda h: _rehashed(h, latent_dim="4")),
        ("latent_dim", lambda h: _rehashed(h, latent_dim=4.0)),
        ("normalize_text", lambda h: _rehashed(h, normalize_text=1)),
        ("visual_channels", lambda h: _rehashed(h, visual_channels=[4, 6.0])),
        ("input_modes", lambda h: _rehashed(h, input_modes=3)),
        ("fusion", lambda h: _rehashed(h, fusion=1)),
        ("fusion_out_dim", lambda h: _rehashed(h, fusion_out_dim=0)),
        ("append_raw_latents", lambda h: _rehashed(h, append_raw_latents=True)),
        ("fusion: not applicable to text-only",
         lambda h: _rehashed(h, input_modes="text", fusion="gan")),
        ("fusion_out_dim: not applicable to visual-only",
         lambda h: _rehashed(h, input_modes="visual", fusion=None, fusion_out_dim=5)),
        ("fusion: required for multimodal", lambda h: _rehashed(h, fusion=None)),
        ("'label_space'", lambda h: h["label_space"].update(names="01")),
        ("'label_space'", lambda h: h["label_space"].update(names=[0, 1])),
        ("'label_space'", lambda h: h["label_space"].update(merge=["0", "1"])),
    ], ids=["unknown-config-key", "no-config", "no-params", "param-without-shape",
            "vocab-not-a-list", "label-space-not-a-dict", "config-value-mistyped",
            "int-field-float", "bool-field-int", "tuple-item-float", "mode-int",
            "fusion-int", "fusion-out-dim-zero", "removed-append-raw-latents",
            "text-only-with-fusion", "visual-only-with-fusion-out-dim",
            "multimodal-without-fusion",
            "names-string", "names-ints", "merge-list"])
    def test_header_that_does_not_build_is_format_error(self, tmp_path, key, mutate):
        from fuselab.cli import main
        from fuselab.datakit import save_jsonl

        ds = _dataset(10)
        path = tmp_path / "model.fuse"
        save_model(_model(ds, "concat"), path)
        _rewrite_header(path, mutate)

        with pytest.raises(FormatError) as exc:
            load_model(path)
        assert str(path) in str(exc.value) and key in str(exc.value)
        data = tmp_path / "ds.jsonl"
        save_jsonl(ds, data)
        assert main(["eval", "--model", str(path), "--data", str(data)]) == 2

    def test_files_with_a_label_space_mode_still_load(self, tmp_path):
        """Older versions wrote a label-space "mode" ("binary" or "multi")
        into model and dataset headers. Both files still load, the mode is
        ignored, and saving them again writes the same files without it."""
        from fuselab.datakit import load_jsonl, save_jsonl

        ds = _dataset(10)
        model = _model(ds, "concat")
        path, data = tmp_path / "model.fuse", tmp_path / "ds.jsonl"
        save_model(model, path)
        save_jsonl(ds, data)
        current = path.read_bytes(), data.read_bytes()
        _rewrite_header(path, lambda h: h["label_space"].update(mode="binary"))
        lines = data.read_text().splitlines()
        header = json.loads(lines[0])
        header["label_space"]["mode"] = "binary"
        data.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")

        loaded, read = load_model(path), load_jsonl(data)
        assert loaded.label_space == read.label_space == ds.label_space
        save_model(loaded, path)
        save_jsonl(read, data)
        assert (path.read_bytes(), data.read_bytes()) == current

    @pytest.mark.parametrize("name, value", [
        ("text.embed.matrix", math.nan), ("classifier.bias", math.inf)],
        ids=["nan-in-the-empty-text-row", "inf-in-the-classifier-bias"])
    def test_non_finite_parameter_is_format_error(self, tmp_path, capsys, name, value):
        """A file whose checksum holds but one of whose parameters is not
        finite fails to load, naming the file and the parameter, and
        `fuselab eval` exits 2. Here the parameter's first float is set:
        row 0 of the embedding is the empty text's, which xor texts never
        read, so a NaN there would otherwise run to a report; a +inf in the
        classifier bias would otherwise fail in the first dense op with a
        message naming neither."""
        from fuselab.cli import main
        from fuselab.datakit import save_jsonl

        ds = _dataset(10)
        model = _model(ds, "gan", fusion_out_dim=8)
        path = tmp_path / "model.fuse"
        save_model(model, path)
        raw = bytearray(path.read_bytes())
        # the blocks follow the header in manifest order, then the checksum
        named = model.named_parameters()
        at = [n for n, _ in named].index(name)
        offset = len(raw) - 32 - 8 * sum(p.size for _, p in named[at:])
        struct.pack_into("<d", raw, offset, value)
        body = bytes(raw[:-32])
        path.write_bytes(body + hashlib.sha256(body).digest())

        with pytest.raises(FormatError) as exc:
            load_model(path)
        assert str(exc.value) == f"{path}: parameter {name!r} holds a non-finite value"
        data = tmp_path / "ds.jsonl"
        save_jsonl(ds, data)
        capsys.readouterr()
        assert main(["eval", "--model", str(path), "--data", str(data)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {exc.value}\n"

    @pytest.mark.parametrize("config", [
        dict(input_modes="text"),
        dict(input_modes="text", normalize_text=False, embed_dim=5),
        dict(input_modes="visual", in_channels=3, visual_channels=(2, 7)),
        dict(input_modes="multimodal", fusion="concat"),
        dict(input_modes="multimodal", fusion="auto", fusion_out_dim=5),
        dict(input_modes="multimodal", fusion="gan"),
        dict(input_modes="multimodal", fusion="gan", latent_dim=9, fusion_out_dim=3),
    ], ids=["text", "text-raw", "visual", "concat", "auto", "gan", "gan-odd-dims"])
    def test_a_build_without_draws_has_the_models_manifest(self, config):
        """load_model builds a model without drawing its weights and checks
        the header against it: it names the parameters, shapes and order of
        the model that config builds, and every weight is a view of one 0.0."""
        from fuselab.training.model import _manifest, _NoDraws

        config = ModelConfig(**{"latent_dim": 6, "embed_dim": 4, "hidden_dim": 3,
                                **config})
        space, vocab = LabelSpace(("a", "b", "c")), Vocab(["x", "y", "z"])
        model = build_model(config, space, vocab)
        layout = FusionModel(config, space, vocab, rng=_NoDraws())
        assert _manifest(layout.named_parameters()) == _manifest(model.named_parameters())
        for name, p in layout.named_parameters():
            if p.data.ndim > 1 or name == "text.attn_query":
                assert not any(p.data.strides) and not p.data.any(), name

    @pytest.mark.parametrize("fields, message", [
        (dict(input_modes="text", fusion="gan"), "fusion: not applicable to text-only"),
        (dict(input_modes="visual", fusion_out_dim=5),
         "fusion_out_dim: not applicable to visual-only"),
        (dict(input_modes="multimodal"), "fusion: required for multimodal models"),
    ], ids=["text-fusion", "visual-fusion-out-dim", "multimodal-no-fusion"])
    def test_fusion_keys_follow_the_input_modes(self, fields, message):
        """A unimodal model has no fusion mechanism, so it takes neither
        fusion key; a multimodal one needs a mechanism."""
        with pytest.raises(ConfigError, match=message):
            ModelConfig(latent_dim=4, embed_dim=3, hidden_dim=2, **fields)


class TestFullPipelineGradients:
    def test_end_to_end_objective_grad_check_d4(self):
        """Gradient of the main training step (encoders -> fusion ->
        classifier) on a d=4, 2-class toy, every parameter included: the
        encoders against J_C, the rest against J (gradsuite's check).

        Grid noise keeps relu inputs away from the exact kink at zero,
        where finite differences are undefined.
        """
        from fuselab.gradsuite import end_to_end_check

        ds = generate_synthetic(SyntheticSpec(task="xor-crossmodal", n=4,
                                              seed=11, noise=0.2))
        vocab = Vocab.from_texts([p.text for p in ds])
        for fusion in ("concat", "auto", "gan"):
            mc = ModelConfig(input_modes="multimodal", fusion=fusion, latent_dim=4,
                             embed_dim=3, hidden_dim=2, visual_channels=(2, 3),
                             fusion_out_dim=4 if fusion != "concat" else None,
                             normalize_text=False, seed=13)
            model = build_model(mc, ds.label_space, vocab)
            reports = end_to_end_check(model, ds.publications[:2], h=1e-5, tol=1e-4)
            assert list(reports) == [p.name for p in model.parameters()]
            bad = {k: r for k, r in reports.items() if not r.passed}
            assert not bad, (fusion, bad)


class TestDegenerateEquivalence:
    def test_gan_classifier_path_equals_concat_when_fusion_maps_match(self):
        """Generators forced to zero output, combiner reading only the raw
        latents through the concat projection's weights: on every batch of
        an epoch the GAN model's J_C, and its J_C gradient for every
        parameter the two models share, match a concat model of identical
        shapes, and the combiner's raw-latent block takes the projection's
        gradient."""
        ds = _dataset(120, seed=21)
        vocab = Vocab.from_texts([p.text for p in ds])

        concat_cfg = ModelConfig(input_modes="multimodal", fusion="concat",
                                 latent_dim=6, embed_dim=4, hidden_dim=3,
                                 visual_channels=(2, 3), fusion_out_dim=6,
                                 normalize_text=False, seed=31)
        gan_cfg = ModelConfig(input_modes="multimodal", fusion="gan",
                              latent_dim=6, embed_dim=4, hidden_dim=3,
                              visual_channels=(2, 3), fusion_out_dim=6,
                              normalize_text=False, seed=31)
        concat_model = build_model(concat_cfg, ds.label_space, vocab)
        gan_model = build_model(gan_cfg, ds.label_space, vocab)

        # identical shared parameters, matched by name (encoders, classifier)
        concat_params = dict(concat_model.named_parameters())
        shared = [(concat_params[name], target)
                  for name, target in gan_model.named_parameters()
                  if name in concat_params and concat_params[name].shape == target.shape]
        for source, target in shared:
            np.copyto(target.data, source.data)
        projection = concat_model.mechanism.projection
        assert len(shared) + len(projection.parameters()) == len(concat_params)

        # force the fusion forward maps identical: zero generators, combiner
        # reads only the raw-latent block with the concat projection weights
        mech: GanFusion = gan_model.mechanism
        for layer in (mech.text_module.gen_hidden, mech.text_module.gen_out,
                      mech.visual_module.gen_hidden, mech.visual_module.gen_out):
            layer.weights.data[...] = 0.0
            layer.bias.data[...] = 0.0
        mech.combiner.weights.data[...] = 0.0
        mech.combiner.weights.data[:, 12:] = projection.weights.data
        mech.combiner.bias.data[...] = projection.bias.data

        from fuselab.datakit import BatchStream
        from fuselab.training.objectives import main_objective

        concat_wrt = [source for source, _ in shared] + projection.parameters()
        gan_wrt = [target for _, target in shared] + mech.combiner.parameters()
        rng = np.random.default_rng(41)
        concat_prepared = concat_model.prepare(ds.publications)
        gan_prepared = gan_model.prepare(ds.publications)
        for idx in BatchStream(ds, 30, seed=41).indices():
            batch = concat_prepared.take(idx)
            want = main_objective(concat_model, batch, concat_model.encode(batch),
                                  None).j_c
            batch = gan_prepared.take(idx)
            got = main_objective(gan_model, batch, gan_model.encode(batch), rng).j_c
            assert abs(got.data.item() - want.data.item()) <= 1e-12, (got.data, want.data)
            *want_shared, want_w, want_b = want.backward(concat_wrt)
            *got_shared, got_w, got_b = got.backward(gan_wrt)
            pairs = list(zip(got_shared, want_shared)) + [(got_w[:, 12:], want_w),
                                                          (got_b, want_b)]
            for a, b in pairs:
                np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


class TestFusionBenefitSmoke:
    """Miniature version of the experiment: multimodal beats unimodal on
    the xor task (the acceptance suite runs the full-scale version)."""

    def test_concat_beats_unimodal_at_small_scale(self):
        ds = _dataset(1200, seed=2)
        train_ds, _, test_ds = split_dataset(ds, (0.8, 0.1, 0.1), seed=0)
        vocab = Vocab.from_texts([p.text for p in train_ds])

        multi = build_model(
            ModelConfig(input_modes="multimodal", fusion="concat", latent_dim=10,
                        embed_dim=8, hidden_dim=5, visual_channels=(4, 6),
                        fusion_out_dim=12, normalize_text=False, seed=3),
            ds.label_space, vocab)
        train(multi, train_ds, TrainConfig(epochs=8, batch_size=32, seed=5))
        multi_acc = evaluate_model(multi, test_ds).accuracy

        text_only = build_model(
            ModelConfig(input_modes="text", fusion=None, latent_dim=10,
                        embed_dim=8, hidden_dim=5, normalize_text=False, seed=3),
            ds.label_space, vocab)
        train(text_only, train_ds, TrainConfig(epochs=8, batch_size=32, seed=5))
        text_acc = evaluate_model(text_only, test_ds).accuracy

        assert multi_acc >= 0.85, multi_acc
        assert text_acc <= 0.65, text_acc
