"""Objectives, the training loop, prediction, and persistence."""

import math

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
    cross_entropy,
    evaluate_model,
    load_model,
    predict_dataset,
    save_model,
    train,
)
from fuselab.training.loop import PREDICT_BATCH


def _dataset(n=200, seed=1, task="xor-crossmodal"):
    return generate_synthetic(SyntheticSpec(task=task, n=n, seed=seed))


def _model(ds, fusion="concat", seed=3, **extra):
    base = dict(latent_dim=8, embed_dim=6, hidden_dim=4, visual_channels=(3, 5),
                normalize_text=False, seed=seed)
    base.update(extra)
    mc = ModelConfig(input_modes="multimodal", fusion=fusion, **base)
    vocab = Vocab.from_texts([p.text for p in ds])
    return build_model(mc, ds.label_space, vocab)


class TestCrossEntropy:
    def test_perfect_prediction_is_zero(self):
        t = Tensor([0.0, 1.0, 0.0])
        y = Tensor([0.0, 1.0, 0.0])
        assert cross_entropy(t, y).item() == 0.0

    def test_uniform_prediction_is_log_c(self):
        t = Tensor([1.0, 0.0])
        y = Tensor([0.5, 0.5])
        assert abs(cross_entropy(t, y).item() - math.log(2)) < 1e-12
        t4 = Tensor([0.0, 0.0, 1.0, 0.0])
        y4 = Tensor([0.25] * 4)
        assert abs(cross_entropy(t4, y4).item() - math.log(4)) < 1e-12

    def test_hand_value(self):
        loss = cross_entropy(Tensor([1.0, 0.0]), Tensor([0.8, 0.2]))
        assert abs(loss.item() - 0.223144) < 1e-6
        assert abs(loss.item() - (-math.log(0.8))) < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            cross_entropy(Tensor([1.0, 0.0]), Tensor([1.0, 0.0, 0.0]))

    def test_nonnegative_for_one_hot_targets(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            y = nc.softmax(Tensor(rng.normal(size=5))).data
            t = np.zeros(5)
            t[rng.integers(5)] = 1.0
            assert cross_entropy(Tensor(t), Tensor(y)).item() >= 0.0

    def test_gradient_matches_finite_differences(self):
        t = np.zeros(3)
        t[1] = 1.0

        def f(logits):
            return cross_entropy(Tensor(t), nc.softmax(logits))

        report = nc.grad_check(f, Tensor(np.random.default_rng(2).normal(size=3)),
                               h=1e-5, tol=1e-4)
        assert report.passed, report

    def test_class_weights_rescale_sample_losses(self):
        from fuselab.training import batch_cross_entropy

        targets = np.array([[1.0, 0.0], [0.0, 1.0]])
        probs = Tensor(np.array([[0.8, 0.2], [0.4, 0.6]]))
        plain = batch_cross_entropy(targets, probs).item()
        expected = (-math.log(0.8) - math.log(0.6)) / 2
        assert abs(plain - expected) < 1e-12
        weighted = batch_cross_entropy(targets, probs, class_weights=[2.0, 0.5]).item()
        expected_w = (2.0 * -math.log(0.8) + 0.5 * -math.log(0.6)) / 2
        assert abs(weighted - expected_w) < 1e-12


class TestTrainLoop:
    def test_concat_with_lambda_zero_is_classifier_only(self):
        ds = _dataset(120)
        model = _model(ds, "concat")
        res = train(model, ds, TrainConfig(epochs=1, batch_size=30, seed=0, lam=0.0))
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
        # the squared reconstruction term overflows once the decoder blows up
        ds = _dataset(60)
        model = _model(ds, "auto", fusion_out_dim=8)
        config = TrainConfig(epochs=3, batch_size=20, seed=0,
                             optimizer="sgd", lr=1e160, clip_norm=0.0)
        with pytest.raises(DivergenceError) as exc:
            train(model, ds, config)
        assert exc.value.step is not None

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
        other_space = LabelSpace(("X", "Y"), "binary")
        relabeled = Dataset(
            [Publication(id=p.id, label="X", text=p.text, visual=p.visual)
             for p in _dataset(60)],
            other_space)
        with pytest.raises(ConfigError):
            train(model, relabeled, TrainConfig(epochs=1, batch_size=20))

    def test_lambda_must_be_nonnegative(self):
        with pytest.raises(ConfigError):
            TrainConfig(lam=-0.5)
        with pytest.raises(ConfigError):
            TrainConfig(disc_steps=0)

    def test_patience_stops_training_early(self):
        ds = _dataset(120, task="unimodal-separable")
        val = _dataset(40, seed=9, task="unimodal-separable")
        model = _model(ds, "concat")
        # separable task converges fast; macro-F plateaus at 1.0 and the
        # fixed patience kicks in well before the epoch budget
        res = train(model, ds, TrainConfig(epochs=30, batch_size=30, seed=1,
                                           patience=2), val_dataset=val)
        assert res.stopped_early
        assert len(res.val_reports) < 30


class TestParameterPartition:
    def test_disc_updates_touch_only_disc_params_every_step(self):
        """Snapshot diff over a 100-step run: discriminator ascent never
        moves main parameters, the main step never moves discriminators."""
        ds = _dataset(100, seed=5)
        model = _model(ds, "gan", fusion_out_dim=8)
        config = TrainConfig(epochs=10, batch_size=10, seed=1, disc_steps=2)

        from fuselab.training.loop import step_discriminator, _train_step
        from fuselab.training.optim import make_optimizer
        from fuselab.training.objectives import one_hot
        from fuselab.datakit import BatchStream

        main_params = model.main_parameters()
        disc_params = model.discriminator_parameters()
        main_opt = make_optimizer(config.optimizer, main_params, config.lr)
        disc_opt = make_optimizer(config.optimizer, disc_params, config.disc_lr)
        rng = np.random.default_rng(config.seed)
        stream = BatchStream(ds, config.batch_size, seed=config.seed)
        recurrent = model.recurrent_parameters()

        step = 0
        for _ in range(config.epochs):
            for batch in stream:
                main_before = [p.data.copy() for p in main_params]
                latents = {name: z.detach() for name, z in model.encode(batch).items()}
                step_discriminator(model, latents, config, disc_opt, rng, step)
                for before, p in zip(main_before, main_params):
                    assert np.array_equal(before, p.data), \
                        f"discriminator step moved {p.name} at step {step}"

                disc_before = [p.data.copy() for p in disc_params]
                targets = one_hot([model.label_space.index(p.label) for p in batch],
                                  model.label_space.num_classes)
                # main step only (discriminator already stepped above)
                _train_step(model, batch, targets,
                            TrainConfig(epochs=1, batch_size=config.batch_size,
                                        seed=config.seed, disc_steps=1),
                            rng, main_opt, None, False, step,
                            model.parameters(), recurrent)
                for before, p in zip(disc_before, disc_params):
                    assert np.array_equal(before, p.data), \
                        f"main step moved {p.name} at step {step}"
                step += 1
                if step >= 100:
                    return
        assert step >= 100


class TestGanTerms:
    def test_report_only_objectives_build_no_graph(self):
        from fuselab.training.loop import _gan_terms

        ds = _dataset(20)
        model = _model(ds, "gan", fusion_out_dim=8)
        batch = ds.publications[:8]
        latents = model.encode(batch)
        _, result = model.head(batch, latents, np.random.default_rng(0))
        reported = _gan_terms(model, result, latents, np.random.default_rng(1), False)
        trained = _gan_terms(model, result, latents, np.random.default_rng(1), True)
        for j_rep, j_tr in zip(reported[:2], trained[:2]):
            assert j_rep._parents == () and not j_rep.requires_grad
            assert j_tr.requires_grad
            assert j_rep.item() == j_tr.item()
        assert reported[2].requires_grad  # the generator term still trains


class TestPredict:
    def test_zero_classifier_gives_uniform_distribution(self):
        ds = _dataset(20)
        model = _model(ds, "concat")
        model.classifier.weights.data[...] = 0.0
        model.classifier.bias.data[...] = 0.0
        dist, label = model.predict(ds[0])
        assert np.allclose(dist, 0.5, atol=0)
        assert label == model.label_space.names[0]  # lowest-index tie-break

    def test_argmax_invariant_under_constant_logit_shift(self):
        ds = _dataset(20)
        model = _model(ds, "concat")
        _, label_before = model.predict(ds[0])
        model.classifier.bias.data += 7.25  # same shift on every class logit
        _, label_after = model.predict(ds[0])
        assert label_before == label_after

    def test_trained_model_prediction_repeatable(self):
        ds = _dataset(80)
        model = _model(ds, "gan", fusion_out_dim=8)
        train(model, ds, TrainConfig(epochs=1, batch_size=20, seed=2))
        d1, l1 = model.predict(ds[3])
        d2, l2 = model.predict(ds[3])
        assert np.array_equal(d1, d2) and l1 == l2

    def test_missing_modality_rejected(self):
        ds = _dataset(20)
        model = _model(ds, "concat")
        with pytest.raises(InputError):
            model.predict(Publication(id="t", label="0", text="just words"))


class TestPredictDataset:
    """predict_dataset scores in graph-free batches of PREDICT_BATCH and
    gives the labels predict gives one publication at a time."""

    def _assert_matches_predict(self, model, ds):
        truths, preds = predict_dataset(model, ds)
        singles = [model.predict(p) for p in ds]
        assert truths == [p.label for p in ds]
        assert preds == [label for _, label in singles]
        with nc.no_graph():
            probs, _ = model.forward_batch(ds.publications)
        assert np.allclose(probs.data, [dist for dist, _ in singles], rtol=0, atol=1e-12)
        return preds

    def test_gan_model_labels_match_predict(self):
        ds = _dataset(80)
        model = _model(ds, "gan", fusion_out_dim=8)
        train(model, ds, TrainConfig(epochs=1, batch_size=20, seed=2))
        heldout = Dataset(_dataset(67, seed=9).publications, ds.label_space)
        # move the class-1 bias to the mean logit gap so both labels occur
        with nc.no_graph():
            probs, _ = model.forward_batch(heldout.publications)
        logits = np.log(probs.data)
        model.classifier.bias.data[1] -= np.mean(logits[:, 1] - logits[:, 0])
        preds = self._assert_matches_predict(model, heldout)
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
        preds = self._assert_matches_predict(model, ds)
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
            assert probs._parents == () and not probs.requires_grad
            return probs, result

        monkeypatch.setattr(FusionModel, "forward_batch", counted)
        truths, preds = predict_dataset(model, ds)
        assert len(calls) == math.ceil(n / PREDICT_BATCH)
        assert max(calls) <= PREDICT_BATCH and sum(calls) == n
        assert len(truths) == len(preds) == n


class TestEncodeOrder:
    def test_one_bucket_in_input_order_is_not_gathered(self):
        # xor publications share one text length and one grid shape
        ds = _dataset(40)
        latents = _model(ds, "concat").encode(ds.publications[:12])
        assert latents["text"]._op != "take_rows"
        assert latents["visual"]._op != "take_rows"

    def test_mixed_lengths_come_back_in_input_order(self):
        ds = _dataset(40)
        model = _model(ds, "concat")
        pubs = [Publication(id=p.id, label=p.label, visual=p.visual,
                            text=" ".join(p.text.split()[: 1 + k % 4]))
                for k, p in enumerate(ds.publications[:9])]
        batch = model.encode(pubs)["text"]
        assert batch._op == "take_rows"
        for row, pub in zip(batch.data, pubs):
            assert np.allclose(row, model.encode([pub])["text"].data[0], atol=1e-12)


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
            da, la = model.predict(pub)
            db, lb = loaded.predict(pub)
            assert np.array_equal(da, db) and la == lb

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


class TestFullPipelineGradients:
    def test_end_to_end_objective_grad_check_d4(self):
        """Gradient of the full objective (encoders -> fusion -> classifier,
        both fusion losses included) on a d=4, 2-class toy.

        Grid noise keeps relu inputs away from the exact kink at zero,
        where finite differences are undefined.
        """
        ds = generate_synthetic(SyntheticSpec(task="xor-crossmodal", n=4,
                                              seed=11, noise=0.2))
        vocab = Vocab.from_texts([p.text for p in ds])
        from fuselab.training.objectives import batch_cross_entropy, one_hot
        from fuselab.fusion import auto_fusion_loss

        for fusion in ("concat", "auto", "gan"):
            mc = ModelConfig(input_modes="multimodal", fusion=fusion, latent_dim=4,
                             embed_dim=3, hidden_dim=2, visual_channels=(2, 3),
                             fusion_out_dim=4 if fusion != "concat" else None,
                             concat_projection=False, normalize_text=False, seed=13)
            model = build_model(mc, ds.label_space, vocab)
            pubs = ds.publications[:2]
            targets = one_hot([model.label_space.index(p.label) for p in pubs], 2)
            frozen_noise = np.random.default_rng(17)
            noise = {
                "t": frozen_noise.standard_normal((2, model.mechanism.noise_dim))
                if fusion == "gan" else None,
                "v": frozen_noise.standard_normal((2, model.mechanism.noise_dim))
                if fusion == "gan" else None,
            }

            def objective():
                z_t = model._encode_texts(pubs)
                z_v = model._encode_visuals(pubs)
                if fusion == "gan":
                    result = model.mechanism.fuse_batch(z_v, z_t, noise=noise)
                else:
                    result = model.mechanism.fuse_batch(z_v, z_t)
                probs = model.classifier(result.z_fuse)
                j = batch_cross_entropy(targets, probs)
                if fusion == "auto":
                    j = nc.add(j, auto_fusion_loss(result.z, result.z_hat))
                if fusion == "gan":
                    mech = model.mechanism
                    j_adv = nc.add(mech.text_module.adversarial(z_v, result.z_g["t"]).j_adv,
                                   mech.visual_module.adversarial(z_t, result.z_g["v"]).j_adv)
                    j = nc.add(j, j_adv)
                return j

            reports = nc.grad_check_params(objective, model.parameters(),
                                           h=1e-5, tol=1e-4)
            bad = {k: r for k, r in reports.items() if not r.passed}
            assert not bad, (fusion, bad)


class TestDegenerateEquivalence:
    def test_gan_classifier_path_equals_concat_when_fusion_maps_match(self):
        """lambda=0, generators forced to zero output, combiner reading only
        the raw latents: the GAN model's J_C sequence must match a concat
        model of identical shapes."""
        ds = _dataset(120, seed=21)
        vocab = Vocab.from_texts([p.text for p in ds])

        concat_cfg = ModelConfig(input_modes="multimodal", fusion="concat",
                                 latent_dim=6, embed_dim=4, hidden_dim=3,
                                 visual_channels=(2, 3), concat_projection=True,
                                 fusion_out_dim=6, normalize_text=False, seed=31)
        gan_cfg = ModelConfig(input_modes="multimodal", fusion="gan",
                              latent_dim=6, embed_dim=4, hidden_dim=3,
                              visual_channels=(2, 3), fusion_out_dim=6,
                              append_raw_latents=True, normalize_text=False, seed=31)
        concat_model = build_model(concat_cfg, ds.label_space, vocab)
        gan_model = build_model(gan_cfg, ds.label_space, vocab)

        # identical shared parameters, matched by name (encoders, classifier)
        concat_params = dict(concat_model.named_parameters())
        for name, target in gan_model.named_parameters():
            source = concat_params.get(name)
            if source is not None and source.shape == target.shape:
                np.copyto(target.data, source.data)

        # force the fusion forward maps identical: zero generators, combiner
        # reads only the raw-latent block with the concat projection weights
        mech: GanFusion = gan_model.mechanism
        for layer in (mech.text_module.gen_hidden, mech.text_module.gen_out,
                      mech.visual_module.gen_hidden, mech.visual_module.gen_out):
            layer.weights.data[...] = 0.0
            layer.bias.data[...] = 0.0
        mech.combiner.weights.data[...] = 0.0
        mech.combiner.weights.data[:, 12:] = concat_model.mechanism.projection.weights.data
        mech.combiner.bias.data[...] = concat_model.mechanism.projection.bias.data

        config = dict(epochs=2, batch_size=30, lam=0.0, seed=41)
        res_concat = train(concat_model, ds, TrainConfig(**config))
        res_gan = train(gan_model, ds, TrainConfig(**config))
        jc_concat = [r.j_c for r in res_concat.curves]
        jc_gan = [r.j_c for r in res_gan.curves]
        assert np.allclose(jc_concat, jc_gan, rtol=0, atol=1e-12), \
            (jc_concat[:3], jc_gan[:3])


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
                        concat_projection=True, fusion_out_dim=12,
                        normalize_text=False, seed=3),
            ds.label_space, vocab)
        train(multi, train_ds, TrainConfig(epochs=8, batch_size=32, seed=5))
        multi_acc = evaluate_model(multi, test_ds).accuracy

        text_only = build_model(
            ModelConfig(input_modes="text", fusion=None, latent_dim=10,
                        embed_dim=8, hidden_dim=5, use_entity_tuple=False,
                        normalize_text=False, seed=3),
            ds.label_space, vocab)
        train(text_only, train_ds, TrainConfig(epochs=8, batch_size=32, seed=5))
        text_acc = evaluate_model(text_only, test_ds).accuracy

        assert multi_acc >= 0.85, multi_acc
        assert text_acc <= 0.65, text_acc
