"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines as they complete. Every tolerance is pinned here, not configured.
"""

import math
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from fuselab import numcore as nc
from fuselab.cli import main
from fuselab.datakit import (
    LabelSpace,
    SyntheticSpec,
    Vocab,
    generate_synthetic,
    split_dataset,
)
from fuselab.fusion import (
    GanFusionModule,
    GanStack,
    auto_fusion_loss,
    gan_adv_loss,
    generator_loss,
)
from fuselab.metrics import evaluate
from fuselab.numcore import Tensor
from fuselab.training import (
    ModelConfig,
    TrainConfig,
    build_model,
    evaluate_model,
    train,
)
from fuselab.training.optim import Adam

GOLDEN_IN = "@fiery_eyes, this is soooo coool borther! ;) #coolforever"
GOLDEN_OUT = ("[user] fiery_eyes [/user] this is so cool brother! [wink] "
              "[hashtag] cool forever [/hashtag]")


def _report(number: int, message: str) -> None:
    print(f"[criterion {number:2d}] PASS - {message}")


def test_criterion_01_corpus_scale_out_of_scope():
    """Corpus-scale published results are not reproducible here by design:
    no large hate-speech or emotion corpus ships with the toolkit (their
    formats are supported, the data is not), and the property-based checks
    of criteria 5-7 stand in for the reference tables."""
    data_dir = Path(__file__).resolve().parent.parent / "src" / "fuselab" / "data"
    bundled = sorted(p.name for p in data_dir.iterdir())
    assert bundled == ["emoticons.tsv", "pos.tsv", "typos.tsv", "words.tsv"], bundled
    # the corpus label space is supported even though no data is shipped
    from fuselab.datakit import HATE_SPEECH_SPACE, merge_to_binary
    assert len(HATE_SPEECH_SPACE.names) == 6
    assert merge_to_binary("Racist", HATE_SPEECH_SPACE) == "Hate"
    # and the desk-scale substitute exists and is solvable only multimodally
    spec = SyntheticSpec(task="xor-crossmodal", n=8, seed=0)
    assert len(generate_synthetic(spec)) == 8
    _report(1, "no corpus-scale datasets bundled; synthetic substitutes stand in "
               "(reference numbers such as accuracy 79.2 / F1 55.89 are nowhere "
               "asserted)")


def test_criterion_02_gradient_suite_via_cli(capsys):
    start = time.time()
    code = main(["gradcheck", "--tol", "1e-4"])
    elapsed = time.time() - start
    out = capsys.readouterr().out
    assert code == 0, out
    assert "31/31 checks passed at tol 0.0001" in out, out
    assert elapsed < 120.0, f"gradcheck took {elapsed:.1f}s"
    with capsys.disabled():
        _report(2, f"cmd_gradcheck all-pass at tol 1e-4 in {elapsed:.1f}s")


def test_criterion_03_loss_oracles_exact():
    tol = 1e-9

    # J_auto = 0 at perfect reconstruction
    z = Tensor([[0.3, -1.2, 0.8, 2.0]])
    assert abs(auto_fusion_loss(z, Tensor(z.data.copy())).data.item()) < tol

    # J_C = ln C for a uniform prediction, whatever the label
    for c in (2, 5):
        uniform = np.full((1, c), 1.0 / c)
        value = nc.cross_entropy(np.array([c // 2]), Tensor(uniform)).data.item()
        assert abs(value - math.log(c)) < tol, (c, value)

    # both adversarial components equal -2 ln 2 at an indifferent discriminator
    components = []
    for name, seed in (("t", 0), ("v", 1)):
        module = GanFusionModule(latent_dim=3, name=name, rng=np.random.default_rng(seed))
        for p in module.discriminator_parameters():
            p.data[...] = 0.0  # sigmoid(0) = 0.5 for every input
        stack = GanStack([module])
        parts = gan_adv_loss(stack, Tensor(np.ones((1, 4, 3))), Tensor(np.zeros((1, 4, 3))),
                             noise=stack.sample_noise(4, np.random.default_rng(7)))
        assert abs(parts.j_adv.data.item() - (-2.0 * math.log(2.0))) < tol
        components.append(parts.j_adv)

    # J_adv is the sum of the two module objectives
    total = nc.add(*components).data.item()
    assert abs(total - (components[0].data.item() + components[1].data.item())) < tol
    assert abs(total - (-4.0 * math.log(2.0))) < tol
    _report(3, "J_auto zero point, J_C = ln C, J_adv components at -2 ln 2, "
               "and their sum all exact to 1e-9")


def test_criterion_04_metrics_oracle():
    rng = np.random.default_rng(20240)
    checked = 0
    for _ in range(1000):
        k = int(rng.integers(2, 7))
        names = tuple(chr(ord("A") + i) for i in range(k))
        space = LabelSpace(names)
        n = int(rng.integers(1, 201))
        truths = [names[i] for i in rng.integers(0, k, size=n)]
        preds = [names[i] for i in rng.integers(0, k, size=n)]
        report = evaluate(truths, preds, space)
        # independent brute-force recount, straight from the formulas
        f1s = []
        for name in names:
            tp = sum(1 for t, p in zip(truths, preds) if t == name and p == name)
            fp = sum(1 for t, p in zip(truths, preds) if t != name and p == name)
            fn = sum(1 for t, p in zip(truths, preds) if t == name and p != name)
            precision = tp / (tp + fp) if tp + fp else 0.0
            recall = tp / (tp + fn) if tp + fn else 0.0
            f1 = (2 * precision * recall / (precision + recall)
                  if precision + recall else 0.0)
            m = report.per_class[name]
            assert abs(m.precision - precision) < 1e-12
            assert abs(m.recall - recall) < 1e-12
            assert abs(m.f1 - f1) < 1e-12
            f1s.append(f1)
        assert abs(report.macro_f1 - sum(f1s) / k) < 1e-12
        overall = sum(1 for t, p in zip(truths, preds) if t == p) / n
        assert abs(report.accuracy - overall) < 1e-12
        checked += 1
    assert checked == 1000

    # the worked hand-count example
    truths = ["H", "H", "H", "H", "N", "N", "N", "N", "N", "N"]
    preds = ["H", "H", "H", "N", "H", "N", "N", "N", "N", "N"]
    report = evaluate(truths, preds, LabelSpace(("H", "N"), "binary"))
    assert abs(report.macro_f1 - (0.75 + 5.0 / 6.0) / 2.0) < 1e-12
    assert round(report.macro_f1, 6) == 0.791667
    _report(4, "1,000 randomized cases match the brute-force recount to 1e-12; "
               "hand-count macro-F 0.791667 reproduced")


# shared setup for the experiment matrix (criterion 5)
def _xor_data():
    spec = SyntheticSpec(task="xor-crossmodal", n=4000, seed=1)
    ds = generate_synthetic(spec)
    train_ds, val_ds, test_ds = split_dataset(ds, (0.8, 0.1, 0.1), seed=1)
    vocab = Vocab.from_texts([p.text for p in train_ds])
    return ds, train_ds, test_ds, vocab


def _experiment_model_config(kind: str, seed: int) -> ModelConfig:
    base = dict(latent_dim=12, embed_dim=8, hidden_dim=6, visual_channels=(4, 8),
                normalize_text=False, seed=seed)
    if kind == "text":
        return ModelConfig(input_modes="text", fusion=None, **base)
    if kind == "visual":
        return ModelConfig(input_modes="visual", fusion=None, **base)
    return ModelConfig(input_modes="multimodal", fusion=kind, fusion_out_dim=16, **base)


# criterion 5's data, built once in each worker process
_WORKER_DATA = None


def _build_worker_data():
    global _WORKER_DATA
    _WORKER_DATA = _xor_data()


def _experiment_run(kind: str, seed: int):
    """One seeded training of criterion 5's matrix: its test accuracy and
    its seconds."""
    ds, train_ds, test_ds, vocab = _WORKER_DATA
    started = time.time()
    model = build_model(_experiment_model_config(kind, seed), ds.label_space, vocab)
    train(model, train_ds, TrainConfig(epochs=6, batch_size=32, seed=seed))
    return evaluate_model(model, test_ds).accuracy, time.time() - started


def test_criterion_05_fusion_benefit_experiment():
    """Unimodal models sit at chance on the cross-modal xor task while every
    fusion mechanism solves it (>= 90% in at least 4 of 5 seeds). The 25
    seeded trainings are independent, so two worker processes share them;
    each run computes what it computes in a serial loop."""
    kinds = ("text", "visual", "concat", "auto", "gan")
    jobs = [(kind, seed) for kind in kinds for seed in (1, 2, 3, 4, 5)]
    with ProcessPoolExecutor(max_workers=2, initializer=_build_worker_data) as pool:
        results = list(pool.map(_experiment_run, *zip(*jobs)))
    accuracies = {kind: [acc for (k, _), (acc, _) in zip(jobs, results) if k == kind]
                  for kind in kinds}
    worst_runtime = max(seconds for _, seconds in results)

    for kind in ("text", "visual"):
        assert all(a <= 0.55 for a in accuracies[kind]), (kind, accuracies[kind])
    for kind in ("concat", "auto", "gan"):
        hits = sum(1 for a in accuracies[kind] if a >= 0.90)
        assert hits >= 4, (kind, accuracies[kind])
    assert worst_runtime < 300.0, f"a run took {worst_runtime:.0f}s"

    means = {k: float(np.mean(v)) for k, v in accuracies.items()}
    ordering = " > ".join(sorted(("concat", "auto", "gan"),
                                 key=lambda k: -means[k]))
    _report(5, "unimodal <= 55% on every seed "
               f"(text {max(accuracies['text']):.3f}, "
               f"visual {max(accuracies['visual']):.3f}); fusion >= 90% in "
               f"{min(sum(1 for a in accuracies[k] if a >= 0.9) for k in ('concat', 'auto', 'gan'))}/5 seeds; "
               f"worst run {worst_runtime:.0f}s. Observed mean ordering (not "
               f"asserted): {ordering} "
               f"[concat {means['concat']:.3f}, auto {means['auto']:.3f}, "
               f"gan {means['gan']:.3f}]")


def test_criterion_06_auto_fusion_descent():
    ds = generate_synthetic(SyntheticSpec(task="xor-crossmodal", n=320, seed=7))
    vocab = Vocab.from_texts([p.text for p in ds])
    model = build_model(
        ModelConfig(input_modes="multimodal", fusion="auto", latent_dim=8,
                    embed_dim=6, hidden_dim=4, visual_channels=(3, 5),
                    fusion_out_dim=8, normalize_text=False, seed=3),
        ds.label_space, vocab)
    # 320 samples / batch 16 = 20 steps per epoch; 10 epochs = 200 steps
    result = train(model, ds, TrainConfig(epochs=10, batch_size=16, seed=3))
    assert len(result.curves) == 200
    first, last = result.curves[0].j_f, result.curves[-1].j_f
    assert last < 0.5 * first, (first, last)
    _report(6, f"J_auto fell from {first:.3f} to {last:.3f} over 200 steps "
               f"({last / first:.1%} of initial)")


def test_criterion_07_gan_dynamics_sanity():
    """Matched source/target distributions on a 1-D toy: after adversarial
    training the discriminator cannot beat chance on held-out samples."""
    accuracies = []
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        module = GanFusionModule(latent_dim=1, name="toy", rng=rng, hidden_dim=16)
        stack = GanStack([module])  # the one module, run as training runs two
        d_opt = Adam(module.discriminator_parameters(), lr=1e-3)
        g_opt = Adam(module.generator_parameters(), lr=1e-3)
        for _ in range(800):
            for _ in range(2):  # k = 2 discriminator steps per generator step
                parts = gan_adv_loss(stack, Tensor(rng.standard_normal((1, 128, 1))),
                                     Tensor(rng.standard_normal((1, 128, 1))),
                                     noise=stack.sample_noise(128, rng))
                d_opt.step(nc.neg(parts.j_adv).backward(d_opt.params))
            parts = gan_adv_loss(stack, Tensor(rng.standard_normal((1, 128, 1))),
                                 Tensor(rng.standard_normal((1, 128, 1))),
                                 noise=stack.sample_noise(128, rng))
            g_opt.step(generator_loss(parts).backward(g_opt.params))

        held_out = np.random.default_rng(seed + 1000)
        real = Tensor(held_out.standard_normal((1, 500, 1)))
        z_g = stack.generate(Tensor(held_out.standard_normal((1, 500, 1))),
                             held_out.standard_normal((1, 500, 1)))
        d_real = stack.discriminate(real).data.ravel()
        d_fake = stack.discriminate(z_g).data.ravel()
        acc = (np.sum(d_real > 0.5) + np.sum(d_fake <= 0.5)) / 1000.0
        assert 0.4 <= acc <= 0.6, (seed, acc)
        accuracies.append(acc)
    _report(7, "held-out discriminator accuracy within 0.5 +/- 0.1 on every "
               "seed: " + ", ".join(f"{a:.3f}" for a in accuracies))


def test_criterion_08_normalizer_golden(tmp_path, capsys):
    from fuselab.textprep import normalize

    assert normalize(GOLDEN_IN).render() == GOLDEN_OUT
    src = tmp_path / "raw.txt"
    src.write_text(GOLDEN_IN + "\n", encoding="utf-8")
    assert main(["normalize", "--in", str(src)]) == 0
    assert capsys.readouterr().out == GOLDEN_OUT + "\n"
    with capsys.disabled():
        _report(8, "the printed normalization of the reference sentence matches "
                   "exactly")


_DET_CONFIG = """\
[experiment]
seed = 11

[model]
input_modes = multimodal
fusion = gan
latent_dim = 10
embed_dim = 8
hidden_dim = 5
visual_channels = 4,6
fusion_out_dim = 12
normalize_text = false

[data]
synthetic_task = xor-crossmodal
synthetic_n = 400

[train]
epochs = 2
batch_size = 32
"""


def test_criterion_09_cmd_train_determinism(tmp_path, capsys):
    config = tmp_path / "exp.ini"
    config.write_text(_DET_CONFIG, encoding="utf-8")
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert main(["train", "--config", str(config), "--out", str(out)]) == 0
        outs.append(out)
    capsys.readouterr()

    curves = []
    for out in outs:
        rows = (out / "loss.csv").read_text().splitlines()[1:]
        curves.append([tuple(float(x) for x in row.split(",")[1:]) for row in rows])
    assert len(curves[0]) == len(curves[1])
    for row_a, row_b in zip(*curves):
        for a, b in zip(row_a, row_b):
            assert abs(a - b) <= 1e-12, (row_a, row_b)
    table_a = (outs[0] / "metrics.txt").read_bytes()
    table_b = (outs[1] / "metrics.txt").read_bytes()
    assert table_a == table_b
    with capsys.disabled():
        _report(9, "repeated cmd_train runs: loss curves within 1e-12 "
                   "(bitwise equal here) and identical metrics tables")


def test_criterion_10_parameter_partition_100_steps():
    from fuselab.datakit import BatchStream
    from fuselab.training.loop import _train_step, step_discriminator
    from fuselab.training.optim import Adam

    ds = generate_synthetic(SyntheticSpec(task="xor-crossmodal", n=100, seed=5))
    vocab = Vocab.from_texts([p.text for p in ds])
    model = build_model(
        ModelConfig(input_modes="multimodal", fusion="gan", latent_dim=8,
                    embed_dim=6, hidden_dim=4, visual_channels=(3, 5),
                    fusion_out_dim=8, normalize_text=False, seed=9),
        ds.label_space, vocab)
    config = TrainConfig(epochs=10, batch_size=10, seed=2)
    main_params = model.main_parameters()
    disc_params = model.discriminator_parameters()
    main_opt = Adam(main_params, config.lr)
    disc_opt = Adam(disc_params, config.lr)
    rng = np.random.default_rng(config.seed)
    stream = BatchStream(ds, config.batch_size, seed=config.seed)

    steps = 0
    for _ in range(config.epochs):
        for idx in stream.indices():
            batch = model.prepare([ds.publications[i] for i in idx])
            main_before = [p.data.copy() for p in main_params]
            latents = model.encode(batch)  # as _train_step passes them
            step_discriminator(model, latents, disc_opt, rng, steps)
            for before, p in zip(main_before, main_params):
                assert np.array_equal(before, p.data), \
                    f"discriminator update moved {p.name} at step {steps}"

            disc_before = [p.data.copy() for p in disc_params]
            _train_step(model, batch, rng, main_opt, None, steps)
            for before, p in zip(disc_before, disc_params):
                assert np.array_equal(before, p.data), \
                    f"generator-side update moved {p.name} at step {steps}"
            steps += 1
    assert steps == 100
    _report(10, "snapshot diffs over a 100-step adversarial run: D updates "
                "touched only D parameters; main updates never touched D")
