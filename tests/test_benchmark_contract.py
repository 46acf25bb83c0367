"""The names the benchmark in perfbench/ reaches fuselab by.

perfbench wraps fuselab functions and methods by module and attribute
name, and a target that is gone fails the run. These tests catch a
rename here first, and pin how many objective evaluations one
finite-difference check makes: the gradcheck workload times each one.
socialgen, which writes the text workload's posts, is built here too.
"""

from pathlib import Path

import numpy as np
import pytest

from fuselab import numcore as nc

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    return tracing


def test_social_post_generator_reaches_the_library_api(monkeypatch):
    """perfbench/socialgen.py builds the train-text-social posts from
    load_lexicons and the datakit types; no other test imports it."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import socialgen

    from fuselab.datakit import BINARY_SPACE

    ds = socialgen.SocialPostGenerator(0).dataset(20)
    assert len(ds) == 20 and ds.label_space == BINARY_SPACE
    assert {p.label for p in ds} <= set(BINARY_SPACE.names)


def test_every_span_and_probe_target_resolves(tracing):
    for _, module, path, _ in tracing.SPANS:
        tracing._resolve(module, path)
    for module, path in tracing.ProbeClock.TARGETS:
        tracing._resolve(module, path)


def test_step_clock_wraps_evaluate_model_through_the_loop_module(tracing):
    from hostspeed import Timeline

    from fuselab.training import loop

    original = loop.evaluate_model
    clock = tracing.StepClock(Timeline())
    clock.install()
    try:
        assert loop.evaluate_model is not original
    finally:
        clock.uninstall()
    assert loop.evaluate_model is original


def test_step_clock_stamps_each_main_step_of_a_gan_run(tracing):
    """StepClock's wrapper passes step(grads) through and tells the main
    optimizer from the discriminator optimizer by opt.params: one stamp
    per main step, none for the discriminator step before it."""
    from hostspeed import Timeline

    from fuselab.datakit import SyntheticSpec, Vocab, generate_synthetic
    from fuselab.training import ModelConfig, TrainConfig, build_model, train

    ds = generate_synthetic(SyntheticSpec(task="xor-crossmodal", n=24, seed=1))
    model = build_model(ModelConfig(fusion="gan", latent_dim=4, embed_dim=3, hidden_dim=2,
                                    visual_channels=(2, 3), normalize_text=False),
                        ds.label_space, Vocab.from_texts([p.text for p in ds]))
    clock = tracing.StepClock(Timeline())
    clock.install()
    try:
        clock.watch(model)
        result = train(model, ds, TrainConfig(epochs=1, batch_size=8))
    finally:
        clock.uninstall()
    assert len(result.curves) == 3
    assert len(clock.stamps) == len(result.curves)


def test_forward_batch_rows_are_prepared_publications(tracing):
    """The training.forward_batch span counts the rows of its batch
    argument, a PreparedBatch, with len()."""
    from fuselab.datakit import SyntheticSpec, Vocab, generate_synthetic
    from fuselab.training import ModelConfig, build_model

    ((_, _, _, rows_arg),) = [s for s in tracing.SPANS if s[0] == "training.forward_batch"]
    assert rows_arg == 1
    ds = generate_synthetic(SyntheticSpec(task="xor-crossmodal", n=5, seed=1))
    model = build_model(ModelConfig(fusion="concat", latent_dim=4, embed_dim=3,
                                    hidden_dim=2, visual_channels=(2, 3)),
                        ds.label_space, Vocab.from_texts([p.text for p in ds]))
    pubs = ds.publications
    assert tracing._rows(model.prepare(pubs)) == len(pubs)
    assert tracing._rows(model.prepare(pubs).take([3, 0])) == 2


@pytest.mark.parametrize("check", ["grad_check", "grad_check_params"])
def test_one_check_on_a_three_vector_records_seven_probes(tracing, check):
    """One analytic pass plus two probes per coordinate: a check that
    called the other by its public name would record each probe twice."""
    from hostspeed import Timeline

    clock = tracing.ProbeClock(Timeline())
    clock.install()
    try:
        point = np.array([0.3, -0.2, 0.5])
        if check == "grad_check":
            report = nc.grad_check(lambda x: nc.tsum(nc.tanh(x)), nc.Tensor(point))
        else:
            w = nc.Tensor(point, name="w")
            (report,) = nc.grad_check_params(lambda: nc.tsum(nc.tanh(w)), [w]).values()
    finally:
        clock.uninstall()
    assert report.passed
    assert len(clock.probes) == 7
