"""The finite-difference verifier, and per-primitive gradient coverage."""

import zlib

import numpy as np
import pytest

from fuselab import numcore as nc
from fuselab.exceptions import ConfigError, DomainError, EvaluationError


def test_square_at_three():
    report = nc.grad_check(lambda x: nc.mul(x, x), nc.Tensor(3.0), h=1e-5, tol=1e-4)
    assert report.passed
    assert abs(report.analytic_at_worst - 6.0) < 1e-9 or report.max_rel_err < 1e-6


def test_constant_function_passes():
    report = nc.grad_check(lambda x: nc.add(nc.mul(nc.Tensor(1.0), 1.0), nc.mul(0.0, nc.tsum(x))),
                           nc.Tensor([1.0, 2.0]))
    assert report.passed
    assert report.max_rel_err < 1e-12


def test_dense_sigmoid_norm_pipeline():
    rng = np.random.default_rng(5)
    w = nc.Tensor(rng.normal(size=(3, 4)))
    b = nc.Tensor(rng.normal(size=3))

    def f(x):
        return nc.squared_norm(nc.dense(x, w, b, "sigmoid"))

    report = nc.grad_check(f, nc.Tensor(rng.normal(size=4)), h=1e-5, tol=1e-4)
    assert report.passed, report


def test_non_finite_evaluation_reports_coordinate():
    def f(x):
        # bypasses op-level checks on purpose to hand grad_check a NaN
        with np.errstate(invalid="ignore"):
            return nc.Tensor(np.log(float(x.data[0])))

    with pytest.raises(EvaluationError) as exc:
        nc.grad_check(f, nc.Tensor([5e-6]), h=1e-5)
    assert exc.value.coordinate == (0,)


# one scalar-valued wrapper per primitive; constants are frozen per case so
# repeated evaluations inside grad_check see the same function. linear,
# sigmoid and relu are dense's identity, sigmoid and relu layers, the forms
# the models run them in
def _case_factories():
    def const(rng, shape):
        return nc.Tensor(rng.normal(size=shape))

    return [
        ("add", (5,), lambda rng: (lambda x, c=const(rng, (5,)): nc.tsum(nc.add(x, c)))),
        ("sub", (5,), lambda rng: (lambda x, c=const(rng, (5,)): nc.tsum(nc.sub(c, x)))),
        ("mul", (5,), lambda rng: (lambda x, c=const(rng, (5,)): nc.tsum(nc.mul(x, c)))),
        ("div", (5,), lambda rng: (lambda x, c=const(rng, (5,)): nc.tsum(nc.div(c, nc.add(nc.mul(x, x), 1.0))))),
        ("neg", (5,), lambda rng: (lambda x: nc.tsum(nc.neg(x)))),
        ("matmul", (2, 4), lambda rng: (lambda x, c=const(rng, (4, 3)): nc.tsum(nc.matmul(x, c)))),
        ("linear", (2, 4), lambda rng: (lambda x, w=const(rng, (3, 4)), b=const(rng, (3,)): nc.tsum(nc.dense(x, w, b)))),
        ("concat", (4,), lambda rng: (lambda x, c=const(rng, (3,)): nc.squared_norm(nc.concat([x, c], axis=0)))),
        ("take_rows", (3, 2), lambda rng: (lambda x: nc.tsum(nc.take_rows(x, np.array([0, 2, 2]))))),
        ("reshape", (2, 3), lambda rng: (lambda x: nc.squared_norm(nc.reshape(x, (6,))))),
        ("sum_axis", (3, 4), lambda rng: (lambda x: nc.squared_norm(nc.tsum(x, axis=0)))),
        ("mean", (3, 4), lambda rng: (lambda x: nc.squared_norm(nc.tmean(x, axis=1)))),
        ("log", (5,), lambda rng: (lambda x: nc.tsum(nc.tlog(nc.add(nc.mul(x, x), 0.5))))),
        ("tanh", (5,), lambda rng: (lambda x: nc.tsum(nc.tanh(x)))),
        ("sigmoid", (2, 4), lambda rng: (lambda x, w=const(rng, (3, 4)), b=const(rng, (3,)): nc.tsum(nc.dense(x, w, b, "sigmoid")))),
        ("relu", (2, 4), lambda rng: (lambda x, w=const(rng, (3, 4)), b=const(rng, (3,)): nc.tsum(nc.dense(x, w, b, "relu")))),
        ("softmax", (2, 4), lambda rng: (lambda x: nc.squared_norm(nc.softmax(x, axis=-1)))),
        ("squared_norm", (5,), lambda rng: (lambda x: nc.squared_norm(x))),
        ("row_scale", (3, 4), lambda rng: (lambda x, c=const(rng, (3,)): nc.tsum(nc.row_scale(x, c)))),
        ("conv2d", (1, 6, 6, 1), lambda rng: (lambda x, k=const(rng, (3, 3, 1, 2)), b=const(rng, (2,)): nc.squared_norm(nc.conv2d(x, k, b)))),
        ("maxpool2d", (1, 6, 6, 2), lambda rng: (lambda x: nc.squared_norm(nc.maxpool2d(x, 2)))),
        ("dense", (2, 4), lambda rng: (lambda x, w=const(rng, (3, 4)), b=const(rng, (3,)): nc.squared_norm(nc.dense(x, w, b, "tanh")))),
        ("dense_stacked", (2, 3, 4), lambda rng: (lambda x, w=[const(rng, (3, 4)), const(rng, (3, 4))], b=[const(rng, (3,)), const(rng, (3,))]: nc.squared_norm(nc.dense(x, w, b, "sigmoid")))),
        ("conv2d_relu", (1, 6, 6, 1), lambda rng: (lambda x, k=const(rng, (3, 3, 1, 2)), b=const(rng, (2,)): nc.squared_norm(nc.conv2d(x, k, b, relu=True)))),
        ("cell_means", (2, 5, 5, 2), lambda rng: (lambda x: nc.squared_norm(nc.cell_means(x, 2)))),
        ("cross_entropy", (2, 3), lambda rng: (lambda x, t=rng.integers(0, 3, size=2): nc.cross_entropy(t, nc.softmax(x)))),
        ("stack", (2, 3), lambda rng: (lambda x, c=const(rng, (2, 3)): nc.squared_norm(nc.stack([x, c, x])))),
        ("side_by_side", (2, 2, 3), lambda rng: (lambda x: nc.squared_norm(nc.side_by_side(x)))),
    ]


_CASES = _case_factories()


@pytest.mark.parametrize("name,shape,factory", _CASES, ids=[c[0] for c in _CASES])
def test_primitive_gradients_match_finite_differences(name, shape, factory):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    for _ in range(8):
        f = factory(rng)
        x = nc.Tensor(rng.normal(size=shape))
        report = nc.grad_check(f, x, h=1e-5, tol=1e-4, label=name)
        assert report.passed, report


def test_hundred_random_points_across_primitives():
    # the invariant as stated: 100 random points across the primitive family
    rng = np.random.default_rng(99)
    for count in range(100):
        name, shape, factory = _CASES[count % len(_CASES)]
        f = factory(rng)
        x = nc.Tensor(rng.normal(size=shape))
        report = nc.grad_check(f, x, h=1e-5, tol=1e-4, label=name)
        assert report.passed, report


def test_non_finite_probe_in_grad_check_reports_its_coordinate():
    def f(x):
        # finite at the base point; the +h probe of x[1, 0] reaches log(0)
        with np.errstate(divide="ignore"):
            return nc.Tensor(np.log(1e-5 - float(x.data[1, 0])) + float(x.data.sum()))

    with pytest.raises(EvaluationError) as exc:
        nc.grad_check(f, nc.Tensor(np.zeros((2, 2))), h=1e-5)
    assert exc.value.coordinate == (1, 0)


def test_non_finite_probe_in_grad_check_params_reports_its_coordinate():
    w = nc.Tensor(np.zeros((2, 3)), name="w")

    def f():
        # differentiable at the base point; the -h probe of w[0, 2] bypasses
        # the op-level check and returns a NaN
        val = nc.squared_norm(w)
        if w.data[0, 2] < 0:
            return nc.Tensor(np.nan)
        return val

    with pytest.raises(EvaluationError) as exc:
        nc.grad_check_params(f, [w])
    assert exc.value.coordinate == (0, 2)
    assert np.array_equal(w.data, np.zeros((2, 3)))  # the probe was undone


@pytest.mark.parametrize("h, tol", [(0.0, 1e-4), (-1e-5, 1e-4), (np.inf, 1e-4),
                                    (np.nan, 1e-4), (1e-5, 0.0), (1e-5, -1.0),
                                    (1e-5, np.nan), (1e-5, np.inf)])
def test_step_and_tolerance_must_be_finite_and_positive(h, tol):
    """Both entry points refuse the settings before evaluating anything."""
    calls = []
    w = nc.Tensor(np.ones(3), name="w")

    def f(*args):
        calls.append(1)
        return nc.squared_norm(w)

    with pytest.raises(ConfigError, match="must be finite and positive"):
        nc.grad_check(f, nc.Tensor(np.ones(3)), h=h, tol=tol)
    with pytest.raises(ConfigError, match="must be finite and positive"):
        nc.grad_check_params(f, [w], h=h, tol=tol)
    assert not calls


def test_only_the_analytic_pass_records_a_graph():
    w = nc.Tensor(np.ones(3))
    recorded = []

    def f_params():
        out = nc.squared_norm(nc.tanh(w))
        recorded.append(out._backward is not None)
        return out

    def f_point(x):
        out = nc.squared_norm(nc.mul(x, w))
        recorded.append(out._backward is not None)
        return out

    assert all(r.passed for r in nc.grad_check_params(f_params, [w]).values())
    assert recorded == [True] + [False] * 6
    recorded.clear()
    assert nc.grad_check(f_point, nc.Tensor(np.ones(3))).passed
    assert recorded == [True] + [False] * 6


def test_failing_probe_leaves_parameters_unperturbed():
    w = nc.Tensor(np.array([0.0, 2.0]))
    with pytest.raises(DomainError):
        # the -h probe of w[0] divides by zero inside an op
        nc.grad_check_params(lambda: nc.tsum(nc.div(1.0, nc.add(w, 1e-5))), [w])
    assert np.array_equal(w.data, [0.0, 2.0])


def test_suite_checks_the_fused_recurrence_in_both_directions():
    from fuselab.gradsuite import _primitive_checks

    reports = _primitive_checks(np.random.default_rng(0), h=1e-5, tol=1e-4)
    (report,) = [r for r in reports if r.label.startswith("op gated_recurrence")]
    assert report.passed, report


def test_end_to_end_checks_build_the_heads_the_shipped_configs_train(monkeypatch):
    """Each `end_to_end` check reads a model with the parameter names of the
    one run_experiment builds from the matching shipped config, so the suite
    checks the fusion head that config trains; the GAN combiner reads
    4 * latent_dim inputs in both."""
    import pathlib

    from fuselab import experiment, gradsuite
    from fuselab.config import load_experiment_config

    class Built(Exception):
        pass

    checked, shipped = {}, {}

    def check(model, pubs, h, tol):
        checked[model.config.fusion] = model
        return {"all": nc.CheckReport(max_rel_err=0.0, passed=True)}

    def train(model, *args, **kwargs):
        shipped[model.config.fusion] = model
        raise Built

    monkeypatch.setattr(gradsuite, "end_to_end_check", check)
    gradsuite._end_to_end_checks(h=1e-5, tol=1e-4)
    monkeypatch.setattr(experiment, "train", train)
    configs = pathlib.Path(__file__).parent.parent / "configs"
    for fusion in ("concat", "auto", "gan"):
        with pytest.raises(Built):
            experiment.run_experiment(load_experiment_config(configs / f"xor-{fusion}.ini"))

    assert sorted(checked) == sorted(shipped) == ["auto", "concat", "gan"]
    for fusion, model in checked.items():
        names = [name for name, _ in model.named_parameters()]
        assert names == [name for name, _ in shipped[fusion].named_parameters()], fusion
    for model in (checked["gan"], shipped["gan"]):
        assert model.mechanism.combiner.in_dim == 4 * model.config.latent_dim


def test_fused_recurrence_with_distinct_direction_weights_passes_grad_check():
    """The suite passes one (w, b) to both directions, so a fused op that
    swapped the two directions' gradients would pass it; here each
    direction has its own weights, over drawn lengths."""
    rng = np.random.default_rng(23)
    x = nc.Tensor(rng.normal(size=(3, 5, 3)), name="x")
    params = [x]
    for direction in ("fwd", "bwd"):
        params.append(nc.Tensor(rng.uniform(-0.6, 0.6, size=(8, 5)), name=f"{direction}.w"))
        params.append(nc.Tensor(rng.normal(size=8), name=f"{direction}.b"))
    lengths = np.array([5, 2, 4])
    weights = nc.Tensor(rng.normal(size=(3, 5, 4)))
    reports = nc.grad_check_params(
        lambda: nc.tsum(nc.mul(nc.gated_recurrence(*params, lengths=lengths), weights)),
        params, h=1e-5, tol=1e-4)
    assert len(reports) == 5 and all(r.passed for r in reports.values()), reports


# Encoder forwards the three end-to-end checks make: per mechanism, two
# probes of each of that encoder's coordinates against J_C, the analytic
# pass of its group, and the one encode whose latents every other probe
# holds fixed. Both counts were 1662 while every encoder probe ran both
# encoders.
E2E_ENCODER_COORDS = {"text": 147, "visual": 129}
E2E_ENCODES = {modality: 3 * (2 * coords + 2)
               for modality, coords in E2E_ENCODER_COORDS.items()}


def _expected_groups(model):
    """The probe group of each parameter after the encoders: which of J_C
    and the fusion term reach it."""
    mech, classifier = model.mechanism, model.classifier.parameters()
    if model.config.fusion == "concat":
        return {"J_C": mech.parameters() + classifier}
    if model.config.fusion == "auto":
        return {"J": mech.encoder.parameters(), "term": mech.decoder.parameters(),
                "J_C": classifier}
    return {"J": mech.text_module.generator_parameters()
            + mech.visual_module.generator_parameters(),
            "J_C": mech.combiner.parameters() + classifier,
            "term": mech.discriminator_parameters()}


def test_end_to_end_checks_encode_within_budget(monkeypatch):
    from fuselab import gradsuite
    from fuselab.layers import ConvVisualEncoder, RecurrentTextEncoder

    calls = {"text": 0, "visual": 0}
    for modality, cls in (("text", RecurrentTextEncoder), ("visual", ConvVisualEncoder)):
        def counted(self, *args, _encode=cls.encode_batch, _modality=modality):
            calls[_modality] += 1
            return _encode(self, *args)
        monkeypatch.setattr(cls, "encode_batch", counted)

    groups, end_to_end_groups = {}, gradsuite.end_to_end_groups

    def recorded(model, batch):
        runs = end_to_end_groups(model, batch)
        names = {}
        for label, _, params in runs:
            names.setdefault(label, []).extend(p.name for p in params)
        groups[model.config.fusion] = model, names
        return runs

    monkeypatch.setattr(gradsuite, "end_to_end_groups", recorded)
    reports = gradsuite._end_to_end_checks(h=1e-5, tol=1e-4)
    assert all(r.passed for r in reports), reports
    assert sorted(groups) == ["auto", "concat", "gan"]
    for fusion, (model, names) in groups.items():
        expected = {modality: encoder.parameters()
                    for modality, encoder in model.encoders().items()}
        expected.update(_expected_groups(model))
        assert names == {label: [p.name for p in params]
                         for label, params in expected.items()}, fusion
        assert {modality: sum(p.size for p in encoder.parameters())
                for modality, encoder in model.encoders().items()} == E2E_ENCODER_COORDS
    assert calls == E2E_ENCODES == {"text": 888, "visual": 780}
