"""The one-node layer ops against the primitive chains they replaced.

Each property draws shapes and values, runs an op and the chain of
primitive ops it stands for, and requires the forward values and the
gradient of every parent to be the same bytes. A stacked dense of K
layers is checked against K separate chains, and one stacked GAN pass of
two modules against two passes of one.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fuselab import numcore as nc
from fuselab.fusion import GanFusionModule, GanStack, gan_adv_loss, generator_loss
from fuselab.numcore import Tensor

from reference_ops import argmax_maxpool2d, linear, relu, sigmoid, tslice

ACTIVATION_OPS = {"identity": lambda z: z, "relu": relu, "sigmoid": sigmoid,
                  "tanh": nc.tanh, "softmax": lambda z: nc.softmax(z, axis=-1)}


def _t(r, *shape):
    return Tensor(r.normal(size=shape))


def _same(got, want):
    """Forward values or gradients: the same bytes, None where None."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a is None) == (b is None)
        if a is not None:
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


def _grads(out, weights, wrt):
    return nc.tsum(nc.mul(out, weights)).backward(wrt)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(activation=st.sampled_from(sorted(ACTIVATION_OPS)), vector=st.booleans(),
       batch=st.integers(1, 4), n_in=st.integers(1, 5), n_out=st.integers(1, 5),
       seed=st.integers(0, 2**16))
def test_dense_is_linear_then_its_activation(activation, vector, batch, n_in, n_out, seed):
    r = np.random.default_rng(seed)
    x = _t(r, n_in) if vector else _t(r, batch, n_in)
    w, b = _t(r, n_out, n_in), _t(r, n_out)
    fused = nc.dense(x, w, b, activation)
    chain = ACTIVATION_OPS[activation](linear(x, w, b))
    weights = _t(r, *fused.shape)
    _same([fused.data] + _grads(fused, weights, [x, w, b]),
          [chain.data] + _grads(chain, weights, [x, w, b]))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(activation=st.sampled_from(sorted(ACTIVATION_OPS)), k=st.integers(1, 2),
       batch=st.integers(1, 4), n_in=st.integers(1, 5), n_out=st.integers(1, 5),
       seed=st.integers(0, 2**16))
def test_stacked_dense_is_one_chain_per_slab(activation, k, batch, n_in, n_out, seed):
    """K layers over a (K, batch, in) stack: slab k's values and the
    gradients of its input, weight and bias are those of layer k alone."""
    r = np.random.default_rng(seed)
    xs = [_t(r, batch, n_in) for _ in range(k)]
    ws = [_t(r, n_out, n_in) for _ in range(k)]
    bs = [_t(r, n_out) for _ in range(k)]
    weights = r.normal(size=(k, batch, n_out))
    fused = nc.dense(nc.stack(xs), ws, bs, activation)
    chains = [ACTIVATION_OPS[activation](linear(x, w, b)) for x, w, b in zip(xs, ws, bs)]
    loss = nc.tsum(nc.mul(chains[0], Tensor(weights[0])))
    for i in range(1, k):
        loss = nc.add(loss, nc.tsum(nc.mul(chains[i], Tensor(weights[i]))))
    wrt = xs + ws + bs
    _same(list(fused.data) + _grads(fused, Tensor(weights), wrt),
          [c.data for c in chains] + loss.backward(wrt))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(batch=st.integers(1, 3), h=st.integers(2, 7), w=st.integers(2, 7),
       c=st.integers(1, 3), f=st.integers(1, 3), kh=st.integers(1, 3), kw=st.integers(1, 3),
       seed=st.integers(0, 2**16))
def test_conv2d_with_relu_is_conv2d_then_relu(batch, h, w, c, f, kh, kw, seed):
    r = np.random.default_rng(seed)
    kh, kw = min(kh, h), min(kw, w)
    x, kernel, bias = _t(r, batch, h, w, c), _t(r, kh, kw, c, f), _t(r, f)
    fused = nc.conv2d(x, kernel, bias, relu=True)
    chain = relu(nc.conv2d(x, kernel, bias))
    weights = _t(r, *fused.shape)
    _same([fused.data] + _grads(fused, weights, [x, kernel, bias]),
          [chain.data] + _grads(chain, weights, [x, kernel, bias]))


def _summary_chain(x, grid):
    """The slice, mean and concat chain of the visual summary grid."""
    _, h, w, _ = x.shape
    h_cuts = [round(i * h / grid) for i in range(grid + 1)]
    w_cuts = [round(j * w / grid) for j in range(grid + 1)]
    cells = [nc.tmean(tslice(x, np.s_[:, h_cuts[i] : h_cuts[i + 1],
                                      w_cuts[j] : w_cuts[j + 1], :]), axis=(1, 2))
             for i in range(grid) for j in range(grid)]
    return nc.concat(cells, axis=1)


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(batch=st.integers(1, 3), h=st.integers(1, 9), w=st.integers(1, 9),
       c=st.integers(1, 3), grid=st.integers(1, 3), relu=st.booleans(),
       seed=st.integers(0, 2**16))
def test_cell_means_is_the_slice_mean_concat_chain(batch, h, w, c, grid, relu, seed):
    """Odd H and W give uneven cells; relu'd grids hold exact zeros."""
    r = np.random.default_rng(seed)
    grid = min(grid, h, w)
    x = _t(r, batch, h, w, c)
    if relu:
        x = Tensor(np.maximum(x.data, 0.0))
    fused = nc.cell_means(x, grid)
    chain = _summary_chain(x, grid)
    weights = _t(r, *fused.shape)
    _same([fused.data] + _grads(fused, weights, [x]),
          [chain.data] + _grads(chain, weights, [x]))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(batch=st.integers(1, 5), classes=st.integers(1, 4), zeros=st.booleans(),
       seed=st.integers(0, 2**16))
def test_cross_entropy_is_the_log_mul_sum_mean_neg_chain(batch, classes, zeros, seed):
    """The op on class indices is the chain on their one-hot rows.  Exact
    zeros among the probabilities reach log's clamp."""
    r = np.random.default_rng(seed)
    probs = r.uniform(size=(batch, classes))
    if zeros:
        probs[r.uniform(size=probs.shape) < 0.3] = 0.0
    probs = Tensor(probs)
    labels = r.integers(0, classes, size=batch)
    targets = np.eye(classes)[labels]
    fused = nc.cross_entropy(labels, probs)
    chain = nc.neg(nc.tmean(nc.tsum(nc.mul(Tensor(targets), nc.tlog(probs)), axis=1)))
    _same([fused.data] + fused.backward([probs]), [chain.data] + chain.backward([probs]))


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(batch=st.integers(1, 3), h=st.integers(1, 7), w=st.integers(1, 7),
       c=st.integers(1, 3), size=st.integers(1, 3), ties=st.booleans(),
       seed=st.integers(0, 2**16))
def test_maxpool2d_is_the_argmax_maxpool(batch, h, w, c, size, ties, seed):
    """Windows full of tied zeros (what a relu leaves) or of few distinct
    values send each window's gradient to its first maximum only."""
    r = np.random.default_rng(seed)
    size = min(size, h, w)
    if ties:
        x = Tensor(np.maximum(r.integers(-2, 2, size=(batch, h, w, c)), 0).astype(float))
    else:
        x = _t(r, batch, h, w, c)
    fused = nc.maxpool2d(x, size)
    reference = argmax_maxpool2d(x, size)
    weights = _t(r, *fused.shape)
    _same([fused.data] + _grads(fused, weights, [x]),
          [reference.data] + _grads(reference, weights, [x]))


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(batch=st.integers(1, 4), d=st.integers(1, 5), seed=st.integers(0, 2**16))
def test_one_stacked_gan_pass_is_two_passes_of_one(batch, d, seed):
    """Two modules as one stack of two compute, per module, the values
    and parameter gradients of each module run as a stack of one: the
    adversarial objective and scores, and the generator term."""
    r = np.random.default_rng(seed)
    modules = [GanFusionModule(d, f"m{k}", rng=np.random.default_rng(seed + k))
               for k in range(2)]
    real, source = r.normal(size=(2, batch, d)), r.normal(size=(2, batch, d))
    noise = r.normal(size=(2, batch, modules[0].noise_dim))

    def run(stack, rows):
        parts = gan_adv_loss(stack, Tensor(real[rows]), Tensor(source[rows]),
                             noise=noise[rows])
        params = [p for m in stack.modules
                  for p in m.generator_parameters() + m.discriminator_parameters()]
        gen_params = [p for m in stack.modules for p in m.generator_parameters()]
        return ([parts.j_adv.data, parts.d_real.data, parts.d_fake.data]
                + nc.tsum(parts.j_adv).backward(params)
                + generator_loss(parts).backward(gen_params))

    both = run(GanStack(modules), slice(0, 2))
    alone = [run(GanStack([m]), slice(k, k + 1)) for k, m in enumerate(modules)]
    values, grads = both[:3], both[3:]
    for k in range(2):
        _same([v[k : k + 1] for v in values], alone[k][:3])
    # parameters are listed module by module: 8 per module for J_adv,
    # then 4 per module for the generator term
    _same(grads[:8] + grads[16:20], alone[0][3:])
    _same(grads[8:16] + grads[20:24], alone[1][3:])
