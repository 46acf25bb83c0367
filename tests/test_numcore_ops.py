"""Forward semantics of the tensor primitives."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuselab import numcore as nc
from fuselab.exceptions import DomainError, ShapeError


def test_softmax_symmetry():
    out = nc.softmax(nc.Tensor([0.0, 0.0]))
    assert np.allclose(out.data, [0.5, 0.5], atol=0)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = nc.Tensor(rng.normal(scale=50.0, size=(4, 7)))
        y = nc.softmax(x, axis=-1)
        assert np.all(y.data >= 0.0)
        assert np.max(np.abs(y.data.sum(axis=-1) - 1.0)) < 1e-12


def test_softmax_extreme_logits_stable():
    y = nc.softmax(nc.Tensor([1000.0, 0.0, -1000.0]))
    assert np.isfinite(y.data).all()
    assert abs(y.data.sum() - 1.0) < 1e-12


def test_concat_definition():
    out = nc.concat([nc.Tensor([1.0, 2.0]), nc.Tensor([3.0])], axis=0)
    assert out.data.tolist() == [1.0, 2.0, 3.0]


def test_squared_norm_hand_value():
    # ||(1,2,3) - (1,1,1)||^2 = 0 + 1 + 4
    d = nc.sub(nc.Tensor([1.0, 2.0, 3.0]), nc.Tensor([1.0, 1.0, 1.0]))
    assert nc.squared_norm(d).data.item() == 5.0


def test_matmul_inner_dim_mismatch_names_shapes():
    with pytest.raises(ShapeError) as exc:
        nc.matmul(nc.Tensor(np.ones((2, 3))), nc.Tensor(np.ones((2, 3))))
    assert "(2, 3)" in str(exc.value)


def test_add_shape_mismatch():
    with pytest.raises(ShapeError):
        nc.add(nc.Tensor([1.0, 2.0]), nc.Tensor([1.0, 2.0, 3.0]))


def test_scalar_broadcast_allowed():
    out = nc.mul(nc.Tensor([1.0, 2.0]), 3.0)
    assert out.data.tolist() == [3.0, 6.0]
    out = nc.add(1.0, nc.Tensor([[1.0], [2.0]]))
    assert out.data.tolist() == [[2.0], [3.0]]


def test_log_negative_is_domain_error():
    with pytest.raises(DomainError):
        nc.tlog(nc.Tensor([-1.0]))


def test_log_clamps_at_epsilon():
    out = nc.tlog(nc.Tensor([0.0]))
    assert np.allclose(out.data, np.log(nc.LOG_EPS))


def test_div_by_zero_is_domain_error():
    with pytest.raises(DomainError):
        nc.div(nc.Tensor([1.0]), nc.Tensor([0.0]))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_non_finite_result_rejected():
    with pytest.raises(DomainError):
        nc.mul(nc.Tensor([1e200]), nc.Tensor([1e200]))


def test_matmul_value():
    a = nc.Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = nc.Tensor([[5.0], [6.0]])
    assert nc.matmul(a, b).data.tolist() == [[17.0], [39.0]]


def test_matmul_vector_cases():
    m = nc.Tensor([[1.0, 2.0], [3.0, 4.0]])
    v = nc.Tensor([1.0, 1.0])
    assert nc.matmul(m, v).data.tolist() == [3.0, 7.0]
    assert nc.matmul(v, m).data.tolist() == [4.0, 6.0]
    assert nc.matmul(v, v).data.item() == 2.0


def test_linear_matches_manual_affine():
    rng = np.random.default_rng(1)
    x = nc.Tensor(rng.normal(size=(5, 3)))
    w = nc.Tensor(rng.normal(size=(4, 3)))
    b = nc.Tensor(rng.normal(size=4))
    out = nc.linear(x, w, b)
    assert np.allclose(out.data, x.data @ w.data.T + b.data)


def test_mean_and_sum_axes():
    x = nc.Tensor(np.arange(12.0).reshape(3, 4))
    assert nc.tsum(x).data.item() == 66.0
    assert nc.tmean(x, axis=0).data.tolist() == [4.0, 5.0, 6.0, 7.0]
    assert nc.tsum(x, axis=1).data.tolist() == [6.0, 22.0, 38.0]


def test_slice_and_reshape_round_trip():
    x = nc.Tensor(np.arange(6.0).reshape(2, 3))
    assert x[1].data.tolist() == [3.0, 4.0, 5.0]
    assert x[:, 1:].data.tolist() == [[1.0, 2.0], [4.0, 5.0]]
    assert x.reshape(6).data.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]


def test_conv2d_known_kernel():
    # 3x3 grid of ones, 2x2 sum kernel, bias 0.5 -> every output is 4.5
    x = nc.Tensor(np.ones((1, 3, 3, 1)))
    k = nc.Tensor(np.ones((2, 2, 1, 1)))
    out = nc.conv2d(x, k, nc.Tensor([0.5]))
    assert out.shape == (1, 2, 2, 1)
    assert np.allclose(out.data, 4.5)


def test_conv2d_graph_holds_no_columns():
    """The backward rebuilds the im2col columns (kh*kw times the grid's
    size), so the recorded node holds no array larger than its grid."""
    r = np.random.default_rng(0)
    x = nc.Tensor(r.normal(size=(4, 8, 8, 2)))
    out = nc.conv2d(x, nc.Tensor(r.normal(size=(3, 3, 2, 5))), nc.Tensor(r.normal(size=5)))
    held = [cell.cell_contents for cell in out._backward.__closure__]
    assert max(a.size for a in held if isinstance(a, np.ndarray)) <= x.data.size


def test_conv2d_grid_smaller_than_kernel():
    with pytest.raises(ShapeError):
        nc.conv2d(nc.Tensor(np.ones((1, 2, 2, 1))), nc.Tensor(np.ones((3, 3, 1, 1))),
                  nc.Tensor(np.zeros(1)))


def test_maxpool_picks_window_max():
    x = nc.Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 2, 2, 1))
    out = nc.maxpool2d(x, 2)
    assert out.shape == (1, 1, 1, 1)
    assert out.data.item() == 4.0


def test_grid_ops_take_only_batched_grids():
    grid = nc.Tensor(np.ones((3, 3, 1)))
    with pytest.raises(ShapeError, match="batch, H, W, C"):
        nc.conv2d(grid, nc.Tensor(np.ones((2, 2, 1, 1))), nc.Tensor(np.zeros(1)))
    with pytest.raises(ShapeError, match="batch, H, W, C"):
        nc.maxpool2d(grid, 2)


def test_row_scale():
    m = nc.Tensor([[1.0, 2.0], [3.0, 4.0]])
    v = nc.Tensor([2.0, 10.0])
    assert nc.row_scale(m, v).data.tolist() == [[2.0, 4.0], [30.0, 40.0]]


def _reference_recurrence(x, w, b, reverse, lengths=None):
    """The primitive-op cell that gated_recurrence replaced, for one
    direction: one graph node per operation and step, stacked to
    (batch, T, h) by input position. With lengths, constant 0/1 masks
    hold a row's cell state past its length and zero its states there."""
    batch, length, _ = x.shape
    hd = w.shape[0] // 4
    seq = x[:, ::-1, :] if reverse and length > 1 else x
    h = nc.Tensor(np.zeros((batch, hd)))
    c = nc.Tensor(np.zeros((batch, hd)))
    states = []
    for s in range(length):
        gates = nc.linear(nc.concat([seq[:, s, :], h], axis=1), w, b)
        i = nc.sigmoid(gates[:, 0:hd])
        f = nc.sigmoid(gates[:, hd : 2 * hd])
        o = nc.sigmoid(gates[:, 2 * hd : 3 * hd])
        g = nc.tanh(gates[:, 3 * hd : 4 * hd])
        fresh = nc.add(nc.mul(f, c), nc.mul(i, g))
        if lengths is None:
            c = fresh
            h = state = nc.mul(o, nc.tanh(c))
        else:
            t = length - 1 - s if reverse else s
            held = nc.Tensor(np.repeat((t >= lengths)[:, None], hd, axis=1).astype(float))
            kept = nc.sub(1.0, held)
            c = nc.add(nc.mul(held, c), nc.mul(kept, fresh))
            h = nc.mul(o, nc.tanh(c))
            state = nc.mul(kept, h)
        states.append(state.reshape(batch, 1, hd))
    if reverse:
        states = states[::-1]
    return nc.concat(states, axis=1)


def _recurrence_inputs(batch, length, e=3, hd=4, seed=0):
    """x, then w_fwd, b_fwd, w_bwd, b_bwd (distinct draws), then the
    weights of a loss over the (batch, length, 2h) states."""
    rng = np.random.default_rng(seed)
    x = nc.Tensor(rng.normal(size=(batch, length, e)))
    params = []
    for _ in range(2):
        params.append(nc.Tensor(rng.uniform(-0.6, 0.6, size=(4 * hd, e + hd))))
        params.append(nc.Tensor(rng.normal(size=4 * hd)))
    weights = nc.Tensor(rng.normal(size=(batch, length, 2 * hd)))
    return x, params, weights


def _tie(params):
    """The same (w, b) tensors for both directions, as the gradient suite
    passes them."""
    return [params[0], params[1], params[0], params[1]]


def _against_reference(x, params, weights, lengths=None):
    """Each direction's states and the five gradients of the fused op,
    then of the two directions' primitive-op references."""
    hd = params[0].shape[0] // 4
    fused = nc.gated_recurrence(x, *params, lengths=lengths)
    reference = nc.concat([_reference_recurrence(x, params[0], params[1], False, lengths),
                           _reference_recurrence(x, params[2], params[3], True, lengths)],
                          axis=2)
    runs = []
    for out in (fused, reference):
        grads = nc.tsum(nc.mul(out, weights)).backward([x, *params])
        runs.append([out.data[:, :, :hd], out.data[:, :, hd:], *grads])
    return runs


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("length", [1, 7])
def test_gated_recurrence_matches_primitive_graph(masked, batch, length):
    """Distinct weights per direction: each half of the states and all
    five gradients are the reference's bytes. Masked, with drawn lengths
    and zero padding, the values are equal; a masked reference step may
    leave -0.0 where the op writes 0.0."""
    x, params, weights = _recurrence_inputs(batch, length, seed=batch * 10 + length)
    lengths = None
    if masked:
        lengths = np.random.default_rng(length).integers(1, length + 1, size=batch)
        x.data[np.arange(length)[None, :] >= lengths[:, None]] = 0.0
    fused, reference = _against_reference(x, params, weights, lengths)
    assert fused[0].shape == fused[1].shape == (batch, length, 4)
    for got, want in zip(fused, reference):
        if masked:
            assert np.array_equal(got, want)
        else:
            assert got.tobytes() == want.tobytes()


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(lengths=st.lists(st.integers(1, 6), min_size=1, max_size=4),
       e=st.integers(1, 3), hd=st.integers(1, 4), seed=st.integers(0, 1000))
def test_gated_recurrence_directions_match_reference_property(lengths, e, hd, seed):
    """Each direction reads its own weights and gets its own gradients:
    over drawn lengths and distinct direction weights, the fused op equals
    the per-direction reference, so a swap of the two directions' weights
    or gradients cannot pass."""
    lengths = np.asarray(lengths)
    steps = int(lengths.max())
    x, params, weights = _recurrence_inputs(len(lengths), steps, e=e, hd=hd, seed=seed)
    x.data[np.arange(steps)[None, :] >= lengths[:, None]] = 0.0
    fused, reference = _against_reference(x, params, weights, lengths)
    for got, want in zip(fused, reference):
        assert np.array_equal(got, want)


def test_gated_recurrence_under_no_graph_is_plain_data():
    x, params, _ = _recurrence_inputs(3, 7)
    lengths = np.array([7, 2, 5])
    recorded = nc.gated_recurrence(x, *params, lengths=lengths)
    with nc.no_graph():
        plain = nc.gated_recurrence(x, *params, lengths=lengths)
    assert recorded._backward is not None and recorded._op == "gated_recurrence"
    assert plain._op is None and plain._parents == () and plain._backward is None
    assert np.array_equal(plain.data, recorded.data)


def test_gated_recurrence_shape_contract():
    x, (wf, bf, wb, bb), _ = _recurrence_inputs(2, 3, e=3, hd=4)
    with pytest.raises(ShapeError):
        nc.gated_recurrence(nc.Tensor(x.data[0]), wf, bf, wb, bb)
    with pytest.raises(ShapeError):
        nc.gated_recurrence(x, nc.Tensor(wf.data[:, 1:]), bf, wb, bb)
    with pytest.raises(ShapeError):
        nc.gated_recurrence(x, wf, nc.Tensor(bf.data[1:]), wb, bb)
    # the backward direction's shapes must be the forward direction's
    for bad_wb in (wb.data[:, 1:], wb.data[4:], wb.data[:, :, None]):
        with pytest.raises(ShapeError):
            nc.gated_recurrence(x, wf, bf, nc.Tensor(bad_wb), bb)
    for bad_bb in (bb.data[1:], np.concatenate([bb.data, bb.data]), bb.data[:, None]):
        with pytest.raises(ShapeError):
            nc.gated_recurrence(x, wf, bf, wb, nc.Tensor(bad_bb))
    for lengths in ([3], [3, 0], [4, 1], [2.0, 3.0], [[3, 3]]):
        with pytest.raises(ShapeError):
            nc.gated_recurrence(x, wf, bf, wb, bb, lengths=np.array(lengths))


def _masked_against_trimmed(lengths, tied, seed):
    """Run the op on a batch padded to the longest of lengths, with inf in
    the padding, which the op must ignore, and on each row trimmed to its
    length: states and the five gradients agree within 1e-12, and the
    padded positions have zero states and zero dx. tied passes one (w, b)
    pair to both directions."""
    lengths = np.asarray(lengths)
    batch, steps = len(lengths), int(lengths.max())
    x, params, weights = _recurrence_inputs(batch, steps, seed=seed)
    if tied:
        params = _tie(params)
    padded = np.arange(steps)[None, :] >= lengths[:, None]
    x.data[padded] = np.inf
    out = nc.gated_recurrence(x, *params, lengths=lengths)
    gx, *grads = nc.tsum(nc.mul(out, weights)).backward([x, *params])
    assert not out.data[padded].any() and not gx[padded].any()
    sums = [np.zeros_like(p.data) for p in params]
    for r, length in enumerate(lengths):
        xr = nc.Tensor(x.data[r : r + 1, :length])
        own = [nc.Tensor(p.data) for p in params[: 2 if tied else 4]]
        rparams = _tie(own) if tied else own
        single = nc.gated_recurrence(xr, *rparams)
        loss = nc.tsum(nc.mul(single, nc.Tensor(weights.data[r : r + 1, :length])))
        gxr, *rgrads = loss.backward([xr, *rparams])
        assert np.max(np.abs(out.data[r, :length] - single.data[0])) <= 1e-12
        assert np.max(np.abs(gx[r, :length] - gxr[0])) <= 1e-12
        for total, g in zip(sums, rgrads):
            total += g
    for got, want in zip(grads, sums):
        assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("tied", [False, True])
def test_gated_recurrence_rows_match_their_trimmed_runs(tied):
    _masked_against_trimmed([5, 2, 1, 5, 3], tied, seed=4)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(lengths=st.lists(st.integers(1, 6), min_size=1, max_size=4),
       tied=st.booleans(), seed=st.integers(0, 1000))
def test_gated_recurrence_masking_property(lengths, tied, seed):
    _masked_against_trimmed(lengths, tied, seed)


@pytest.mark.parametrize("tied", [False, True])
def test_gated_recurrence_full_lengths_are_byte_identical(tied):
    x, params, weights = _recurrence_inputs(3, 6, seed=8)
    if tied:
        params = _tie(params)
    runs = []
    for lengths in (None, np.full(3, 6)):
        out = nc.gated_recurrence(x, *params, lengths=lengths)
        grads = nc.tsum(nc.mul(out, weights)).backward([x, *params])
        runs.append([a.tobytes() for a in (out.data, *grads)])
    assert runs[0] == runs[1]


def _traced_peak(run):
    """Bytes numpy allocated at the peak of run(), over what was live
    before it."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        kept = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del kept
    return peak - base


def test_gated_recurrence_without_a_graph_holds_one_step_of_gates_and_cells():
    """A recorded call keeps every step for its backward; a graph-free one
    keeps one step of the gates, activations and cells, so at batch 64 and
    T 29 its peak is at most half the recorded one (keeping every step
    of gates and cells would read about 0.68)."""
    x, params, _ = _recurrence_inputs(64, 29, e=16, hd=16, seed=2)
    lengths = np.random.default_rng(2).integers(1, 30, size=64)
    recorded = _traced_peak(lambda: nc.gated_recurrence(x, *params, lengths=lengths))
    with nc.no_graph():
        plain = _traced_peak(lambda: nc.gated_recurrence(x, *params, lengths=lengths))
    assert plain <= 0.5 * recorded, (plain, recorded)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("direction", [0, 1])
def test_gated_recurrence_rejects_a_non_finite_gate_in_either_direction(direction):
    """Only position 1 overflows, which is neither direction's last step;
    the other direction's gates there stay below 3 * 0.6 * 1e307."""
    x, params, _ = _recurrence_inputs(2, 4, seed=3)
    x.data[:, 1] = 1e307
    params[2 * direction].data[...] = 10.0
    with pytest.raises(DomainError, match="gated_recurrence"):
        nc.gated_recurrence(x, *params)
    with nc.no_graph(), pytest.raises(DomainError, match="gated_recurrence"):
        nc.gated_recurrence(x, *params)


def test_masked_softmax_weighs_masked_entries_zero():
    rng = np.random.default_rng(5)
    a = nc.Tensor(rng.normal(scale=30.0, size=(3, 6)))
    mask = np.arange(6)[None, :] < np.array([[6], [2], [1]])
    out = nc.softmax(a, axis=-1, mask=mask)
    assert (out.data[~mask] == 0.0).all()
    for r, keep in enumerate(mask):
        want = nc.softmax(nc.Tensor(a.data[r, keep])).data
        assert np.allclose(out.data[r, keep], want, rtol=0, atol=1e-15)
    (grad,) = nc.tsum(nc.mul(out, nc.Tensor(rng.normal(size=(3, 6))))).backward([a])
    assert (grad[~mask] == 0.0).all()
    assert nc.softmax(a, axis=-1, mask=np.ones((3, 6), bool)).data.tobytes() == \
        nc.softmax(a, axis=-1).data.tobytes()
    with pytest.raises(ShapeError):
        nc.softmax(a, axis=-1, mask=mask & (np.arange(3) != 1)[:, None])


def test_sigmoid_kernel_matches_masked_two_branch_form():
    x = np.random.default_rng(3).normal(scale=8.0, size=(50, 41))
    x[0, :6] = [0.0, -0.0, np.inf, -np.inf, 800.0, -800.0]
    want = np.empty_like(x)
    pos = x >= 0
    want[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    want[~pos] = ex / (1.0 + ex)
    assert nc.sigmoid(nc.Tensor(x)).data.tobytes() == want.tobytes()
