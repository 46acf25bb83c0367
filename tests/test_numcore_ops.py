"""Forward semantics of the tensor primitives."""

import numpy as np
import pytest

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
    assert nc.squared_norm(d).item() == 5.0


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


def test_non_finite_result_rejected():
    with pytest.raises(DomainError):
        nc.texp(nc.Tensor([1e6]))


def test_matmul_value():
    a = nc.Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = nc.Tensor([[5.0], [6.0]])
    assert (a @ b).data.tolist() == [[17.0], [39.0]]


def test_matmul_vector_cases():
    m = nc.Tensor([[1.0, 2.0], [3.0, 4.0]])
    v = nc.Tensor([1.0, 1.0])
    assert (m @ v).data.tolist() == [3.0, 7.0]
    assert (v @ m).data.tolist() == [4.0, 6.0]
    assert (v @ v).item() == 2.0


def test_linear_matches_manual_affine():
    rng = np.random.default_rng(1)
    x = nc.Tensor(rng.normal(size=(5, 3)))
    w = nc.Tensor(rng.normal(size=(4, 3)))
    b = nc.Tensor(rng.normal(size=4))
    out = nc.linear(x, w, b)
    assert np.allclose(out.data, x.data @ w.data.T + b.data)


def test_mean_and_sum_axes():
    x = nc.Tensor(np.arange(12.0).reshape(3, 4))
    assert nc.tsum(x).item() == 66.0
    assert nc.tmean(x, axis=0).data.tolist() == [4.0, 5.0, 6.0, 7.0]
    assert nc.tsum(x, axis=1).data.tolist() == [6.0, 22.0, 38.0]


def test_slice_and_reshape_round_trip():
    x = nc.Tensor(np.arange(6.0).reshape(2, 3))
    assert x[1].data.tolist() == [3.0, 4.0, 5.0]
    assert x[:, 1:].data.tolist() == [[1.0, 2.0], [4.0, 5.0]]
    assert x.reshape(6).data.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]


def test_conv2d_known_kernel():
    # 3x3 grid of ones, 2x2 sum kernel -> every output is 4
    x = nc.Tensor(np.ones((3, 3, 1)))
    k = nc.Tensor(np.ones((2, 2, 1, 1)))
    out = nc.conv2d(x, k)
    assert out.shape == (2, 2, 1)
    assert np.allclose(out.data, 4.0)


def test_conv2d_grid_smaller_than_kernel():
    with pytest.raises(ShapeError):
        nc.conv2d(nc.Tensor(np.ones((2, 2, 1))), nc.Tensor(np.ones((3, 3, 1, 1))))


def test_maxpool_picks_window_max():
    x = nc.Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(2, 2, 1))
    out = nc.maxpool2d(x, 2)
    assert out.shape == (1, 1, 1)
    assert out.item() == 4.0


def test_row_scale():
    m = nc.Tensor([[1.0, 2.0], [3.0, 4.0]])
    v = nc.Tensor([2.0, 10.0])
    assert nc.row_scale(m, v).data.tolist() == [[2.0, 4.0], [30.0, 40.0]]


def _reference_recurrence(x, w, b, reverse):
    """The primitive-op cell that gated_recurrence replaced, one graph node
    per operation and step, stacked to (batch, T, h) by input position."""
    batch, length, _ = x.shape
    hd = w.shape[0] // 4
    seq = x[:, ::-1, :] if reverse and length > 1 else x
    h = nc.Tensor(np.zeros((batch, hd)))
    c = nc.Tensor(np.zeros((batch, hd)))
    states = []
    for t in range(length):
        gates = nc.linear(nc.concat([seq[:, t, :], h], axis=1), w, b)
        i = nc.sigmoid(gates[:, 0:hd])
        f = nc.sigmoid(gates[:, hd : 2 * hd])
        o = nc.sigmoid(gates[:, 2 * hd : 3 * hd])
        g = nc.tanh(gates[:, 3 * hd : 4 * hd])
        c = nc.add(nc.mul(f, c), nc.mul(i, g))
        h = nc.mul(o, nc.tanh(c))
        states.append(h.reshape(batch, 1, hd))
    if reverse:
        states = states[::-1]
    return nc.concat(states, axis=1)


def _recurrence_inputs(batch, length, e=3, hd=4, seed=0):
    rng = np.random.default_rng(seed)
    x = nc.Tensor(rng.normal(size=(batch, length, e)), requires_grad=True)
    w = nc.Tensor(rng.uniform(-0.6, 0.6, size=(4 * hd, e + hd)), requires_grad=True)
    b = nc.Tensor(rng.normal(size=4 * hd), requires_grad=True)
    weights = nc.Tensor(rng.normal(size=(batch, length, hd)))
    return x, w, b, weights


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("length", [1, 7])
def test_gated_recurrence_matches_primitive_graph(reverse, batch, length):
    x, w, b, weights = _recurrence_inputs(batch, length, seed=batch * 10 + length)
    grads = []
    for run in (nc.gated_recurrence, _reference_recurrence):
        for p in (x, w, b):
            p.grad = None
        out = run(x, w, b, reverse=reverse)
        nc.tsum(nc.mul(out, weights)).backward()
        grads.append((out.data, x.grad, w.grad, b.grad))
    fused, reference = grads
    assert fused[0].shape == (batch, length, 4)
    assert np.array_equal(fused[0], reference[0])
    for got, want in zip(fused[1:], reference[1:]):
        assert np.max(np.abs(got - want)) <= 1e-12


def test_gated_recurrence_under_no_graph_is_plain_data():
    x, w, b, _ = _recurrence_inputs(3, 7)
    recorded = nc.gated_recurrence(x, w, b, reverse=True)
    with nc.no_graph():
        plain = nc.gated_recurrence(x, w, b, reverse=True)
    assert recorded.requires_grad and recorded._op == "gated_recurrence"
    assert not plain.requires_grad
    assert plain._op is None and plain._parents == () and plain._backward is None
    assert np.array_equal(plain.data, recorded.data)


def test_gated_recurrence_shape_contract():
    x, w, b, _ = _recurrence_inputs(2, 3, e=3, hd=4)
    with pytest.raises(ShapeError):
        nc.gated_recurrence(nc.Tensor(x.data[0]), w, b)
    with pytest.raises(ShapeError):
        nc.gated_recurrence(x, nc.Tensor(w.data[:, 1:]), b)
    with pytest.raises(ShapeError):
        nc.gated_recurrence(x, w, nc.Tensor(b.data[1:]))


def test_sigmoid_kernel_matches_masked_two_branch_form():
    x = np.random.default_rng(3).normal(scale=8.0, size=(50, 41))
    x[0, :6] = [0.0, -0.0, np.inf, -np.inf, 800.0, -800.0]
    want = np.empty_like(x)
    pos = x >= 0
    want[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    want[~pos] = ex / (1.0 + ex)
    assert nc.sigmoid(nc.Tensor(x)).data.tobytes() == want.tobytes()
