"""Backward-pass semantics: seeding, returned gradients, splitting, determinism."""

import itertools

import numpy as np
import pytest

from fuselab import numcore as nc
from fuselab.exceptions import ContractError, DomainError


def _plain(t):
    """No graph attached: no parents and no backward closure."""
    return t._parents == () and t._backward is None


def test_identity_gradient():
    x = nc.Tensor(2.5)
    loss = nc.add(x, 0.0)
    assert loss.backward([x]) == [1.0]


def test_square_gradient():
    x = nc.Tensor(3.0)
    assert nc.mul(x, x).backward([x]) == [6.0]


def test_non_scalar_loss_rejected():
    x = nc.Tensor([1.0, 2.0])
    with pytest.raises(ContractError):
        nc.mul(x, x).backward([x])


def test_backward_keeps_no_state():
    x = nc.Tensor(3.0)
    loss = nc.mul(x, x)
    first, second = loss.backward([x]), loss.backward([x])
    assert first == second == [6.0]
    assert first[0] is not second[0]

    # add hands one flow to both parents; each leaf gets its own array
    a = nc.Tensor(np.ones(3))
    b = nc.Tensor(np.ones(3))
    ga, gb = nc.tsum(nc.add(a, b)).backward([a, b])
    ga *= 5.0
    assert np.array_equal(gb, np.ones(3))

    # an intermediate node gets its gradient too
    y = nc.mul(x, x)
    loss = nc.mul(y, 2.0)
    assert loss.backward([y, x]) == [2.0, 12.0]
    assert loss.backward([y]) == [2.0]


def test_backward_returns_none_where_the_loss_does_not_depend():
    x = nc.Tensor(3.0)
    unused = nc.Tensor(1.0)
    constant = nc.Tensor(2.0)
    # wrt alone decides: a tensor named there gets its gradient, however made
    assert nc.mul(x, constant).backward([unused, x, constant]) == [None, 2.0, 3.0]
    assert nc.mul(constant, constant).backward([x]) == [None]


def test_backward_runs_no_closure_with_no_wrt_tensor_beneath():
    x, w = nc.Tensor(3.0), nc.Tensor(2.0)

    def refuse(g, needs):
        raise RuntimeError("ran the closure of a node no wrt tensor lies beneath")

    side = nc.Tensor._from_op(np.array(4.0), "refuse", (w,), refuse)
    loss = nc.add(nc.mul(x, w), side)
    assert loss.backward([x]) == [2.0]
    with pytest.raises(RuntimeError):  # w lies beneath it
        loss.backward([w])


def test_backward_runs_no_closure_without_a_needed_parent():
    constant, x = nc.Tensor(2.0), nc.Tensor(3.0)

    def refuse(g, needs):
        raise RuntimeError("ran the closure of a node with no parent that needs a gradient")

    wanted = nc.Tensor._from_op(np.array(4.0), "refuse", (constant,), refuse)
    assert nc.mul(wanted, x).backward([wanted, x]) == [3.0, 4.0]


def _recorded_ops(rng):
    """One node of each op with several parents, over drawn values."""
    def t(*shape):
        return nc.Tensor(rng.normal(size=shape))

    return [
        nc.add(t(2, 3), t(2, 3)), nc.sub(t(2, 3), t()), nc.mul(t(), t(2, 3)),
        nc.div(t(2, 3), nc.Tensor(rng.uniform(1.0, 2.0, size=(2, 3)))),
        nc.matmul(t(2, 3), t(3, 4)), nc.matmul(t(3), t(3)),
        nc.linear(t(3), t(2, 3), t(2)), nc.linear(t(4, 3), t(2, 3), t(2)),
        nc.row_scale(t(4, 3), t(4)), nc.concat([t(2, 1), t(2, 3), t(2, 2)], axis=1),
        nc.gated_recurrence(t(2, 3, 2), t(8, 4), t(8), t(8, 4), t(8), lengths=np.array([3, 1])),
        nc.conv2d(t(2, 5, 4, 3), t(2, 3, 3, 2), t(2)),
    ]


@pytest.mark.parametrize("index", range(12))
def test_closure_computes_exactly_the_needed_gradients(index):
    """For every mask of needed parents, an op's closure returns None for
    each parent not needed and, for each needed one, bitwise the array it
    returns when every parent is needed."""
    rng = np.random.default_rng(index)
    out = _recorded_ops(rng)[index]
    g = rng.normal(size=out.shape)
    k = len(out._parents)
    full = out._backward(g, (True,) * k)
    for needs in itertools.product([False, True], repeat=k):
        got = out._backward(g, needs)
        assert len(got) == k
        for need, a, b in zip(needs, got, full):
            assert (a is None) if not need else a.tobytes() == b.tobytes()


def test_conv2d_over_a_grid_no_backward_asks_for_computes_no_grid_gradient():
    rng = np.random.default_rng(5)
    grid = nc.Tensor(rng.normal(size=(2, 5, 5, 3)))
    kernel, bias = nc.Tensor(rng.normal(size=(3, 3, 3, 4))), nc.Tensor(rng.normal(size=4))
    out = nc.conv2d(grid, kernel, bias)
    closure, calls = out._backward, []

    def recorded(g, needs):
        calls.append((needs, closure(g, needs)))
        return calls[-1][1]

    out._backward = recorded
    loss = nc.tsum(nc.mul(out, nc.Tensor(rng.normal(size=out.shape))))
    gk, gb = loss.backward([kernel, bias])
    [(needs, (gx, _, _))] = calls
    assert needs == (False, True, True) and gx is None
    _, full_gk, full_gb = loss.backward([grid, kernel, bias])
    assert gk.tobytes() == full_gk.tobytes() and gb.tobytes() == full_gb.tobytes()


def test_shared_subexpression_sums_contributions():
    x = nc.Tensor(2.0)
    y = nc.mul(x, x)  # d/dx = 2x
    loss = nc.add(y, y)  # total d/dx = 4x
    assert loss.backward([x]) == [8.0]


def test_concat_gradient_splits_exactly():
    rng = np.random.default_rng(3)
    a = nc.Tensor(rng.normal(size=4))
    b = nc.Tensor(rng.normal(size=3))
    w = nc.Tensor(rng.normal(size=7))
    cat = nc.concat([a, b], axis=0)
    ga, gb = nc.matmul(cat, w).backward([a, b])
    assert np.array_equal(ga, w.data[:4])
    assert np.array_equal(gb, w.data[4:])


def test_detach_blocks_gradient():
    x = nc.Tensor(3.0)
    loss = nc.mul(x.detach(), x)
    assert loss.backward([x]) == [3.0]  # only the non-detached factor contributes


def test_two_layer_network_matches_finite_differences():
    rng = np.random.default_rng(7)
    w1 = nc.Tensor(rng.normal(size=(4, 3)), name="w1")
    b1 = nc.Tensor(rng.normal(size=4), name="b1")
    w2 = nc.Tensor(rng.normal(size=(1, 4)), name="w2")
    x = nc.Tensor(rng.normal(size=3))
    b2 = nc.Tensor(rng.normal(size=1), name="b2")

    def loss():
        h = nc.tanh(nc.linear(x, w1, b1))
        return nc.squared_norm(nc.linear(h, w2, b2))

    reports = nc.grad_check_params(loss, [w1, b1, w2, b2], h=1e-5, tol=1e-4)
    assert all(r.passed for r in reports.values()), reports


def test_backward_bitwise_deterministic():
    def run():
        rng = np.random.default_rng(11)
        w = nc.Tensor(rng.normal(size=(5, 5)))
        x = nc.Tensor(rng.normal(size=5))
        b = nc.Tensor(rng.normal(size=5))
        y = nc.softmax(nc.linear(nc.tanh(nc.linear(x, w, b)), w, b))
        (gw,) = nc.squared_norm(y).backward([w])
        return gw

    g1, g2 = run(), run()
    assert np.array_equal(g1, g2)


def test_take_rows_accumulates_duplicates():
    table = nc.Tensor(np.eye(3))
    picked = nc.take_rows(table, np.array([1, 1, 2]))
    (grad,) = nc.tsum(picked).backward([table])
    assert grad[0].sum() == 0.0
    assert grad[1].sum() == 6.0  # picked twice, 3 cells each
    assert grad[2].sum() == 3.0


def test_independent_graphs_on_concurrent_threads():
    # no global tape: graphs built on separate threads do not interfere
    from concurrent.futures import ThreadPoolExecutor

    def build_and_backward(seed):
        rng = np.random.default_rng(seed)
        w = nc.Tensor(rng.normal(size=(6, 6)))
        x = nc.Tensor(rng.normal(size=6))
        b = nc.Tensor(rng.normal(size=6))
        for _ in range(20):
            (grad,) = nc.squared_norm(nc.tanh(nc.linear(x, w, b))).backward([w])
        return grad

    serial = [build_and_backward(seed) for seed in range(8)]
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(build_and_backward, range(8)))
    for a, b in zip(serial, threaded):
        assert np.array_equal(a, b)


def test_no_graph_nests_and_restores_after_exception():
    w = nc.Tensor(np.ones(3))
    with nc.no_graph():
        with nc.no_graph():
            assert _plain(nc.tanh(w))
        assert _plain(nc.tanh(w))
        with pytest.raises(RuntimeError):
            with nc.no_graph():
                raise RuntimeError("inside")
        assert _plain(nc.tanh(w))
    assert not _plain(nc.tanh(w))
    with pytest.raises(RuntimeError):
        with nc.no_graph():
            raise RuntimeError("outermost")
    out = nc.tsum(nc.tanh(w))
    assert out.backward([w])[0] is not None


def test_no_graph_outputs_are_plain_data():
    w = nc.Tensor(np.arange(4.0).reshape(2, 2))
    x = nc.Tensor(np.ones(2))
    b = nc.Tensor(np.ones(2))
    with_graph = nc.squared_norm(nc.linear(x, w, b))
    with nc.no_graph():
        out = nc.squared_norm(nc.linear(x, w, b))
        param = nc.Tensor(np.ones(2))
    assert _plain(out) and out._op is None
    assert np.array_equal(out.data, with_graph.data)
    # a tensor constructed inside the block is an ordinary leaf outside it
    (grad,) = nc.squared_norm(param).backward([param])
    assert np.array_equal(grad, 2.0 * np.ones(2))


def test_no_graph_still_rejects_non_finite_values():
    with nc.no_graph():
        with pytest.raises(DomainError):
            nc.div(nc.Tensor(1.0), nc.Tensor(0.0))


def test_backward_inside_no_graph_is_an_error():
    w = nc.Tensor(np.ones(3))
    loss = nc.squared_norm(w)
    with nc.no_graph():
        with pytest.raises(ContractError):
            loss.backward([w])
    (grad,) = loss.backward([w])
    assert np.array_equal(grad, 2.0 * np.ones(3))


def test_no_graph_is_local_to_its_thread():
    # one thread holds no_graph() open while the others build graphs and
    # backpropagate; their gradients match the serial ones
    import sys
    import threading
    from concurrent.futures import ThreadPoolExecutor

    def build_and_backward(seed):
        rng = np.random.default_rng(seed)
        w = nc.Tensor(rng.normal(size=(6, 6)))
        x = nc.Tensor(rng.normal(size=6))
        b = nc.Tensor(rng.normal(size=6))
        for _ in range(20):
            (grad,) = nc.squared_norm(nc.tanh(nc.linear(x, w, b))).backward([w])
        return grad

    entered, release = threading.Event(), threading.Event()

    def hold_no_graph():
        w = nc.Tensor(np.ones(3))
        with nc.no_graph():
            entered.set()
            release.wait(timeout=30)
            return not _plain(nc.tanh(w))

    serial = [build_and_backward(seed) for seed in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=3) as pool:
            holder = pool.submit(hold_no_graph)
            assert entered.wait(timeout=30)
            try:
                threaded = list(pool.map(build_and_backward, range(4), timeout=30))
            finally:
                release.set()
            assert holder.result(timeout=30) is False
    finally:
        sys.setswitchinterval(interval)
    for a, b in zip(serial, threaded):
        assert np.array_equal(a, b)
