"""Property tests.

The social-text normalizer's scan: it never raises, it keeps every
non-whitespace character, and an emoticon is exactly a whitespace chunk
the lexicon names.

numcore: every smooth op passes grad_check_params at tol 1e-4 over small
drawn shapes, and a backward with respect to a subset of the leaves,
over graphs that also read constants, returns bitwise the same arrays
as one with respect to all of them.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuselab import numcore as nc
from fuselab.textprep import TAG_EMOTICON, default_lexicons, normalize
from fuselab.textprep.normalize import _scan

LEX = default_lexicons()

# what str.split() cuts at, ASCII and beyond: the information
# separators, NEL, no-break, em and ideographic spaces; "" glues chunks
SEPARATORS = [" ", "\t", "\n", "\r\n", "\x0b", "\x0c", "\x1c", "\x1f", "\x85",
              "\xa0", "\u2003", "\u3000", ""]
PIECES = sorted(LEX.emoticons) + [
    "@bob", "#goodday", "[user]", "[/user]", "[smile]", "[", "]", "sooooo",
    "teh", "can't", "!", "...", "\u200b", "\U0001f600",
]

_posts = st.lists(
    st.tuples(st.one_of(st.sampled_from(PIECES), st.text(max_size=4)),
              st.sampled_from(SEPARATORS)),
    max_size=8,
).map(lambda parts: "".join(piece + sep for piece, sep in parts))

_SETTINGS = settings(derandomize=True, database=None, max_examples=150, deadline=None)


@_SETTINGS
@given(raw=st.one_of(st.text(max_size=30), _posts))
def test_normalize_never_raises(raw):
    normalize(raw)


@_SETTINGS
@given(raw=st.one_of(st.text(max_size=30), _posts))
def test_scan_keeps_every_non_whitespace_character_in_order(raw):
    assert "".join(ev.text for ev in _scan(raw, LEX)) == "".join(raw.split())


@_SETTINGS
@given(raw=_posts.map(lambda s: s.replace("[", "").replace("]", "")))
def test_emoticon_tokens_are_the_emoticon_chunks(raw):
    got = [t.surface for t in normalize(raw).tokens if t.tag == TAG_EMOTICON]
    assert got == [f"[{LEX.emoticons[c]}]" for c in raw.split() if c in LEX.emoticons]


# -- numcore ----------------------------------------------------------------


def _t(r, *shape):
    return nc.Tensor(r.normal(size=shape))


def _positive(a):
    return nc.add(nc.mul(a, a), 0.5)


def _recurrence(r, n, m, states):
    """Distinct weights per direction and drawn lengths; the loss reads
    states, a slice of the (n, m, 4) output: both directions, or only the
    backward direction's half, from which the forward weights get 0."""
    lengths = r.integers(1, m + 1, size=n)
    cells = [nc.Tensor(r.uniform(-0.6, 0.6, size=(8, 4))), _t(r, 8),
             nc.Tensor(r.uniform(-0.6, 0.6, size=(8, 4))), _t(r, 8)]
    return (lambda x, *params: nc.gated_recurrence(x, *params, lengths=lengths)[states],
            [_t(r, n, m, 2)] + cells)


# each smooth op (relu, clamp and maxpool2d have kinks) as
# (rng, n, m) -> (op, the tensors it reads); every one of them is checked
SMOOTH_OPS = {
    "add": lambda r, n, m: (nc.add, [_t(r, n, m), _t(r, n, m)]),
    "sub": lambda r, n, m: (nc.sub, [_t(r), _t(r, n, m)]),  # a scalar broadcasts
    "mul": lambda r, n, m: (nc.mul, [_t(r, n, m), _t(r, n, m)]),
    "div": lambda r, n, m: (lambda a, b: nc.div(a, _positive(b)), [_t(r, n, m), _t(r, n, m)]),
    "neg": lambda r, n, m: (nc.neg, [_t(r, n, m)]),
    "matmul": lambda r, n, m: (nc.matmul, [_t(r, n, m), _t(r, m, 2)]),
    "linear": lambda r, n, m: (nc.linear, [_t(r, n, m), _t(r, 3, m), _t(r, 3)]),
    "row_scale": lambda r, n, m: (nc.row_scale, [_t(r, n, m), _t(r, n)]),
    "concat": lambda r, n, m: (lambda a, b: nc.concat([a, b], axis=1),
                               [_t(r, n, m), _t(r, n, 2)]),
    "slice": lambda r, n, m: (lambda a: a[n // 2 :, ::2], [_t(r, n, m)]),
    "take_rows": lambda r, n, m: (lambda a, idx=r.integers(0, n, size=n + 2):
                                  nc.take_rows(a, idx), [_t(r, n, m)]),
    "reshape": lambda r, n, m: (lambda a: nc.reshape(a, (m, n)), [_t(r, n, m)]),
    "transpose": lambda r, n, m: (nc.transpose, [_t(r, n, m)]),
    "sum": lambda r, n, m: (lambda a: nc.tsum(a, axis=0), [_t(r, n, m)]),
    "mean": lambda r, n, m: (lambda a: nc.tmean(a, axis=1), [_t(r, n, m)]),
    "squared_norm": lambda r, n, m: (nc.squared_norm, [_t(r, n, m)]),
    "exp": lambda r, n, m: (nc.texp, [_t(r, n, m)]),
    "log": lambda r, n, m: (lambda a: nc.tlog(_positive(a)), [_t(r, n, m)]),
    "tanh": lambda r, n, m: (nc.tanh, [_t(r, n, m)]),
    "sigmoid": lambda r, n, m: (nc.sigmoid, [_t(r, n, m)]),
    "softmax": lambda r, n, m: (nc.softmax, [_t(r, n, m)]),
    "masked softmax": lambda r, n, m: (
        lambda a, mask=np.arange(m) < r.integers(1, m + 1, size=(n, 1)):
        nc.softmax(a, mask=mask), [_t(r, n, m)]),
    "conv2d": lambda r, n, m: (nc.conv2d, [_t(r, 1, n + 2, m + 2, 2), _t(r, 3, 3, 2, 2),
                                           _t(r, 2)]),
    "gated_recurrence": lambda r, n, m: _recurrence(r, n, m, np.s_[:, :, :]),
    "gated_recurrence reverse": lambda r, n, m: _recurrence(r, n, m, np.s_[:, :, 2:]),
}


@pytest.mark.parametrize("name", sorted(SMOOTH_OPS))
@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(n=st.integers(1, 3), m=st.integers(1, 4), seed=st.integers(0, 2**16))
def test_smooth_op_passes_grad_check(name, n, m, seed):
    r = np.random.default_rng(seed)
    op, inputs = SMOOTH_OPS[name](r, n, m)
    weights = nc.Tensor(r.normal(size=op(*inputs).shape))
    reports = nc.grad_check_params(lambda: nc.tsum(nc.mul(op(*inputs), weights)), inputs,
                                   tol=1e-4)
    assert all(report.passed for report in reports.values()), reports


_UNARY = {"tanh": nc.tanh, "sigmoid": nc.sigmoid, "transpose": nc.transpose,
          "softmax": nc.softmax}
_BINARY = {"add": nc.add, "sub": nc.sub, "mul": nc.mul, "matmul": nc.matmul}
# ops over two (n, n) nodes a and b that also read drawn constants, so
# their closures are asked for some parents' gradients and not others
_WITH_CONSTANTS = {
    "conv2d of a constant grid": lambda a, b, r, n: nc.reshape(nc.conv2d(
        _t(r, 1, 2, n, n), nc.reshape(nc.concat([a, b], axis=0), (2, 1, n, n)), _t(r, n)),
        (n, n)),
    "conv2d with a constant kernel": lambda a, b, r, n: nc.reshape(nc.conv2d(
        nc.reshape(nc.concat([a, b], axis=0), (1, 2, n, n)), _t(r, 2, 1, n, n), b[0]),
        (n, n)),
    "linear of a constant input": lambda a, b, r, n: nc.linear(_t(r, n, n), a, b[0]),
    "linear with constant weights": lambda a, b, r, n: nc.linear(a, _t(r, n, n), _t(r, n)),
    "linear with a constant bias": lambda a, b, r, n: nc.linear(a, b, _t(r, n)),
}
_steps = st.lists(st.tuples(st.sampled_from(sorted(_UNARY) + sorted(_BINARY)
                                            + sorted(_WITH_CONSTANTS)),
                            st.integers(0, 99), st.integers(0, 99)),
                  min_size=1, max_size=8)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(steps=_steps, n=st.integers(1, 3), seed=st.integers(0, 2**16),
       keep=st.lists(st.booleans(), min_size=4, max_size=4))
def test_backward_over_a_subset_is_bitwise_the_full_backward(steps, n, seed, keep):
    """Each step applies an op to earlier nodes, some with constants, so
    leaves and intermediates are shared and some leaves go unused; pruning
    the nodes no requested leaf lies beneath, and the gradients no parent
    needs, never reorders a sum."""
    r = np.random.default_rng(seed)
    leaves = [_t(r, n, n) for _ in range(4)]
    nodes = list(leaves)
    for name, i, j in steps:
        a, b = nodes[i % len(nodes)], nodes[j % len(nodes)]
        if name in _UNARY:
            nodes.append(_UNARY[name](a))
        elif name in _BINARY:
            nodes.append(_BINARY[name](a, b))
        else:
            nodes.append(_WITH_CONSTANTS[name](a, b, r, n))
    loss = nc.tsum(nc.mul(nodes[-1], _t(r, n, n)))
    full = loss.backward(leaves)
    subset = [k for k in range(4) if keep[k]]
    got = loss.backward([leaves[k] for k in subset])
    want = [full[k] for k in subset]
    assert [g is None for g in got] == [g is None for g in want]
    assert [g.tobytes() for g in got if g is not None] == \
        [g.tobytes() for g in want if g is not None]
