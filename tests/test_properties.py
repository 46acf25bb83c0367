"""Property tests.

The social-text normalizer's scan: it never raises, it keeps every
non-whitespace character, and an emoticon is exactly a whitespace chunk
the lexicon names.

numcore: every smooth op passes grad_check_params at tol 1e-4 over small
drawn shapes, a backward with respect to a subset of the leaves, over
graphs that also read constants, returns bitwise the same arrays as one
with respect to all of them, conv2d agrees with a per-tap reference
over drawn shapes, and an op rejects its value exactly when one entry is
inf or nan, warning on no finite value.

Model files: every single-bit flip and every truncation of a saved model
is a FormatError, and so is a re-checksummed header with any one field
replaced by a drawn JSON value, unless the file still loads.

Dataset files: any one field of any record, the header included,
replaced by a drawn JSON value either loads or is a SchemaError naming
its `path:line`.

Config files: any value of any key either parses or is a ConfigError
that names the file.
"""

import base64
import contextlib
import dataclasses
import hashlib
import json
import re
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fuselab import numcore as nc
from fuselab.config import _SECTIONS, load_experiment_config
from fuselab.datakit import LabelSpace, Vocab, load_jsonl
from fuselab.exceptions import ConfigError, DomainError, FormatError, ParseError, SchemaError
from fuselab.textprep import TAG_EMOTICON, default_lexicons, normalize
from fuselab.textprep.normalize import _scan
from fuselab.training import (
    FORMAT_VERSION, ModelConfig, build_model, load_model, save_model,
)
from fuselab.training.model import MAGIC

from reference_ops import tslice

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
    return (lambda x, *params: tslice(nc.gated_recurrence(x, *params, lengths=lengths), states),
            [_t(r, n, m, 2)] + cells)


# each smooth op (relu, clamp and maxpool2d have kinks) as
# (rng, n, m) -> (op, the tensors it reads); every one of them is checked.
# linear and sigmoid are dense's identity and sigmoid layers
SMOOTH_OPS = {
    "add": lambda r, n, m: (nc.add, [_t(r, n, m), _t(r, n, m)]),
    "sub": lambda r, n, m: (nc.sub, [_t(r), _t(r, n, m)]),  # a scalar broadcasts
    "mul": lambda r, n, m: (nc.mul, [_t(r, n, m), _t(r, n, m)]),
    "div": lambda r, n, m: (lambda a, b: nc.div(a, _positive(b)), [_t(r, n, m), _t(r, n, m)]),
    "neg": lambda r, n, m: (nc.neg, [_t(r, n, m)]),
    "matmul": lambda r, n, m: (nc.matmul, [_t(r, n, m), _t(r, m, 2)]),
    "linear": lambda r, n, m: (nc.dense, [_t(r, n, m), _t(r, 3, m), _t(r, 3)]),
    "row_scale": lambda r, n, m: (nc.row_scale, [_t(r, n, m), _t(r, n)]),
    "concat": lambda r, n, m: (lambda a, b: nc.concat([a, b], axis=1),
                               [_t(r, n, m), _t(r, n, 2)]),
    "take_rows": lambda r, n, m: (lambda a, idx=r.integers(0, n, size=n + 2):
                                  nc.take_rows(a, idx), [_t(r, n, m)]),
    "reshape": lambda r, n, m: (lambda a: nc.reshape(a, (m, n)), [_t(r, n, m)]),
    "sum": lambda r, n, m: (lambda a: nc.tsum(a, axis=0), [_t(r, n, m)]),
    "mean": lambda r, n, m: (lambda a: nc.tmean(a, axis=1), [_t(r, n, m)]),
    "squared_norm": lambda r, n, m: (nc.squared_norm, [_t(r, n, m)]),
    "log": lambda r, n, m: (lambda a: nc.tlog(_positive(a)), [_t(r, n, m)]),
    "tanh": lambda r, n, m: (nc.tanh, [_t(r, n, m)]),
    "sigmoid": lambda r, n, m: (lambda x, w, b: nc.dense(x, w, b, "sigmoid"),
                                [_t(r, n, m), _t(r, 3, m), _t(r, 3)]),
    "softmax": lambda r, n, m: (nc.softmax, [_t(r, n, m)]),
    "masked softmax": lambda r, n, m: (
        lambda a, mask=np.arange(m) < r.integers(1, m + 1, size=(n, 1)):
        nc.softmax(a, mask=mask), [_t(r, n, m)]),
    "conv2d": lambda r, n, m: (nc.conv2d, [_t(r, 1, n + 2, m + 2, 2), _t(r, 3, 3, 2, 2),
                                           _t(r, 2)]),
    "dense": lambda r, n, m: (lambda x, w, b: nc.dense(x, w, b, "tanh"),
                              [_t(r, n, m), _t(r, 3, m), _t(r, 3)]),
    "dense stacked": lambda r, n, m: (lambda x, *wb: nc.dense(x, wb[:2], wb[2:], "sigmoid"),
                                      [_t(r, 2, n, m), _t(r, 3, m), _t(r, 3, m), _t(r, 3),
                                       _t(r, 3)]),
    "cell_means": lambda r, n, m: (lambda x: nc.cell_means(x, 2), [_t(r, 2, n + 1, m + 1, 2)]),
    "cross_entropy": lambda r, n, m: (lambda p, t=r.integers(0, m, size=n): nc.cross_entropy(
        t, _positive(p)), [_t(r, n, m)]),
    "stack": lambda r, n, m: (lambda a, b: nc.stack([a, b]), [_t(r, n, m), _t(r, n, m)]),
    "side_by_side": lambda r, n, m: (nc.side_by_side, [_t(r, 2, n, m)]),
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


_UNARY = {"tanh": nc.tanh, "softmax": nc.softmax}
_BINARY = {"add": nc.add, "sub": nc.sub, "mul": nc.mul, "matmul": nc.matmul}
# ops over two (n, n) nodes a and b that also read drawn constants, so
# their closures are asked for some parents' gradients and not others
_WITH_CONSTANTS = {
    "conv2d of a constant grid": lambda a, b, r, n: nc.reshape(nc.conv2d(
        _t(r, 1, 2, n, n), nc.reshape(nc.concat([a, b], axis=0), (2, 1, n, n)), _t(r, n)),
        (n, n)),
    "conv2d with a constant kernel": lambda a, b, r, n: nc.reshape(nc.conv2d(
        nc.reshape(nc.concat([a, b], axis=0), (1, 2, n, n)), _t(r, 2, 1, n, n), tslice(b, 0)),
        (n, n)),
    "dense of a constant input": lambda a, b, r, n: nc.dense(_t(r, n, n), a, tslice(b, 0),
                                                              "sigmoid"),
    "dense with constant weights": lambda a, b, r, n: nc.dense(a, _t(r, n, n), _t(r, n)),
    "dense with a constant bias": lambda a, b, r, n: nc.dense(a, b, _t(r, n), "relu"),
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


def _conv2d_per_tap(x, k, b, g):
    """conv2d one kernel tap at a time: the output, then the gradients of
    the grid, kernel and bias for the upstream gradient g."""
    kh, kw = k.shape[:2]
    ho, wo = x.shape[1] - kh + 1, x.shape[2] - kw + 1
    out = np.zeros(x.shape[:1] + (ho, wo, k.shape[3]))
    dx, dk = np.zeros_like(x), np.zeros_like(k)
    for p in range(kh):
        for q in range(kw):
            patch = x[:, p : p + ho, q : q + wo, :]
            out += patch @ k[p, q]
            dk[p, q] = np.einsum("bhwc,bhwf->cf", patch, g)
            dx[:, p : p + ho, q : q + wo, :] += g @ k[p, q].T
    return out + b, dx, dk, g.sum(axis=(0, 1, 2))


CONV_TOL = 1e-12  # rtol and atol: the two sum the same products in other orders


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(batch=st.integers(1, 3), ho=st.integers(1, 4), wo=st.integers(1, 4),
       kh=st.integers(1, 3), kw=st.integers(1, 3), c=st.integers(1, 3),
       f=st.integers(1, 3), seed=st.integers(0, 2**16))
@example(batch=1, ho=1, wo=3, kh=3, kw=2, c=1, f=1, seed=0)
@example(batch=2, ho=4, wo=1, kh=1, kw=3, c=1, f=1, seed=1)
@example(batch=1, ho=1, wo=1, kh=2, kw=3, c=2, f=3, seed=2)
def test_conv2d_matches_the_per_tap_reference(batch, ho, wo, kh, kw, c, f, seed):
    r = np.random.default_rng(seed)
    x, k, b = _t(r, batch, ho + kh - 1, wo + kw - 1, c), _t(r, kh, kw, c, f), _t(r, f)
    g = r.normal(size=(batch, ho, wo, f))
    out = nc.conv2d(x, k, b)
    got = [out.data] + nc.tsum(nc.mul(out, nc.Tensor(g))).backward([x, k, b])
    want = _conv2d_per_tap(x.data, k.data, b.data, g)
    for name, a, e in zip(("out", "dx", "dkernel", "dbias"), got, want):
        np.testing.assert_allclose(a, e, rtol=CONV_TOL, atol=CONV_TOL, err_msg=name)


# finite entries whose sums overflow, and the non-finite ones, are drawn
# often enough to meet each other
_ENTRIES = st.one_of(st.floats(width=64),
                     st.sampled_from([1e308, -1e308, np.inf, -np.inf, np.nan]))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(shape=st.lists(st.integers(0, 3), max_size=3).map(tuple), data=st.data())
@example(shape=(), data=None)
@example(shape=(0, 3), data=None)
def test_an_op_rejects_its_value_exactly_when_an_entry_is_not_finite(shape, data):
    """Over 0-d, empty and n-d values with inf and nan at drawn positions,
    an op (reshape, which passes its value through) raises DomainError,
    recorded and graph-free, exactly when np.isfinite(value).all() is
    False, and warns on no finite value."""
    size = int(np.prod(shape))
    entries = [1e308] * size if data is None else data.draw(
        st.lists(_ENTRIES, min_size=size, max_size=size))
    value = np.array(entries, dtype=np.float64).reshape(shape)
    for graph in (True, False):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with contextlib.ExitStack() as stack:
                if not graph:
                    stack.enter_context(nc.no_graph())
                if np.isfinite(value).all():
                    out = nc.reshape(nc.Tensor(value), shape)
                    assert out.data.tobytes() == value.tobytes()
                else:
                    with pytest.raises(DomainError):
                        nc.reshape(nc.Tensor(value), shape)


def test_finite_values_whose_sum_overflows_pass_the_check():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for value in ([1e308, 1e308], [[-1e308], [-1e308]], [1e308] * 5):
            assert nc.reshape(nc.Tensor(value), (-1,)).data.tolist() == np.ravel(value).tolist()


# -- model files --------------------------------------------------------------


@pytest.fixture(scope="module")
def saved_model(tmp_path_factory):
    """The bytes of a small saved GAN-fusion model, whose header and
    parameter blocks hold every part of the format, and a scratch path.
    The unaltered file loads, so each FormatError below is the edit's."""
    config = ModelConfig(fusion="gan", latent_dim=2, embed_dim=2, hidden_dim=2,
                         visual_channels=(1, 1), normalize_text=False, seed=5)
    path = tmp_path_factory.mktemp("model") / "model.fuse"
    save_model(build_model(config, LabelSpace(("a", "b")), Vocab(["x", "y"])), path)
    load_model(path)
    return path.read_bytes(), path


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(data=st.data())
def test_any_bit_flip_is_a_format_error(saved_model, data):
    raw, path = saved_model
    at = data.draw(st.integers(0, len(raw) - 1), label="byte")
    flipped = bytearray(raw)
    flipped[at] ^= 1 << data.draw(st.integers(0, 7), label="bit")
    path.write_bytes(bytes(flipped))
    with pytest.raises(FormatError):
        load_model(path)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(data=st.data())
def test_any_truncation_is_a_format_error(saved_model, data):
    raw, path = saved_model
    path.write_bytes(raw[: data.draw(st.integers(0, len(raw) - 1), label="length")])
    with pytest.raises(FormatError):
        load_model(path)


# Any JSON value, plus values near the ones a file holds. Integers are
# small or beyond any array size: a header that asks for a model of a
# few GB builds it before the parameter manifest rejects it.
_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 40),
              st.sampled_from([2**62, 10**20, -2**63, 2**1100]),
              st.floats(), st.text(max_size=4)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)
_NEAR = [2.0, [1, 1], [1.0, 1], [1, 1, 1], "gan", "text", "multi", "ab", "01",
         ["a", "b"], ["b", "a"], ["a", "b", "c"], [0, 1], [["a"], ["b"]], {},
         {"a": "Hate", "b": "NoHate"}, {"a": 1}, [[0.0, 1.0]], [[[0.0]]],
         {"b64": "AAAAAAAAgD8=", "shape": [1, 2, 1]}, {"b64": 5, "shape": [1]},
         {"b64": "AAAAAA==", "shape": [2]}]
_VALUES = st.one_of(st.sampled_from(_NEAR), _JSON)


def _header(raw: bytes):
    (length,) = struct.unpack_from("<Q", raw, 12)
    return json.loads(raw[20 : 20 + length]), raw[20 + length : -32]


def _model_file(header: dict, blocks: bytes) -> bytes:
    """A model file of header and parameter blocks, with config_hash and
    the trailing checksum computed as save_model does."""
    if isinstance(header.get("config"), dict):
        header["config_hash"] = hashlib.sha256(
            json.dumps(header["config"], sort_keys=True).encode()).hexdigest()
    blob = json.dumps(header, sort_keys=True).encode()
    body = MAGIC + struct.pack("<IQ", FORMAT_VERSION, len(blob)) + blob + blocks
    return body + hashlib.sha256(body).digest()


HEADER_FIELDS = ([(key,) for key in ("format_version", "config", "config_hash",
                                     "label_space", "vocab", "params")]
                 + [("config", f.name) for f in dataclasses.fields(ModelConfig)]
                 + [("label_space", key) for key in ("names", "mode", "merge")])


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(where=st.sampled_from(HEADER_FIELDS), value=st.one_of(_VALUES, st.integers()))
@example(where=("config", "latent_dim"), value=4.0)
@example(where=("config", "input_modes"), value=3)
@example(where=("config", "fusion"), value=1)
@example(where=("label_space", "names"), value="ab")
@example(where=("label_space", "names"), value=[0, 1])
@example(where=("label_space", "merge"), value=["a", "b"])
def test_any_header_value_loads_or_is_a_format_error(saved_model, where, value):
    """config_hash is recomputed after a config edit, so each edit reaches
    the checks behind it."""
    raw, path = saved_model
    header, blocks = _header(raw)
    *parents, key = where
    target = header
    for name in parents:
        target = target[name]
    target[key] = value
    path.write_bytes(_model_file(header, blocks))
    try:
        load_model(path)
    except FormatError as exc:
        assert str(path) in str(exc)


def test_a_header_dimension_beyond_the_file_fails_before_the_build(saved_model):
    """A small file whose header names a large latent_dim fails on the
    manifest's size, with a peak allocation a small multiple of the file:
    the model its config describes is never built."""
    raw, path = saved_model
    header, blocks = _header(raw)
    header["config"]["latent_dim"] = 1500
    data = _model_file(header, blocks)
    path.write_bytes(data)
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="latent_dim|dimension of 1500"):
            load_model(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * len(data), (peak, len(data))


@pytest.mark.parametrize("dim, message", [(240, "dimension of 240"),
                                          (120, "'params' does not list")])
def test_header_dimensions_each_within_the_file_fail_before_the_build(saved_model, dim,
                                                                      message):
    """Every dimension under the file's float count, but their products far
    beyond it: a dimension over half the count fails at once, and one under
    it on the manifest of the model built without its weights, so the peak
    stays a small multiple of the file."""
    raw, path = saved_model
    header, blocks = _header(raw)
    assert 240 < len(blocks) // 8 < 2 * 240
    header["config"].update(latent_dim=dim, embed_dim=dim, hidden_dim=dim,
                            visual_channels=[dim, dim])
    data = _model_file(header, blocks)
    path.write_bytes(data)
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match=message):
            load_model(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * len(data), (peak, len(data))


# a dataset whose lines hold every kind of field: a header with a merge
# map, a record with a caption and a nested grid, and one with a blob
DATASET = [
    {"_schema": "fuselab/publications@1",
     "label_space": {"names": ["a", "b"], "mode": "multi",
                     "merge": {"a": "Hate", "b": "NoHate"}}},
    {"id": "p0", "label": "a", "text": "the sky", "caption": "north",
     "visual": [[[0.0], [1.0]]]},
    {"id": "p1", "label": "b", "text": "", "caption": None,
     "visual": {"b64": base64.b64encode(np.array([0.0, 1.0], "<f4").tobytes()).decode(),
                "shape": [1, 2, 1]}},
]
DATASET_FIELDS = ([(0, "_schema"), (0, "label_space")]
                  + [(0, "label_space", key) for key in DATASET[0]["label_space"]]
                  + [(line, key) for line in (1, 2) for key in DATASET[line]])


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(where=st.sampled_from(DATASET_FIELDS), value=_VALUES)
@example(where=(1, "text"), value=["a", "b"])
@example(where=(1, "caption"), value=5)
@example(where=(0, "label_space", "names"), value="ab")
@example(where=(1, "visual"), value=[[0.0, 1.0]])
@example(where=(1, "visual"), value=[[[2**1100]]])
def test_any_record_value_loads_or_names_its_line(tmp_path_factory, where, value):
    """An edited record's error names its line; an edited header's names
    the header or a record it no longer admits."""
    records = json.loads(json.dumps(DATASET))
    line, *parents, key = where
    target = records[line]
    for name in parents:
        target = target[name]
    target[key] = value
    path = tmp_path_factory.getbasetemp() / "drawn.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    try:
        load_jsonl(path)
    except (ParseError, SchemaError) as exc:
        named = re.match(rf"{re.escape(str(path))}:(\d+): ", str(exc))
        assert named, str(exc)
        assert int(named.group(1)) == line + 1 or line == 0, str(exc)


# a config that parses, and every key a config may set
BASE_CONFIG = {"experiment": {"seed": "1"}, "model": {"fusion": "concat"},
               "data": {"synthetic_task": "xor-crossmodal"}, "train": {}}
CONFIG_KEYS = sorted((section, key) for section, keys in _SECTIONS.items() for key in keys)
EDGE_VALUES = ["nan", "inf", "-inf", "-1", "0", "1e309", "0,0", "-1,1,1", "nan,0.1,0.1",
               "1,2", "true", "9" * 40, "text", "gan", "a ; b", "x\ny = 1", "\n[eval]"]


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(where=st.sampled_from(CONFIG_KEYS),
       value=st.one_of(st.sampled_from(EDGE_VALUES), st.text(max_size=12)))
@example(where=("experiment", "seed"), value="-1")
@example(where=("data", "split"), value="nan,0.1,0.1")
@example(where=("model", "visual_channels"), value="0,0")
def test_any_value_of_any_key_parses_or_names_the_file(tmp_path_factory, where, value):
    section, key = where
    sections = {name: dict(keys) for name, keys in BASE_CONFIG.items()}
    sections[section][key] = value
    path = tmp_path_factory.getbasetemp() / "drawn.ini"
    path.write_text("".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                            for name, keys in sections.items()), encoding="utf-8")
    try:
        load_experiment_config(path)
    except ConfigError as exc:
        assert str(path) in str(exc)
