"""Encoders and building blocks."""

import numpy as np
import pytest

from fuselab import numcore as nc
from fuselab.exceptions import DomainError, InputError, ShapeError
from fuselab.layers import (
    ConvVisualEncoder,
    DenseLayer,
    EmbeddingTable,
    RecurrentTextEncoder,
)
from fuselab.numcore import Tensor


def _zero_params(params):
    for p in params:
        p.data[...] = 0.0


class TestDense:
    def test_identity_weights_pass_input_through(self):
        layer = DenseLayer(3, 3, "identity")
        layer.weights.data[...] = np.eye(3)
        layer.bias.data[...] = 0.0
        x = Tensor([1.0, -2.0, 3.0])
        assert layer(x).data.tolist() == [1.0, -2.0, 3.0]

    def test_zero_weights_softmax_is_uniform(self):
        layer = DenseLayer(5, 2, "softmax")
        _zero_params(layer.parameters())
        out = layer(Tensor(np.ones(5)))
        assert out.data.tolist() == [0.5, 0.5]

    def test_hand_arithmetic(self):
        layer = DenseLayer(2, 1, "identity")
        layer.weights.data[...] = [[1.0, 1.0]]
        layer.bias.data[...] = [1.0]
        assert layer(Tensor([2.0, 3.0])).data.tolist() == [6.0]

    def test_dim_mismatch(self):
        layer = DenseLayer(2, 1)
        with pytest.raises(ShapeError):
            layer(Tensor([1.0, 2.0, 3.0]))


class TestEmbedding:
    def test_out_of_range_ids_raise(self):
        table = EmbeddingTable(5, 2, rng=np.random.default_rng(1))
        assert np.array_equal(table.lookup(np.array([4, 0])).data,
                              table.matrix.data[[4, 0]])
        for bad in ([5], [-1], [2, 99]):
            with pytest.raises(ShapeError):
                table.lookup(np.array(bad))


class TestTextEncoder:
    def _encoder(self, d=6, vocab=10, seed=0):
        rng = np.random.default_rng(seed)
        return RecurrentTextEncoder(vocab_size=vocab, embed_dim=4, hidden_dim=3,
                                    latent_dim=d, rng=rng)

    def test_single_token_attention_weight_is_one(self):
        z, attn = self._encoder().encode_batch(np.array([[3]]))
        assert attn.data.tolist() == [[1.0]]

    def test_all_zero_parameters_give_zero_latent(self):
        enc = self._encoder()
        _zero_params(enc.parameters())
        z, attn = enc.encode_batch(np.array([[1, 2, 3]]))
        assert np.allclose(z.data, 0.0, atol=0)
        # uniform attention over the zero states
        assert np.allclose(attn.data, 1.0 / 3.0)

    def test_latent_length_matches_configured_dim(self):
        z, _ = self._encoder(d=64).encode_batch(np.array([[1, 2]]))
        assert z.shape == (1, 64)

    def test_attention_weights_sum_to_one(self):
        enc = self._encoder(seed=5)
        for length in (1, 2, 7, 20):
            _, attn = enc.encode_batch(np.arange(length).reshape(1, length) % 10)
            assert abs(attn.data.sum() - 1.0) < 1e-9

    def test_empty_sequence_rejected(self):
        with pytest.raises(InputError):
            self._encoder().encode_batch(np.zeros((1, 0), dtype=np.intp))

    def test_palindrome_with_tied_directions_mirrors_states(self):
        enc = self._encoder(seed=3)
        for key in ("w", "b"):
            enc.bwd[key].data = enc.fwd[key].data.copy()
        ids = np.array([[2, 5, 9, 5, 2]])
        embedded = enc.embedding.lookup(ids[0]).reshape(1, 5, enc.embedding.dim)
        states = nc.gated_recurrence(embedded, enc.fwd["w"], enc.fwd["b"], enc.bwd["w"],
                                     enc.bwd["b"]).data
        fwd, bwd = states[:, :, : enc.hidden_dim], states[:, :, enc.hidden_dim :]
        for t in range(5):
            assert np.allclose(fwd[:, t], bwd[:, len(ids[0]) - 1 - t], atol=1e-12)
        # and the encoding is invariant under reversal of the palindrome
        z1, _ = enc.encode_batch(ids)
        z2, _ = enc.encode_batch(ids[:, ::-1])
        assert np.array_equal(z1.data, z2.data)

    def test_gradients_through_recurrence_length_20(self):
        enc = self._encoder(seed=11)
        ids = np.random.default_rng(1).integers(0, 10, size=(2, 20))
        target = np.random.default_rng(2).normal(size=(2, enc.latent_dim))

        def loss():
            z, _ = enc.encode_batch(ids)
            return nc.squared_norm(nc.sub(z, Tensor(target)))

        reports = nc.grad_check_params(loss, enc.parameters(), h=1e-5, tol=1e-4)
        bad = {k: r for k, r in reports.items() if not r.passed}
        assert not bad, bad

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_gates_raise_although_states_saturate(self):
        enc = self._encoder(seed=2)
        enc.embedding.matrix.data[...] = 1e308
        enc.fwd["w"].data[...] = 1.0
        with pytest.raises(DomainError, match="gated_recurrence"):
            enc.encode_batch(np.array([[1, 2, 3]]))
        with nc.no_graph(), pytest.raises(DomainError, match="gated_recurrence"):
            enc.encode_batch(np.array([[1, 2, 3]]))

    def test_one_recurrence_node_runs_both_directions(self):
        enc = self._encoder(seed=4)
        latent, _ = enc.encode_batch(np.array([[1, 2, 3], [4, 5, 0]]), np.array([3, 2]))
        ops, stack, seen = [], [latent], set()
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                ops.append(node._op)
                stack.extend(node._parents)
        assert ops.count("gated_recurrence") == 1
        assert "concat" not in ops

    def test_batch_encoding_matches_single(self):
        enc = self._encoder(seed=9)
        ids = np.array([[4, 2, 7], [1, 1, 5]])
        batch, _ = enc.encode_batch(ids)
        for row, seq in zip(batch.data, ids):
            single, _ = enc.encode_batch(seq.reshape(1, -1))
            assert np.allclose(row, single.data[0], atol=1e-12)


class TestVisualEncoder:
    def _encoder(self, d=6, seed=0):
        return ConvVisualEncoder(in_channels=1, latent_dim=d,
                                 rng=np.random.default_rng(seed))

    def test_zero_grid_zero_bias_gives_zero_latent(self):
        enc = self._encoder()
        z = enc.encode_batch(Tensor(np.zeros((1, 12, 12, 1))))
        assert np.allclose(z.data, 0.0, atol=0)

    def test_fixed_seed_fixed_grid_bitwise_identical(self):
        grid = Tensor(np.random.default_rng(5).normal(size=(1, 12, 12, 1)))
        outs = [self._encoder(seed=7).encode_batch(grid).data for _ in range(2)]
        assert np.array_equal(outs[0], outs[1])

    def test_shape_contract_16x16_d64(self):
        enc = self._encoder(d=64)
        z = enc.encode_batch(Tensor(np.random.default_rng(0).normal(size=(1, 16, 16, 1))))
        assert z.shape == (1, 64)

    def test_latent_dim_independent_of_grid_size(self):
        enc = self._encoder(d=5)
        for size in (10, 12, 17):
            grid = Tensor(np.random.default_rng(size).normal(size=(1, size, size, 1)))
            assert enc.encode_batch(grid).shape == (1, 5)

    def test_grid_below_receptive_field_rejected(self):
        with pytest.raises(ShapeError):
            self._encoder().encode_batch(Tensor(np.zeros((1, 2, 2, 1))))

    def test_gradients_through_conv_stack(self):
        enc = self._encoder(d=3, seed=13)
        grid = np.random.default_rng(3).normal(size=(2, 10, 10, 1))
        target = np.random.default_rng(4).normal(size=(2, 3))

        def loss():
            z = enc.encode_batch(Tensor(grid))
            return nc.squared_norm(nc.sub(z, Tensor(target)))

        reports = nc.grad_check_params(loss, enc.parameters(), h=1e-5, tol=1e-4)
        bad = {k: r for k, r in reports.items() if not r.passed}
        assert not bad, bad


def test_equal_latent_dims_across_encoders():
    rng = np.random.default_rng(0)
    text = RecurrentTextEncoder(10, 4, 3, latent_dim=8, rng=rng)
    visual = ConvVisualEncoder(1, latent_dim=8, rng=rng)
    z_t, _ = text.encode_batch(np.array([[1, 2]]))
    z_v = visual.encode_batch(Tensor(np.zeros((1, 12, 12, 1))))
    assert z_t.shape == z_v.shape == (1, 8)
