"""Fusion mechanisms and their losses."""

import math

import numpy as np
import pytest

from fuselab import numcore as nc
from fuselab.exceptions import ConfigError, ShapeError
from fuselab.fusion import (
    AutoFusion,
    ConcatFusion,
    GanFusion,
    GanFusionModule,
    auto_fusion_loss,
    gan_adv_loss,
    generator_loss,
)
from fuselab.numcore import Tensor

TWO_LN_2 = 2.0 * math.log(2.0)


def _zero_params(params):
    for p in params:
        p.data[...] = 0.0


class TestConcat:
    def test_projection_is_relu_of_concatenation(self):
        mech = ConcatFusion(latent_dim=1, out_dim=2)
        mech.projection.weights.data[...] = [[1.0, 0.0], [0.0, -1.0]]
        out = mech.fuse_batch(Tensor([[1.0]]), Tensor([[2.0]]))
        assert out.z.data.tolist() == [[1.0, 2.0]]
        assert out.z_fuse.data.tolist() == [[1.0, 0.0]]

    def test_projection_controls_output_dim(self):
        mech = ConcatFusion(latent_dim=3, out_dim=5, rng=np.random.default_rng(0))
        out = mech.fuse_batch(Tensor(np.ones((1, 3))), Tensor(np.ones((1, 3))))
        assert out.z_fuse.shape == (1, 5)

    def test_latent_dim_mismatch(self):
        mech = ConcatFusion(latent_dim=2, out_dim=2)
        with pytest.raises(ShapeError):
            mech.fuse_batch(Tensor([[1.0, 2.0]]), Tensor([[1.0]]))
        with pytest.raises(ShapeError):  # a single latent is a batch of one
            mech.fuse_batch(Tensor([1.0, 2.0]), Tensor([1.0, 2.0]))


class TestAutoFusion:
    def test_bottleneck_must_compress(self):
        with pytest.raises(ConfigError):
            AutoFusion(latent_dim=2, out_dim=4)

    def test_zero_loss_fixed_point(self):
        mech = AutoFusion(latent_dim=2, out_dim=3, rng=np.random.default_rng(1))
        z_v, z_t = Tensor([[0.3, -0.4]]), Tensor([[1.5, 0.2]])
        # an identity-capable net trained to convergence on one repeated
        # sample can reconstruct it exactly; realize that fixed point directly
        sample = np.concatenate([z_v.data[0], z_t.data[0]])
        mech.decoder.weights.data[...] = 0.0
        mech.decoder.bias.data[...] = sample
        out = mech.fuse_batch(z_v, z_t)
        z_hat = mech.decoder(out.z_fuse)
        assert np.array_equal(z_hat.data, out.z.data)
        assert auto_fusion_loss(out.z, z_hat).data.item() == 0.0

    def test_reconstruction_dims(self):
        mech = AutoFusion(latent_dim=4, out_dim=4, rng=np.random.default_rng(2))
        out = mech.fuse_batch(Tensor(np.ones((1, 4))), Tensor(np.ones((1, 4))))
        assert out.z_fuse.shape == (1, 4)
        assert mech.decoder(out.z_fuse).shape == (1, 8)

    def test_training_on_one_repeated_sample_drives_loss_to_zero(self):
        from fuselab.training.optim import Adam

        mech = AutoFusion(latent_dim=2, out_dim=3, rng=np.random.default_rng(6))
        z_v = Tensor(np.array([[0.4, -0.7]]))
        z_t = Tensor(np.array([[1.1, 0.3]]))
        opt = Adam(mech.parameters(), lr=1e-2)
        for _ in range(400):
            out = mech.fuse_batch(z_v, z_t)
            loss = auto_fusion_loss(out.z, mech.decoder(out.z_fuse))
            opt.step(loss.backward(opt.params))
        assert loss.data.item() < 1e-4, loss.data.item()


class TestAutoFusionLoss:
    def test_identity_reconstruction_is_zero(self):
        z = Tensor([[1.0, 2.0, 3.0]])
        assert auto_fusion_loss(z, Tensor([[1.0, 2.0, 3.0]])).data.item() == 0.0

    def test_hand_value(self):
        assert auto_fusion_loss(Tensor([[1.0, 2.0]]), Tensor([[0.0, 0.0]])).data.item() == 5.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        z = rng.normal(size=(1, 6))
        z_hat = rng.normal(size=(1, 6))
        perm = rng.permutation(6)
        a = auto_fusion_loss(Tensor(z), Tensor(z_hat)).data.item()
        b = auto_fusion_loss(Tensor(z[:, perm]), Tensor(z_hat[:, perm])).data.item()
        assert abs(a - b) < 1e-12

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            auto_fusion_loss(Tensor([[1.0]]), Tensor([[1.0, 2.0]]))


class TestGanLoss:
    def _module(self, d=2, seed=0):
        return GanFusionModule(latent_dim=d, name="m", rng=np.random.default_rng(seed))

    def test_indifferent_discriminator_value(self):
        module = self._module()
        _zero_params(module.discriminator_parameters())  # sigmoid(0) = 0.5
        parts = gan_adv_loss(module, Tensor([[0.2, 0.3]]), Tensor([[1.0, -1.0]]),
                             rng=np.random.default_rng(0))
        assert abs(parts.j_adv.data.item() - (-TWO_LN_2)) < 1e-9
        assert abs(parts.j_adv.data.item() - (math.log(0.5) + math.log(0.5))) < 1e-9

    def test_perfect_discriminator_approaches_zero(self):
        module = self._module()
        # hidden[0] = relu(x[0]); output saturates high for x[0] = 10 and low
        # for the near-zero generator outputs, so clamping pins both scores
        module.disc_hidden.weights.data[...] = 0.0
        module.disc_hidden.weights.data[0, 0] = 1.0
        module.disc_hidden.bias.data[...] = 0.0
        module.disc_out.weights.data[...] = 0.0
        module.disc_out.weights.data[0, 0] = 100.0
        module.disc_out.bias.data[...] = -50.0
        real = Tensor([[10.0, 0.0]])
        parts = gan_adv_loss(module, real, Tensor([[0.0, 0.0]]),
                             noise=np.zeros((1, 1)))
        # generator with small init emits near-zero vectors -> D(fake) ~ 0
        assert parts.d_real.data.item() > 0.99
        assert parts.d_fake.data.item() < 0.01
        assert abs(parts.j_adv.data.item()) < 0.05

    def test_one_dimensional_toy_gradient_matches_fd(self):
        # D(x) = sigmoid(w x) with w scalar, checked at w = 0
        x_real, x_fake = 0.7, -0.3

        def f(w):
            d_real = nc.sigmoid(nc.mul(w, x_real))
            d_fake = nc.sigmoid(nc.mul(w, x_fake))
            return nc.add(nc.tlog(d_real), nc.tlog(nc.sub(1.0, d_fake)))

        report = nc.grad_check(f, Tensor(0.0), h=1e-5, tol=1e-4)
        assert report.passed, report

    def test_total_is_sum_of_components(self):
        t = Tensor(-TWO_LN_2)
        v = Tensor(-TWO_LN_2)
        assert abs(nc.add(t, v).data.item() - (-2.0 * TWO_LN_2)) < 1e-9
        assert abs(nc.add(t, v).data.item() - (-2.772589)) < 1e-6
        assert nc.add(Tensor(0.0), Tensor(-1.5)).data.item() == -1.5

    def test_seeded_components_recompute_identically(self):
        module = self._module(seed=4)
        args = (Tensor([[0.2, 0.3]]), Tensor([[1.0, -1.0]]))
        a = gan_adv_loss(module, *args, rng=np.random.default_rng(9)).j_adv.data.item()
        b = gan_adv_loss(module, *args, rng=np.random.default_rng(9)).j_adv.data.item()
        assert a == b


class TestGanFusion:
    def _mech(self, d=3, seed=0, **kw):
        return GanFusion(latent_dim=d, out_dim=d, rng=np.random.default_rng(seed), **kw)

    def test_deterministic_given_seed(self):
        z_v, z_t = Tensor([[0.1, 0.2, 0.3]]), Tensor([[-0.1, 0.5, 0.0]])
        mech = self._mech(seed=2)
        a = mech.fuse_batch(z_v, z_t, rng=np.random.default_rng(7)).z_fuse.data
        b = mech.fuse_batch(z_v, z_t, rng=np.random.default_rng(7)).z_fuse.data
        assert np.array_equal(a, b)

    def test_output_dim_and_auxiliaries(self):
        mech = self._mech(d=3)
        z_v, z_t = Tensor(np.ones((1, 3))), Tensor(np.ones((1, 3)))
        out = mech.fuse_batch(z_v, z_t, rng=np.random.default_rng(0))
        assert out.z_fuse.shape == (1, 3)
        for key, module, real, source in (("t", mech.text_module, z_v, z_t),
                                          ("v", mech.visual_module, z_t, z_v)):
            z_g = module.generate(source, out.noise[key])
            assert z_g.shape == (1, 3)
            parts = module.adversarial(real, z_g)
            for score in (parts.d_real, parts.d_fake):
                assert 0.0 < score.data.item() < 1.0

    def test_combiner_reads_generator_outputs_and_raw_latents(self):
        """The combiner reads [z_g_t; z_g_v; z_v; z_t]: with its weights
        zero but on the raw-latent block, the fused vector is relu(z_v - z_t)."""
        mech = self._mech()
        assert mech.combiner.in_dim == 12
        mech.combiner.weights.data[...] = 0.0
        mech.combiner.weights.data[:, 6:] = np.eye(3, 6) - np.eye(3, 6, 3)
        out = mech.fuse_batch(Tensor([[1.0, -2.0, 3.0]]), Tensor([[0.5, 0.5, -4.0]]),
                              rng=np.random.default_rng(0))
        assert out.z_fuse.data.tolist() == [[0.5, 0.0, 7.0]]

    def test_parameter_partition_is_disjoint_and_covering(self):
        mech = self._mech()
        gen = {id(p) for p in mech.generator_parameters()}
        disc = {id(p) for p in mech.discriminator_parameters()}
        assert not gen & disc
        assert gen | disc == {id(p) for p in mech.parameters()}

    def test_inference_noise_is_zero_and_deterministic(self):
        mech = self._mech(seed=3)
        z_v, z_t = Tensor([[0.1, 0.2, 0.3]]), Tensor([[0.3, 0.2, 0.1]])
        a = mech.fuse_batch(z_v, z_t, rng=None).z_fuse.data
        b = mech.fuse_batch(z_v, z_t, rng=None).z_fuse.data
        assert np.array_equal(a, b)


class TestFusionGradients:
    """Both fusion losses pass finite-difference checks on d=4 toys."""

    def test_auto_fusion_loss_gradients(self):
        mech = AutoFusion(latent_dim=4, out_dim=4, rng=np.random.default_rng(5))
        z_v = Tensor(np.random.default_rng(6).normal(size=4))
        z_t = Tensor(np.random.default_rng(7).normal(size=4))

        def loss():
            out = mech.fuse_batch(*(z.reshape(1, 4) for z in (z_v, z_t)))
            return auto_fusion_loss(out.z, mech.decoder(out.z_fuse))

        reports = nc.grad_check_params(loss, mech.parameters(), h=1e-5, tol=1e-4)
        assert all(r.passed for r in reports.values()), reports

    def test_gan_adv_loss_gradients(self):
        module = GanFusionModule(latent_dim=4, name="m", rng=np.random.default_rng(8))
        real = Tensor(np.random.default_rng(9).normal(size=(1, 4)))
        source = Tensor(np.random.default_rng(10).normal(size=(1, 4)))
        noise = np.random.default_rng(11).standard_normal((1, 1))

        def loss():
            return gan_adv_loss(module, real, source, noise=noise).j_adv

        params = module.generator_parameters() + module.discriminator_parameters()
        reports = nc.grad_check_params(loss, params, h=1e-5, tol=1e-4)
        assert all(r.passed for r in reports.values()), reports

    def test_generator_loss_gradients(self):
        module = GanFusionModule(latent_dim=4, name="m", rng=np.random.default_rng(12))
        real = Tensor(np.random.default_rng(13).normal(size=(1, 4)))
        source = Tensor(np.random.default_rng(14).normal(size=(1, 4)))
        noise = np.random.default_rng(15).standard_normal((1, 1))

        def loss():
            return generator_loss(gan_adv_loss(module, real, source, noise=noise))

        reports = nc.grad_check_params(loss, module.generator_parameters(),
                                       h=1e-5, tol=1e-4)
        assert all(r.passed for r in reports.values()), reports
