"""Tests for the model zoo, parameter serialization, and the SGD optimizer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import (
    SGD,
    Dense,
    Sequential,
    build_model,
    flatten_grads,
    flatten_params,
    layer_slices,
    lenet5,
    mlp,
    resnet9,
    softmax_cross_entropy,
    unflatten_params,
    vgg_mini,
)

SHAPE = (3, 16, 16)


@pytest.fixture(params=["mlp", "lenet5", "resnet9", "vgg_mini"])
def model(request):
    return build_model(request.param, num_classes=5, input_shape=SHAPE, rng=0)


class TestModelZoo:
    def test_forward_shape(self, model):
        x = np.random.default_rng(0).normal(size=(4, *SHAPE)).astype(np.float32)
        logits = model.forward(x, train=False)
        assert logits.shape == (4, 5)
        assert np.isfinite(logits).all()

    def test_train_forward_backward(self, model):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(6, *SHAPE)).astype(np.float32)
        y = rng.integers(0, 5, size=6)
        model.zero_grad()
        logits = model.forward(x, train=True)
        loss, dlogits = softmax_cross_entropy(logits, y)
        model.backward(dlogits)
        assert loss > 0
        grads = flatten_grads(model)
        assert np.isfinite(grads).all()
        assert np.abs(grads).max() > 0

    def test_deterministic_init(self, model):
        rebuilt = build_model(model.name, num_classes=5, input_shape=SHAPE, rng=0)
        np.testing.assert_array_equal(flatten_params(model), flatten_params(rebuilt))

    def test_different_seeds_differ(self, model):
        other = build_model(model.name, num_classes=5, input_shape=SHAPE, rng=99)
        assert not np.array_equal(flatten_params(model), flatten_params(other))

    def test_head_is_marked(self, model):
        head = model.final_parametric_layer()
        assert head.is_classifier_head
        assert head.parameters()[0].shape[-1] == 5


class TestSpecificArchitectures:
    def test_vgg_mini_has_16_parametric_layers(self):
        m = vgg_mini(10, input_shape=SHAPE, rng=0)
        assert len(m.layer_parameters()) == 16

    def test_lenet5_parametric_layer_count(self):
        m = lenet5(10, input_shape=SHAPE, rng=0)
        # 2 conv + 3 dense
        assert len(m.layer_parameters()) == 5

    def test_resnet9_has_batchnorm_state(self):
        m = resnet9(10, input_shape=SHAPE, rng=0)
        assert any("running_mean" in k for k in m.state())

    def test_resnet9_state_roundtrip(self):
        a = resnet9(4, input_shape=SHAPE, rng=0)
        b = resnet9(4, input_shape=SHAPE, rng=1)
        for buf in a.state().values():
            buf += 1.0
        b.load_state(a.state())
        for ka, kb in zip(sorted(a.state()), sorted(b.state())):
            np.testing.assert_allclose(a.state()[ka], b.state()[kb])

    def test_unknown_model_name(self):
        with pytest.raises(KeyError, match="available"):
            build_model("transformer", 10, SHAPE)

    def test_lenet5_small_input(self):
        m = lenet5(3, input_shape=(1, 8, 8), rng=0)
        out = m.forward(np.zeros((2, 1, 8, 8), dtype=np.float32), train=False)
        assert out.shape == (2, 3)


class TestSerialization:
    def test_flatten_roundtrip(self, model):
        flat = flatten_params(model)
        assert flat.size == model.num_parameters()
        noise = flat + 0.5
        unflatten_params(model, noise)
        np.testing.assert_allclose(flatten_params(model), noise, rtol=1e-6)

    def test_unflatten_size_validation(self, model):
        with pytest.raises(ValueError):
            unflatten_params(model, np.zeros(3))

    def test_layer_slices_cover_all(self, model):
        slices = layer_slices(model)
        total = sum(s.stop - s.start for _, s in slices)
        assert total == model.num_parameters()
        assert slices[0][1].start == 0


class TestSGD:
    def _tiny(self):
        rng = np.random.default_rng(0)
        return Sequential(Dense(4, 2, rng, dtype=np.float64, classifier_head=True))

    def test_plain_step(self):
        m = self._tiny()
        opt = SGD(m, lr=0.1)
        p = m.parameters()[0]
        p.grad[:] = 1.0
        before = p.data.copy()
        opt.step()
        np.testing.assert_allclose(p.data, before - 0.1)

    def test_momentum_accumulates(self):
        m = self._tiny()
        opt = SGD(m, lr=0.1, momentum=0.9)
        p = m.parameters()[0]
        before = p.data.copy()
        p.grad[:] = 1.0
        opt.step()
        p.grad[:] = 1.0
        opt.step()
        # second step moves by lr*(1 + 1.9) total
        np.testing.assert_allclose(p.data, before - 0.1 * (1.0 + 1.9))

    def test_weight_decay_shrinks(self):
        m = self._tiny()
        opt = SGD(m, lr=0.1, weight_decay=0.5)
        p = m.parameters()[0]
        p.grad[:] = 0.0
        before = p.data.copy()
        opt.step()
        np.testing.assert_allclose(p.data, before * (1 - 0.1 * 0.5))

    def test_prox_pulls_to_center(self):
        m = self._tiny()
        opt = SGD(m, lr=0.1, prox_mu=1.0)
        center = [np.zeros_like(p.data) for p in m.parameters()]
        opt.set_prox_center(center)
        p = m.parameters()[0]
        p.grad[:] = 0.0
        before = p.data.copy()
        opt.step()
        np.testing.assert_allclose(p.data, before * (1 - 0.1))

    def test_prox_center_shape_validation(self):
        m = self._tiny()
        opt = SGD(m, lr=0.1, prox_mu=1.0)
        with pytest.raises(ValueError):
            opt.set_prox_center([np.zeros((3, 3))])

    def test_reset_state_clears_momentum(self):
        m = self._tiny()
        opt = SGD(m, lr=0.1, momentum=0.9)
        p = m.parameters()[0]
        p.grad[:] = 1.0
        opt.step()
        opt.reset_state()
        before = p.data.copy()
        p.grad[:] = 1.0
        opt.step()
        np.testing.assert_allclose(p.data, before - 0.1)

    def test_invalid_hyperparams(self):
        m = self._tiny()
        with pytest.raises(ValueError):
            SGD(m, lr=0.0)
        with pytest.raises(ValueError):
            SGD(m, lr=0.1, momentum=1.0)
        with pytest.raises(ValueError):
            SGD(m, lr=0.1, weight_decay=-1.0)


class TestTrainingSanity:
    def test_mlp_learns_separable_blobs(self):
        """An MLP must fit a linearly separable 3-class problem quickly."""
        rng = np.random.default_rng(0)
        n_per = 60
        centers = np.array([[3, 0], [-3, 0], [0, 3]], dtype=np.float64)
        x = np.concatenate(
            [rng.normal(c, 0.5, size=(n_per, 2)) for c in centers]
        ).astype(np.float32)
        y = np.repeat(np.arange(3), n_per)
        model = Sequential(
            Dense(2, 16, rng, dtype=np.float32),
            __import__("repro.nn", fromlist=["ReLU"]).ReLU(),
            Dense(16, 3, rng, dtype=np.float32, classifier_head=True),
        )
        opt = SGD(model, lr=0.5, momentum=0.9)
        for _ in range(60):
            model.zero_grad()
            logits = model.forward(x, train=True)
            _, d = softmax_cross_entropy(logits, y)
            model.backward(d)
            opt.step()
        preds = model.predict(x).argmax(axis=1)
        assert (preds == y).mean() > 0.95
