"""Numerical gradient checks for every layer and loss.

These are the load-bearing tests of the NN substrate: if backprop is right,
everything downstream (FL training, weight-driven clustering) rests on solid
ground.  All checks run in float64 with central differences.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import (
    BatchNorm,
    Conv2d,
    Dense,
    Flatten,
    GlobalAvgPool2d,
    MaxPool2d,
    ReLU,
    Residual,
    Sequential,
    softmax_cross_entropy,
)

RNG = np.random.default_rng(12345)
EPS = 1e-5
TOL = 1e-6


def numerical_grad(f, x: np.ndarray) -> np.ndarray:
    """Central-difference gradient of scalar f at x."""
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + EPS
        fp = f()
        x[idx] = orig - EPS
        fm = f()
        x[idx] = orig
        grad[idx] = (fp - fm) / (2 * EPS)
        it.iternext()
    return grad


def check_layer_grads(layer, x: np.ndarray, tol: float = TOL, seed_dout: int = 7):
    """Check input grads and all parameter grads of a layer via a random
    linear functional of the output (loss = sum(dout * y))."""
    dout_rng = np.random.default_rng(seed_dout)
    y = layer.forward(x, train=True)
    dout = dout_rng.normal(size=y.shape)

    def loss():
        return float((layer.forward(x, train=True) * dout).sum())

    # analytic
    for p in layer.parameters():
        p.zero_grad()
    layer.forward(x, train=True)
    dx = layer.backward(dout)

    num_dx = numerical_grad(loss, x)
    np.testing.assert_allclose(dx, num_dx, rtol=tol * 100, atol=tol)

    for p in layer.parameters():
        num_dp = numerical_grad(loss, p.data)
        np.testing.assert_allclose(p.grad, num_dp, rtol=tol * 100, atol=tol)


class TestDense:
    def test_gradcheck(self):
        layer = Dense(5, 4, RNG, dtype=np.float64)
        x = RNG.normal(size=(3, 5))
        check_layer_grads(layer, x)

    def test_grad_accumulates(self):
        layer = Dense(4, 2, RNG, dtype=np.float64)
        x = RNG.normal(size=(2, 4))
        layer.forward(x, train=True)
        layer.backward(np.ones((2, 2)))
        g1 = layer.w.grad.copy()
        layer.forward(x, train=True)
        layer.backward(np.ones((2, 2)))
        np.testing.assert_allclose(layer.w.grad, 2 * g1)

    def test_shape_validation(self):
        layer = Dense(4, 2, RNG)
        with pytest.raises(ValueError):
            layer.forward(np.zeros((2, 5)))

    def test_backward_before_forward_raises(self):
        layer = Dense(4, 2, RNG)
        with pytest.raises(RuntimeError):
            layer.backward(np.zeros((2, 2)))

    def test_rejects_nonpositive_dims(self):
        with pytest.raises(ValueError):
            Dense(0, 3, RNG)


class TestConv2d:
    def test_gradcheck(self):
        layer = Conv2d(2, 3, 3, RNG, stride=1, pad=1, dtype=np.float64)
        x = RNG.normal(size=(2, 2, 5, 5))
        check_layer_grads(layer, x)

    def test_gradcheck_strided_nopad(self):
        layer = Conv2d(1, 2, 3, RNG, stride=2, pad=0, dtype=np.float64)
        x = RNG.normal(size=(2, 1, 7, 7))
        check_layer_grads(layer, x)

    def test_output_shape(self):
        layer = Conv2d(3, 8, 3, RNG, pad=1)
        y = layer.forward(np.zeros((4, 3, 16, 16), dtype=np.float32))
        assert y.shape == (4, 8, 16, 16)

    def test_matches_naive_convolution(self):
        layer = Conv2d(2, 2, 3, RNG, stride=1, pad=0, dtype=np.float64)
        x = RNG.normal(size=(1, 2, 6, 6))
        y = layer.forward(x, train=False)
        # naive direct convolution
        w, b = layer.w.data, layer.b.data
        expected = np.zeros_like(y)
        for oc in range(2):
            for i in range(4):
                for j in range(4):
                    patch = x[0, :, i : i + 3, j : j + 3]
                    expected[0, oc, i, j] = (patch * w[oc]).sum() + b[oc]
        np.testing.assert_allclose(y, expected, rtol=1e-10, atol=1e-12)

    def test_rejects_wrong_channels(self):
        layer = Conv2d(3, 4, 3, RNG)
        with pytest.raises(ValueError):
            layer.forward(np.zeros((1, 2, 8, 8)))


class TestPooling:
    def test_maxpool_gradcheck(self):
        # Use distinct values so the argmax is stable under perturbation.
        layer = MaxPool2d(2)
        x = RNG.permutation(np.arange(2 * 2 * 4 * 4, dtype=np.float64)).reshape(2, 2, 4, 4)
        check_layer_grads(layer, x)

    def test_maxpool_values(self):
        layer = MaxPool2d(2)
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        y = layer.forward(x)
        np.testing.assert_allclose(y[0, 0], [[5, 7], [13, 15]])

    def test_global_avgpool_gradcheck(self):
        layer = GlobalAvgPool2d()
        x = RNG.normal(size=(3, 4, 5, 5))
        check_layer_grads(layer, x)


class TestBatchNorm:
    def test_gradcheck_2d(self):
        layer = BatchNorm(5, dtype=np.float64)
        x = RNG.normal(size=(8, 5))
        check_layer_grads(layer, x, tol=1e-5)

    def test_gradcheck_4d(self):
        layer = BatchNorm(3, dtype=np.float64)
        x = RNG.normal(size=(4, 3, 3, 3))
        check_layer_grads(layer, x, tol=1e-5)

    def test_train_normalizes(self):
        layer = BatchNorm(4, dtype=np.float64)
        x = RNG.normal(loc=3.0, scale=2.0, size=(200, 4))
        y = layer.forward(x, train=True)
        np.testing.assert_allclose(y.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(y.std(axis=0), 1.0, atol=1e-3)

    def test_running_stats_converge(self):
        layer = BatchNorm(2, momentum=0.5, dtype=np.float64)
        x = RNG.normal(loc=1.0, size=(500, 2))
        for _ in range(30):
            layer.forward(x, train=True)
        np.testing.assert_allclose(layer.running_mean, x.mean(axis=0), atol=1e-2)

    def test_eval_uses_running_stats(self):
        layer = BatchNorm(2, dtype=np.float64)
        x = RNG.normal(size=(50, 2))
        for _ in range(100):
            layer.forward(x, train=True)
        y_eval = layer.forward(x, train=False)
        y_train = layer.forward(x, train=True)
        np.testing.assert_allclose(y_eval, y_train, atol=0.2)

    def test_state_roundtrip(self):
        a = BatchNorm(3)
        b = BatchNorm(3)
        a.running_mean[:] = [1.0, 2.0, 3.0]
        b.load_state(a.state())
        np.testing.assert_allclose(b.running_mean, a.running_mean)


class TestResidual:
    def test_gradcheck(self):
        block = Residual(
            Conv2d(2, 2, 3, RNG, pad=1, dtype=np.float64),
            ReLU(),
            Conv2d(2, 2, 3, RNG, pad=1, dtype=np.float64),
        )
        x = RNG.normal(size=(2, 2, 4, 4))
        check_layer_grads(block, x, tol=1e-5)

    def test_shape_mismatch_raises(self):
        block = Residual(Conv2d(2, 3, 3, RNG, pad=1, dtype=np.float64))
        with pytest.raises(ValueError):
            block.forward(RNG.normal(size=(1, 2, 4, 4)))


class TestLosses:
    def test_softmax_ce_gradcheck(self):
        logits = RNG.normal(size=(6, 4))
        labels = RNG.integers(0, 4, size=6)

        def loss():
            return softmax_cross_entropy(logits, labels)[0]

        _, dlogits = softmax_cross_entropy(logits, labels)
        num = numerical_grad(loss, logits)
        np.testing.assert_allclose(dlogits, num, rtol=1e-4, atol=1e-7)

    def test_softmax_ce_perfect_prediction(self):
        logits = np.array([[100.0, 0.0], [0.0, 100.0]])
        loss, _ = softmax_cross_entropy(logits, np.array([0, 1]))
        assert loss < 1e-10

    def test_softmax_ce_uniform(self):
        logits = np.zeros((4, 10))
        loss, _ = softmax_cross_entropy(logits, np.zeros(4, dtype=int))
        np.testing.assert_allclose(loss, np.log(10), rtol=1e-10)

    def test_label_shape_validation(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(np.zeros((3, 2)), np.zeros((4,), dtype=int))


class TestWholeModelGradcheck:
    def test_small_cnn_end_to_end(self):
        rng = np.random.default_rng(0)
        model = Sequential(
            Conv2d(1, 2, 3, rng, pad=1, dtype=np.float64),
            ReLU(),
            MaxPool2d(2),
            Flatten(),
            Dense(2 * 2 * 2, 3, rng, dtype=np.float64, classifier_head=True),
        )
        x = np.random.default_rng(1).permutation(
            np.linspace(-1, 1, 1 * 1 * 4 * 4 * 2)
        ).reshape(2, 1, 4, 4)
        labels = np.array([0, 2])

        def loss():
            return softmax_cross_entropy(model.forward(x, train=True), labels)[0]

        model.zero_grad()
        logits = model.forward(x, train=True)
        _, dlogits = softmax_cross_entropy(logits, labels)
        model.backward(dlogits)

        for p in model.parameters():
            num = numerical_grad(loss, p.data)
            np.testing.assert_allclose(p.grad, num, rtol=1e-4, atol=1e-7)
