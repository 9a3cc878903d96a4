"""Property-based tests on algebraic identities of the NN layers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.nn import Conv2d, Dense, Flatten, MaxPool2d, ReLU
from repro.nn.conv_utils import col2im, conv_output_size, im2col

RNG = np.random.default_rng(0)


def small_images(min_hw=4, max_hw=8):
    return hnp.arrays(
        np.float64,
        st.tuples(
            st.integers(1, 3),  # batch
            st.integers(1, 2),  # channels
            st.integers(min_hw, max_hw),
            st.integers(min_hw, max_hw),
        ),
        elements=st.floats(-3, 3, allow_nan=False, allow_infinity=False),
    )


class TestLinearity:
    """Dense and Conv2d (minus bias) are linear maps."""

    @given(x=hnp.arrays(np.float64, (3, 5), elements=st.floats(-5, 5)), a=st.floats(-3, 3))
    @settings(max_examples=30, deadline=None)
    def test_dense_homogeneous(self, x, a):
        layer = Dense(5, 4, np.random.default_rng(1), dtype=np.float64)
        b = layer.b.data
        y1 = layer.forward(a * x, train=False) - b
        y2 = a * (layer.forward(x, train=False) - b)
        np.testing.assert_allclose(y1, y2, atol=1e-9)

    @given(x=small_images(), y=small_images())
    @settings(max_examples=20, deadline=None)
    def test_conv_additive(self, x, y):
        if x.shape != y.shape:
            return
        layer = Conv2d(x.shape[1], 2, 3, np.random.default_rng(2), pad=1, dtype=np.float64)
        b = layer.b.data[None, :, None, None]
        lhs = layer.forward(x + y, train=False) - b
        rhs = (layer.forward(x, train=False) - b) + (layer.forward(y, train=False) - b)
        np.testing.assert_allclose(lhs, rhs, atol=1e-8)


class TestPoolingProperties:
    @given(x=small_images(), c=st.floats(-2, 2))
    @settings(max_examples=30, deadline=None)
    def test_maxpool_shift_equivariant(self, x, c):
        a = MaxPool2d(2).forward(x + c, train=False)
        b = MaxPool2d(2).forward(x, train=False) + c
        np.testing.assert_allclose(a, b, atol=1e-10)


class TestActivationProperties:
    @given(x=small_images())
    @settings(max_examples=30, deadline=None)
    def test_relu_idempotent(self, x):
        r = ReLU()
        once = r.forward(x, train=False)
        twice = r.forward(once, train=False)
        np.testing.assert_array_equal(once, twice)

    @given(x=small_images())
    @settings(max_examples=30, deadline=None)
    def test_relu_nonnegative_and_sparse(self, x):
        y = ReLU().forward(x, train=False)
        assert (y >= 0).all()
        np.testing.assert_array_equal(y[x <= 0], 0.0)

    @given(x=small_images())
    @settings(max_examples=20, deadline=None)
    def test_flatten_preserves_content(self, x):
        f = Flatten()
        y = f.forward(x)
        np.testing.assert_array_equal(y.reshape(x.shape), x)


class TestIm2colAdjoint:
    """col2im is the exact adjoint of im2col: <im2col(x), c> == <x, col2im(c)>."""

    @given(
        seed=st.integers(0, 1000),
        stride=st.integers(1, 2),
        pad=st.integers(0, 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_adjoint_identity(self, seed, stride, pad):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(2, 2, 6, 6))
        cols = im2col(x, 3, 3, stride, pad)
        c = rng.normal(size=cols.shape)
        lhs = float((cols * c).sum())
        rhs = float((x * col2im(c, x.shape, 3, 3, stride, pad)).sum())
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_output_size_formula(self):
        assert conv_output_size(8, 3, 1, 1) == 8
        assert conv_output_size(8, 2, 2, 0) == 4
        with pytest.raises(ValueError):
            conv_output_size(2, 5, 1, 0)
