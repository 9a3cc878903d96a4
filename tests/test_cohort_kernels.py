"""Cohort-batched kernel contracts: the numeric spine of every client task.

A parametric layer's only kernels are ``forward_many``/``backward_many``
over a leading cohort axis; one model is a cohort of one (its
``forward``/``backward`` run them at ``C=1``).  The kernels take images
as ``(C, ch, H, W, N)``: the tests draw ``(C, N, ch, H, W)`` batches, as
``CohortModel`` takes them, and convert with
:func:`~repro.nn.layers.to_kernel_layout` (a view, as at a model's first
layer) or a contiguous copy of it (as between layers).  Property tests
(hypothesis) pin layer by layer that a ``C``-member cohort equals ``C``
one-member cohorts within :data:`COHORT_RTOL`, including BatchNorm's
train-mode running statistics (*bitwise*), and a shared ``(1, N, ...)``
input that every member reads.  Workspace-reuse tests assert the
pre-allocated scratch — cohort conv workspaces, codec encode buffers — is
the *same object* across calls for a fixed shape, and the bitwise tests
pin the claims the optimized kernels make in their docstrings (the
window-copy gather == im2col column for column, the interior-only
slice-add scatter == col2im, a cohort Conv2d member == a cohort of one on
output, dx, dW and db, the branch-free ReLU/Residual masks ==
``np.where``, MaxPool's running-compare argmax == ``argmax``, its
disjoint fast path and eval forward, BatchNorm's one-pass statistics ==
the plain mean/var expressions over one model's NCHW maps, NaN payloads
aside, and ``backward_many_params_only``'s gradients).  The independent
references stay: ``im2col``/``col2im`` in ``tests/conv_reference.py``,
and the finite-difference gradchecks and the naive convolution in
``tests/test_nn_gradcheck.py``.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conv_reference import col2im, im2col
from repro.fl import training
from repro.fl.codecs import Int8Codec, TopKCodec
from repro.nn import layers as layers_module
from repro.nn import losses
from repro.nn.conv_utils import CohortConvWorkspace
from repro.nn.layers import (
    BatchNorm,
    Conv2d,
    Dense,
    Flatten,
    GlobalAvgPool2d,
    MaxPool2d,
    ReLU,
    from_kernel_layout,
    to_kernel_layout,
)
from repro.nn.model import CohortModel, Residual, Sequential
from repro.nn.models import build_model
from repro.nn.optim import SGD, CohortSGD

#: tolerance of a C-member cohort vs C one-member cohorts, layer by layer
#: on random inputs; the end-to-end backend comparisons (tests/golden.py)
#: are exact, so a layer whose two forms sum in different orders fails
#: those even where it passes here
COHORT_RTOL = 1e-7
COHORT_ATOL = 1e-9

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _close(actual, expected):
    np.testing.assert_allclose(actual, expected, rtol=COHORT_RTOL, atol=COHORT_ATOL)


def _load_members(template, members):
    """Cohort-bind *template* and install member ``c``'s parameters at
    every stacked slice ``c``."""
    template.bind_cohort(len(members))
    for tp, mps in zip(
        template.parameters(), zip(*(m.parameters() for m in members))
    ):
        for c, mp in enumerate(mps):
            tp.many[c] = mp.data


def _edge_floats(rng, shape, dtype):
    """Normal draws with ~40% of the entries replaced by NaNs carrying
    payloads (both signs), +-inf, +-0.0 and +-subnormals, for kernels
    compared with a numpy oracle byte for byte."""
    dtype = np.dtype(dtype)
    uint = np.dtype(f"u{dtype.itemsize}").type
    quiet_nan = np.array(np.nan, dtype).view(uint)
    sign = uint(1) << uint(8 * dtype.itemsize - 1)
    tiny = np.finfo(dtype).smallest_subnormal
    specials = np.concatenate([
        np.array(
            [quiet_nan | uint(1), quiet_nan | uint(0x2A), sign | quiet_nan | uint(7)]
        ).view(dtype),
        np.array([np.inf, -np.inf, 0.0, -0.0, tiny, -tiny, 3 * tiny, -5 * tiny], dtype),
    ])
    x = rng.standard_normal(shape).astype(dtype)
    where = rng.random(shape) < 0.4
    x[where] = specials[rng.integers(0, specials.size, int(where.sum()))]
    return x


def _same_bytes(actual, expected):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def _kernel(x):
    """A ``(C, N, ch, H, W)`` batch as a contiguous kernel-layout array,
    as one layer hands it to the next."""
    return np.ascontiguousarray(to_kernel_layout(x))


class TestDenseCohort:
    @given(seed=seeds, cohort=st.integers(1, 4), n=st.integers(1, 6),
           fin=st.integers(1, 5), fout=st.integers(1, 5))
    @settings(max_examples=25, deadline=None)
    def test_matches_per_member_kernels(self, seed, cohort, n, fin, fout):
        rng = np.random.default_rng(seed)
        members = [Dense(fin, fout, rng, dtype=np.float64) for _ in range(cohort)]
        template = Dense(fin, fout, np.random.default_rng(0), dtype=np.float64)
        _load_members(template, members)
        x = rng.standard_normal((cohort, n, fin))
        dout = rng.standard_normal((cohort, n, fout))
        out_many = template.forward_many(x)
        dx_many = template.backward_many(dout)
        for c, m in enumerate(members):
            _close(out_many[c], m.forward(x[c]))
            _close(dx_many[c], m.backward(dout[c]))
            _close(template.w.grad_many[c], m.w.grad)
            _close(template.b.grad_many[c], m.b.grad)

    def test_params_only_grads_bitwise(self):
        rng = np.random.default_rng(5)
        layer = Dense(4, 3, rng, dtype=np.float64)
        layer.bind_cohort(3)
        layer.w.many[:] = rng.standard_normal(layer.w.many.shape)
        x = rng.standard_normal((3, 6, 4))
        dout = rng.standard_normal((3, 6, 3))
        layer.forward_many(x)
        layer.backward_many(dout)
        gw, gb = layer.w.grad_many.copy(), layer.b.grad_many.copy()
        layer.w.zero_grad()
        layer.b.zero_grad()
        layer.forward_many(x)
        layer.backward_many_params_only(dout)
        np.testing.assert_array_equal(layer.w.grad_many, gw)
        np.testing.assert_array_equal(layer.b.grad_many, gb)


class TestConv2dCohort:
    @given(seed=seeds, cohort=st.integers(1, 3), n=st.integers(1, 3),
           cin=st.integers(1, 2), cout=st.integers(1, 3),
           h=st.integers(3, 6), k=st.integers(1, 3),
           stride=st.integers(1, 2), pad=st.integers(0, 1))
    @settings(max_examples=25, deadline=None)
    def test_matches_per_member_kernels(
        self, seed, cohort, n, cin, cout, h, k, stride, pad
    ):
        rng = np.random.default_rng(seed)
        members = [
            Conv2d(cin, cout, k, rng, stride=stride, pad=pad, dtype=np.float64)
            for _ in range(cohort)
        ]
        template = Conv2d(
            cin, cout, k, np.random.default_rng(0), stride=stride, pad=pad,
            dtype=np.float64,
        )
        _load_members(template, members)
        x = rng.standard_normal((cohort, n, cin, h, h))
        out_many = from_kernel_layout(template.forward_many(_kernel(x)))
        dout = rng.standard_normal(out_many.shape)
        dx_many = from_kernel_layout(template.backward_many(_kernel(dout)))
        for c, m in enumerate(members):
            _close(out_many[c], m.forward(x[c]))
            _close(dx_many[c], m.backward(dout[c]))
            _close(template.w.grad_many[c], m.w.grad)
            _close(template.b.grad_many[c], m.b.grad)

    @given(seed=seeds, cohort=st.integers(2, 4), n=st.integers(1, 3),
           cin=st.integers(1, 2), cout=st.integers(1, 3),
           h=st.integers(3, 6), k=st.integers(1, 3),
           stride=st.integers(1, 2), pad=st.integers(0, 1))
    @settings(max_examples=25, deadline=None)
    def test_shared_input_matches_every_member(
        self, seed, cohort, n, cin, cout, h, k, stride, pad
    ):
        """A ``(1, N, ...)`` input is convolved by every bound member."""
        rng = np.random.default_rng(seed)
        members = [
            Conv2d(cin, cout, k, rng, stride=stride, pad=pad, dtype=np.float64)
            for _ in range(cohort)
        ]
        template = Conv2d(
            cin, cout, k, np.random.default_rng(0), stride=stride, pad=pad,
            dtype=np.float64,
        )
        _load_members(template, members)
        x = rng.standard_normal((1, n, cin, h, h))
        out_many = from_kernel_layout(template.forward_many(_kernel(x), train=False))
        assert out_many.shape[0] == cohort
        for c, m in enumerate(members):
            _close(out_many[c], m.forward(x[0], train=False))

    def test_shared_input_rejects_training(self):
        layer = Conv2d(1, 2, 3, np.random.default_rng(0), dtype=np.float64)
        layer.bind_cohort(3)
        x = np.zeros((1, 1, 5, 5, 2))  # (1, ch, H, W, N)
        with pytest.raises(ValueError, match="evaluation only"):
            layer.forward_many(x, train=True)
        assert layer.forward_many(x, train=False).shape == (3, 2, 3, 3, 2)

    def test_only_training_caches_workspaces(self, monkeypatch):
        """Evaluation forwards (shared or per-member rows, every row
        count) gather into per-call workspaces, freed with their N-sized
        stage and columns on return.  A training forward keeps its
        workspace for the next step, and the workspace owns only those
        two buffers: the scatter adds into the fresh dx it returns.  A
        first layer never scatters."""
        made = []
        scatters = []

        class Tracked(CohortConvWorkspace):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(
                    (weakref.ref(self), weakref.ref(self._stage),
                     weakref.ref(self._cols))
                )

            def scatter(self, dcols):
                scatters.append(dcols.shape)
                return super().scatter(dcols)

        monkeypatch.setattr(layers_module, "CohortConvWorkspace", Tracked)
        layer = Conv2d(1, 2, 3, np.random.default_rng(0), dtype=np.float64)
        layer.bind_cohort(3)
        for n in (256, 200, 7):
            layer.forward_many(np.zeros((1, 1, 5, 5, n)), train=False)
            layer.forward_many(np.zeros((3, 1, 5, 5, n)), train=False)
        assert layer._cohort_ws == {}
        gc.collect()
        assert len(made) == 6
        assert all(ref() is None for refs in made for ref in refs)
        out = layer.forward_many(np.zeros((3, 1, 5, 5, 4)), train=True)
        (ws,) = layer._cohort_ws.values()
        layer.backward_many_params_only(np.ones_like(out))
        assert scatters == []  # a first layer never scatters
        dx = layer.backward_many(np.ones_like(out))
        assert len(scatters) == 1
        owned = {k for k, v in vars(ws).items() if isinstance(v, np.ndarray) and v.base is None}
        assert owned == {"_stage", "_cols"}
        assert not any(np.shares_memory(dx, getattr(ws, k)) for k in owned)

    def test_params_only_grads_bitwise(self):
        rng = np.random.default_rng(6)
        layer = Conv2d(2, 3, 3, rng, pad=1, dtype=np.float64)
        layer.bind_cohort(2)
        layer.w.many[:] = rng.standard_normal(layer.w.many.shape)
        x = _kernel(rng.standard_normal((2, 4, 2, 6, 6)))
        out = layer.forward_many(x)
        dout = rng.standard_normal(out.shape)
        layer.backward_many(dout)
        gw, gb = layer.w.grad_many.copy(), layer.b.grad_many.copy()
        layer.w.zero_grad()
        layer.b.zero_grad()
        layer.forward_many(x)
        layer.backward_many_params_only(dout)
        np.testing.assert_array_equal(layer.w.grad_many, gw)
        np.testing.assert_array_equal(layer.b.grad_many, gb)


class TestParameterFreeCohortDefault:
    """A parameter-free layer's cohort kernels (the base class's fold of
    the cohort axis into the first axis, or Flatten's and
    GlobalAvgPool2d's own) must be *bitwise* the per-member result."""

    @pytest.mark.parametrize("factory,shape", [
        (ReLU, (3, 4, 5)),
        (Flatten, (3, 4, 2, 3, 3)),
        (MaxPool2d, (3, 2, 2, 6, 6)),           # stride == size (disjoint)
        (lambda: MaxPool2d(3, 2), (3, 2, 2, 7, 7)),  # overlapping windows
        (GlobalAvgPool2d, (3, 2, 2, 5, 5)),
    ])
    def test_forward_backward_bitwise(self, factory, shape):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(shape)
        cohort = shape[0]
        template = factory()
        members = [factory() for _ in range(cohort)]
        out_many = from_kernel_layout(template.forward_many(_kernel(x)))
        dout = rng.standard_normal(out_many.shape)
        dx_many = from_kernel_layout(template.backward_many(_kernel(dout)))
        for c, m in enumerate(members):
            np.testing.assert_array_equal(out_many[c], m.forward(x[c]))
            np.testing.assert_array_equal(dx_many[c], m.backward(dout[c]))


class TestBranchFreeMasks:
    """ReLU's and Residual's forwards zero their dropped entries by an
    integer multiply of the bits; each must equal the numpy oracle
    ``np.where(mask, x, 0.0)`` byte for byte, on NaNs with payloads,
    +-inf, +-0.0 and subnormals."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_relu_matches_where(self, dtype):
        x = _edge_floats(np.random.default_rng(2), (3, 4, 2, 5, 5), dtype)
        ref = np.where(x > 0, x, 0.0)
        _same_bytes(ReLU().forward(x[0]), ref[0])
        _same_bytes(ReLU().forward(x[0], train=False), ref[0])
        _same_bytes(ReLU().forward_many(_kernel(x)), _kernel(ref))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_residual_matches_where(self, dtype):
        """An eval-mode BatchNorm body keeps every value elementwise, so
        the specials reach the shortcut sum; its per-member running stats
        spread a shared ``(1, N, ...)`` input over the cohort."""
        rng = np.random.default_rng(3)
        cohort, n, ch = 3, 4, 2
        x = _edge_floats(rng, (cohort, n, ch, 5, 5), dtype)
        bn = BatchNorm(ch, dtype=dtype)
        block = Residual(bn)
        block.bind_cohort(cohort)
        bn.running_mean_many[:] = rng.uniform(-0.5, 0.5, (cohort, ch))
        bn.running_var_many[:] = rng.uniform(0.5, 2.0, (cohort, ch))
        bn.gamma.many[:] = rng.uniform(0.5, 2.0, (cohort, ch))
        bn.beta.many[:] = rng.uniform(-0.5, 0.5, (cohort, ch))

        def oracle(summed):
            return np.where(summed > 0, summed, 0.0)

        _same_bytes(
            block.forward(x[0], train=False),
            oracle(bn.forward(x[0], train=False) + x[0]),
        )
        x = _kernel(x)
        _same_bytes(
            block.forward_many(x, train=False),
            oracle(bn.forward_many(x, train=False) + x),
        )
        shared = x[:1]
        out = block.forward_many(shared, train=False)
        assert out.shape == x.shape
        _same_bytes(out, oracle(bn.forward_many(shared, train=False) + shared))


class TestBatchNormCohort:
    @given(seed=seeds, cohort=st.integers(1, 3), n=st.integers(2, 6),
           f=st.integers(1, 5))
    @settings(max_examples=25, deadline=None)
    def test_train_mode_running_stats_match_members(self, seed, cohort, n, f):
        rng = np.random.default_rng(seed)
        members = [BatchNorm(f, dtype=np.float64) for _ in range(cohort)]
        for m in members:
            m.gamma.data[:] = rng.standard_normal(f)
            m.beta.data[:] = rng.standard_normal(f)
        template = BatchNorm(f, dtype=np.float64)
        _load_members(template, members)
        for _ in range(3):  # several steps: running stats must track exactly
            x = rng.standard_normal((cohort, n, f))
            out_many = template.forward_many(x)
            dout = rng.standard_normal((cohort, n, f))
            dx_many = template.backward_many(dout)
            for c, m in enumerate(members):
                _close(out_many[c], m.forward(x[c]))
                _close(dx_many[c], m.backward(dout[c]))
        for c, m in enumerate(members):
            np.testing.assert_array_equal(
                template.running_mean_many[c], m.running_mean
            )
            np.testing.assert_array_equal(
                template.running_var_many[c], m.running_var
            )
            _close(template.gamma.grad_many[c], m.gamma.grad)
            _close(template.beta.grad_many[c], m.beta.grad)
        # eval mode normalizes with each member's own running statistics
        xe = rng.standard_normal((cohort, n, f))
        oute = template.forward_many(xe, train=False)
        for c, m in enumerate(members):
            _close(oute[c], m.forward(xe[c], train=False))

    def test_4d_activations(self):
        rng = np.random.default_rng(2)
        cohort, n, ch = 2, 3, 4
        members = [BatchNorm(ch, dtype=np.float64) for _ in range(cohort)]
        template = BatchNorm(ch, dtype=np.float64)
        _load_members(template, members)
        x = rng.standard_normal((cohort, n, ch, 5, 5))
        out_many = from_kernel_layout(template.forward_many(_kernel(x)))
        dout = rng.standard_normal(x.shape)
        dx_many = from_kernel_layout(template.backward_many(_kernel(dout)))
        for c, m in enumerate(members):
            _close(out_many[c], m.forward(x[c]))
            _close(dx_many[c], m.backward(dout[c]))
            np.testing.assert_array_equal(
                template.running_mean_many[c], m.running_mean
            )


def _batch_axes(x):
    """One model's reduction axes and feature broadcast, over a
    ``(C, N, F)`` or ``(C, N, F, H, W)`` batch."""
    if x.ndim == 3:
        return (1,), lambda v: v[:, None, :]
    return (1, 3, 4), lambda v: v[:, None, :, None, None]


class ReferenceBatchNorm(BatchNorm):
    """BatchNorm's cohort kernels in their plain expressions (``x.mean``,
    ``x.var``, three centrings, ``.sum(axis=axes)`` throughout) over the
    contiguous ``(C, N, F, H, W)`` batch, as one model's NCHW maps
    reduce: the reference the layer's kernel-layout statistics must
    reproduce."""

    def forward_many(self, x, train=True):
        x = from_kernel_layout(x)
        axes, expand = _batch_axes(x)
        if train:
            mean = x.mean(axis=axes)
            var = x.var(axis=axes)
            m = self.momentum
            self.running_mean_many *= m
            self.running_mean_many += (1 - m) * mean.astype(np.float64)
            self.running_var_many *= m
            self.running_var_many += (1 - m) * var.astype(np.float64)
        else:
            mean = self.running_mean_many.astype(x.dtype)
            var = self.running_var_many.astype(x.dtype)
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = (x - expand(mean)) * expand(inv_std)
        out = expand(self.gamma.many) * x_hat + expand(self.beta.many)
        self._cache_many = (x_hat, inv_std, axes, x.shape) if train else None
        return to_kernel_layout(out)

    def backward_many(self, dout):
        dout = from_kernel_layout(dout)
        x_hat, inv_std, axes, x_shape = self._cache_many
        _, expand = _batch_axes(dout)
        m = float(np.prod([x_shape[a] for a in axes]))
        self.gamma.grad_many += (dout * x_hat).sum(axis=axes)
        self.beta.grad_many += dout.sum(axis=axes)
        dxhat = dout * expand(self.gamma.many)
        term2 = expand(dxhat.sum(axis=axes) / m)
        term3 = x_hat * expand((dxhat * x_hat).sum(axis=axes) / m)
        return to_kernel_layout(
            (dxhat - term2 - term3) * expand(inv_std.astype(dout.dtype))
        )


def _same_bits_but_nan_payloads(actual, expected):
    """Byte equality, except that a NaN may carry another payload: IEEE
    754 leaves which operand's payload a NaN+NaN sum keeps to the
    implementation, and numpy's scalar and SIMD loops choose differently."""
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    nan = np.isnan(expected)
    np.testing.assert_array_equal(np.isnan(actual), nan)
    assert actual[~nan].tobytes() == expected[~nan].tobytes()


class TestBatchNormStatisticsOnce:
    """``BatchNorm.forward_many`` sums its input once and centres it once,
    dividing each sum in place as numpy's ``_mean``/``_var`` do, and sums
    each kernel-layout image in the order numpy reduces one model's NCHW
    maps: pairwise over each row's cells, by cell planes, then the rows
    in order.  Every output, input gradient, gamma/beta gradient and
    running statistic equals :class:`ReferenceBatchNorm`'s bit for bit,
    on NaNs, infinities, signed zeros and subnormals too.  Shapes are
    ``(C, N, F, H, W)``."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [
        (3, 5, 4),  # a Dense activation
        (2, 4, 3, 8, 8),  # 64 cells: eight running sums of 8
        (2, 3, 5, 3, 3),  # 9 cells: one block of 8 and a leftover cell
        (10, 10, 8, 2, 2),  # ResNet-9's 2x2 and 1x1 maps: one running sum
        (10, 10, 8, 1, 1),
        (3, 9, 4, 1, 3),
        (2, 6, 1, 2, 2),  # one feature: numpy fuses rows and cells
        (2, 3, 3, 12, 12),  # 144 cells: two pairwise halves
        (2, 1, 5, 1, 1),  # one row
    ])
    @pytest.mark.parametrize("values", ["normal", "edge", "zeros"])
    def test_matches_reference_expressions(self, shape, dtype, values):
        rng = np.random.default_rng(sum(shape))
        cohort, features = shape[0], shape[2]
        layers = [ReferenceBatchNorm(features, dtype=dtype),
                  BatchNorm(features, dtype=dtype)]
        gamma = rng.standard_normal((cohort, features)).astype(dtype)
        beta = rng.standard_normal((cohort, features)).astype(dtype)
        for layer in layers:
            layer.bind_cohort(cohort)
            layer.gamma.many[:] = gamma
            layer.beta.many[:] = beta

        def draw(full_shape):
            if values == "edge":
                return _edge_floats(rng, full_shape, dtype)
            x = rng.standard_normal(full_shape).astype(dtype)
            if values == "zeros":  # mostly +0.0 and -0.0, by x's sign
                x *= rng.random(full_shape) < 0.3
            return x

        with np.errstate(all="ignore"):
            for _ in range(2):  # the running stats carry across steps
                x, dout = _kernel(draw(shape)), _kernel(draw(shape))
                outs = [
                    (layer.forward_many(x), layer.backward_many(dout))
                    for layer in layers
                ]
                for got, want in zip(outs[1], outs[0]):
                    _same_bits_but_nan_payloads(got, want)
            for x in (_kernel(draw(shape)), _kernel(draw((1, *shape[1:])))):  # eval, shared
                ref, new = (layer.forward_many(x, train=False) for layer in layers)
                _same_bits_but_nan_payloads(new, ref)
        ref, new = layers
        for name in ("running_mean_many", "running_var_many"):
            _same_bits_but_nan_payloads(getattr(new, name), getattr(ref, name))
        for p_new, p_ref in zip(new.parameters(), ref.parameters()):
            _same_bits_but_nan_payloads(p_new.grad_many, p_ref.grad_many)


class TestOneStack:
    """Each kernel has one implementation: a single model runs the cohort
    code as a cohort of one, on the same storage."""

    @pytest.mark.parametrize("cls", [Dense, Conv2d, BatchNorm, Residual])
    def test_parametric_layers_define_only_cohort_kernels(self, cls):
        assert not {"forward", "backward"} & set(vars(cls))
        assert {"forward_many", "backward_many"} <= set(vars(cls))

    def test_one_sgd_step(self):
        assert SGD.step is CohortSGD.step

    def test_parameter_is_one_stacked_store(self):
        layer = BatchNorm(3, dtype=np.float64)
        p = layer.gamma
        p.data[:] = [1.0, 2.0, 3.0]
        layer.running_mean[:] = [4.0, 5.0, 6.0]
        assert p.many.shape == (1, 3) and p.grad_many.shape == (1, 3)
        assert np.shares_memory(p.data, p.many)
        assert np.shares_memory(p.grad, p.grad_many)
        buffer = layer.state()["running_mean"]
        assert np.shares_memory(buffer, layer.running_mean_many)
        layer.bind_cohort(2)  # new members start as copies of member 0
        np.testing.assert_array_equal(p.many, [[1.0, 2.0, 3.0]] * 2)
        np.testing.assert_array_equal(
            layer.running_mean_many, [[4.0, 5.0, 6.0]] * 2
        )
        assert np.shares_memory(p.data, p.many[0])

    def test_one_model_routines_run_the_cohort_code(self, monkeypatch):
        ran = []  # (routine, cohort size) of every cohort-code call
        for module, name in [
            (training, "local_sgd_many"),
            (training, "evaluate_accuracy_many"),
            (training, "softmax_cross_entropy_many"),
            (losses, "softmax_cross_entropy_many"),
        ]:
            real = getattr(module, name)

            def spy(first, *args, _real=real, _name=f"{module.__name__}.{name}",
                    **kwargs):
                # a cohort model, or the (C, N, classes) logits
                size = first.cohort if isinstance(first, CohortModel) else len(first)
                ran.append((_name, size))
                return _real(first, *args, **kwargs)

            monkeypatch.setattr(module, name, spy)

        def routines(call):
            ran.clear()
            call()
            assert {size for _, size in ran} == {1}
            return {name for name, _ in ran}

        model = _member_mlp(0, 6, 5, 4)
        rng = np.random.default_rng(0)
        x, y = rng.standard_normal((8, 6)), rng.integers(0, 4, 8)
        assert "repro.fl.training.local_sgd_many" in routines(
            lambda: training.local_sgd(model, SGD(model, lr=0.1), x, y, 1, 4, rng)
        )
        assert routines(lambda: training.evaluate_accuracy(model, x, y)) == {
            "repro.fl.training.evaluate_accuracy_many"
        }
        assert routines(
            lambda: training.grad_on_batch_many(model.as_cohort(), x[None], y[None])
        ) == {"repro.fl.training.softmax_cross_entropy_many"}
        logits = model.forward(x)
        assert routines(lambda: losses.softmax_cross_entropy(logits, y)) == {
            "repro.nn.losses.softmax_cross_entropy_many"
        }


#: (stride, pad, k, hw, ch, dtype) of the conv workspace's bitwise pins
WORKSPACE_GEOMETRIES = [
    pytest.param(1, 0, 3, 6, 2, np.float64, id="1-0"),
    pytest.param(1, 1, 3, 6, 2, np.float64, id="1-1"),
    pytest.param(2, 1, 3, 6, 2, np.float64, id="2-1"),
    pytest.param(1, 1, 3, 6, 2, np.float32, id="1-1-float32"),
    # LeNet's conv2: a 5x5 kernel over a 4x4 map, pad 2
    pytest.param(1, 2, 5, 4, 3, np.float32, id="lenet-k5-p2"),
    # ResNet-9's last two stages: 2x2 and 1x1 maps, k=3, pad 1
    pytest.param(1, 1, 3, 2, 4, np.float32, id="resnet-2x2"),
    pytest.param(1, 1, 3, 1, 4, np.float32, id="resnet-1x1"),
    pytest.param(2, 2, 5, 7, 2, np.float32, id="2-2-k5-odd"),
]


class TestCohortConvWorkspace:
    @pytest.mark.parametrize(
        "stride,pad,k,hw,ch,dtype,layout",
        [
            pytest.param(*case.values, "contiguous", id=case.id)
            for case in WORKSPACE_GEOMETRIES
        ]
        + [
            # CohortModel.predict's chunks at a first layer: the kernel
            # view of an N-axis slice of (C, N, ...)
            pytest.param(1, 1, 3, 2, 4, np.float32, "n-slice", id="resnet-2x2-n-slice"),
            pytest.param(1, 2, 5, 4, 3, np.float64, "n-slice", id="lenet-k5-p2-n-slice"),
            # IFCA's scoring pass: one (1, N, ...) input every member reads
            pytest.param(1, 2, 5, 4, 3, np.float32, "shared", id="lenet-k5-p2-shared"),
        ],
    )
    def test_gather_matches_im2col_bitwise(self, stride, pad, k, hw, ch, dtype, layout):
        rng = np.random.default_rng(0)
        c, n, h, w = (1 if layout == "shared" else 2), 3, hw, hw
        x = _edge_floats(rng, (c, 2 * n + 1, ch, h, w), dtype)
        x = x[:, 1 : 1 + n] if layout == "n-slice" else x[:, :n].copy()
        xk = to_kernel_layout(x) if layout == "n-slice" else _kernel(x)
        assert xk.flags.c_contiguous == (layout != "n-slice")
        ws = CohortConvWorkspace(xk.shape, x.dtype, k, k, stride, pad)
        cols = ws.gather(xk)  # (C, ckk, L*N), column index l*N + n
        for ci in range(c):
            _same_bytes(cols[ci], im2col(x[ci], k, k, stride, pad))

    @pytest.mark.parametrize("stride,pad,k,hw,ch,dtype", WORKSPACE_GEOMETRIES)
    def test_scatter_matches_col2im_bitwise(self, stride, pad, k, hw, ch, dtype):
        rng = np.random.default_rng(1)
        c, n, h, w = 2, 3, hw, hw
        ws = CohortConvWorkspace((c, ch, h, w, n), dtype, k, k, stride, pad)
        dcols = rng.standard_normal((c, ws.patch_len, n * ws.out_len)).astype(dtype)
        dx = ws.scatter(dcols)  # (C, ch, H, W, N)
        assert dx.dtype == dtype and dx.flags.c_contiguous
        dx = from_kernel_layout(dx)
        for ci in range(c):
            _same_bytes(dx[ci], col2im(dcols[ci], (n, ch, h, w), k, k, stride, pad))

    @pytest.mark.parametrize(
        "stride,pad,k,hw,ch,dtype",
        WORKSPACE_GEOMETRIES
        + [pytest.param(2, 0, 3, 7, 2, np.float64, id="2-0-float64")],
    )
    @pytest.mark.parametrize("cohort", [1, 3])
    def test_conv2d_matches_serial_bitwise(
        self, cohort, stride, pad, k, hw, ch, dtype
    ):
        """Per member, the cohort Conv2d's output, dx, dW and db equal a
        cohort of one's byte for byte: the columns come in ``im2col``'s
        order, so every GEMM and sum has a one-model im2col convolution's
        shape and order."""
        rng = np.random.default_rng(9)
        members = [
            Conv2d(ch, 4, k, rng, stride=stride, pad=pad, dtype=dtype)
            for _ in range(cohort)
        ]
        template = Conv2d(
            ch, 4, k, np.random.default_rng(0), stride=stride, pad=pad, dtype=dtype
        )
        _load_members(template, members)
        x = rng.standard_normal((cohort, 5, ch, hw, hw)).astype(dtype)
        out = from_kernel_layout(template.forward_many(_kernel(x)))
        dout = rng.standard_normal(out.shape).astype(dtype)
        dx = from_kernel_layout(template.backward_many(_kernel(dout)))
        for c, m in enumerate(members):
            _same_bytes(out[c], m.forward(x[c]))
            _same_bytes(dx[c], m.backward(dout[c]))
            _same_bytes(template.w.grad_many[c], m.w.grad)
            _same_bytes(template.b.grad_many[c], m.b.grad)

    def test_scatter_returns_fresh_array(self):
        ws = CohortConvWorkspace((1, 1, 4, 4, 2), np.float64, 2, 2, 1, 0)
        dcols = np.ones((1, ws.patch_len, 2 * ws.out_len))
        a = ws.scatter(dcols)
        b = ws.scatter(dcols)
        assert a.base is None and b.base is None
        np.testing.assert_array_equal(a, b)


class TestMaxPoolDisjointFastPath:
    @pytest.mark.parametrize("size,stride", [(2, 2), (2, 3), (3, 3)])
    def test_backward_matches_col2im_bitwise(self, size, stride):
        rng = np.random.default_rng(4)
        layer = MaxPool2d(size, stride)
        x = rng.standard_normal((3, 2, 7, 7))
        out = layer.forward(x)
        dout = rng.standard_normal(out.shape)
        dx = layer.backward(dout)
        # reference: the generic col2im scatter over dcols that hold each
        # window's gradient at its argmax
        n, c, h, w = x.shape
        oh, ow = out.shape[2], out.shape[3]
        cols = im2col(x.reshape(n * c, 1, h, w), size, size, stride, 0)
        dcols = np.zeros(cols.shape, dtype=dout.dtype)
        dout_cols = (
            dout.reshape(n * c, oh, ow).transpose(1, 2, 0).reshape(-1)
        )
        dcols[cols.argmax(axis=0), np.arange(cols.shape[1])] = dout_cols
        ref = col2im(dcols, (n * c, 1, h, w), size, size, stride, 0)
        np.testing.assert_array_equal(dx, ref.reshape(n, c, h, w))


def _pool_input(dtype):
    """Pooling input full of ties, signed zeros and NaNs."""
    rng = np.random.default_rng(7)
    x = rng.integers(-2, 3, size=(3, 2, 9, 9)).astype(dtype)
    x[rng.random(x.shape) < 0.2] = -0.0
    x[rng.random(x.shape) < 0.05] = np.nan
    return x


class TestMaxPoolEvalForward:
    @pytest.mark.parametrize(
        "size,stride", [(2, 2), (2, 3), (3, 3), (3, 2), (2, 1)]
    )
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_eval_forward_matches_im2col_path(self, size, stride, dtype):
        """The eval forward's max over strided window views equals the
        training forward's argmax-selected output, on inputs full of ties,
        signed zeros and NaNs, for disjoint and overlapping windows."""
        x = _pool_input(dtype)
        layer = MaxPool2d(size, stride)
        ref = layer.forward(x, train=True)
        out = layer.forward(x, train=False)
        assert layer._cache is None
        assert out.dtype == ref.dtype and out.flags.c_contiguous
        assert np.isnan(out).any()
        np.testing.assert_array_equal(out, ref)


class TestMaxPoolTrainingArgmax:
    @pytest.mark.parametrize(
        "size,stride", [(2, 2), (2, 3), (3, 3), (3, 2), (2, 1)]
    )
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_training_argmax_matches_numpy(self, size, stride, dtype):
        """The running-compare argmax the training forward caches is
        ``cols.argmax(axis=0)``'s over im2col's window columns: the first
        max and the first NaN win."""
        x = _pool_input(dtype)
        layer = MaxPool2d(size, stride)
        out = layer.forward(x, train=True)
        x_shape, argmax = layer._cache  # (ch, H, W, N), (ch, oh, ow, N)
        n, c, h, w = x.shape
        assert x_shape == (c, h, w, n)
        cols = im2col(x.reshape(n * c, 1, h, w), size, size, stride, 0)
        want = cols.argmax(axis=0).reshape(*out.shape[2:], n, c)
        np.testing.assert_array_equal(argmax, want.transpose(3, 0, 1, 2))
        ref = cols[cols.argmax(axis=0), np.arange(cols.shape[1])]
        _same_bytes(out.transpose(2, 3, 0, 1).reshape(-1), ref)

    @pytest.mark.parametrize("stride", [17, 3])
    def test_large_window_argmax_and_backward(self, stride):
        """A 17x17 window has 289 taps, past a uint8 argmax: the argmax,
        the selected output and the routed backward still match im2col's
        and col2im's, for disjoint and overlapping windows."""
        rng = np.random.default_rng(9)
        x = rng.integers(-2, 3, size=(2, 2, 36, 36)).astype(np.float32)
        x[rng.random(x.shape) < 0.2] = -0.0
        x[1, 1, 16, 16] = 9.0  # the first window's last tap, 288
        x[0, 0, 33, 33] = np.nan  # a tap past 255 of the last windows
        layer = MaxPool2d(17, stride)
        out = layer.forward(x, train=True)
        _, argmax = layer._cache
        n, c, h, w = x.shape
        oh, ow = out.shape[2:]
        cols = im2col(x.reshape(n * c, 1, h, w), 17, 17, stride, 0)
        want = cols.argmax(axis=0)
        assert want.max() > 255
        np.testing.assert_array_equal(
            argmax, want.reshape(oh, ow, n, c).transpose(3, 0, 1, 2)
        )
        ref = cols[want, np.arange(cols.shape[1])]
        _same_bytes(out.transpose(2, 3, 0, 1).reshape(-1), ref)
        dout = rng.standard_normal(out.shape).astype(np.float32)
        dcols = np.zeros(cols.shape, dtype=dout.dtype)
        dcols[want, np.arange(cols.shape[1])] = (
            dout.reshape(n * c, oh, ow).transpose(1, 2, 0).reshape(-1)
        )
        ref_dx = col2im(dcols, (n * c, 1, h, w), 17, 17, stride, 0)
        np.testing.assert_array_equal(layer.backward(dout), ref_dx.reshape(x.shape))


class TestWorkspaceReuse:
    """Fixed shape -> the *same* pre-allocated scratch object every call."""

    def test_conv_cohort_workspace_stable_across_steps(self):
        conv = Conv2d(2, 3, 3, np.random.default_rng(0), pad=1, dtype=np.float64)
        conv.bind_cohort(2)
        rng = np.random.default_rng(1)
        x = _kernel(rng.standard_normal((2, 4, 2, 6, 6)))
        ws = conv.cohort_workspace(x)
        out = conv.forward_many(x)
        conv.backward_many(rng.standard_normal(out.shape))
        buffers = ("_stage", "_cols")
        ids = {name: id(getattr(ws, name)) for name in buffers}
        for _ in range(3):  # training steps reuse the same buffers
            out = conv.forward_many(x)
            conv.backward_many(rng.standard_normal(out.shape))
            again = conv.cohort_workspace(x)
            assert again is ws
            assert {name: id(getattr(again, name)) for name in buffers} == ids
        # a different batch shape gets its own workspace without evicting
        x2 = _kernel(rng.standard_normal((2, 5, 2, 6, 6)))
        assert conv.cohort_workspace(x2) is not ws
        assert conv.cohort_workspace(x) is ws

    def test_conv_workspace_cache_bounded(self):
        conv = Conv2d(1, 1, 1, np.random.default_rng(0), dtype=np.float64)
        conv.bind_cohort(1)
        for n in range(1, 12):
            conv.cohort_workspace(np.zeros((1, 1, 3, 3, n)))
        assert len(conv._cohort_ws) <= 8

    def test_int8_scratch_stable_and_bounded(self):
        codec = Int8Codec()
        delta = np.random.default_rng(2).standard_normal(50)
        ws = codec._scratch_for(delta.size)
        ids = {k: id(v) for k, v in ws.items()}
        codec.encode(0, delta, np.random.default_rng(0))
        codec.encode(1, delta, np.random.default_rng(1))
        again = codec._scratch_for(delta.size)
        assert again is ws
        assert {k: id(v) for k, v in again.items()} == ids
        for size in range(1, 12):
            codec._scratch_for(size)
        assert len(codec._scratch) <= codec._SCRATCH_MAX

    def test_topk_scratch_stable_and_bounded(self):
        codec = TopKCodec(0.1)
        delta = np.random.default_rng(3).standard_normal(40)
        ws = codec._scratch_for(delta.size)
        ids = {k: id(v) for k, v in ws.items()}
        e = codec.encode(0, delta, None)
        codec.commit(0, e)
        codec.encode(0, delta, None)
        again = codec._scratch_for(delta.size)
        assert again is ws
        assert {k: id(v) for k, v in again.items()} == ids
        for size in range(1, 12):
            codec._scratch_for(size)
        assert len(codec._scratch) <= codec._SCRATCH_MAX

    def test_int8_scratch_path_bitwise_vs_allocating_path(self):
        """The 1-D (scratch) branch must quantize bit-for-bit like the
        allocating branch: same arithmetic, same RNG stream consumption."""
        delta = np.random.default_rng(7).standard_normal(64)
        e_scratch = Int8Codec().encode(0, delta, np.random.default_rng(11))
        e_alloc = Int8Codec().encode(0, delta.reshape(1, -1), np.random.default_rng(11))
        np.testing.assert_array_equal(
            e_scratch.payload["q"], e_alloc.payload["q"].ravel()
        )
        assert e_scratch.payload["scale"] == e_alloc.payload["scale"]

    def test_topk_dirty_scratch_does_not_leak(self):
        """Re-encoding with dirty scratch buffers must match a fresh codec
        walked through the same sequence."""
        rng = np.random.default_rng(8)
        d1, d2 = rng.standard_normal(40), rng.standard_normal(40)
        used, fresh = TopKCodec(0.1), TopKCodec(0.1)
        e1 = used.encode(0, d1, None)
        used.commit(0, e1)
        f1 = fresh.encode(0, d1, None)
        fresh.commit(0, f1)
        e2, f2 = used.encode(0, d2, None), fresh.encode(0, d2, None)
        np.testing.assert_array_equal(e2.payload["idx"], f2.payload["idx"])
        np.testing.assert_array_equal(e2.payload["values"], f2.payload["values"])
        np.testing.assert_array_equal(e2.residual_after, f2.residual_after)


def _shared_input_model(arch, seed):
    if arch == "residual-first":
        rng = np.random.default_rng(seed)
        return Sequential(
            Residual(Conv2d(3, 3, 3, rng, pad=1, dtype=np.float64), ReLU()),
            Flatten(),
            Dense(3 * 8 * 8, 5, rng, dtype=np.float64),
        )
    return build_model(arch, 5, (3, 8, 8), rng=seed, dtype=np.float64)


class TestSharedInputPredict:
    """``CohortModel.predict`` on a shared ``(1, N, ...)`` input scores
    every member on the same rows (IFCA's k-model scoring)."""

    @pytest.mark.parametrize(
        "arch", ["mlp", "lenet5", "resnet9", "residual-first"]
    )
    def test_matches_each_member_predict(self, arch):
        cohort, n = 3, 300  # n > predict's 256-row chunk
        members = [_shared_input_model(arch, 10 + c) for c in range(cohort)]
        rng = np.random.default_rng(8)
        for m in members:  # distinct BatchNorm running stats per member
            for buf in m.state().values():
                buf += rng.uniform(0.0, 0.5, buf.shape)
        cm = CohortModel(_shared_input_model(arch, 0), cohort)
        cm.load_flat(np.stack([_flat(m) for m in members]))
        if cm.has_state():
            cm.load_states([m.state() for m in members])
        x = rng.standard_normal((n, 3, 8, 8))
        logits = cm.predict(x[None])
        assert logits.shape == (cohort, n, 5)
        for c, m in enumerate(members):
            _close(logits[c], m.predict(x))


def _member_mlp(seed, din, hidden, classes):
    rng = np.random.default_rng(seed)
    return Sequential(
        Flatten(),
        Dense(din, hidden, rng, dtype=np.float64, name="fc1"),
        ReLU(),
        Dense(hidden, classes, rng, dtype=np.float64, name="head",
              classifier_head=True),
    )


def _member_cnn(seed, classes):
    rng = np.random.default_rng(seed)
    return Sequential(
        Conv2d(1, 2, 3, rng, pad=1, dtype=np.float64),
        ReLU(),
        Flatten(),
        Dense(2 * 6 * 6, classes, rng, dtype=np.float64, classifier_head=True),
    )


def _flat(model):
    return np.concatenate(
        [p.data.ravel().astype(np.float64) for p in model.parameters()]
    )


class TestCohortModelAndSGD:
    @pytest.mark.parametrize("momentum,weight_decay,prox_mu", [
        (0.0, 0.0, 0.0),
        (0.9, 1e-3, 0.0),
        (0.5, 0.0, 0.1),
    ])
    def test_fused_updates_match_member_sgd(self, momentum, weight_decay, prox_mu):
        """A C-member cohort's fused steps equal C one-member cohorts
        (each member model with its own ``SGD``) stepped alone."""
        cohort, n, din, hidden, classes = 3, 8, 6, 5, 4
        members = [_member_mlp(10 + c, din, hidden, classes) for c in range(cohort)]
        cm = CohortModel(_member_mlp(0, din, hidden, classes), cohort)
        cm.load_flat(np.stack([_flat(m) for m in members]))
        kw = dict(lr=0.1, momentum=momentum, weight_decay=weight_decay,
                  prox_mu=prox_mu)
        opt_many = CohortSGD(cm, **kw)
        opts = [SGD(m, **kw) for m in members]
        if prox_mu:
            opt_many.set_prox_center(cm.flatten())
            for m, o in zip(members, opts):
                o.set_prox_center(_flat(m)[None])
        rng = np.random.default_rng(1)
        for _ in range(3):
            x = rng.standard_normal((cohort, n, din))
            dout = rng.standard_normal((cohort, n, classes))
            cm.zero_grad()
            cm.forward(x)
            cm.backward(dout)
            opt_many.step()
            for c, (m, o) in enumerate(zip(members, opts)):
                o.zero_grad()
                m.forward(x[c])
                m.backward(dout[c])
                o.step()
        stacked = cm.flatten()
        for c, m in enumerate(members):
            _close(stacked[c], _flat(m))

    def test_backward_dx_matches_members(self):
        cohort, n, classes = 2, 4, 3
        members = [_member_cnn(20 + c, classes) for c in range(cohort)]
        cm = CohortModel(_member_cnn(0, classes), cohort)
        cm.load_flat(np.stack([_flat(m) for m in members]))
        rng = np.random.default_rng(2)
        x = rng.standard_normal((cohort, n, 1, 6, 6))
        dout = rng.standard_normal((cohort, n, classes))
        cm.forward(x)
        dx_many = cm.backward(dout, need_input_grad=True)
        for c, m in enumerate(members):
            m.forward(x[c])
            _close(dx_many[c], m.backward(dout[c]))

    def test_params_only_backward_grads_bitwise(self):
        """The training default (``need_input_grad=False``) returns None,
        skips the first layer's dx, and leaves every parameter gradient
        bitwise what the full backward computes — with a conv first layer,
        where the skipped scatter is the expensive kernel."""
        cohort, n, classes = 2, 4, 3
        cm = CohortModel(_member_cnn(0, classes), cohort)
        rng = np.random.default_rng(3)
        cm.load_flat(rng.standard_normal((cohort, cm.num_params)) * 0.1)
        x = rng.standard_normal((cohort, n, 1, 6, 6))
        dout = rng.standard_normal((cohort, n, classes))
        cm.forward(x)
        assert cm.backward(dout, need_input_grad=True) is not None
        full = [p.grad_many.copy() for p in cm.parameters()]
        cm.zero_grad()
        cm.forward(x)
        assert cm.backward(dout) is None
        for p, g in zip(cm.parameters(), full):
            np.testing.assert_array_equal(p.grad_many, g)
