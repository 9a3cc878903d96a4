"""Layers of the NumPy deep-learning framework.

Every layer implements explicit backprop:

* ``forward(x, train)`` returns the activation and caches whatever the
  backward pass needs;
* ``backward(dout)`` returns the gradient w.r.t. the input and *accumulates*
  gradients into its :class:`~repro.nn.parameter.Parameter` objects.

All hot paths are vectorized (im2col + GEMM for convolutions, masked scatter
for max-pooling); there are no Python loops over batch or spatial dims.
"""

from __future__ import annotations

import numpy as np

from repro.nn import init as _init
from repro.nn.conv_utils import (
    CohortConvWorkspace,
    col2im,
    conv_output_size,
    im2col,
)
from repro.nn.parameter import Parameter

__all__ = [
    "Layer",
    "Dense",
    "Conv2d",
    "MaxPool2d",
    "GlobalAvgPool2d",
    "Flatten",
    "ReLU",
    "BatchNorm",
]


def keep_where(x: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``np.where(mask, x, 0.0)``, bitwise, by one branch-free multiply.

    ``x``'s bits, viewed as signed integers of its width, are multiplied by
    the 0/1 mask and viewed back: bits times 1 are ``x`` unchanged, bits
    times 0 are +0.0, so NaN, +-inf, -0.0 and every value the mask drops
    map exactly as under ``np.where``.  ``np.where`` takes one
    data-dependent branch per element, and a ReLU mask is about half True
    at random, so that branch mispredicts about every other element; the
    integer multiply has no branch.
    """
    ints = np.dtype(f"i{x.itemsize}")
    return np.multiply(x.view(ints), mask, dtype=ints).view(x.dtype)


class Layer:
    """Base class: a differentiable module with (possibly empty) parameters.

    Besides the per-model ``forward``/``backward`` pair, every layer offers
    a *cohort-batched* kernel path (``forward_many``/``backward_many``) over
    a leading cohort axis ``C``: the input is ``(C, N, ...)`` and, for
    parametric layers, each cohort slice is transformed by its own stacked
    parameter slice (bound via :meth:`bind_cohort`).  Parameter-free layers
    inherit an exact default that folds the cohort axis into the batch axis;
    parametric layers implement stacked einsum/GEMM kernels.
    """

    #: True for layers whose Parameters represent a classifier head.  Used by
    #: partial-weight protocols (FedClust, LG-FedAvg) to find "final" layers.
    is_classifier_head: bool = False

    def parameters(self) -> list[Parameter]:
        return []

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dout: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def state(self) -> dict[str, np.ndarray]:
        """Non-trainable buffers (e.g. batch-norm running stats)."""
        return {}

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        for key, value in state.items():
            buf = self.state().get(key)
            if buf is None:
                raise KeyError(f"{type(self).__name__} has no buffer {key!r}")
            np.copyto(buf, value)

    # -- cohort-batched kernel path ---------------------------------------
    def bind_cohort(self, cohort: int) -> None:
        """Allocate stacked per-cohort parameter (and buffer) storage."""
        for p in self.parameters():
            p.bind_cohort(cohort)

    def state_many(self) -> dict[str, np.ndarray]:
        """Stacked ``(C, ...)`` non-trainable buffers of a cohort-bound
        layer (empty for stateless layers)."""
        return {}

    def supports_cohort(self) -> bool:
        """Whether this layer implements the cohort kernel path.

        True for every built-in: parameter-free layers ride the exact
        reshape default below; parametric built-ins override the kernels.
        A third-party parametric layer that has not implemented
        ``forward_many`` reports False, and the vector backend falls back
        to serial execution for the whole model.
        """
        if not self.parameters():
            return True
        return type(self).forward_many is not Layer.forward_many

    def forward_many(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        """Cohort-batched forward: ``(C, N, ...) -> (C, N, ...)``.

        Default (parameter-free layers only): fold the cohort axis into the
        batch axis and delegate to :meth:`forward` — bitwise identical to
        per-member calls for all sample-independent layers.
        """
        if self.parameters():
            raise NotImplementedError(
                f"{type(self).__name__} has parameters but no cohort kernel"
            )
        c, n = x.shape[:2]
        out = self.forward(x.reshape(c * n, *x.shape[2:]), train)
        return out.reshape(c, n, *out.shape[1:])

    def backward_many(self, dout: np.ndarray) -> np.ndarray:
        """Cohort-batched backward: adjoint of :meth:`forward_many`."""
        c, n = dout.shape[:2]
        dx = self.backward(dout.reshape(c * n, *dout.shape[2:]))
        return dx.reshape(c, n, *dx.shape[1:])

    def backward_many_params_only(self, dout: np.ndarray) -> None:
        """Accumulate cohort parameter gradients without computing dx.

        Used for the *first* layer of a model, whose input gradient nobody
        consumes — for convolutions that skips the input-gradient GEMM and
        the col2im scatter, most of a convolution's backward cost.
        Parameter gradients are bitwise identical to :meth:`backward_many`'s.
        """
        self.backward_many(dout)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class Dense(Layer):
    """Fully connected layer ``y = x @ W + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        dtype=np.float32,
        name: str = "dense",
        classifier_head: bool = False,
    ):
        if in_features <= 0 or out_features <= 0:
            raise ValueError(
                f"Dense needs positive dims, got {in_features} -> {out_features}"
            )
        self.in_features = in_features
        self.out_features = out_features
        self.is_classifier_head = classifier_head
        if classifier_head:
            w = _init.xavier_uniform(
                (in_features, out_features), in_features, out_features, rng, dtype
            )
        else:
            w = _init.he_normal((in_features, out_features), in_features, rng, dtype)
        self.w = Parameter(w, f"{name}.w")
        self.b = Parameter(_init.zeros((out_features,), dtype), f"{name}.b")
        self._x: np.ndarray | None = None

    def parameters(self) -> list[Parameter]:
        return [self.w, self.b]

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"Dense expected (N, {self.in_features}) input, got {x.shape}"
            )
        self._x = x if train else None
        return x @ self.w.data + self.b.data

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward called before a training forward pass")
        self.w.grad += self._x.T @ dout
        self.b.grad += dout.sum(axis=0)
        return dout @ self.w.data.T

    def forward_many(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        if x.ndim != 3 or x.shape[2] != self.in_features:
            raise ValueError(
                f"Dense expected (C, N, {self.in_features}) cohort input, "
                f"got {x.shape}"
            )
        self._x = x if train else None
        # batched GEMM: (C,N,in) @ (C,in,out) -> (C,N,out), one kernel for
        # the whole cohort instead of C separate x @ W calls
        return np.matmul(x, self.w.many) + self.b.many[:, None, :]

    def backward_many(self, dout: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward called before a training forward pass")
        # batched (C,in,N) @ (C,N,out) — one GEMM for every member's x^T·dout
        self.w.grad_many += np.matmul(self._x.transpose(0, 2, 1), dout)
        self.b.grad_many += dout.sum(axis=1)
        return np.matmul(dout, self.w.many.transpose(0, 2, 1))

    def backward_many_params_only(self, dout: np.ndarray) -> None:
        if self._x is None:
            raise RuntimeError("backward called before a training forward pass")
        self.w.grad_many += np.matmul(self._x.transpose(0, 2, 1), dout)
        self.b.grad_many += dout.sum(axis=1)

    def __repr__(self) -> str:
        return f"Dense({self.in_features}->{self.out_features})"


class Conv2d(Layer):
    """2-D convolution over NCHW input, implemented as im2col + GEMM."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        rng: np.random.Generator,
        stride: int = 1,
        pad: int = 0,
        dtype=np.float32,
        name: str = "conv",
    ):
        if min(in_channels, out_channels, kernel_size, stride) <= 0 or pad < 0:
            raise ValueError("Conv2d hyper-parameters must be positive (pad >= 0)")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.pad = pad
        fan_in = in_channels * kernel_size * kernel_size
        self.w = Parameter(
            _init.he_normal(
                (out_channels, in_channels, kernel_size, kernel_size), fan_in, rng, dtype
            ),
            f"{name}.w",
        )
        self.b = Parameter(_init.zeros((out_channels,), dtype), f"{name}.b")
        self._cols: np.ndarray | None = None
        self._x_shape: tuple[int, int, int, int] | None = None
        #: training forwards' cohort im2col workspaces keyed by (input
        #: shape, dtype); bounded (a training loop sees at most two batch
        #: shapes: full + remainder)
        self._cohort_ws: dict[tuple, CohortConvWorkspace] = {}
        self._many_cache: tuple | None = None

    def parameters(self) -> list[Parameter]:
        return [self.w, self.b]

    def cohort_workspace(
        self, x: np.ndarray, keep: bool = True
    ) -> CohortConvWorkspace:
        """The im2col workspace for ``x``'s shape: cached for reuse, or with
        ``keep=False`` (when not cached already) built for one call and
        freed after it."""
        key = (x.shape, np.dtype(x.dtype).str)
        ws = self._cohort_ws.get(key)
        if ws is None:
            ws = CohortConvWorkspace(
                x.shape, x.dtype, self.kernel_size, self.kernel_size,
                self.stride, self.pad,
            )
            if keep:
                if len(self._cohort_ws) >= 8:
                    self._cohort_ws.pop(next(iter(self._cohort_ws)))
                self._cohort_ws[key] = ws
        return ws

    def forward_many(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        """Cohort forward over ``(C, N, ch, H, W)`` input.

        The workspace's columns come in the serial im2col's ``(l, n)``
        order, so each member's GEMMs, forward and backward, have the
        serial layer's shapes and column order, and its output, dx, dW
        and db equal the serial layer's byte for byte (pinned per
        geometry in ``tests/test_cohort_kernels.py``).

        A leading axis of 1 with ``C > 1`` members bound is a *shared*
        input: every member convolves the same rows, so the patches are
        gathered once and one GEMM of the stacked ``(C*out, ch*k*k)``
        filters yields all members' outputs.  Evaluation only.

        Only a training forward keeps its workspace: training repeats its
        shapes step after step and the backward reads the columns.  An
        evaluation forward gathers into a per-call workspace, as the
        serial im2col does, since its shapes (``predict``'s tail chunks,
        eval cohorts, scoring passes) seldom recur.
        """
        if x.ndim != 5 or x.shape[2] != self.in_channels:
            raise ValueError(
                f"Conv2d expected (C, N, {self.in_channels}, H, W) cohort "
                f"input, got {x.shape}"
            )
        c, n = self.w.many.shape[0], x.shape[1]
        shared = x.shape[0] == 1 and c > 1
        if shared and train:
            raise ValueError(
                "a shared (1, N, ...) cohort input is for evaluation only"
            )
        ws = self.cohort_workspace(x, keep=train)
        cols = ws.gather(x)  # (C, ch*k*k, L*N) — workspace-owned buffer
        if shared:
            w_mat = self.w.many.reshape(c * self.out_channels, -1)
            out = w_mat @ cols[0] + self.b.many.reshape(-1, 1)
        else:
            w_mat = self.w.many.reshape(c, self.out_channels, -1)
            out = np.matmul(w_mat, cols) + self.b.many[:, :, None]
        out = out.reshape(c, self.out_channels, *ws.out_hw, n)
        out = np.ascontiguousarray(out.transpose(0, 4, 1, 2, 3))
        # cols lives in the workspace (overwritten by the next gather of
        # this shape); the backward for this step runs before that
        self._many_cache = (cols, ws) if train else None
        return out

    def _param_grads_many(self, dout: np.ndarray) -> np.ndarray:
        """Accumulate the cohort dW and db; returns the ``(C, out, L*N)``
        dout matrix, built as the serial backward builds its own."""
        if self._many_cache is None:
            raise RuntimeError("backward called before a training forward pass")
        cols = self._many_cache[0]
        dout_mat = dout.transpose(0, 2, 3, 4, 1).reshape(
            dout.shape[0], self.out_channels, -1
        )
        self.b.grad_many += dout_mat.sum(axis=2)
        self.w.grad_many += np.matmul(
            dout_mat, cols.transpose(0, 2, 1)
        ).reshape(self.w.grad_many.shape)
        return dout_mat

    def backward_many(self, dout: np.ndarray) -> np.ndarray:
        dout_mat = self._param_grads_many(dout)
        w_mat = self.w.many.reshape(dout.shape[0], self.out_channels, -1)
        dcols = np.matmul(w_mat.transpose(0, 2, 1), dout_mat)
        return self._many_cache[1].scatter(dcols)

    def backward_many_params_only(self, dout: np.ndarray) -> None:
        # Skip dcols + the col2im scatter entirely: for a first layer the
        # input gradient is dead, and the two are most of the backward.
        self._param_grads_many(dout)

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"Conv2d expected (N, {self.in_channels}, H, W) input, got {x.shape}"
            )
        n, _, h, w_in = x.shape
        k = self.kernel_size
        out_h = conv_output_size(h, k, self.stride, self.pad)
        out_w = conv_output_size(w_in, k, self.stride, self.pad)
        cols = im2col(x, k, k, self.stride, self.pad)  # (C*k*k, N*out_h*out_w)
        w_mat = self.w.data.reshape(self.out_channels, -1)
        out = w_mat @ cols + self.b.data[:, None]
        out = out.reshape(self.out_channels, out_h, out_w, n).transpose(3, 0, 1, 2)
        if train:
            self._cols = cols
            self._x_shape = x.shape
        else:
            self._cols = None
            self._x_shape = None
        return np.ascontiguousarray(out)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._cols is None or self._x_shape is None:
            raise RuntimeError("backward called before a training forward pass")
        dout_mat = dout.transpose(1, 2, 3, 0).reshape(self.out_channels, -1)
        self.b.grad += dout_mat.sum(axis=1)
        self.w.grad += (dout_mat @ self._cols.T).reshape(self.w.data.shape)
        w_mat = self.w.data.reshape(self.out_channels, -1)
        dcols = w_mat.T @ dout_mat
        k = self.kernel_size
        return col2im(dcols, self._x_shape, k, k, self.stride, self.pad)

    def __repr__(self) -> str:
        return (
            f"Conv2d({self.in_channels}->{self.out_channels}, k={self.kernel_size}, "
            f"s={self.stride}, p={self.pad})"
        )


class MaxPool2d(Layer):
    """Max pooling; the backward scatters gradients to argmax positions."""

    def __init__(self, size: int = 2, stride: int | None = None):
        if size <= 0:
            raise ValueError(f"pool size must be positive, got {size}")
        self.size = size
        self.stride = stride if stride is not None else size
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        n, c, h, w = x.shape
        s, k = self.stride, self.size
        out_h = conv_output_size(h, k, s, 0)
        out_w = conv_output_size(w, k, s, 0)
        if not train:
            # Evaluation: a running elementwise max over the k*k strided
            # window views, with no im2col, argmax or gather.  Equal in
            # value to that path (NaN propagates; of a -0/+0 tie either
            # zero may win); training keeps it because the backward needs
            # the argmax.
            self._cache = None
            views = [
                x[:, :, fi : fi + s * out_h : s, fj : fj + s * out_w : s]
                for fi in range(k)
                for fj in range(k)
            ]
            out = views[0].copy()
            for view in views[1:]:
                np.maximum(out, view, out=out)
            return out
        # Treat channels as batch so each column is one pooling window.
        x_resh = x.reshape(n * c, 1, h, w)
        cols = im2col(x_resh, k, k, s, 0)  # (k*k, n*c*out_h*out_w)
        # The argmax by a running compare down the k*k rows, a few
        # whole-row ufuncs, where cols.argmax(axis=0) transposes the
        # columns and calls argmax once per k*k-value window.  Row t takes
        # a window where it is not <= the best so far (greater, or NaN)
        # and the best is not NaN, so the first max and the first NaN win,
        # as in numpy's argmax.  np.maximum carries the best (NaN sticks);
        # t only grows, so np.maximum(arg, upd * t) sets arg to t exactly
        # where upd holds.
        best = cols[0].copy()
        argmax = np.zeros(cols.shape[1], dtype=np.intp)
        for t in range(1, k * k):
            row = cols[t]
            upd = ~(row <= best) & (best == best)  # best == best: not NaN
            np.maximum(best, row, out=best)
            np.maximum(argmax, upd * t, out=argmax)
        out = cols[argmax, np.arange(cols.shape[1])]
        out = out.reshape(out_h, out_w, n * c).transpose(2, 0, 1).reshape(n, c, out_h, out_w)
        self._cache = (x.shape, cols.shape, argmax)
        return np.ascontiguousarray(out)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before a training forward pass")
        x_shape, cols_shape, argmax = self._cache
        n, c, h, w = x_shape
        k, s = self.size, self.stride
        oh, ow = dout.shape[2], dout.shape[3]
        dcols = np.zeros(cols_shape, dtype=dout.dtype)
        dout_flat = dout.reshape(n * c, -1).reshape(n * c, oh, ow)
        dout_cols = dout_flat.transpose(1, 2, 0).reshape(-1)
        dcols[argmax, np.arange(cols_shape[1])] = dout_cols
        if s >= k:
            # Non-overlapping windows: every input cell receives at most
            # one gradient, so the col2im scatter-add over zeros is a pure
            # strided assignment (bitwise identical, no np.add.at).
            dx = np.zeros((n * c, h, w), dtype=dout.dtype)
            d5 = dcols.reshape(k, k, oh, ow, n * c)
            for fi in range(k):
                for fj in range(k):
                    dx[:, fi : fi + s * oh : s, fj : fj + s * ow : s] = (
                        d5[fi, fj].transpose(2, 0, 1)
                    )
            return dx.reshape(n, c, h, w)
        dx = col2im(dcols, (n * c, 1, h, w), k, k, s, 0)
        return dx.reshape(n, c, h, w)

    def __repr__(self) -> str:
        return f"MaxPool2d(size={self.size}, stride={self.stride})"


class GlobalAvgPool2d(Layer):
    """Collapse each feature map to its mean: (N,C,H,W) -> (N,C)."""

    def __init__(self):
        self._hw: tuple[int, int] | None = None

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        self._hw = x.shape[2:]
        return x.mean(axis=(2, 3))

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._hw is None:
            raise RuntimeError("backward called before a forward pass")
        h, w = self._hw
        scale = 1.0 / (h * w)
        return np.broadcast_to(
            (dout * scale)[:, :, None, None], (*dout.shape, h, w)
        ).copy()


class Flatten(Layer):
    """(N, ...) -> (N, prod(...))."""

    def __init__(self):
        self._shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError("backward called before a forward pass")
        return dout.reshape(self._shape)


class ReLU(Layer):
    """Rectified linear unit; caches the sign mask for the backward pass."""

    def __init__(self):
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        mask = x > 0
        if train:
            self._mask = mask
        # an integer multiply of x's bits by the mask: np.where(mask, x,
        # 0.0) bit for bit, without a branch per element on a mask that is
        # about half True
        return keep_where(x, mask)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before a training forward pass")
        return dout * self._mask


class BatchNorm(Layer):
    """Batch normalization for 2-D (N,F) or 4-D (N,C,H,W) activations.

    Running statistics are exposed via :meth:`state` so federated averaging
    can (and does) synchronize them alongside trainable parameters.
    """

    def __init__(self, num_features: int, momentum: float = 0.9, eps: float = 1e-5,
                 dtype=np.float32, name: str = "bn"):
        if num_features <= 0:
            raise ValueError(f"num_features must be positive, got {num_features}")
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.gamma = Parameter(np.ones(num_features, dtype=dtype), f"{name}.gamma")
        self.beta = Parameter(np.zeros(num_features, dtype=dtype), f"{name}.beta")
        self.running_mean = np.zeros(num_features, dtype=np.float64)
        self.running_var = np.ones(num_features, dtype=np.float64)
        self._cache: tuple | None = None
        self.running_mean_many: np.ndarray | None = None
        self.running_var_many: np.ndarray | None = None
        self._cache_many: tuple | None = None

    def parameters(self) -> list[Parameter]:
        return [self.gamma, self.beta]

    def state(self) -> dict[str, np.ndarray]:
        return {"running_mean": self.running_mean, "running_var": self.running_var}

    def bind_cohort(self, cohort: int) -> None:
        super().bind_cohort(cohort)
        self.running_mean_many = np.zeros(
            (cohort, self.num_features), dtype=np.float64
        )
        self.running_var_many = np.ones(
            (cohort, self.num_features), dtype=np.float64
        )

    def state_many(self) -> dict[str, np.ndarray]:
        if self.running_mean_many is None:
            return {}
        return {
            "running_mean": self.running_mean_many,
            "running_var": self.running_var_many,
        }

    def _reduce_axes(self, x: np.ndarray) -> tuple[int, ...]:
        if x.ndim == 2:
            return (0,)
        if x.ndim == 4:
            return (0, 2, 3)
        raise ValueError(f"BatchNorm supports 2-D or 4-D input, got shape {x.shape}")

    def _expand(self, v: np.ndarray, ndim: int) -> np.ndarray:
        return v.reshape(1, -1) if ndim == 2 else v.reshape(1, -1, 1, 1)

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        axes = self._reduce_axes(x)
        if train:
            mean = x.mean(axis=axes)
            var = x.var(axis=axes)
            m = self.momentum
            self.running_mean *= m
            self.running_mean += (1 - m) * mean.astype(np.float64)
            self.running_var *= m
            self.running_var += (1 - m) * var.astype(np.float64)
        else:
            mean = self.running_mean.astype(x.dtype)
            var = self.running_var.astype(x.dtype)
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = (x - self._expand(mean, x.ndim)) * self._expand(inv_std, x.ndim)
        out = self._expand(self.gamma.data, x.ndim) * x_hat + self._expand(self.beta.data, x.ndim)
        if train:
            self._cache = (x_hat, inv_std, axes, x.shape)
        else:
            self._cache = None
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before a training forward pass")
        x_hat, inv_std, axes, x_shape = self._cache
        m = float(np.prod([x_shape[a] for a in axes]))
        self.gamma.grad += (dout * x_hat).sum(axis=axes)
        self.beta.grad += dout.sum(axis=axes)
        g = self._expand(self.gamma.data, dout.ndim)
        dxhat = dout * g
        term1 = dxhat
        term2 = self._expand(dxhat.sum(axis=axes) / m, dout.ndim)
        term3 = x_hat * self._expand((dxhat * x_hat).sum(axis=axes) / m, dout.ndim)
        return (term1 - term2 - term3) * self._expand(inv_std.astype(dout.dtype), dout.ndim)

    # -- cohort-batched kernels -------------------------------------------
    @staticmethod
    def _reduce_axes_many(x: np.ndarray) -> tuple[int, ...]:
        if x.ndim == 3:
            return (1,)
        if x.ndim == 5:
            return (1, 3, 4)
        raise ValueError(
            f"cohort BatchNorm supports (C,N,F) or (C,N,Ch,H,W), got {x.shape}"
        )

    @staticmethod
    def _expand_many(v: np.ndarray, ndim: int) -> np.ndarray:
        # v is (C, F): align F with the feature axis, broadcast the rest
        return v[:, None, :] if ndim == 3 else v[:, None, :, None, None]

    def forward_many(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        axes = self._reduce_axes_many(x)
        if train:
            mean = x.mean(axis=axes)  # (C, F)
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
        x_hat = (x - self._expand_many(mean, x.ndim)) * self._expand_many(
            inv_std, x.ndim
        )
        out = (
            self._expand_many(self.gamma.many, x.ndim) * x_hat
            + self._expand_many(self.beta.many, x.ndim)
        )
        self._cache_many = (x_hat, inv_std, axes, x.shape) if train else None
        return out

    def backward_many(self, dout: np.ndarray) -> np.ndarray:
        if self._cache_many is None:
            raise RuntimeError("backward called before a training forward pass")
        x_hat, inv_std, axes, x_shape = self._cache_many
        m = float(np.prod([x_shape[a] for a in axes]))
        self.gamma.grad_many += (dout * x_hat).sum(axis=axes)
        self.beta.grad_many += dout.sum(axis=axes)
        g = self._expand_many(self.gamma.many, dout.ndim)
        dxhat = dout * g
        term2 = self._expand_many(dxhat.sum(axis=axes) / m, dout.ndim)
        term3 = x_hat * self._expand_many(
            (dxhat * x_hat).sum(axis=axes) / m, dout.ndim
        )
        return (dxhat - term2 - term3) * self._expand_many(
            inv_std.astype(dout.dtype), dout.ndim
        )

    def __repr__(self) -> str:
        return f"BatchNorm({self.num_features})"
