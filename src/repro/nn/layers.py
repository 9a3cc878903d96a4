"""Layers of the NumPy deep-learning framework.

Every layer implements explicit backprop over a leading *cohort* axis
``C``, a stack of structurally identical models, one slice per member:

* ``forward_many(x, train)`` maps a cohort activation to the next one and
  caches whatever the backward pass needs;
* ``backward_many(dout)`` returns the gradient w.r.t. the input and
  *accumulates* each member's gradients into its slice of the stacked
  :class:`~repro.nn.parameter.Parameter` storage.

Cohort activations come in two layouts.  Images are ``(C, ch, H, W, N)``:
the cohort, the channels, the map, and the batch innermost.  Conv2d's
GEMM emits that layout as it stands, its patch gather reads it with a
plain copy, and a pooling window row or a BatchNorm plane is a run of
``N`` contiguous values.  Anything else is rows, ``(C, N, ...)``
(``Dense``'s ``(C, N, F)``); ``Flatten`` and ``GlobalAvgPool2d`` turn
images into rows in the one-model feature order.  Callers never see the
image layout: ``CohortModel`` converts ``(C, N, ch, H, W)`` batches at
its edges (see :func:`to_kernel_layout`), and a layer's one-model
``forward``/``backward`` convert NCHW arrays and run the cohort kernels
at ``C=1``.

A parametric layer implements ``forward_many``/``backward_many``.  A
parameter-free layer that treats channels (or rows) independently
(``ReLU``, ``MaxPool2d``) implements ``forward_folded``/
``backward_folded`` over one activation whose cohort axis is folded into
its first axis, and inherits the folding cohort kernels.

All hot paths are vectorized (batched GEMM for dense layers, a strided
window gather + GEMM for convolutions, window compares for max-pooling);
there are no Python loops over batch or spatial dims.
"""

from __future__ import annotations

import numpy as np

from repro.nn import init as _init
from repro.nn.conv_utils import CohortConvWorkspace, conv_output_size
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
    "to_kernel_layout",
    "from_kernel_layout",
]


def to_kernel_layout(x: np.ndarray) -> np.ndarray:
    """A cohort batch as the layers take it: ``(C, N, ch, H, W)`` images
    become a ``(C, ch, H, W, N)`` view; rows pass through."""
    return x.transpose(0, 2, 3, 4, 1) if x.ndim == 5 else x


def from_kernel_layout(x: np.ndarray) -> np.ndarray:
    """The inverse of :func:`to_kernel_layout`, as a contiguous array."""
    return np.ascontiguousarray(x.transpose(0, 4, 1, 2, 3)) if x.ndim == 5 else x


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


def _pairwise_cells(v: np.ndarray) -> np.ndarray:
    """``(C, F, L, N) -> (C, F, N)`` for ``L >= 8``: each ``(c, f, n)``'s
    ``L`` cells summed in the order of numpy's pairwise sum over one
    contiguous run.

    Up to 128 cells that is 8 running sums over the cells ``j, j+8,
    ...``, combined as ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``, then the
    leftover cells in order; above, the sums of two halves split at a
    multiple of 8.  The running sums are slice adds of whole blocks of 8
    cells, each a run of ``8*N`` values.
    """
    cells = v.shape[2]
    if cells > 128:
        half = cells // 2 - (cells // 2) % 8
        return _pairwise_cells(v[:, :, :half]) + _pairwise_cells(v[:, :, half:])
    blocks = cells - cells % 8
    r = v[:, :, :8].copy()
    for i in range(8, blocks, 8):
        r += v[:, :, i : i + 8]
    r = r.transpose(2, 0, 1, 3)
    out = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for i in range(blocks, cells):
        out += v[:, :, i]
    return out


class Layer:
    """Base class: a differentiable module with (possibly empty) parameters.

    A parametric layer implements one kernel pair, ``forward_many``/
    ``backward_many`` over a leading cohort axis ``C`` (images
    ``(C, ch, H, W, N)``, rows ``(C, N, ...)``), each cohort slice
    transformed by its own stacked parameter slice (sized by
    :meth:`bind_cohort`).  The one-model ``forward``/``backward`` are this
    base's for every layer: they run the cohort kernels as a cohort of
    one, converting NCHW images at the edge.  A parameter-free layer
    implements ``forward_folded``/``backward_folded`` instead and
    inherits a ``forward_many``/``backward_many`` that fold the cohort
    axis into the first axis; a layer that changes the layout (``Flatten``,
    ``GlobalAvgPool2d``) implements the cohort kernels itself.  A
    parametric layer without cohort kernels cannot run: the default
    :meth:`forward_many` raises ``NotImplementedError`` naming it, on
    every path.
    """

    #: True for layers whose Parameters represent a classifier head.  Used by
    #: partial-weight protocols (FedClust, LG-FedAvg) to find "final" layers.
    is_classifier_head: bool = False

    def parameters(self) -> list[Parameter]:
        return []

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        """One model's forward, ``(N, ...) -> (N, ...)`` with images NCHW:
        the cohort kernel at ``C=1``."""
        return from_kernel_layout(self.forward_many(to_kernel_layout(x[None]), train))[0]

    def backward(self, dout: np.ndarray) -> np.ndarray:
        """Adjoint of :meth:`forward`: the cohort kernel at ``C=1``."""
        return from_kernel_layout(self.backward_many(to_kernel_layout(dout[None])))[0]

    def state(self) -> dict[str, np.ndarray]:
        """Non-trainable buffers (e.g. batch-norm running stats): views of
        member 0 of :meth:`state_many`."""
        return {key: buf[0] for key, buf in self.state_many().items()}

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        for key, value in state.items():
            buf = self.state().get(key)
            if buf is None:
                raise KeyError(f"{type(self).__name__} has no buffer {key!r}")
            np.copyto(buf, value)

    # -- cohort-batched kernel path ---------------------------------------
    def bind_cohort(self, cohort: int) -> None:
        """Resize the stacked parameter (and buffer) storage to ``cohort``
        members, each a copy of member 0."""
        for p in self.parameters():
            p.bind_cohort(cohort)

    def state_many(self) -> dict[str, np.ndarray]:
        """Stacked ``(C, ...)`` non-trainable buffers (empty for stateless
        layers)."""
        return {}

    def forward_folded(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        """A parameter-free layer's kernel over one activation whose cohort
        axis is folded into its first axis: ``(C*ch, H, W, N)`` images or
        ``(C*N, ...)`` rows."""
        raise NotImplementedError(f"{type(self).__name__} has no cohort kernel")

    def backward_folded(self, dout: np.ndarray) -> np.ndarray:
        """Adjoint of :meth:`forward_folded`."""
        raise NotImplementedError(f"{type(self).__name__} has no cohort kernel")

    def forward_many(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        """Cohort-batched forward.

        Default (parameter-free layers only): fold the cohort axis into the
        first axis and run :meth:`forward_folded`, which treats every
        channel (or row) alike, so a member's slice equals a cohort of
        one's bit for bit.
        """
        if self.parameters():
            raise NotImplementedError(
                f"{type(self).__name__} has no cohort kernel"
            )
        out = self.forward_folded(x.reshape(-1, *x.shape[2:]), train)
        return out.reshape(x.shape[0], x.shape[1], *out.shape[1:])

    def backward_many(self, dout: np.ndarray) -> np.ndarray:
        """Cohort-batched backward: adjoint of :meth:`forward_many`."""
        dx = self.backward_folded(dout.reshape(-1, *dout.shape[2:]))
        return dx.reshape(dout.shape[0], dout.shape[1], *dx.shape[1:])

    def backward_many_params_only(self, dout: np.ndarray) -> None:
        """Accumulate cohort parameter gradients without computing dx.

        Used for the *first* layer of a model, whose input gradient nobody
        consumes — for convolutions that skips the input-gradient GEMM and
        the scatter, most of a convolution's backward cost, and a
        parameter-free layer does nothing.  Parameter gradients are
        bitwise identical to :meth:`backward_many`'s.
        """
        if self.parameters():
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
    """2-D convolution: a strided patch gather + one batched GEMM."""

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
        #: training forwards' cohort patch workspaces keyed by (input
        #: shape, dtype); bounded (a training loop sees at most two batch
        #: shapes: full + remainder)
        self._cohort_ws: dict[tuple, CohortConvWorkspace] = {}
        self._many_cache: tuple | None = None

    def parameters(self) -> list[Parameter]:
        return [self.w, self.b]

    def cohort_workspace(
        self, x: np.ndarray, keep: bool = True
    ) -> CohortConvWorkspace:
        """The patch workspace for ``x``'s shape: cached for reuse, or with
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
        """Cohort forward, ``(C, ch, H, W, N) -> (C, out, oh, ow, N)``.

        The workspace's columns come in ``im2col``'s ``(l, n)`` order, so
        each member's GEMMs, forward and backward, have the shapes and
        column order of one model's im2col convolution, and a member's
        output, dx, dW and db equal those of a cohort of one byte for byte
        (pinned per geometry in ``tests/test_cohort_kernels.py``).  The
        forward GEMM's ``(C, out, L*N)`` result is the output, and the
        backward reads ``dout`` by a reshape.

        A leading axis of 1 with ``C > 1`` members bound is a *shared*
        input: every member convolves the same rows, so the patches are
        gathered once and one GEMM of the stacked ``(C*out, ch*k*k)``
        filters yields all members' outputs.  Evaluation only.

        Only a training forward keeps its workspace: training repeats its
        shapes step after step and the backward reads the columns.  An
        evaluation forward gathers into a per-call workspace, freed on
        return.  Its shapes (``predict``'s tail chunks, an evaluation's
        member blocks, scoring passes) recur far less often than
        training's, and a cache would hold each one's columns to the end
        of the run:
        with evaluation workspaces cached, ``fedclust-lenet`` (whose
        evaluations run in blocks of 12 and 13 members) peaked at 94-102
        MB instead of 92 MB and was no faster (519-538 against 516-524
        updates/s, three alternating 12-s perfbench runs each).
        """
        if x.ndim != 5 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"Conv2d expected (C, {self.in_channels}, H, W, N) cohort "
                f"input, got {x.shape}"
            )
        c, n = self.w.many.shape[0], x.shape[4]
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
        # cols lives in the workspace (overwritten by the next gather of
        # this shape); the backward for this step runs before that
        self._many_cache = (cols, ws) if train else None
        return out.reshape(c, self.out_channels, *ws.out_hw, n)

    def _param_grads_many(self, dout: np.ndarray) -> np.ndarray:
        """Accumulate the cohort dW and db; returns the ``(C, out, L*N)``
        dout matrix."""
        if self._many_cache is None:
            raise RuntimeError("backward called before a training forward pass")
        cols, ws = self._many_cache
        c = dout.shape[0]
        dout_mat = np.ascontiguousarray(dout).reshape(c, self.out_channels, -1)
        if ws.out_len == 1:
            # A one-cell map: one model's NCHW dout, viewed as this matrix,
            # is strided, and numpy adds its N rows in order, not as one
            # pairwise run; the rows are added in that order here too.
            db = np.ascontiguousarray(dout_mat.transpose(0, 2, 1)).sum(axis=1)
        else:
            db = dout_mat.sum(axis=2)
        self.b.grad_many += db
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
        # Skip dcols + the scatter entirely: for a first layer the input
        # gradient is dead, and the two are most of the backward.
        self._param_grads_many(dout)

    def __repr__(self) -> str:
        return (
            f"Conv2d({self.in_channels}->{self.out_channels}, k={self.kernel_size}, "
            f"s={self.stride}, p={self.pad})"
        )


class MaxPool2d(Layer):
    """Max pooling; the backward routes each window's gradient to its
    argmax."""

    def __init__(self, size: int = 2, stride: int | None = None):
        if size <= 0:
            raise ValueError(f"pool size must be positive, got {size}")
        self.size = size
        self.stride = stride if stride is not None else size
        self._cache: tuple | None = None

    def forward_folded(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        """``(B, H, W, N) -> (B, oh, ow, N)``, ``B`` the folded channels."""
        _, h, w, _ = x.shape
        s, k = self.stride, self.size
        oh = conv_output_size(h, k, s, 0)
        ow = conv_output_size(w, k, s, 0)
        # the k*k window rows, (k*k, B, oh, ow, N): row fi*k + fj holds
        # every window's tap (fi, fj), copied once from its strided view
        rows = np.empty((k * k, x.shape[0], oh, ow, x.shape[3]), dtype=x.dtype)
        for fi in range(k):
            for fj in range(k):
                rows[fi * k + fj] = x[:, fi : fi + s * oh : s, fj : fj + s * ow : s]
        if not train:
            # Evaluation: a running elementwise max down the rows, with no
            # argmax.  Equal in value to training's (NaN propagates; of a
            # -0/+0 tie either zero may win); training keeps the argmax
            # because the backward needs it.
            self._cache = None
            return np.maximum.reduce(rows, axis=0)
        # The argmax by a running compare down the k*k rows: row t takes a
        # window where it is not <= the best so far (greater, or NaN) and
        # the best is not NaN, so the first max and the first NaN win, as
        # in numpy's argmax.  The best so far is the row the argmax
        # selects, taken branch-free: its bits, as integers, move by
        # (row - best) * upd, which wraps to the row's bits exactly where
        # upd holds.  t only grows, so np.maximum(arg, upd * t) sets arg
        # to t exactly where upd holds.
        out = rows[0].copy()
        ints = np.dtype(f"i{out.itemsize}")
        bits, row_bits = out.view(ints), rows.view(ints)
        tap = np.min_scalar_type(k * k - 1).type  # uint8 up to 16x16 windows
        argmax = np.zeros(out.shape, dtype=tap)
        for t in range(1, k * k):
            upd = np.greater(out == out, rows[t] <= out)  # not NaN, not <=
            step = np.subtract(row_bits[t], bits)
            step *= upd
            bits += step
            np.maximum(argmax, upd * tap(t), out=argmax)
        self._cache = (x.shape, argmax)
        return out

    def backward_folded(self, dout: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before a training forward pass")
        x_shape, argmax = self._cache
        k, s = self.size, self.stride
        _, oh, ow, _ = dout.shape
        dx = np.zeros(x_shape, dtype=dout.dtype)
        ints = np.dtype(f"i{dx.itemsize}")
        dout_bits, dx_bits = dout.view(ints), dx.view(ints)
        for fi in range(k):
            for fj in range(k):
                routed = argmax == fi * k + fj
                taps = (slice(None), slice(fi, fi + s * oh, s), slice(fj, fj + s * ow, s))
                if s >= k:
                    # Disjoint windows: every input cell receives at most
                    # one gradient, so the scatter-add over zeros is a
                    # plain strided write of keep_where(dout, routed)
                    # (-0.0 stays -0.0).
                    np.multiply(dout_bits, routed, out=dx_bits[taps])
                else:
                    # Overlapping windows add in (fi, fj) order from 0.0.
                    dx[taps] += keep_where(dout, routed)
        return dx

    def __repr__(self) -> str:
        return f"MaxPool2d(size={self.size}, stride={self.stride})"


class GlobalAvgPool2d(Layer):
    """Collapse each feature map to its mean: ``(C, ch, H, W, N)`` images
    to ``(C, N, ch)`` rows."""

    def __init__(self):
        self._hw: tuple[int, int] | None = None

    def forward_many(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        self._hw = x.shape[2:4]
        # the mean over one model's contiguous NCHW maps, in its order
        return np.ascontiguousarray(x.transpose(0, 4, 1, 2, 3)).mean(axis=(3, 4))

    def backward_many(self, dout: np.ndarray) -> np.ndarray:
        if self._hw is None:
            raise RuntimeError("backward called before a forward pass")
        h, w = self._hw
        scale = 1.0 / (h * w)
        c, n, ch = dout.shape
        return np.broadcast_to(
            (dout * scale).transpose(0, 2, 1)[:, :, None, None, :], (c, ch, h, w, n)
        ).copy()


class Flatten(Layer):
    """Images ``(C, ch, H, W, N)`` (or rows ``(C, N, ...)``) to
    ``(C, N, features)`` rows, in one model's ``(ch, H, W)`` order."""

    def __init__(self):
        self._shape: tuple[int, ...] | None = None

    def forward_many(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        self._shape = x.shape
        if x.ndim == 5:
            # contiguous, as one model's rows are: the (ch, H, W) axes of
            # the transposed view would merge into a strided feature axis,
            # and BLAS sums a transposed operand in another order
            x = from_kernel_layout(x)
        return x.reshape(x.shape[0], x.shape[1], -1)

    def backward_many(self, dout: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError("backward called before a forward pass")
        if len(self._shape) == 5:
            c, ch, h, w, n = self._shape
            return np.ascontiguousarray(
                dout.reshape(c, n, ch, h, w).transpose(0, 2, 3, 4, 1)
            )
        return dout.reshape(self._shape)


class ReLU(Layer):
    """Rectified linear unit; caches the sign mask for the backward pass."""

    def __init__(self):
        self._mask: np.ndarray | None = None

    def forward_folded(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        mask = x > 0
        if train:
            self._mask = mask
        # an integer multiply of x's bits by the mask: np.where(mask, x,
        # 0.0) bit for bit, without a branch per element on a mask that is
        # about half True
        return keep_where(x, mask)

    def backward_folded(self, dout: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before a training forward pass")
        return dout * self._mask


class BatchNorm(Layer):
    """Batch normalization over rows ``(C, N, F)`` or images
    ``(C, F, H, W, N)``, per feature ``F``.

    Running statistics are stacked per cohort member like the parameters
    (``running_mean_many``/``running_var_many``, ``(C, F)`` float64;
    ``running_mean``/``running_var`` are member 0's) and exposed via
    :meth:`state` so federated averaging can (and does) synchronize them
    alongside trainable parameters.
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
        self.running_mean_many = np.zeros((1, num_features), dtype=np.float64)
        self.running_var_many = np.ones((1, num_features), dtype=np.float64)
        self._cache_many: tuple | None = None

    def parameters(self) -> list[Parameter]:
        return [self.gamma, self.beta]

    @property
    def running_mean(self) -> np.ndarray:
        return self.running_mean_many[0]

    @property
    def running_var(self) -> np.ndarray:
        return self.running_var_many[0]

    def bind_cohort(self, cohort: int) -> None:
        super().bind_cohort(cohort)
        if cohort != len(self.running_mean_many):
            mean, var = self.running_mean_many[:1], self.running_var_many[:1]
            self.running_mean_many = np.repeat(mean, cohort, axis=0)
            self.running_var_many = np.repeat(var, cohort, axis=0)

    def state_many(self) -> dict[str, np.ndarray]:
        return {
            "running_mean": self.running_mean_many,
            "running_var": self.running_var_many,
        }

    @staticmethod
    def _reduce_axes_many(x: np.ndarray) -> tuple[int, ...]:
        if x.ndim == 3:
            return (1,)
        if x.ndim == 5:
            return (2, 3, 4)
        raise ValueError(
            f"cohort BatchNorm supports (C,N,F) or (C,F,H,W,N), got {x.shape}"
        )

    @staticmethod
    def _expand_many(v: np.ndarray, ndim: int) -> np.ndarray:
        # v is (C, F): align F with the feature axis, broadcast the rest
        return v[:, None, :] if ndim == 3 else v[:, :, None, None, None]

    def _sum_many(self, x: np.ndarray) -> np.ndarray:
        """``(C, F)`` per-feature sums in the order numpy reduces one
        model's ``(N, F)`` rows or ``(N, F, H, W)`` maps.

        There numpy sums each row's cells as one pairwise run and adds the
        rows in order from +0.0; with a single feature it fuses the rows
        and the cells into one pairwise run.  Here the cells of a
        ``(C, F, H, W, N)`` image lie ``N`` apart, so the runs are summed
        plane by plane over the rows: under 8 cells (ResNet-9's 2x2 and
        1x1 maps) numpy's run is a plain running sum, taken over
        ``(N, C*F)`` planes so that the rows come out ready for their own
        running sum; from 8 cells by :func:`_pairwise_cells`.  A
        one-feature map is copied to a contiguous ``(C, 1, N, H, W)`` and
        summed as the fused run.  Running sums start from the
        first term where numpy's start from 0.0, which changes only the
        sign of a zero partial sum, lost when the rows are added to +0.0.
        Values, infinities and signed zeros come out the same; which
        payload a NaN+NaN sum keeps is up to the loop, so NaN payloads may
        differ.
        """
        if x.ndim == 3:
            return x.sum(axis=1)
        c, f, h, w, n = x.shape
        if f == 1:
            run = np.ascontiguousarray(x.transpose(0, 1, 4, 2, 3))
            return run.reshape(c, 1, -1).sum(axis=2)
        if h * w < 8:
            cells = x.reshape(c * f, h * w, n).transpose(1, 2, 0)  # (L, N, C*F)
            rows = np.array(cells[0], order="C")
            for i in range(1, h * w):
                rows += cells[i]
        else:
            rows = _pairwise_cells(x.reshape(c, f, h * w, n)).reshape(c * f, n).T
        # a reduction over the outer axis adds the rows in order from +0.0
        return np.ascontiguousarray(rows).sum(axis=0).reshape(c, f)

    def forward_many(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        axes = self._reduce_axes_many(x)
        expand = self._expand_many
        if train:
            # x.mean and x.var bit for bit, with x summed and centred
            # once: each sum is divided in place in its own dtype, as
            # numpy's _mean/_var do (dividing by the np.intp count out of
            # place would promote float32 to float64)
            count = np.intp(np.prod([x.shape[a] for a in axes]))
            mean = self._sum_many(x)  # (C, F)
            np.true_divide(mean, count, out=mean, casting="unsafe")
            x_hat = x - expand(mean, x.ndim)
            var = self._sum_many(x_hat * x_hat)
            np.true_divide(var, count, out=var, casting="unsafe")
            m = self.momentum
            self.running_mean_many *= m
            self.running_mean_many += (1 - m) * mean.astype(np.float64)
            self.running_var_many *= m
            self.running_var_many += (1 - m) * var.astype(np.float64)
        else:
            x_hat = x - expand(self.running_mean_many.astype(x.dtype), x.ndim)
            var = self.running_var_many.astype(x.dtype)
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat *= expand(inv_std, x.ndim)
        out = expand(self.gamma.many, x.ndim) * x_hat + expand(
            self.beta.many, x.ndim
        )
        self._cache_many = (x_hat, inv_std, axes, x.shape) if train else None
        return out

    def backward_many(self, dout: np.ndarray) -> np.ndarray:
        if self._cache_many is None:
            raise RuntimeError("backward called before a training forward pass")
        x_hat, inv_std, axes, x_shape = self._cache_many
        m = float(np.prod([x_shape[a] for a in axes]))
        self.gamma.grad_many += self._sum_many(dout * x_hat)
        self.beta.grad_many += self._sum_many(dout)
        g = self._expand_many(self.gamma.many, dout.ndim)
        dxhat = dout * g
        term2 = self._expand_many(self._sum_many(dxhat) / m, dout.ndim)
        term3 = x_hat * self._expand_many(
            self._sum_many(dxhat * x_hat) / m, dout.ndim
        )
        return (dxhat - term2 - term3) * self._expand_many(
            inv_std.astype(dout.dtype), dout.ndim
        )

    def __repr__(self) -> str:
        return f"BatchNorm({self.num_features})"
