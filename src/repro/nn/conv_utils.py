"""Vectorized im2col / col2im kernels for convolution and pooling.

These are the hot paths of the framework, with no Python-level loops over
the batch or spatial dimensions (vectorize, broadcast, reuse buffers): the
serial kernels are fancy indexing plus one GEMM, and the cohort workspace
copies each kernel offset's patches as one strided window of a staged
input, with no index at all.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "conv_output_size",
    "im2col_indices",
    "im2col",
    "col2im",
    "Im2colPlan",
    "im2col_plan",
    "CohortConvWorkspace",
]


def conv_output_size(size: int, field: int, stride: int, pad: int) -> int:
    """Spatial output size of a conv/pool along one dimension."""
    out = (size + 2 * pad - field) // stride + 1
    if out <= 0:
        raise ValueError(
            f"non-positive conv output size: input={size}, field={field}, "
            f"stride={stride}, pad={pad}"
        )
    return out


def im2col_indices(
    x_shape: tuple[int, int, int, int], field_h: int, field_w: int, stride: int, pad: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index arrays (k, i, j) that gather conv patches from a padded input.

    Returned arrays address a padded ``(N, C, H+2p, W+2p)`` tensor such that
    ``x_pad[:, k, i, j]`` has shape ``(N, C*fh*fw, out_h*out_w)``.
    """
    _, c, h, w = x_shape
    out_h = conv_output_size(h, field_h, stride, pad)
    out_w = conv_output_size(w, field_w, stride, pad)

    i0 = np.repeat(np.arange(field_h), field_w)
    i0 = np.tile(i0, c)
    i1 = stride * np.repeat(np.arange(out_h), out_w)
    j0 = np.tile(np.arange(field_w), field_h * c)
    j1 = stride * np.tile(np.arange(out_w), out_h)
    i = i0.reshape(-1, 1) + i1.reshape(1, -1)
    j = j0.reshape(-1, 1) + j1.reshape(1, -1)
    k = np.repeat(np.arange(c), field_h * field_w).reshape(-1, 1)
    return k, i, j


class Im2colPlan:
    """Immutable gather-index workspace for one ``(C, H, W, kernel)`` key.

    The ``(k, i, j)`` arrays depend only on the spatial geometry, never on
    the batch size or the data, so one plan serves every im2col/col2im call
    with that geometry.  Plans are cached by :func:`im2col_plan`; being
    pure integer indices they are safe to share across threads.
    """

    __slots__ = ("k", "i", "j", "out_h", "out_w")

    def __init__(
        self, channels: int, h: int, w: int, field_h: int, field_w: int,
        stride: int, pad: int,
    ):
        self.out_h = conv_output_size(h, field_h, stride, pad)
        self.out_w = conv_output_size(w, field_w, stride, pad)
        self.k, self.i, self.j = im2col_indices(
            (1, channels, h, w), field_h, field_w, stride, pad
        )


#: plan cache keyed by the full geometry tuple; bounded so sweeps over many
#: input sizes cannot grow it without limit
_PLAN_CACHE: dict[tuple, Im2colPlan] = {}
_PLAN_CACHE_MAX = 128


def im2col_plan(
    channels: int, h: int, w: int, field_h: int, field_w: int, stride: int, pad: int
) -> Im2colPlan:
    """The cached :class:`Im2colPlan` for one conv/pool geometry.

    Repeated calls with the same key return the *same object* (no per-call
    index recomputation or reallocation — asserted by the workspace-reuse
    tests).
    """
    key = (channels, h, w, field_h, field_w, stride, pad)
    plan = _PLAN_CACHE.get(key)
    if plan is None:
        if len(_PLAN_CACHE) >= _PLAN_CACHE_MAX:
            _PLAN_CACHE.pop(next(iter(_PLAN_CACHE)))
        plan = Im2colPlan(channels, h, w, field_h, field_w, stride, pad)
        _PLAN_CACHE[key] = plan
    return plan


def im2col(x: np.ndarray, field_h: int, field_w: int, stride: int, pad: int) -> np.ndarray:
    """Unfold ``(N, C, H, W)`` into patch columns ``(C*fh*fw, N*out_h*out_w)``."""
    if x.ndim != 4:
        raise ValueError(f"im2col expects NCHW input, got shape {x.shape}")
    p = pad
    x_pad = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)), mode="constant") if p > 0 else x
    plan = im2col_plan(x.shape[1], x.shape[2], x.shape[3], field_h, field_w, stride, pad)
    cols = x_pad[:, plan.k, plan.i, plan.j]  # (N, C*fh*fw, L)
    return cols.transpose(1, 2, 0).reshape(field_h * field_w * x.shape[1], -1)


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    field_h: int,
    field_w: int,
    stride: int,
    pad: int,
) -> np.ndarray:
    """Fold patch columns back into an ``(N, C, H, W)`` gradient (adjoint of im2col)."""
    n, c, h, w = x_shape
    p = pad
    x_pad = np.zeros((n, c, h + 2 * p, w + 2 * p), dtype=cols.dtype)
    plan = im2col_plan(c, h, w, field_h, field_w, stride, pad)
    cols_reshaped = cols.reshape(c * field_h * field_w, -1, n).transpose(2, 0, 1)
    # Scatter-add: overlapping patches accumulate.
    np.add.at(x_pad, (slice(None), plan.k, plan.i, plan.j), cols_reshaped)
    if p == 0:
        return x_pad
    return x_pad[:, :, p:-p, p:-p]


class CohortConvWorkspace:
    """Pre-allocated im2col/col2im scratch for cohort-batched convolution.

    One workspace serves one ``(cohort, batch, channels, H, W)`` input shape
    (and dtype); :class:`~repro.nn.layers.Conv2d` keeps a small per-layer
    cache of them so training reuses the same buffers every step instead of
    reallocating per call.  The cohort axis ``C`` is the number of stacked
    client models; each member sees its own batch of ``N`` samples.

    Layout: :meth:`gather` produces ``(C, ch*fh*fw, L*N)`` patch columns
    (``L = out_h*out_w``) in :func:`im2col`'s column order, output cell
    major and image minor, so a single batched GEMM against the stacked
    ``(C, out_ch, ch*fh*fw)`` kernel computes every member's convolution
    with the serial GEMM's shape and column order; :meth:`scatter` is its
    adjoint.  The input is staged zero-padded and batch-innermost,
    ``(C, ch, H+2p, W+2p, N)``.  The patches of kernel offset ``(fi, fj)``,
    for every output cell and image, are then one strided window of the
    stage (rows ``fi::stride``, columns ``fj::stride``), and at stride 1
    each window row is one contiguous run of ``out_w*N`` values.  The
    scatter adds into a buffer in the same layout, made by the first
    :meth:`scatter`, so a first layer's or an evaluation's workspace never
    holds one.
    """

    def __init__(
        self,
        shape: tuple[int, int, int, int, int],
        dtype,
        field_h: int,
        field_w: int,
        stride: int,
        pad: int,
    ):
        c, n, ch, h, w = shape
        self.shape = tuple(int(s) for s in shape)
        self.dtype = np.dtype(dtype)
        self.pad = int(pad)
        self.stride = int(stride)
        self.field = (int(field_h), int(field_w))
        oh = conv_output_size(h, field_h, stride, pad)
        ow = conv_output_size(w, field_w, stride, pad)
        self.out_hw = (oh, ow)
        self.patch_len = ch * field_h * field_w
        self.out_len = oh * ow
        #: zero-padded, batch-innermost input staging (C, ch, H+2p, W+2p, N);
        #: only the interior is ever written, so the border reads as padding
        self._stage = np.zeros(
            (c, ch, h + 2 * pad, w + 2 * pad, n), dtype=self.dtype
        )
        #: GEMM-ready columns (C, ckk, L*N), column index l*N + n
        self._cols = np.empty((c, self.patch_len, self.out_len * n), dtype=self.dtype)
        #: the stage's kernel-offset windows, (C, ch, fh, fw, oh, ow, N), and
        #: the columns buffer viewed the same way
        self._windows = sliding_window_view(
            self._stage, self.field, axis=(2, 3)
        )[:, :, ::stride, ::stride].transpose(0, 1, 5, 6, 2, 3, 4)
        self._cols7 = self._cols.reshape(c, ch, field_h, field_w, oh, ow, n)
        #: backward scatter target in the stage's layout, made on first use
        self._dx_pad: np.ndarray | None = None

    def gather(self, x: np.ndarray) -> np.ndarray:
        """Unfold ``(C, N, ch, H, W)`` input into ``(C, ckk, L*N)`` columns.

        Writes exclusively into the workspace's pre-allocated buffers; the
        returned array is the internal columns buffer (valid until the next
        ``gather`` on this workspace).

        One transposing copy writes ``x`` into the stage's interior, then
        one ``np.copyto`` of the window view writes every column entry.
        The result is bitwise ``im2col``'s per member: each entry is a copy
        of one input value or of the stage's 0.0 border, where ``im2col``
        reads its zero padding.
        """
        p = self.pad
        h, w = self.shape[3:]
        np.copyto(
            self._stage[:, :, p : p + h, p : p + w], x.transpose(0, 2, 3, 4, 1)
        )
        np.copyto(self._cols7, self._windows)
        return self._cols

    def scatter(self, dcols: np.ndarray) -> np.ndarray:
        """Fold ``(C, ckk, L*N)`` column gradients back to ``(C, N, ch, H, W)``.

        The adjoint of :meth:`gather` (scatter-add over overlapping
        patches), bitwise equal to :func:`col2im` per member.  Each kernel
        offset ``(fi, fj)`` slice-adds its ``(C, ch, oh, ow, N)`` block of
        ``dcols`` into the same strided window :meth:`gather` copied from.
        Every input cell receives the same terms as under ``col2im``'s
        ``np.add.at``, in the same ``(fi, fj)``-major order, starting from
        0.0: only the layout differs, never the order of the additions.
        Returns a freshly-allocated gradient array (it flows on through the
        backward chain and must outlive the workspace reuse).
        """
        c, n, ch, h, w = self.shape
        p, s = self.pad, self.stride
        fh, fw = self.field
        oh, ow = self.out_hw
        if self._dx_pad is None:
            self._dx_pad = np.empty(self._stage.shape, dtype=self.dtype)
        buf = self._dx_pad
        buf.fill(0.0)
        blocks = dcols.reshape(c, ch, fh, fw, oh, ow, n)
        # Strided slice-adds instead of np.add.at: each (fi, fj) pass hits
        # every target element at most once.
        for fi in range(fh):
            for fj in range(fw):
                window = buf[:, :, fi : fi + s * oh : s, fj : fj + s * ow : s]
                window += blocks[:, :, fi, fj]
        return buf[:, :, p : p + h, p : p + w].transpose(0, 4, 1, 2, 3).copy()
