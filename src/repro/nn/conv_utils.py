"""Vectorized im2col / col2im kernels for convolution and pooling.

These are the hot paths of the framework: everything is expressed as fancy
indexing plus one GEMM, with no Python-level loops over the batch or spatial
dimensions (per the HPC guides: vectorize, broadcast, reuse buffers).
"""

from __future__ import annotations

import numpy as np

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

    The ``(k, i, j)`` arrays (and the derived flat offsets) depend only on
    the spatial geometry, never on the batch size or the data, so one plan
    serves every im2col/col2im call with that geometry.  Plans are cached by
    :func:`im2col_plan`; being pure integer indices they are safe to share
    across threads.

    ``take_offsets`` is the ``(fh*fw, 1, L)`` intp source pattern of
    :meth:`CohortConvWorkspace.gather`: for kernel offset ``(fi, fj)`` and
    output cell ``l``, the input cell's flat index ``r*W + q`` within one
    unpadded image, or ``H*W`` where the patch reads padding.
    """

    __slots__ = ("k", "i", "j", "out_h", "out_w", "padded_hw", "take_offsets")

    def __init__(
        self, channels: int, h: int, w: int, field_h: int, field_w: int,
        stride: int, pad: int,
    ):
        self.out_h = conv_output_size(h, field_h, stride, pad)
        self.out_w = conv_output_size(w, field_w, stride, pad)
        self.k, self.i, self.j = im2col_indices(
            (1, channels, h, w), field_h, field_w, stride, pad
        )
        self.padded_hw = (h + 2 * pad, w + 2 * pad)
        # channel 0's rows of (i, j), moved from padded to input coordinates
        fields = field_h * field_w
        r, q = self.i[:fields] - pad, self.j[:fields] - pad
        inside = (r >= 0) & (r < h) & (q >= 0) & (q < w)
        self.take_offsets = (
            np.where(inside, r * w + q, h * w).astype(np.intp)[:, None, :]
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

    Layout: :meth:`gather` produces ``(C, ch*fh*fw, N*L)`` patch columns
    (``L = out_h*out_w``) so a single batched GEMM against the stacked
    ``(C, out_ch, ch*fh*fw)`` kernel computes every member's convolution;
    :meth:`scatter` is its adjoint.  The gather stages the input
    channel-major as ``(C, ch, N, H*W+1)``: each image row ends in one cell
    that stays 0.0 and stands in for every padding cell, so no padded copy
    is made.  Its ``(fh*fw, N*L)`` intp index (the plan's
    ``take_offsets`` plus ``n*(H*W+1)`` for image ``n``) is built once per
    workspace.  The scatter buffer is spatial-outer,
    ``(H+2p, W+2p, C, N, ch)``, so a kernel offset's slice-add walks
    contiguous rows of ``out_w*C*N*ch`` values (``C*N*ch`` at stride > 1)
    rather than rows of ``out_w``.
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
        self.plan = im2col_plan(ch, h, w, field_h, field_w, stride, pad)
        hp, wp = self.plan.padded_hw
        ckk = ch * field_h * field_w
        self.patch_len = ckk
        self.out_len = self.plan.out_h * self.plan.out_w
        lcols = self.out_len
        hw = h * w
        #: channel-major input staging (C, ch, N, H*W+1); the last cell of
        #: each image row is never written and reads as every padding cell
        self._stage = np.zeros((c, ch, n, hw + 1), dtype=self.dtype)
        #: flat source of every column entry in the staging buffer's
        #: (C, ch, N*(H*W+1)) view, per kernel offset: (fh*fw, N*L)
        self._index = (
            self.plan.take_offsets
            + (hw + 1) * np.arange(n, dtype=np.intp)[:, None]
        ).reshape(field_h * field_w, n * lcols)
        #: GEMM-ready columns (C, ckk, N, L); viewed as (C, ckk, N*L)
        self._cols = np.empty((c, ckk, n, lcols), dtype=self.dtype)
        #: backward scatter target, spatial-outer (H+2p, W+2p, C, N, ch)
        self._dx_pad = np.empty((hp, wp, c, n, ch), dtype=self.dtype)

    def gather(self, x: np.ndarray) -> np.ndarray:
        """Unfold ``(C, N, ch, H, W)`` input into ``(C, ckk, N*L)`` columns.

        Writes exclusively into the workspace's pre-allocated buffers; the
        returned array is a reshaped view of the internal columns buffer
        (valid until the next ``gather`` on this workspace).

        One transposing copy stages ``x`` channel-major, then one
        ``np.take`` through the workspace's index writes every column
        entry.  The result is bitwise ``im2col``'s: each entry is a copy of
        one input value or of the staging row's 0.0 cell, where ``im2col``
        reads its zero padding.  ``mode="clip"`` never clips (every index
        is in range); it lets ``take`` write straight into the columns
        buffer, where the default ``"raise"`` stages ``out=`` through a
        temporary copy.
        """
        c, n, ch, h, w = self.shape
        fh, fw = self.field
        # (C, N, ch, H, W) -> the (C, ch, N, H*W) head of each staging row
        np.copyto(
            self._stage[..., :-1].reshape(c, ch, n, h, w),
            x.transpose(0, 2, 1, 3, 4),
        )
        np.take(
            self._stage.reshape(c, ch, -1),
            self._index,
            axis=2,
            out=self._cols.reshape(c, ch, fh * fw, n * self.out_len),
            mode="clip",
        )
        return self._cols.reshape(c, self.patch_len, n * self.out_len)

    def scatter(self, dcols: np.ndarray) -> np.ndarray:
        """Fold ``(C, ckk, N*L)`` column gradients back to ``(C, N, ch, H, W)``.

        The adjoint of :meth:`gather` (scatter-add over overlapping
        patches), bitwise equal to :func:`col2im` per member.  The column
        gradient is transposed once to ``(fh, fw, oh, ow, C, N, ch)``, so
        each kernel offset ``(fi, fj)`` adds long contiguous rows into the
        spatial-outer buffer.  Every input cell receives the same terms as
        under ``col2im``'s ``np.add.at``, in the same ``(fi, fj)``-major
        order, starting from 0.0: only the layout differs, never the order
        of the additions.  Returns a freshly-allocated gradient array (it
        flows on through the backward chain and must outlive the workspace
        reuse).
        """
        c, n, ch, h, w = self.shape
        p = self.pad
        s = self.stride
        fh, fw = self.field
        oh, ow = self.plan.out_h, self.plan.out_w
        buf = self._dx_pad
        buf.fill(0.0)
        # (C, ckk, N*L) -> (fh, fw, oh, ow, C, N, ch): the patch axis is
        # channel-major then (fi, fj) row-major (im2col_indices layout).
        d7 = np.ascontiguousarray(
            dcols.reshape(c, ch, fh, fw, n, oh, ow).transpose(2, 3, 5, 6, 0, 4, 1)
        )
        # Strided slice-adds instead of np.add.at: each (fi, fj) pass hits
        # every target element at most once.
        for fi in range(fh):
            for fj in range(fw):
                buf[fi : fi + s * oh : s, fj : fj + s * ow : s] += d7[fi, fj]
        return buf[p : p + h, p : p + w].transpose(2, 3, 4, 0, 1).copy()
