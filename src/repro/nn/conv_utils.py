"""The convolution workspace: a strided patch gather and its adjoint.

These are the hot paths of the framework, with no Python-level loops over
the batch or spatial dimensions (vectorize, broadcast, reuse buffers).
The workspace works in the cohort activation layout ``(C, ch, H, W, N)``
(batch innermost, see :mod:`repro.nn.layers`): it copies each kernel
offset's patches as one strided window of a staged input, with no index
at all, and scatters the column gradient back window by window.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = ["conv_output_size", "CohortConvWorkspace"]


def conv_output_size(size: int, field: int, stride: int, pad: int) -> int:
    """Spatial output size of a conv/pool along one dimension."""
    out = (size + 2 * pad - field) // stride + 1
    if out <= 0:
        raise ValueError(
            f"non-positive conv output size: input={size}, field={field}, "
            f"stride={stride}, pad={pad}"
        )
    return out


def _inside(offset: int, stride: int, pad: int, size: int, out: int):
    """The output cells ``[lo, hi)`` whose tap at kernel ``offset`` lands
    inside an unpadded map of ``size`` cells, and the map cell the first
    of them lands on (``offset + stride*lo - pad``)."""
    lo = max(0, -((offset - pad) // stride))
    hi = min(out, (size - 1 + pad - offset) // stride + 1)
    return lo, hi, offset + stride * lo - pad


class CohortConvWorkspace:
    """Pre-allocated patch columns for cohort-batched convolution.

    One workspace serves one ``(cohort, channels, H, W, batch)`` input
    shape (and dtype); :class:`~repro.nn.layers.Conv2d` keeps a small
    per-layer cache of them so training reuses the same buffers every step
    instead of reallocating per call.  The cohort axis ``C`` is the number
    of stacked client models; each member sees its own batch of ``N``
    samples.

    Layout: :meth:`gather` produces ``(C, ch*fh*fw, L*N)`` patch columns
    (``L = out_h*out_w``), output cell major and image minor, so a single
    batched GEMM against the stacked ``(C, out_ch, ch*fh*fw)`` kernel
    computes every member's convolution and emits ``(C, out_ch, L*N)``,
    which is the layer's ``(C, out_ch, out_h, out_w, N)`` output as it
    stands.  This is the column order of the classic one-model ``im2col``
    convolution, so every GEMM has its shapes and order.  The input is
    staged zero-padded, ``(C, ch, H+2p, W+2p, N)``, by a plain copy into
    the interior.  The patches of kernel offset ``(fi, fj)``, for every
    output cell and image, are then one strided window of the stage (rows
    ``fi::stride``, columns ``fj::stride``), and at stride 1 each window
    row is one contiguous run of ``out_w*N`` values.  :meth:`scatter` is
    the gather's adjoint.
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
        c, ch, h, w, n = shape
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
        #: zero-padded input staging (C, ch, H+2p, W+2p, N); only the
        #: interior is ever written, so the border reads as padding
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

    def gather(self, x: np.ndarray) -> np.ndarray:
        """Unfold ``(C, ch, H, W, N)`` input into ``(C, ckk, L*N)`` columns.

        Writes exclusively into the workspace's pre-allocated buffers; the
        returned array is the internal columns buffer (valid until the next
        ``gather`` on this workspace).

        One copy writes ``x`` into the stage's interior, then one
        ``np.copyto`` of the window view writes every column entry: each
        is a copy of one input value or of the stage's 0.0 border, where
        a zero-padded ``im2col`` reads its padding.
        """
        p = self.pad
        h, w = self.shape[2:4]
        np.copyto(self._stage[:, :, p : p + h, p : p + w], x)
        np.copyto(self._cols7, self._windows)
        return self._cols

    def scatter(self, dcols: np.ndarray) -> np.ndarray:
        """Fold ``(C, ckk, L*N)`` column gradients back to ``(C, ch, H, W, N)``.

        The adjoint of :meth:`gather`.  Each kernel offset ``(fi, fj)``
        slice-adds its ``(C, ch, oh, ow, N)`` block of ``dcols`` into the
        strided window :meth:`gather` copied from, clipped to the part
        that lands inside the map: the padding's share would be discarded,
        so it is never added.  Every map cell receives its terms in
        ``(fi, fj)`` order starting from 0.0, the order of ``col2im``'s
        scatter-add, so the result equals it byte for byte.  Returns a
        freshly allocated gradient (it flows on through the backward
        chain and must outlive the workspace's reuse).
        """
        c, ch, h, w, n = self.shape
        p, s = self.pad, self.stride
        fh, fw = self.field
        oh, ow = self.out_hw
        dx = np.zeros(self.shape, dtype=self.dtype)
        blocks = dcols.reshape(c, ch, fh, fw, oh, ow, n)
        for fi in range(fh):
            i0, i1, r = _inside(fi, s, p, h, oh)
            if i0 >= i1:
                continue
            for fj in range(fw):
                j0, j1, q = _inside(fj, s, p, w, ow)
                if j0 >= j1:
                    continue
                window = dx[:, :, r : r + s * (i1 - i0) : s, q : q + s * (j1 - j0) : s]
                window += blocks[:, :, fi, fj, i0:i1, j0:j1]
        return dx
