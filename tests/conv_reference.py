"""The classic one-model ``im2col``/``col2im``, by fancy indexing.

The independent reference that the cohort convolution workspace and
max-pooling are tested against (``src/`` uses neither): ``im2col`` unfolds
``(N, C, H, W)`` into ``(C*fh*fw, out_h*out_w*N)`` patch columns, output
cell major and image minor, and ``col2im`` is its adjoint, a scatter-add
by ``np.add.at``.
"""

from __future__ import annotations

import numpy as np

from repro.nn.conv_utils import conv_output_size


def _indices(x_shape, field_h: int, field_w: int, stride: int, pad: int):
    """Index arrays ``(k, i, j)`` with ``x_pad[:, k, i, j]`` of shape
    ``(N, C*fh*fw, out_h*out_w)`` over the zero-padded input."""
    _, c, h, w = x_shape
    out_h = conv_output_size(h, field_h, stride, pad)
    out_w = conv_output_size(w, field_w, stride, pad)
    i0 = np.tile(np.repeat(np.arange(field_h), field_w), c)
    i1 = stride * np.repeat(np.arange(out_h), out_w)
    j0 = np.tile(np.arange(field_w), field_h * c)
    j1 = stride * np.tile(np.arange(out_w), out_h)
    k = np.repeat(np.arange(c), field_h * field_w).reshape(-1, 1)
    return k, i0[:, None] + i1[None, :], j0[:, None] + j1[None, :]


def im2col(x: np.ndarray, field_h: int, field_w: int, stride: int, pad: int) -> np.ndarray:
    """Unfold ``(N, C, H, W)`` into patch columns ``(C*fh*fw, N*out_h*out_w)``."""
    p = pad
    x_pad = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p))) if p > 0 else x
    k, i, j = _indices(x.shape, field_h, field_w, stride, pad)
    cols = x_pad[:, k, i, j]  # (N, C*fh*fw, L)
    return cols.transpose(1, 2, 0).reshape(field_h * field_w * x.shape[1], -1)


def col2im(cols: np.ndarray, x_shape, field_h: int, field_w: int, stride: int, pad: int) -> np.ndarray:
    """Fold patch columns back into an ``(N, C, H, W)`` gradient."""
    n, c, h, w = x_shape
    p = pad
    x_pad = np.zeros((n, c, h + 2 * p, w + 2 * p), dtype=cols.dtype)
    k, i, j = _indices(x_shape, field_h, field_w, stride, pad)
    per_image = cols.reshape(c * field_h * field_w, -1, n).transpose(2, 0, 1)
    np.add.at(x_pad, (slice(None), k, i, j), per_image)
    return x_pad[:, :, p : p + h, p : p + w]
