"""Flat-vector (de)serialization of model parameters.

All federated communication in this library is phrased as flat float vectors,
which makes byte accounting exact and distance computation a single GEMM.
"""

from __future__ import annotations

import numpy as np

from repro.nn.model import Sequential

__all__ = [
    "flatten_params",
    "unflatten_params",
    "flatten_grads",
    "param_nbytes",
    "layer_slices",
]


def flatten_params(model: Sequential) -> np.ndarray:
    """Concatenate all parameter values into one float64 vector."""
    params = model.parameters()
    if not params:
        raise ValueError("model has no parameters to flatten")
    return np.concatenate([p.data.ravel().astype(np.float64) for p in params])


def unflatten_params(model: Sequential, flat: np.ndarray) -> None:
    """Write a flat vector back into the model's parameters (in place)."""
    flat = np.asarray(flat)
    expected = model.num_parameters()
    if flat.ndim != 1 or flat.size != expected:
        raise ValueError(
            f"flat vector has {flat.size} entries; model expects {expected}"
        )
    offset = 0
    for p in model.parameters():
        chunk = flat[offset : offset + p.size]
        p.copy_(chunk.reshape(p.shape))
        offset += p.size


def flatten_grads(model: Sequential) -> np.ndarray:
    """Concatenate all parameter gradients into one float64 vector."""
    return np.concatenate([p.grad.ravel().astype(np.float64) for p in model.parameters()])


def param_nbytes(model: Sequential) -> int:
    """Bytes a client transmits when uploading the full model."""
    return sum(p.nbytes for p in model.parameters())


def layer_slices(model: Sequential) -> list[tuple[int, slice]]:
    """``(layer_index, flat_slice)`` for each parametric layer, matching the
    layout of :func:`flatten_params`."""
    out = []
    offset = 0
    for i, params in model.layer_parameters():
        size = sum(p.size for p in params)
        out.append((i, slice(offset, offset + size)))
        offset += size
    return out
