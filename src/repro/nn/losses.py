"""Loss functions: each returns ``(loss, dlogits)`` so callers can backprop."""

from __future__ import annotations

import numpy as np

from repro.utils.maths import softmax

__all__ = [
    "softmax_cross_entropy",
    "softmax_cross_entropy_many",
]


def softmax_cross_entropy(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy over a batch of integer labels.

    Returns the scalar loss and the gradient w.r.t. ``logits`` (already
    divided by batch size, ready to feed into ``model.backward``).
    """
    logits = np.asarray(logits)
    labels = np.asarray(labels).astype(np.int64)
    if logits.ndim != 2:
        raise ValueError(f"expected (N, classes) logits, got {logits.shape}")
    if labels.shape != (logits.shape[0],):
        raise ValueError(
            f"labels shape {labels.shape} incompatible with logits {logits.shape}"
        )
    n = logits.shape[0]
    probs = softmax(logits, axis=1)
    eps = np.finfo(np.float64).tiny
    loss = float(-np.log(probs[np.arange(n), labels] + eps).mean())
    dlogits = probs
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n
    return loss, dlogits.astype(logits.dtype)


def softmax_cross_entropy_many(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Cohort-batched :func:`softmax_cross_entropy`.

    Args:
        logits: ``(C, N, classes)`` stacked logits (one slice per cohort
            member).
        labels: ``(C, N)`` integer labels.

    Returns:
        ``(losses, dlogits)`` where ``losses`` is the ``(C,)`` per-member
        mean loss and ``dlogits`` the ``(C, N, classes)`` gradient, each
        slice exactly the scalar function's math (same eps, same ``1/N``
        scaling, same dtype cast).
    """
    logits = np.asarray(logits)
    labels = np.asarray(labels).astype(np.int64)
    if logits.ndim != 3:
        raise ValueError(f"expected (C, N, classes) logits, got {logits.shape}")
    if labels.shape != logits.shape[:2]:
        raise ValueError(
            f"labels shape {labels.shape} incompatible with logits {logits.shape}"
        )
    c, n = labels.shape
    probs = softmax(logits, axis=-1)
    rows = np.arange(c)[:, None]
    cols = np.arange(n)[None, :]
    eps = np.finfo(np.float64).tiny
    losses = -np.log(probs[rows, cols, labels] + eps).mean(axis=1)
    dlogits = probs
    dlogits[rows, cols, labels] -= 1.0
    dlogits /= n
    return losses, dlogits.astype(logits.dtype)
