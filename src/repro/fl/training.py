"""Local SGD training routines shared by every algorithm's client update.

The ``*_many`` variants are the cohort-batched counterparts used by the
``vector`` execution backend: they run the same minibatch schedule for a
whole stack of clients at once over a leading cohort axis, drawing each
member's shuffles from its own generator so the visit order per client is
identical to the serial loop.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn.losses import softmax_cross_entropy, softmax_cross_entropy_many
from repro.nn.model import CohortModel, Sequential
from repro.nn.optim import SGD, CohortSGD
from repro.nn.serialization import flatten_grads

__all__ = [
    "local_sgd",
    "local_sgd_many",
    "grad_on_batch",
    "evaluate_accuracy",
    "evaluate_accuracy_many",
    "evaluate_loss",
    "minibatches",
]


def grad_on_batch(
    model: Sequential, x: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, float]:
    """Flat gradient and mean loss of one training-mode batch.

    The shared building block for algorithms that step on raw gradients
    instead of an optimizer (SCAFFOLD, FedDyn, Per-FedAvg).  All scratch
    lives in ``model``.

    Args:
        model: the model to differentiate (gradients are overwritten).
        x: batch inputs.
        y: integer class labels aligned with ``x``.

    Returns:
        ``(flat_gradient, mean_loss)`` for the batch.
    """
    model.zero_grad()
    logits = model.forward(x, train=True)
    loss, dlogits = softmax_cross_entropy(logits, y)
    model.backward(dlogits)
    return flatten_grads(model), loss


def minibatches(
    n: int, batch_size: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """Shuffled minibatch index arrays covering ``0..n-1`` once.

    Args:
        n: dataset size (must be positive).
        batch_size: maximum batch size (the last batch may be smaller).
        rng: generator supplying the shuffle.

    Returns:
        Index arrays partitioning the permutation of ``0..n-1``.

    Raises:
        ValueError: if ``n <= 0``.
    """
    if n <= 0:
        raise ValueError(f"need at least one sample, got {n}")
    perm = rng.permutation(n)
    return [perm[s : s + batch_size] for s in range(0, n, batch_size)]


def local_sgd(
    model: Sequential,
    opt: SGD,
    x: np.ndarray,
    y: np.ndarray,
    epochs: int,
    batch_size: int,
    rng: np.random.Generator,
) -> tuple[float, int]:
    """Run ``epochs`` of minibatch SGD on ``(x, y)``.

    Args:
        model: the model to train in place.
        opt: optimizer bound to ``model``.
        x: training inputs.
        y: integer class labels aligned with ``x``.
        epochs: passes over the data.
        batch_size: minibatch size (see :func:`minibatches`).
        rng: generator driving the per-epoch shuffles.

    Returns:
        ``(mean_loss, num_steps)``; the step count feeds FedNova's
        normalized aggregation.
    """
    total_loss = 0.0
    steps = 0
    for _ in range(epochs):
        for batch in minibatches(len(y), batch_size, rng):
            model.zero_grad()
            logits = model.forward(x[batch], train=True)
            loss, dlogits = softmax_cross_entropy(logits, y[batch])
            model.backward(dlogits)
            opt.step()
            total_loss += loss
            steps += 1
    return total_loss / max(steps, 1), steps


def local_sgd_many(
    model: CohortModel,
    opt: CohortSGD,
    x: np.ndarray,
    y: np.ndarray,
    epochs: int,
    batch_size: int,
    rngs: list[np.random.Generator],
) -> tuple[np.ndarray, int]:
    """Cohort-batched :func:`local_sgd` over stacked client datasets.

    Args:
        model: cohort model holding one parameter slice per client.
        x: ``(cohort, n, ...)`` stacked training inputs (equal ``n``).
        y: ``(cohort, n)`` stacked integer labels.
        epochs: passes over the data (shared across the cohort).
        batch_size: minibatch size (shared across the cohort).
        rngs: one shuffle generator per cohort member, in stack order.
            Each member's epoch permutations come from its own generator,
            so client ``c`` visits samples in exactly the order the serial
            loop would with the same generator.

    Returns:
        ``(mean_losses, num_steps)`` where ``mean_losses`` is the ``(cohort,)``
        per-member mean loss and ``num_steps`` the shared step count (equal
        ``n`` and ``batch_size`` imply the same schedule for every member).
    """
    cohort, n = y.shape
    if len(rngs) != cohort:
        raise ValueError(f"{len(rngs)} generators for a cohort of {cohort}")
    total_loss = np.zeros(cohort)
    steps = 0
    rows = np.arange(cohort)[:, None]
    for _ in range(epochs):
        batches = [minibatches(n, batch_size, rng) for rng in rngs]
        for s in range(len(batches[0])):
            idx = np.stack([b[s] for b in batches])
            model.zero_grad()
            logits = model.forward(x[rows, idx], train=True)
            losses, dlogits = softmax_cross_entropy_many(logits, y[rows, idx])
            model.backward(dlogits)
            opt.step()
            total_loss += losses
            steps += 1
    return total_loss / max(steps, 1), steps


def evaluate_accuracy(model: Sequential, x: np.ndarray, y: np.ndarray) -> float:
    """Top-1 accuracy in evaluation mode.

    Args:
        model: the model to evaluate (uses ``predict``, i.e. eval mode).
        x: inputs.
        y: integer class labels aligned with ``x`` (non-empty).

    Returns:
        Fraction of samples whose argmax logit matches the label.

    Raises:
        ValueError: on an empty evaluation set.
    """
    if len(y) == 0:
        raise ValueError("cannot evaluate on an empty set")
    logits = model.predict(x)
    return float((logits.argmax(axis=1) == y).mean())


def evaluate_loss(
    model: Sequential | CohortModel,
    x: np.ndarray,
    y: np.ndarray,
    sizes: Sequence[int] | None = None,
) -> float | np.ndarray:
    """Mean cross-entropy in evaluation mode (IFCA's cluster scoring).

    Args:
        model: the model to evaluate (uses ``predict``, i.e. eval mode),
            or a cohort model whose members all score the same rows.
        x: inputs; for a cohort model the shared ``(1, N, ...)`` input.
        y: integer class labels aligned with the ``N`` rows (non-empty).
        sizes: lengths of consecutive sets concatenated in ``x``/``y``
            (required for a cohort model).  All sets go through one
            ``predict`` pass and each is scored on its own slice of the
            logits, so a single set returns the value the plain call
            does, bit for bit.

    Returns:
        Mean softmax cross-entropy over the set, or with ``sizes`` the
        ``(len(sizes),)`` per-set means; for a cohort model the
        ``(C, len(sizes))`` table, one row per member.

    Raises:
        ValueError: on an empty evaluation set.
    """
    if len(y) == 0 or (sizes is not None and not all(sizes)):
        raise ValueError("cannot evaluate on an empty set")
    logits = model.predict(x)
    if sizes is None:
        loss, _ = softmax_cross_entropy(logits, y)
        return loss
    bounds = np.cumsum(sizes)[:-1]
    labels = np.split(y, bounds)

    def per_set(member_logits: np.ndarray) -> np.ndarray:
        return np.array([
            softmax_cross_entropy(part, lab)[0]
            for part, lab in zip(np.split(member_logits, bounds), labels)
        ])

    if isinstance(model, CohortModel):
        return np.stack([per_set(member) for member in logits])
    return per_set(logits)


def evaluate_accuracy_many(
    model: CohortModel, x: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """Cohort-batched :func:`evaluate_accuracy` over stacked test sets.

    Args:
        model: cohort model holding one parameter slice per client.
        x: ``(cohort, n, ...)`` stacked inputs (equal per-member ``n``).
        y: ``(cohort, n)`` stacked integer labels.

    Returns:
        ``(cohort,)`` per-member top-1 accuracy; each slice is the value
        :func:`evaluate_accuracy` would return for that member alone
        (modulo the batched path's float accumulation order).
    """
    if y.shape[1] == 0:
        raise ValueError("cannot evaluate on an empty set")
    logits = model.predict(x)
    return (logits.argmax(axis=-1) == y).mean(axis=1)
