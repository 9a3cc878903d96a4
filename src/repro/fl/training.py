"""Local SGD training routines shared by every algorithm's client update.

The ``*_many`` routines are the implementation: they run one minibatch
schedule for a whole stack of clients at once over a leading cohort axis
(:class:`~repro.nn.model.CohortModel`), drawing each member's shuffles
from its own generator, so a client visits its samples in the same order
alone or in a cohort.  The one-model routines (:func:`local_sgd`,
:func:`evaluate_accuracy`) run them on the model as a cohort of one.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn.losses import softmax_cross_entropy_many
from repro.nn.model import CohortModel, Sequential
from repro.nn.optim import SGD, CohortSGD
from repro.utils.maths import softmax

__all__ = [
    "local_sgd",
    "local_sgd_many",
    "grad_on_batch_many",
    "evaluate_accuracy",
    "evaluate_accuracy_many",
    "evaluate_loss",
    "minibatches",
    "minibatches_many",
]


def grad_on_batch_many(
    model: CohortModel, x: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Flat gradients and mean losses of one training-mode batch per member.

    The building block of the client loops that step on raw gradients
    instead of an optimizer (SCAFFOLD, FedDyn, Per-FedAvg): one cohort
    forward and backward, without the first layer's input gradient.

    Args:
        model: the cohort to differentiate (gradients are overwritten).
        x: ``(cohort, B, ...)`` stacked batch inputs.
        y: ``(cohort, B)`` stacked integer labels.

    Returns:
        ``(grads, losses)``: the ``(cohort, P)`` float64 flat gradients,
        each row laid out as ``flatten_params``, and the ``(cohort,)``
        mean losses.
    """
    model.zero_grad()
    losses, dlogits = softmax_cross_entropy_many(model.forward(x, train=True), y)
    model.backward(dlogits)
    grads = [p.grad_many.reshape(model.cohort, -1) for p in model.parameters()]
    return np.concatenate(grads, axis=1).astype(np.float64), losses


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


def minibatches_many(
    n: int, batch_size: int, rngs: Sequence[np.random.Generator]
) -> list[np.ndarray]:
    """One epoch's minibatches for a cohort of equal-size datasets.

    Step ``s``'s array stacks every member's ``s``-th batch of
    :func:`minibatches`, drawn from its own generator, in ``rngs`` order.

    Returns:
        ``(cohort, b)`` index arrays, one per step.
    """
    batches = [minibatches(n, batch_size, rng) for rng in rngs]
    return [np.stack(step) for step in zip(*batches)]


def local_sgd(
    model: Sequential,
    opt: SGD,
    x: np.ndarray,
    y: np.ndarray,
    epochs: int,
    batch_size: int,
    rng: np.random.Generator,
) -> tuple[float, int]:
    """Run ``epochs`` of minibatch SGD on ``(x, y)``: :func:`local_sgd_many`
    on the model as a cohort of one.

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
    losses, steps = local_sgd_many(
        model.as_cohort(), opt, x[None], y[None], epochs, batch_size, [rng]
    )
    return float(losses[0]), steps


def local_sgd_many(
    model: CohortModel,
    opt: SGD | CohortSGD,
    x: np.ndarray,
    y: np.ndarray,
    epochs: int,
    batch_size: int,
    rngs: list[np.random.Generator],
) -> tuple[np.ndarray, int]:
    """Minibatch SGD for a cohort of clients over stacked datasets.

    Args:
        model: cohort model holding one parameter slice per client.
        opt: optimizer bound to ``model``'s parameters.
        x: ``(cohort, n, ...)`` stacked training inputs (equal ``n``).
        y: ``(cohort, n)`` stacked integer labels.
        epochs: passes over the data (shared across the cohort).
        batch_size: minibatch size (shared across the cohort).
        rngs: one shuffle generator per cohort member, in stack order.
            Each member's epoch permutations come from its own generator,
            so client ``c`` visits samples in exactly the order it would
            in a cohort of one with the same generator.

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
        for idx in minibatches_many(n, batch_size, rngs):
            model.zero_grad()
            logits = model.forward(x[rows, idx], train=True)
            losses, dlogits = softmax_cross_entropy_many(logits, y[rows, idx])
            model.backward(dlogits)
            opt.step()
            total_loss += losses
            steps += 1
    return total_loss / max(steps, 1), steps


def evaluate_accuracy(model: Sequential, x: np.ndarray, y: np.ndarray) -> float:
    """Top-1 accuracy in evaluation mode: :func:`evaluate_accuracy_many`
    on the model as a cohort of one.

    Args:
        model: the model to evaluate (uses ``predict``, i.e. eval mode).
        x: inputs.
        y: integer class labels aligned with ``x`` (non-empty).

    Returns:
        Fraction of samples whose argmax logit matches the label.

    Raises:
        ValueError: on an empty evaluation set.
    """
    accs = evaluate_accuracy_many(model.as_cohort(), x[None], np.asarray(y)[None])
    return float(accs[0])


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
        sizes: for a cohort model (required there), the lengths of
            consecutive sets concatenated in ``x``/``y``.  All sets go
            through one ``predict`` pass, and each member scores each set
            on its own slice of the logits.

    Returns:
        Mean softmax cross-entropy over the set; for a cohort model the
        ``(C, len(sizes))`` table of per-set means, one row per member.

    Raises:
        ValueError: on an empty evaluation set.
    """
    if len(y) == 0 or (sizes is not None and not all(sizes)):
        raise ValueError("cannot evaluate on an empty set")
    logits = model.predict(x)
    if not isinstance(model, CohortModel):
        return float(_mean_nll(logits[None], y, [len(y)])[0, 0])
    return _mean_nll(logits, y, sizes)


def _mean_nll(
    logits: np.ndarray, y: np.ndarray, sizes: Sequence[int]
) -> np.ndarray:
    """``(C, len(sizes))`` mean cross-entropy of each member on each set.

    One softmax over the ``(C, N, classes)`` logits, then each set's mean
    of ``-log(p + eps)`` over its contiguous rows: bit for bit the loss
    :func:`softmax_cross_entropy` returns for that member's slice, without
    building its gradient.
    """
    probs = softmax(logits, axis=-1)
    eps = np.finfo(np.float64).tiny
    # all-advanced indexing keeps the (C, N) pick C-ordered, so each set's
    # mean reduces a contiguous run pairwise, as the scalar loss does
    members = np.arange(len(probs))[:, None]
    rows = np.arange(len(y))[None, :]
    logp = np.log(probs[members, rows, np.asarray(y, dtype=np.int64)] + eps)
    ends = np.cumsum(sizes)
    return np.stack(
        [-logp[:, end - n : end].mean(axis=1) for n, end in zip(sizes, ends)],
        axis=1,
    )


def evaluate_accuracy_many(
    model: CohortModel, x: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """Top-1 accuracy of each member of a cohort, over stacked test sets.

    Args:
        model: cohort model holding one parameter slice per client.
        x: ``(cohort, n, ...)`` stacked inputs (equal per-member ``n``).
        y: ``(cohort, n)`` stacked integer labels.

    Returns:
        ``(cohort,)`` per-member top-1 accuracy.

    Raises:
        ValueError: on an empty evaluation set.
    """
    if y.shape[1] == 0:
        raise ValueError("cannot evaluate on an empty set")
    logits = model.predict(x)
    return (logits.argmax(axis=-1) == y).mean(axis=1)
