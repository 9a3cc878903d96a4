"""Optimizers for local client training.

One SGD update covers everything the paper's experiments need: momentum,
weight decay, and an optional FedProx proximal term
``(mu/2)||w - w_ref||^2`` folded into the gradient, which is how FedProx
modifies the client objective.  It runs on the stacked ``(C, *shape)``
parameter storage, so one axpy-style update per layer tensor steps every
member of a cohort at once.  ``SGD`` binds it to a :class:`Sequential`
(a cohort of one) and ``CohortSGD`` to a :class:`CohortModel`; the two
names share every method, ``step`` included, and stay apart only so that
a trace can tell a single model's steps from a cohort's.
"""

from __future__ import annotations

import numpy as np

from repro.nn.model import CohortModel, Sequential

__all__ = ["SGD", "CohortSGD"]


class _StackedSGD:
    """Stochastic gradient descent with momentum / weight decay / prox term,
    over every member of a model's stacked parameters."""

    def __init__(
        self,
        model: Sequential | CohortModel,
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
        prox_mu: float = 0.0,
    ):
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        if weight_decay < 0 or prox_mu < 0:
            raise ValueError("weight_decay and prox_mu must be non-negative")
        self.model = model
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.prox_mu = prox_mu
        self._velocity = [np.zeros_like(p.many) for p in model.parameters()]
        self._prox_center: list[np.ndarray] | None = None

    def set_prox_center(self, center_flat: np.ndarray | None) -> None:
        """Anchor of the proximal term (the global model in FedProx), from
        ``(C, P)`` stacked flat vectors, one per member."""
        if center_flat is None:
            self._prox_center = None
            return
        center_flat = np.asarray(center_flat)
        params = self.model.parameters()
        expected = (len(params[0].many), sum(p.size for p in params))
        if center_flat.shape != expected:
            raise ValueError(
                f"prox center has shape {center_flat.shape}; expected {expected}"
            )
        center = []
        offset = 0
        for p in params:
            chunk = center_flat[:, offset : offset + p.size]
            center.append(chunk.reshape(p.many.shape).astype(p.data.dtype))
            offset += p.size
        self._prox_center = center

    def step(self) -> None:
        """Apply one update from the accumulated gradients, to every member."""
        for i, p in enumerate(self.model.parameters()):
            g = p.grad_many
            if self.weight_decay:
                g = g + self.weight_decay * p.many
            if self.prox_mu and self._prox_center is not None:
                g = g + self.prox_mu * (p.many - self._prox_center[i])
            if self.momentum:
                v = self._velocity[i]
                v *= self.momentum
                v += g
                p.many -= self.lr * v
            else:
                p.many -= self.lr * g

    def zero_grad(self) -> None:
        self.model.zero_grad()

    def reset_state(self) -> None:
        """Clear momentum buffers (clients restart momentum each round)."""
        for v in self._velocity:
            v.fill(0.0)


class SGD(_StackedSGD):
    """SGD over a :class:`Sequential`'s parameters (a cohort of one)."""


class CohortSGD(_StackedSGD):
    """Fused SGD across a cohort of stacked models (:class:`CohortModel`):
    each member's update is bitwise what a cohort of one holding that
    member would compute from the same gradients."""
