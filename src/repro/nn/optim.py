"""Optimizers for local client training.

``SGD`` covers everything the paper's experiments need: momentum, weight
decay, and an optional FedProx proximal term ``(mu/2)||w - w_ref||^2`` folded
into the gradient, which is how FedProx modifies the client objective.
``CohortSGD`` applies the same update to every member of a cohort at once.
"""

from __future__ import annotations

import numpy as np

from repro.nn.model import CohortModel, Sequential

__all__ = ["SGD", "CohortSGD"]


class SGD:
    """Stochastic gradient descent with momentum / weight decay / prox term."""

    def __init__(
        self,
        model: Sequential,
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
        self._velocity = [np.zeros_like(p.data) for p in model.parameters()]
        self._prox_center: list[np.ndarray] | None = None

    def set_prox_center(self, center: list[np.ndarray] | None) -> None:
        """Anchor of the proximal term (the global model in FedProx)."""
        if center is not None:
            params = self.model.parameters()
            if len(center) != len(params):
                raise ValueError(
                    f"prox center has {len(center)} tensors, model has {len(params)}"
                )
            for c, p in zip(center, params):
                if c.shape != p.shape:
                    raise ValueError(
                        f"prox center shape {c.shape} != parameter shape {p.shape}"
                    )
        self._prox_center = center

    def step(self) -> None:
        """Apply one update from the currently accumulated gradients."""
        params = self.model.parameters()
        for i, p in enumerate(params):
            g = p.grad
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            if self.prox_mu and self._prox_center is not None:
                g = g + self.prox_mu * (p.data - self._prox_center[i])
            if self.momentum:
                v = self._velocity[i]
                v *= self.momentum
                v += g
                p.data -= self.lr * v
            else:
                p.data -= self.lr * g

    def zero_grad(self) -> None:
        self.model.zero_grad()

    def reset_state(self) -> None:
        """Clear momentum buffers (clients restart momentum each round)."""
        for v in self._velocity:
            v.fill(0.0)


class CohortSGD:
    """Fused SGD across a cohort of stacked models (:class:`CohortModel`).

    One axpy-style update per *layer tensor* applies every cohort member's
    step at once (the velocity/weight-decay/prox algebra runs on the whole
    ``(cohort, *shape)`` stack).  All arithmetic is elementwise with the
    same operand order and dtypes as :class:`SGD.step`, so for identical
    gradients each member's update is bitwise what its serial counterpart
    would compute.
    """

    def __init__(
        self,
        model: CohortModel,
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
        """Stacked proximal anchor from ``(cohort, P)`` flat vectors."""
        if center_flat is None:
            self._prox_center = None
            return
        center_flat = np.asarray(center_flat)
        expected = (self.model.cohort, self.model.num_params)
        if center_flat.shape != expected:
            raise ValueError(
                f"prox center has shape {center_flat.shape}; expected {expected}"
            )
        center = []
        offset = 0
        for p in self.model.parameters():
            chunk = center_flat[:, offset : offset + p.size]
            center.append(
                chunk.reshape(p.many.shape).astype(p.data.dtype)
            )
            offset += p.size
        self._prox_center = center

    def step(self) -> None:
        """Apply one fused update from the accumulated cohort gradients."""
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
