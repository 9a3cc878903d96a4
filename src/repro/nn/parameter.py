"""Trainable parameter container for the NumPy deep-learning framework."""

from __future__ import annotations

import numpy as np

__all__ = ["Parameter"]


class Parameter:
    """A named trainable tensor of a cohort of models, with its gradient.

    The one storage is stacked: ``many``/``grad_many`` hold ``(C, *shape)``
    values and gradients, one slice per cohort member, and every layer
    kernel reads and writes them.  A model's parameters start as a cohort
    of one; :meth:`bind_cohort` resizes the stack.  ``data``/``grad`` are
    views of member 0, so a single model (``C=1``) reads and writes its
    values through them with no copy between two stores.  Layers write
    into the gradients during ``backward`` and optimizers read/clear them;
    values and gradients always share dtype and shape.
    """

    __slots__ = ("name", "many", "grad_many", "data", "grad")

    def __init__(self, data: np.ndarray, name: str = "param"):
        self.name = name
        self._stack(np.ascontiguousarray(data)[None])

    def _stack(self, many: np.ndarray) -> None:
        self.many = many
        self.grad_many = np.zeros_like(many)
        self.data = many[0]
        self.grad = self.grad_many[0]

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return int(self.data.size)

    @property
    def nbytes(self) -> int:
        """Bytes occupied by one member's value (what a client would
        transmit)."""
        return int(self.data.nbytes)

    def zero_grad(self) -> None:
        self.grad_many.fill(0.0)

    def bind_cohort(self, cohort: int) -> None:
        """Resize the stack to ``cohort`` members, each a copy of member 0
        (a no-op at the current size)."""
        if cohort <= 0:
            raise ValueError(f"cohort size must be positive, got {cohort}")
        if cohort != len(self.many):
            self._stack(np.repeat(self.many[:1], cohort, axis=0))

    def copy_(self, value: np.ndarray) -> None:
        """In-place overwrite of member 0's value (keeps optimizer state
        views valid)."""
        value = np.asarray(value, dtype=self.data.dtype)
        if value.shape != self.data.shape:
            raise ValueError(
                f"shape mismatch assigning to parameter {self.name!r}: "
                f"{value.shape} != {self.data.shape}"
            )
        np.copyto(self.data, value)

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.data.shape}, dtype={self.data.dtype})"
