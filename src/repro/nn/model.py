"""Model containers: ``Sequential`` chains, residual blocks, and the
cohort-batched :class:`CohortModel` wrapper used by the vectorized
execution backend."""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Layer, keep_where
from repro.nn.parameter import Parameter

__all__ = ["Sequential", "Residual", "CohortModel"]


class Residual(Layer):
    """``y = relu(x + body(x))`` residual block (identity shortcut).

    The body must preserve the input shape (as in ResNet-9's residual
    stages).
    """

    def __init__(self, *body: Layer):
        if not body:
            raise ValueError("Residual block needs at least one body layer")
        self.body = list(body)
        self._mask: np.ndarray | None = None

    def parameters(self) -> list[Parameter]:
        return [p for layer in self.body for p in layer.parameters()]

    def state(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for i, layer in enumerate(self.body):
            for key, buf in layer.state().items():
                out[f"body.{i}.{key}"] = buf
        return out

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        for key, value in state.items():
            _, idx, sub = key.split(".", 2)
            self.body[int(idx)].load_state({sub: value})

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        out = x
        for layer in self.body:
            out = layer.forward(out, train)
        if out.shape != x.shape:
            raise ValueError(
                f"Residual body changed shape {x.shape} -> {out.shape}; "
                "identity shortcut requires shape preservation"
            )
        summed = out + x
        mask = summed > 0
        if train:
            self._mask = mask
        # the ReLU as ReLU.forward takes it: an integer multiply of the
        # bits by the mask, bitwise np.where(mask, summed, 0.0) without
        # its per-element branch
        return keep_where(summed, mask)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before a training forward pass")
        dsum = dout * self._mask
        dbody = dsum
        for layer in reversed(self.body):
            dbody = layer.backward(dbody)
        return dbody + dsum

    # -- cohort-batched kernel path ---------------------------------------
    def bind_cohort(self, cohort: int) -> None:
        for layer in self.body:
            layer.bind_cohort(cohort)

    def state_many(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for i, layer in enumerate(self.body):
            for key, buf in layer.state_many().items():
                out[f"body.{i}.{key}"] = buf
        return out

    def supports_cohort(self) -> bool:
        return all(layer.supports_cohort() for layer in self.body)

    def forward_many(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        out = x
        for layer in self.body:
            out = layer.forward_many(out, train)
        # the cohort axis may grow from a shared input's 1; the sum broadcasts
        if out.shape[1:] != x.shape[1:]:
            raise ValueError(
                f"Residual body changed shape {x.shape} -> {out.shape}; "
                "identity shortcut requires shape preservation"
            )
        summed = out + x
        mask = summed > 0
        self._mask = mask if train else None
        return keep_where(summed, mask)  # branch-free, as in forward

    def backward_many(self, dout: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before a training forward pass")
        dsum = dout * self._mask
        dbody = dsum
        for layer in reversed(self.body):
            dbody = layer.backward_many(dbody)
        return dbody + dsum

    def __repr__(self) -> str:
        inner = ", ".join(repr(layer) for layer in self.body)
        return f"Residual({inner})"


class Sequential:
    """An ordered chain of layers with whole-model forward/backward.

    This is the model object the rest of the library works with: it exposes
    parameter iteration, named-layer access for partial-weight protocols, and
    non-trainable state (batch-norm buffers) for federated synchronization.
    """

    def __init__(self, *layers: Layer, name: str = "model"):
        if not layers:
            raise ValueError("Sequential needs at least one layer")
        self.layers = list(layers)
        self.name = name

    # -- structure ---------------------------------------------------------
    def parameters(self) -> list[Parameter]:
        return [p for layer in self.layers for p in layer.parameters()]

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def layer_parameters(self) -> list[tuple[int, list[Parameter]]]:
        """Per-layer parameter lists, ``(layer_index, params)``, skipping
        parameter-free layers."""
        out = []
        for i, layer in enumerate(self.layers):
            params = layer.parameters()
            if params:
                out.append((i, params))
        return out

    def final_parametric_layer(self) -> Layer:
        """The last layer that owns parameters (the classifier head for the
        model-zoo networks).  Used by FedClust's partial-weight selection."""
        for layer in reversed(self.layers):
            if layer.parameters():
                return layer
        raise ValueError("model has no parametric layers")

    # -- compute -----------------------------------------------------------
    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        out = x
        for layer in self.layers:
            out = layer.forward(out, train)
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        grad = dout
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def predict(self, x: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Evaluation-mode forward in batches; returns logits."""
        if x.shape[0] <= batch_size:
            # One forward for small sets: skips the single-element
            # concatenate, which would copy the whole logits array.
            return self.forward(x, train=False)
        outs = []
        for start in range(0, x.shape[0], batch_size):
            outs.append(self.forward(x[start : start + batch_size], train=False))
        return np.concatenate(outs, axis=0)

    # -- state -------------------------------------------------------------
    def state(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for i, layer in enumerate(self.layers):
            for key, buf in layer.state().items():
                out[f"{i}.{key}"] = buf
        return out

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        for key, value in state.items():
            idx, sub = key.split(".", 1)
            self.layers[int(idx)].load_state({sub: value})

    def __repr__(self) -> str:
        inner = ",\n  ".join(repr(layer) for layer in self.layers)
        return f"Sequential({self.name!r},\n  {inner}\n)"


class CohortModel:
    """A stack of ``cohort`` structurally identical models, one tensor each.

    Wraps a *private* :class:`Sequential` template whose parameters are
    cohort-bound (``Parameter.many``: ``(cohort, *shape)``), so one batched
    forward/backward trains every member at once — the compute spine of the
    ``vector`` execution backend.  The serial interface is preserved at the
    edges: :meth:`load_flat`/:meth:`flatten` speak the engine's flat float64
    per-client vectors, and :meth:`states` unstacks per-member non-trainable
    buffers.

    The template must be exclusively owned (its regular ``data``/``grad``
    and caches are unused but its cohort storage and layer caches are
    mutated on every call); never wrap an engine's shared work model.
    """

    def __init__(self, template: Sequential, cohort: int):
        if cohort <= 0:
            raise ValueError(f"cohort size must be positive, got {cohort}")
        self.template = template
        self.cohort = int(cohort)
        for layer in template.layers:
            layer.bind_cohort(cohort)
        self.num_params = template.num_parameters()

    # -- structure ---------------------------------------------------------
    def parameters(self) -> list[Parameter]:
        return self.template.parameters()

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad_many()

    def supports_cohort(self) -> bool:
        return all(layer.supports_cohort() for layer in self.template.layers)

    # -- flat-vector interface --------------------------------------------
    def load_flat(self, flat: np.ndarray) -> None:
        """Install ``(cohort, P)`` stacked flat vectors (one per member)."""
        flat = np.asarray(flat)
        if flat.shape != (self.cohort, self.num_params):
            raise ValueError(
                f"expected ({self.cohort}, {self.num_params}) stacked "
                f"parameters, got {flat.shape}"
            )
        offset = 0
        for p in self.parameters():
            chunk = flat[:, offset : offset + p.size]
            np.copyto(
                p.many,
                chunk.reshape((self.cohort,) + p.shape).astype(
                    p.data.dtype, copy=False
                ),
            )
            offset += p.size

    def flatten(self) -> np.ndarray:
        """``(cohort, P)`` float64 stacked flat vectors (one per member).

        Row ``c`` is bitwise what ``flatten_params`` would return for a
        serial model holding member ``c``'s parameters.
        """
        return np.concatenate(
            [
                p.many.reshape(self.cohort, -1).astype(np.float64)
                for p in self.parameters()
            ],
            axis=1,
        )

    # -- compute -----------------------------------------------------------
    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        """Batched forward over ``(cohort, N, ...)`` input."""
        out = x
        for layer in self.template.layers:
            out = layer.forward_many(out, train)
        return out

    def backward(self, dout: np.ndarray, need_input_grad: bool = False) -> np.ndarray | None:
        """Cohort backward.  With ``need_input_grad=False`` (the training
        default) the first layer accumulates parameter gradients only and
        skips its dx — for convolutions that drops the input-gradient GEMM
        and the col2im scatter, most of a convolution's backward cost.
        Parameter gradients are bitwise identical either way."""
        grad = dout
        layers = self.template.layers
        for layer in reversed(layers[1:]):
            grad = layer.backward_many(grad)
        if need_input_grad or not layers:
            if layers:
                grad = layers[0].backward_many(grad)
            return grad
        layers[0].backward_many_params_only(grad)
        return None

    def predict(self, x: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Evaluation-mode forward in chunks along the sample axis."""
        if x.shape[1] <= batch_size:
            return self.forward(x, train=False)
        outs = []
        for start in range(0, x.shape[1], batch_size):
            outs.append(
                self.forward(x[:, start : start + batch_size], train=False)
            )
        return np.concatenate(outs, axis=1)

    # -- state -------------------------------------------------------------
    def state_many(self) -> dict[str, np.ndarray]:
        """Stacked non-trainable buffers, keyed like ``Sequential.state``."""
        out: dict[str, np.ndarray] = {}
        for i, layer in enumerate(self.template.layers):
            for key, buf in layer.state_many().items():
                out[f"{i}.{key}"] = buf
        return out

    def has_state(self) -> bool:
        return bool(self.state_many())

    def load_states(self, states: list[dict[str, np.ndarray]]) -> None:
        """Install per-member state dicts (``Sequential.state`` layout)."""
        if len(states) != self.cohort:
            raise ValueError(
                f"{len(states)} state dicts for a cohort of {self.cohort}"
            )
        for key, buf in self.state_many().items():
            for c, state in enumerate(states):
                np.copyto(buf[c], state[key])

    def states(self) -> list[dict[str, np.ndarray]]:
        """Per-member copies of the non-trainable buffers."""
        many = self.state_many()
        return [
            {key: np.copy(buf[c]) for key, buf in many.items()}
            for c in range(self.cohort)
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CohortModel(cohort={self.cohort}, template={self.template.name!r})"
