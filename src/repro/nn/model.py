"""Model containers: ``Sequential`` chains, residual blocks, and the
cohort-batched :class:`CohortModel` that runs them.

There is one compute path.  :class:`CohortModel` runs a stack of
structurally identical models through the layers' cohort kernels
(``forward_many``/``backward_many``), and a :class:`Sequential`'s own
``forward``/``backward``/``predict`` run it as a cohort of one
(:meth:`Sequential.as_cohort`), on the same parameter storage.  Its
``forward``/``backward`` are where ``(C, N, ch, H, W)`` image batches meet
the layers' ``(C, ch, H, W, N)`` layout: converted once on the way in and
once on the way out, never between layers.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import (
    Conv2d,
    Layer,
    from_kernel_layout,
    keep_where,
    to_kernel_layout,
)
from repro.nn.parameter import Parameter

__all__ = ["Sequential", "Residual", "CohortModel", "PREDICT_ROWS"]

#: rows per evaluation forward in ``predict`` (its default chunk)
PREDICT_ROWS = 256


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

    def bind_cohort(self, cohort: int) -> None:
        for layer in self.body:
            layer.bind_cohort(cohort)

    def state_many(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for i, layer in enumerate(self.body):
            for key, buf in layer.state_many().items():
                out[f"body.{i}.{key}"] = buf
        return out

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
        # the ReLU as ReLU.forward takes it: an integer multiply of the
        # bits by the mask, bitwise np.where(mask, summed, 0.0) without
        # its per-element branch
        return keep_where(summed, mask)

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


def _largest_row_nbytes(layers: list[Layer], x: np.ndarray) -> int:
    """:meth:`Sequential.row_nbytes` over ``layers`` from the one-row,
    one-member input ``x`` in the layers' layout (a Residual's body is
    walked from the block's input)."""
    largest = 0
    for layer in layers:
        out = layer.forward_many(x, train=False)
        largest = max(largest, x.nbytes)
        if isinstance(layer, Conv2d):
            patch = layer.in_channels * layer.kernel_size**2
            largest = max(largest, patch * out[0, 0].size * x.itemsize)
        elif isinstance(layer, Residual):
            largest = max(largest, _largest_row_nbytes(layer.body, x))
        x = out
    return largest


class Sequential:
    """An ordered chain of layers with whole-model forward/backward.

    This is the model object the rest of the library works with: it exposes
    parameter iteration, named-layer access for partial-weight protocols, and
    non-trainable state (batch-norm buffers) for federated synchronization.
    Its compute runs the layers' cohort kernels as a cohort of one
    (:meth:`as_cohort`).
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
    def as_cohort(self) -> "CohortModel":
        """This model as a cohort of one, on its own parameter and buffer
        storage: nothing is copied."""
        return CohortModel(self, 1)

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        return self.as_cohort().forward(x[None], train)[0]

    def backward(self, dout: np.ndarray) -> np.ndarray:
        """Backward with the input gradient (the first layer's dx)."""
        return self.as_cohort().backward(dout[None], need_input_grad=True)[0]

    def predict(self, x: np.ndarray, batch_size: int = PREDICT_ROWS) -> np.ndarray:
        """Evaluation-mode forward in batches; returns logits."""
        return self.as_cohort().predict(x[None], batch_size)[0]

    def row_nbytes(self, sample_shape: tuple[int, ...], dtype) -> int:
        """Bytes of the largest buffer one sample row of one member takes
        in a forward: a layer's input, or a Conv2d's im2col columns
        (``in_ch*k*k*oh*ow`` values).

        Walks one zero row through the model in evaluation mode, so the
        sizes follow the layers' own geometry.  Like any forward, the walk
        replaces the layers' cached activations; it changes no parameter
        or buffer.
        """
        x = np.zeros((1, 1, *sample_shape), dtype=dtype)
        return _largest_row_nbytes(self.layers, to_kernel_layout(x))

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

    Wraps a :class:`Sequential` template whose parameters and buffers it
    sizes to ``cohort`` members (``Parameter.many``: ``(cohort, *shape)``;
    members the template did not hold start as copies of member 0), so one
    batched forward/backward trains every member at once — the compute
    spine of every client task.  The per-client interface is preserved at
    the edges: :meth:`load_flat`/:meth:`flatten` speak the engine's flat
    float64 per-client vectors, and :meth:`states` unstacks per-member
    non-trainable buffers.

    The wrapper owns no storage: it works on the template's, and its
    layer caches are mutated on every call.  A cohort of one over a
    single model (:meth:`Sequential.as_cohort`) is that model; a larger
    cohort resizes the template, so wrap only a template nothing else
    uses.
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
        self.template.zero_grad()

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
        model holding member ``c``'s parameters.
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
        """Batched forward over ``(cohort, N, ...)`` input (images
        ``(cohort, N, ch, H, W)``)."""
        out = to_kernel_layout(x)
        for layer in self.template.layers:
            out = layer.forward_many(out, train)
        return from_kernel_layout(out)

    def backward(self, dout: np.ndarray, need_input_grad: bool = False) -> np.ndarray | None:
        """Cohort backward.  With ``need_input_grad=False`` (the training
        default) the first layer accumulates parameter gradients only and
        skips its dx — for convolutions that drops the input-gradient GEMM
        and the scatter, most of a convolution's backward cost.
        Parameter gradients are bitwise identical either way."""
        grad = to_kernel_layout(dout)
        layers = self.template.layers
        for layer in reversed(layers[1:]):
            grad = layer.backward_many(grad)
        if need_input_grad:
            return from_kernel_layout(layers[0].backward_many(grad))
        layers[0].backward_many_params_only(grad)
        return None

    def predict(self, x: np.ndarray, batch_size: int = PREDICT_ROWS) -> np.ndarray:
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
