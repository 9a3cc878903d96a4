"""LG-FedAvg (Liang et al., 2020): local representation + global head.

Each client keeps its first ``num_local_layers`` parametric layers private
and only exchanges the remaining (global) layers with the server — hence
its tiny communication footprint in Table 5.  The paper's setup uses 3
local and 2 global layers on LeNet-5.
"""

from __future__ import annotations

import numpy as np

from repro.fl.registry import opt, register
from repro.fl.server import ClientUpdate, FederatedAlgorithm
from repro.nn.serialization import flatten_params, layer_slices

__all__ = ["LGFedAvg"]


@register("algorithm", "lg", options=[
    opt("num_local_layers", int, None, optional=True,
        help="parametric layers kept client-local (default: all but the "
             "last two)"),
])
class LGFedAvg(FederatedAlgorithm):
    """Local representation layers + globally averaged head (see module
    docstring); the ``num_local_layers`` option sets the split."""

    name = "lg"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        slices = layer_slices(self.model)
        n_param_layers = len(slices)
        n_local = self.options["num_local_layers"]
        n_local = int(n_local if n_local is not None else max(n_param_layers - 2, 1))
        if not 0 < n_local < n_param_layers:
            raise ValueError(
                f"num_local_layers must be in (0, {n_param_layers}), got {n_local}"
            )
        self.num_local_layers = n_local
        # The global segment is the tail of the flat vector (layer_slices
        # are contiguous and ordered).
        self._global_slice = slice(slices[n_local][1].start, slices[-1][1].stop)
        dtype_bytes = self.model.parameters()[0].data.itemsize
        self._global_bytes = int(
            (self._global_slice.stop - self._global_slice.start) * dtype_bytes
        )

    def setup(self) -> None:
        init = flatten_params(self.model)
        # Paper §5.1: models are initialized randomly per client for LG
        # (instead of warm-starting from many FedAvg rounds).
        self.client_params = []
        for cid in range(self.fed.num_clients):
            m = self.model_fn(self.rngs.make("lg_init", cid))
            self.client_params.append(flatten_params(m))
        self.global_part = init[self._global_slice].copy()
        init_state = {k: v.copy() for k, v in self.model.state().items()}
        self.client_states = [
            {k: v.copy() for k, v in init_state.items()}
            for _ in range(self.fed.num_clients)
        ]

    def params_for_client(self, client_id: int, round_idx: int) -> np.ndarray:
        params = self.client_params[client_id].copy()
        params[self._global_slice] = self.global_part
        return params

    def state_for_client(self, client_id: int, round_idx: int) -> dict:
        return self.client_states[client_id]

    def eval_state_for_client(self, client_id: int) -> dict:
        return self.client_states[client_id]

    def aggregate(self, round_idx: int, updates: list[ClientUpdate]) -> None:
        if not updates:
            return
        for u in updates:
            self.client_params[u.client_id] = u.params
            if u.state:
                self.client_states[u.client_id] = u.state
        weights = [u.n_samples for u in updates]
        self.global_part = self.combine(
            [u.params[self._global_slice] for u in updates], weights
        )

    def download_bytes(self, client_id: int, round_idx: int) -> int:
        return self._global_bytes

    def upload_bytes(self, client_id: int, round_idx: int) -> int:
        return self._global_bytes

    def wire_slice(self) -> slice:
        # Only the global head crosses the wire; the local representation
        # layers never leave the client, so a lossy codec must not touch
        # them.
        return self._global_slice

    def wire_payload_bytes(self) -> int:
        return self._global_bytes
