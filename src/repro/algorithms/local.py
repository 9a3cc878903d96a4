"""The ``Local`` baseline: every client trains alone, no communication."""

from __future__ import annotations

import numpy as np

from repro.fl.registry import register
from repro.fl.server import ClientUpdate, FederatedAlgorithm
from repro.nn.serialization import flatten_params

__all__ = ["Local"]


@register("algorithm", "local")
class Local(FederatedAlgorithm):
    """Independent per-client training (paper's ``Local`` row).

    Each client keeps its own model across rounds; uploads and downloads
    are zero bytes.  Strong under severe label skew (few local classes)
    and weak when clients lack data — exactly the trade-off the paper uses
    to motivate clustering.
    """

    name = "local"

    def setup(self) -> None:
        init = flatten_params(self.model)
        init_state = {k: v.copy() for k, v in self.model.state().items()}
        self.client_params = [init.copy() for _ in range(self.fed.num_clients)]
        self.client_states = [
            {k: v.copy() for k, v in init_state.items()}
            for _ in range(self.fed.num_clients)
        ]

    def params_for_client(self, client_id: int, round_idx: int) -> np.ndarray:
        return self.client_params[client_id]

    def state_for_client(self, client_id: int, round_idx: int) -> dict:
        return self.client_states[client_id]

    def eval_state_for_client(self, client_id: int) -> dict:
        return self.client_states[client_id]

    def aggregate(self, round_idx: int, updates: list[ClientUpdate]) -> None:
        for u in updates:
            self.client_params[u.client_id] = u.params
            if u.state:
                self.client_states[u.client_id] = u.state

    def download_bytes(self, client_id: int, round_idx: int) -> int:
        return 0

    def upload_bytes(self, client_id: int, round_idx: int) -> int:
        return 0
