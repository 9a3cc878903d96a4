"""Single-global-model baselines: FedAvg, FedProx, FedNova.

These are the "global FL" rows of Tables 1-3.  All three share the engine's
default round shape (download global model, local SGD, upload, aggregate)
and differ only in the client objective (FedProx's proximal term) or the
aggregation rule (FedNova's normalized averaging).
"""

from __future__ import annotations

import numpy as np

from repro.fl.execution import ClientTrainSpec
from repro.fl.registry import opt, register
from repro.fl.server import ClientUpdate, FederatedAlgorithm, average_states
from repro.nn.serialization import flatten_params

__all__ = ["FedAvg", "FedProx", "FedNova"]


@register("algorithm", "fedavg")
class FedAvg(FederatedAlgorithm):
    """McMahan et al. (2017): weighted averaging of client models."""

    name = "fedavg"
    # aggregate() is a plain weighted combine over the cohort, so edge
    # pre-reduction under topology="hier" preserves the method
    supports_hier = True

    def setup(self) -> None:
        self.global_params = flatten_params(self.model)
        self.global_state = {k: v.copy() for k, v in self.model.state().items()}

    def params_for_client(self, client_id: int, round_idx: int) -> np.ndarray:
        return self.global_params

    def state_for_client(self, client_id: int, round_idx: int) -> dict:
        return self.global_state

    def eval_state_for_client(self, client_id: int) -> dict:
        return self.global_state

    def aggregate(self, round_idx: int, updates: list[ClientUpdate]) -> None:
        if not updates:
            return
        weights = [u.n_samples for u in updates]
        self.global_params = self.combine(
            [u.params for u in updates], weights, ref=self.global_params
        )
        if updates[0].state:
            self.global_state = self.combine_states(
                [u.state for u in updates], weights
            )


@register("algorithm", "fedprox", options=[
    opt("prox_mu", float, 0.0, low=0.0,
        help="proximal-term strength μ (0 falls back to the paper's "
             "common default 0.01)"),
], extras_defaults={"prox_mu": 0.01})
class FedProx(FedAvg):
    """Li et al. (2020): FedAvg plus a proximal term μ/2·||w − w_global||²
    in the local objective.  μ comes from ``config.extra["prox_mu"]``."""

    name = "fedprox"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if float(self.config.extra.get("prox_mu", 0.0)) <= 0.0:
            # The paper tunes mu per dataset; 0.01 is its common default.
            self.config = self.config.with_extra(prox_mu=0.01)

    def client_update(self, client_id: int, round_idx: int) -> ClientUpdate:
        params = self.params_for_client(client_id, round_idx)
        return self.local_train(
            client_id, round_idx, params,
            state=self.state_for_client(client_id, round_idx),
            prox_center=params,
        )

    def client_task_spec(self, method, args):
        # FedProx's client loop is the default recipe anchored at the
        # downloaded model, so the vector backend can batch it.
        if method != "client_update":
            return super().client_task_spec(method, args)
        cls = type(self)
        if (
            cls.client_update is not FedProx.client_update
            or cls.local_train is not FederatedAlgorithm.local_train
        ):
            return None
        client_id, round_idx = args
        params = self.params_for_client(client_id, round_idx)
        return ClientTrainSpec(
            client_id=int(client_id),
            round_idx=int(round_idx),
            params=params,
            state=self.state_for_client(client_id, round_idx),
            prox_center=params,
        )


@register("algorithm", "fednova")
class FedNova(FedAvg):
    """Wang et al. (2020): normalize client updates by their local step
    counts so clients with more data/steps do not bias the global model.

    The normalized-direction algebra *is* the method, so FedNova keeps
    its own aggregation and does not route through the configurable
    ``aggregator`` family (like FedDyn; see ``docs/architecture.md``).
    """

    name = "fednova"
    # the normalized-direction algebra needs every member's own tau, so
    # edge summaries would change the method — hier is rejected
    supports_hier = False

    def aggregate(self, round_idx: int, updates: list[ClientUpdate]) -> None:
        if not updates:
            return
        weights = np.array([u.n_samples for u in updates], dtype=np.float64)
        p = weights / weights.sum()
        taus = np.array([max(u.steps, 1) for u in updates], dtype=np.float64)
        # normalized update directions d_i = (w_global - w_i) / tau_i
        tau_eff = float((p * taus).sum())
        combined = np.zeros_like(self.global_params)
        for pi, tau, u in zip(p, taus, updates):
            combined += pi * (self.global_params - u.params) / tau
        self.global_params = self.global_params - tau_eff * combined
        if updates[0].state:
            self.global_state = average_states(
                [u.state for u in updates], list(weights)
            )
