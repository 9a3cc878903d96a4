"""Single-global-model baselines: FedAvg, FedProx, FedNova.

These are the "global FL" rows of Tables 1-3.  All three share the engine's
default round shape (download global model, local SGD, upload, aggregate)
and differ only in the client objective (FedProx's proximal term) or the
aggregation rule (FedNova's normalized averaging).
"""

from __future__ import annotations

import numpy as np

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
            [u.params for u in updates], weights
        )
        if updates[0].state:
            self.global_state = self.combine_states(
                [u.state for u in updates], weights
            )


@register("algorithm", "fedprox", options=[
    # the paper tunes μ per dataset; 0.01 is its common default
    opt("prox_mu", float, 0.01, low=0.0,
        help="proximal-term strength μ (0 disables the term)"),
], extras_defaults={"prox_mu": 0.01})
class FedProx(FedAvg):
    """Li et al. (2020): FedAvg plus a proximal term μ/2·||w − w_global||²
    in the local objective.  μ is the ``prox_mu`` option."""

    name = "fedprox"

    def client_task_specs(self, method, argslist):
        # FedProx's update is the default recipe anchored at the
        # downloaded model
        specs = super().client_task_specs(method, argslist)
        if method == "client_update":
            for spec in specs:
                spec.prox_center = spec.params
                spec.prox_mu = float(self.options["prox_mu"])
        return specs


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
