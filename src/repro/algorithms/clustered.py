"""Shared machinery for clustered federated learning algorithms.

A ``ClusteredAlgorithm`` maintains a client→cluster assignment and one model
per cluster; each round trains and averages within clusters (paper Eq. 2 /
Alg. 1 line 14).  FedClust, PACFL, IFCA and CFL specialize how the
assignment is produced and updated.
"""

from __future__ import annotations

import numpy as np

from repro.fl.server import ClientUpdate, FederatedAlgorithm
from repro.nn.serialization import flatten_params

__all__ = ["ClusteredAlgorithm"]


class ClusteredAlgorithm(FederatedAlgorithm):
    """Base for algorithms that train one model per client cluster."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # θ⁰, captured before any client training touches the shared work
        # model: all cluster models must start from the *initial* weights
        # (Alg. 1 line 7), not from whatever the work model holds after a
        # warm-up loop.
        self._init_params = flatten_params(self.model)
        self._init_state = {k: v.copy() for k, v in self.model.state().items()}

    def init_clusters(self, assignment: np.ndarray) -> None:
        """Install a cluster assignment and initialize per-cluster models.

        All cluster models start from the same θ⁰ (Alg. 1 line 7), so any
        accuracy differences come from the grouping, not initialization.
        """
        assignment = np.asarray(assignment, dtype=np.int64)
        if assignment.shape != (self.fed.num_clients,):
            raise ValueError(
                f"assignment must map all {self.fed.num_clients} clients, "
                f"got shape {assignment.shape}"
            )
        if assignment.min() < 0:
            raise ValueError("cluster ids must be non-negative")
        self.cluster_of = assignment.copy()
        self.num_clusters = int(assignment.max()) + 1
        self.cluster_params = [self._init_params.copy() for _ in range(self.num_clusters)]
        self.cluster_states = [
            {k: v.copy() for k, v in self._init_state.items()}
            for _ in range(self.num_clusters)
        ]

    # ------------------------------------------------------------------
    def params_for_client(self, client_id: int, round_idx: int) -> np.ndarray:
        return self.cluster_params[self.cluster_of[client_id]]

    def state_for_client(self, client_id: int, round_idx: int) -> dict:
        return self.cluster_states[self.cluster_of[client_id]]

    def eval_state_for_client(self, client_id: int) -> dict:
        return self.cluster_states[self.cluster_of[client_id]]

    def aggregate(self, round_idx: int, updates: list[ClientUpdate]) -> None:
        """Per-cluster aggregation through the configured rule (the
        default ``weighted`` rule is the paper's sample-weighted mean;
        robust rules defend each cluster independently)."""
        by_cluster: dict[int, list[ClientUpdate]] = {}
        for u in updates:
            by_cluster.setdefault(int(self.cluster_of[u.client_id]), []).append(u)
        for gid, members in by_cluster.items():
            weights = [u.n_samples for u in members]
            self.cluster_params[gid] = self.combine(
                [u.params for u in members], weights
            )
            if members[0].state:
                self.cluster_states[gid] = self.combine_states(
                    [u.state for u in members], weights
                )

    # ------------------------------------------------------------------
    # dynamic populations (:mod:`repro.fl.population`)
    # ------------------------------------------------------------------
    def assign_joiner(self, client_id: int, key_idx: int) -> int:
        """Cluster for a client joining mid-run (population ``join``).

        The generic rule set: a client the round-0 assignment already
        covered (IFCA/CFL assign everyone up front) keeps its cluster;
        otherwise ``pop_assign`` picks ``coldstart`` (the largest
        existing cluster, no probe) or a seeded uniform draw —
        ``random``, and the fallback for ``weights`` on algorithms
        without stored centroids.  FedClust overrides this with the
        paper's Alg. 2 weight-distance rule.
        """
        if client_id < len(self.cluster_of):
            return int(self.cluster_of[client_id])
        mode = self.population.assign if self.population is not None else "random"
        if mode == "coldstart":
            return int(np.argmax(np.bincount(self.cluster_of, minlength=self.num_clusters)))
        return int(self.rngs.make("population.assign", client_id).integers(self.num_clusters))

    def on_join(self, client_id: int, key_idx: int) -> dict:
        """Grow the assignment to cover a joining client."""
        gid = self.assign_joiner(client_id, key_idx)
        if client_id >= len(self.cluster_of):
            grown = np.zeros(client_id + 1, dtype=np.int64)
            grown[: len(self.cluster_of)] = self.cluster_of
            self.cluster_of = grown
        self.cluster_of[client_id] = gid
        return {"cluster": int(gid)}

    def cluster_sizes(self) -> np.ndarray:
        return np.bincount(self.cluster_of, minlength=self.num_clusters)
