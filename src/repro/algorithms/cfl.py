"""CFL (Sattler et al., 2020): iterative cosine-similarity bipartitioning.

All clients start in one cluster.  When a cluster's training becomes
stationary — mean client-update norm below ε₁ while some client still moves
more than ε₂ — the server splits it in two by complete-linkage clustering of
the cached client update directions under the cosine metric.  This is the
baseline the paper criticizes for needing many rounds to stabilize clusters.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.clustered import ClusteredAlgorithm
from repro.clustering.distance import proximity_matrix
from repro.clustering.hierarchical import agglomerative
from repro.fl.registry import opt, register
from repro.fl.server import ClientUpdate

__all__ = ["CFL"]


@register("algorithm", "cfl", options=[
    opt("eps1", float, 0.4,
        help="stationarity threshold: mean client-update norm below this "
             "marks a cluster ready to split"),
    opt("eps2", float, 0.6,
        help="split trigger: some client still moving more than this "
             "within a stationary cluster"),
    opt("min_cluster_size", int, 2, low=1,
        help="smallest cluster a bipartition may produce"),
], extras_defaults={"eps1": 0.4, "eps2": 0.6})
class CFL(ClusteredAlgorithm):
    """Sattler et al.'s clustered FL: split a cluster in two when its
    training stalls while clients still disagree (see module docstring)."""

    name = "cfl"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Paper §5.1: eps1 = 0.4, eps2 = 0.6.
        self.eps1 = float(self.options["eps1"])
        self.eps2 = float(self.options["eps2"])
        self.min_cluster_size = int(self.options["min_cluster_size"])

    def setup(self) -> None:
        self.init_clusters(np.zeros(self.fed.num_clients, dtype=np.int64))
        # latest update direction per client (None until first participation)
        self._deltas: list[np.ndarray | None] = [None] * self.fed.num_clients

    def aggregate(self, round_idx: int, updates: list[ClientUpdate]) -> None:
        for u in updates:
            gid = int(self.cluster_of[u.client_id])
            self._deltas[u.client_id] = u.params - self.cluster_params[gid]
        super().aggregate(round_idx, updates)
        self._maybe_split()

    def _maybe_split(self) -> None:
        for gid in range(self.num_clusters):
            members = np.flatnonzero(self.cluster_of == gid)
            known = [c for c in members if self._deltas[c] is not None]
            if len(known) < 2 * self.min_cluster_size:
                continue
            deltas = np.stack([self._deltas[c] for c in known])
            norms = np.linalg.norm(deltas, axis=1)
            mean_norm = float(np.linalg.norm(deltas.mean(axis=0)))
            max_norm = float(norms.max())
            if not (mean_norm < self.eps1 and max_norm > self.eps2):
                continue
            # Bipartition the stationary cluster by cosine distance.
            d = proximity_matrix(deltas, metric="cosine")
            labels = agglomerative(d, linkage="complete").cut_k(2)
            if min((labels == 0).sum(), (labels == 1).sum()) < self.min_cluster_size:
                continue
            new_gid = self.num_clusters
            for c, lab in zip(known, labels):
                if lab == 1:
                    self.cluster_of[c] = new_gid
            self.num_clusters += 1
            self.cluster_params.append(self.cluster_params[gid].copy())
            self.cluster_states.append(
                {k: v.copy() for k, v in self.cluster_states[gid].items()}
            )
