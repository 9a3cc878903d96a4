"""FedClust (paper Alg. 1): one-shot weight-driven client clustering.

Round 0 (``setup``): the server broadcasts θ⁰ to *all* clients; each client
runs a few local epochs and uploads only its strategically selected partial
weights (final layer by default).  The server builds the L2 proximity
matrix M (Eq. 3), runs agglomerative hierarchical clustering ``HC(M, λ)``,
and initializes one model per cluster with θ⁰.

Rounds 1..T: FedAvg within each cluster (Eq. 2) — selected clients report
their cluster id, receive their cluster model, train locally, and upload;
the server averages per cluster.

The server keeps each cluster's partial-weight centroid so newcomers can be
assigned on-the-fly (Alg. 2, :mod:`repro.core.newcomer`).
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.clustered import ClusteredAlgorithm
from repro.clustering.distance import proximity_matrix
from repro.clustering.hierarchical import Dendrogram, agglomerative, largest_gap_threshold
from repro.core.weight_selection import select_weights, selection_nbytes
from repro.fl.execution import ClientTrainSpec, spec_task
from repro.fl.registry import opt, register
from repro.nn.serialization import flatten_params, unflatten_params

__all__ = ["FedClust"]


@register("algorithm", "fedclust", options=[
    opt("lam", float, "auto", choices=("auto",), low=0.0,
        help="dendrogram cut threshold λ, or 'auto' for the largest-gap "
             "heuristic (the paper tunes λ per dataset)"),
    opt("target_clusters", int, None, optional=True, low=1,
        help="cut the dendrogram to exactly this many clusters instead "
             "of thresholding"),
    opt("linkage", str, "average",
        help="agglomerative linkage for HC(M, λ)"),
    opt("metric", str, "euclidean",
        help="proximity metric over partial weight vectors (Eq. 3)"),
    opt("selection", str, "final",
        help="partial-weight strategy (§4.1): which layers clients "
             "upload for clustering"),
    opt("selection_k", int, 2, low=1,
        help="layer count for the k-layer selection strategies"),
    opt("warmup_epochs", int, None, optional=True,
        help="round-0 local epochs before the partial upload (default: "
             "local_epochs)"),
], extras_defaults={"lam": "auto", "linkage": "average"})
class FedClust(ClusteredAlgorithm):
    """The paper's proposed algorithm.

    Knobs (the registered options above, read from ``self.options``):

    * ``lam`` — clustering threshold λ (distance at which merging stops);
    * ``target_clusters`` — alternatively, cut the dendrogram at exactly
      this many clusters (how the experiments emulate the paper's
      per-dataset λ tuning, Fig. 4);
    * ``linkage`` — HC linkage criterion (default ``"average"``);
    * ``metric`` — proximity metric (default ``"euclidean"``, Eq. 3);
    * ``selection`` / ``selection_k`` — partial-weight strategy (§4.1);
    * ``warmup_epochs`` — local epochs before the partial upload.
    """

    name = "fedclust"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        o = self.options
        lam = o["lam"]
        auto = str(lam).strip().lower() == "auto"
        self.lam: float | str = "auto" if auto else float(lam)
        target = o["target_clusters"]
        self.target_clusters = int(target) if target is not None else None
        self.linkage = str(o["linkage"])
        self.metric = str(o["metric"])
        self.selection = str(o["selection"])
        self.selection_k = int(o["selection_k"])
        warmup = o["warmup_epochs"]
        self.warmup_epochs = int(warmup if warmup is not None else self.config.local_epochs)
        self.partial_bytes = selection_nbytes(self.model, self.selection, self.selection_k)
        # θ⁰: the initial global model every client warms up from (Alg. 1
        # line 3).  Captured before any client training touches the shared
        # work model.
        self.theta0 = flatten_params(self.model)
        #: set by setup(): the dendrogram, proximity matrix, and per-cluster
        #: partial-weight centroids (newcomer assignment, Alg. 2)
        self.dendrogram: Dendrogram | None = None
        self.proximity: np.ndarray | None = None
        self.cluster_centroids: np.ndarray | None = None

    # ------------------------------------------------------------------
    # round 0: one-shot clustering
    # ------------------------------------------------------------------
    @spec_task
    def client_partial_weights(self, client_id: int) -> np.ndarray:
        """One client's round-0 contribution: θ⁰ → local SGD → partial
        weights (the only thing uploaded), as :meth:`client_task_specs`
        states it.

        Pure with respect to server state, so the setup sweep over all
        clients can run on any execution backend.  Every client starts from
        θ⁰'s buffers too (``_init_state``), matching Alg. 1 line 3's "the
        server broadcasts θ⁰" for stateful (batch-norm) models.

        Args:
            client_id: the warming-up client.

        Returns:
            The flat partial-weight vector selected by ``self.selection``.
        """
        (partial,) = self._map_clients("client_partial_weights", [(client_id,)])
        return partial

    def client_task_specs(self, method, argslist):
        # The round-0 warm-up is the default local-SGD recipe from θ⁰;
        # only the partial-weight selection differs, and that runs as a
        # postprocessor on the finished update.
        if method != "client_partial_weights":
            return super().client_task_specs(method, argslist)
        return [
            ClientTrainSpec(
                client_id=int(client_id),
                round_idx=0,
                params=self.theta0,
                state=self._init_state,
                epochs=self.warmup_epochs,
                post=self._partial_from_update,
            )
            for (client_id,) in argslist
        ]

    def _partial_from_update(self, update) -> np.ndarray:
        """Select partial weights from a finished warm-up update (the
        shared work model is scratch)."""
        model = self.model
        unflatten_params(model, update.params)
        return select_weights(model, self.selection, self.selection_k)

    def setup(self) -> None:
        """Round 0 (Alg. 1 lines 3-7): warm up every client from θ⁰,
        collect partial weights, cluster, and initialize cluster models.

        The per-client warm-up sweep — the dominant setup cost — runs
        through the active execution backend.
        """
        n = self.fed.num_clients
        for _ in range(n):
            self.comm.record_download(0, self.model_bytes)  # θ⁰ broadcast
            self.comm.record_upload(0, self.partial_bytes)  # partial upload
        partials = self._map_clients(
            "client_partial_weights", [(cid,) for cid in range(n)]
        )
        partial_matrix = np.stack(partials)
        self.proximity = proximity_matrix(partial_matrix, self.metric)
        self.dendrogram = agglomerative(self.proximity, self.linkage)
        if self.target_clusters is not None:
            assignment = self.dendrogram.cut_k(min(self.target_clusters, n))
        elif self.lam == "auto":
            # Data-driven λ (largest merge-height gap) standing in for the
            # paper's per-dataset tuning of λ.
            assignment = self.dendrogram.cut(
                largest_gap_threshold(self.dendrogram, min_clusters=2)
            )
        else:
            assignment = self.dendrogram.cut(float(self.lam))
        self.init_clusters(assignment)
        # Partial-weight centroids for Alg. 2 newcomer assignment.
        self.cluster_centroids = np.stack(
            [
                partial_matrix[assignment == g].mean(axis=0)
                for g in range(self.num_clusters)
            ]
        )

    # ------------------------------------------------------------------
    # newcomer support (Alg. 2) — used by repro.core.newcomer
    # ------------------------------------------------------------------
    def assign_newcomer(self, partial_weights: np.ndarray) -> int:
        """g* = argmin_g dist(θ̂_new, θ̂_g) over stored cluster centroids."""
        if self.cluster_centroids is None:
            raise RuntimeError("setup() has not run; no clusters exist yet")
        partial_weights = np.asarray(partial_weights, dtype=np.float64)
        if partial_weights.shape != (self.cluster_centroids.shape[1],):
            raise ValueError(
                f"partial weights have {partial_weights.shape} entries; "
                f"expected ({self.cluster_centroids.shape[1]},)"
            )
        d = np.linalg.norm(self.cluster_centroids - partial_weights[None, :], axis=1)
        return int(np.argmin(d))

    def assign_joiner(self, client_id: int, key_idx: int) -> int:
        """The paper's live-join path (dynamic populations).

        With ``pop_assign="weights"`` (the default) the joiner runs the
        Alg. 2 probe — train θ⁰ locally, upload partial weights — and is
        assigned to the nearest stored centroid via
        :meth:`assign_newcomer`; the probe's θ⁰ download and partial
        upload are metered like the round-0 traffic.  The ``random`` /
        ``coldstart`` ablations delegate to the generic clustered rule.
        """
        pop = self.population
        mode = pop.assign if pop is not None else "weights"
        if mode != "weights" or self.cluster_centroids is None:
            return super().assign_joiner(client_id, key_idx)
        from repro.core.newcomer import probe_partial_weights

        self.comm.record_download(key_idx, self.model_bytes)
        self.comm.record_upload(key_idx, self.partial_bytes)
        epochs = (
            pop.probe_epochs
            if pop is not None and pop.probe_epochs is not None
            else self.warmup_epochs
        )
        partial = probe_partial_weights(
            self, self.fed[client_id], epochs,
            self.rngs.make("population.probe", client_id),
        )
        return self.assign_newcomer(partial)
