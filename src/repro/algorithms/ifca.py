"""IFCA (Ghosh et al., 2020): iterative federated clustering with a fixed
number of cluster models.

Every round each selected client downloads *all* k cluster models (the
k-fold download is why IFCA's Table-5 communication cost is high), picks
the one with the lowest empirical loss on its local training data, trains
it, and uploads the result tagged with the chosen cluster id.

The argmin scores all k models at once: they are stacked into one
k-member cohort model, and the clients' concatenated training rows go
through it as a single shared input (:meth:`IFCA._best_clusters`).  Under
the ``vector`` backend a whole dispatch is assigned in that one pass and
then trains or evaluates as ordinary default-recipe cohort tasks
(:meth:`IFCA.client_task_specs`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.algorithms.clustered import ClusteredAlgorithm
from repro.fl.execution import ClientEvalSpec, ClientTrainSpec, run_spec, spec_task
from repro.fl.registry import opt, register
from repro.fl.server import ClientUpdate
from repro.fl.training import evaluate_loss
from repro.nn.model import CohortModel
from repro.nn.serialization import unflatten_params

__all__ = ["IFCA"]


@register("algorithm", "ifca", options=[
    opt("num_clusters", int, 4, low=1,
        help="number of fixed cluster models k (every client downloads "
             "all k per round)"),
], extras_defaults={"num_clusters": 4})
class IFCA(ClusteredAlgorithm):
    """Iterative federated clustering with k fixed cluster models (see
    module docstring); the ``num_clusters`` option sets k."""

    name = "ifca"

    #: the scorer is rebuilt from ``model_fn``, not algorithm state
    _ENGINE_STATE_ATTRS = ClusteredAlgorithm._ENGINE_STATE_ATTRS | {"_scorer"}

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.k = int(self.options["num_clusters"])
        scorer = CohortModel(self.model_fn(self.rngs.make("model_init")), self.k)
        #: the k cluster models as one cohort, scoring them in one pass;
        #: None when a layer lacks cohort kernels (then one model at a time)
        self._scorer = scorer if scorer.supports_cohort() else None

    def setup(self) -> None:
        # Start every client in cluster 0 (assignments are recomputed each
        # round anyway), but give each cluster its own random init — IFCA
        # needs distinct models for the argmin to break symmetry.
        self.init_clusters(np.zeros(self.fed.num_clients, dtype=np.int64))
        self.num_clusters = self.k
        self.cluster_params = []
        self.cluster_states = []
        for j in range(self.k):
            m = self.model_fn(self.rngs.make("ifca_init", j))
            from repro.nn.serialization import flatten_params

            self.cluster_params.append(flatten_params(m))
            self.cluster_states.append({key: v.copy() for key, v in m.state().items()})

    def _best_clusters(self, client_ids: Sequence[int]) -> list[int]:
        """argmin over cluster models of each client's local training loss.

        Every client scores the same k models, so the clients' train
        shards are concatenated and go through one ``predict`` of the
        k-member scorer as a shared ``(1, N, ...)`` input: the first
        convolution gathers its patches once for all k models.  Each
        client takes the mean loss on its own slice.  A non-finite loss
        ranks last, so a diverged cluster model captures no client; ties
        go to the lowest index.
        """
        clients = [self.fed[cid] for cid in client_ids]
        x = np.concatenate([c.train_x for c in clients])
        y = np.concatenate([c.train_y for c in clients])
        sizes = [len(c.train_y) for c in clients]
        scorer = self._scorer
        with self.telemetry.span(
            "ifca_assign", cat="algorithm", clients=len(clients), models=self.k
        ):
            if scorer is not None:
                scorer.load_flat(np.stack(self.cluster_params))
                if scorer.has_state():
                    scorer.load_states(self.cluster_states)
                losses = evaluate_loss(scorer, x[None], y, sizes)
            else:
                losses = np.empty((self.k, len(clients)))
                for j in range(self.k):
                    unflatten_params(self.model, self.cluster_params[j])
                    if self.cluster_states[j]:
                        self.model.load_state(self.cluster_states[j])
                    losses[j] = evaluate_loss(self.model, x, y, sizes)
        losses[~np.isfinite(losses)] = np.inf
        return [int(j) for j in losses.argmin(axis=0)]

    def _best_cluster(self, client_id: int) -> int:
        """argmin over cluster models of local training loss."""
        return self._best_clusters([client_id])[0]

    def client_task_specs(self, method, argslist):
        # Every IFCA task is the default recipe run on the client's argmin
        # cluster: assign the whole dispatch in one scoring pass, then let
        # ``post`` report the chosen cluster.  Tasks stay pure w.r.t.
        # server state (execution contract): an update carries its cluster
        # in ``extras`` and ``aggregate`` records it.
        if method not in ("client_update", "evaluate_client",
                          "_evaluate_with_cluster"):
            return super().client_task_specs(method, argslist)
        best = self._best_clusters([int(args[0]) for args in argslist])
        if method == "client_update":
            return [
                ClientTrainSpec(
                    client_id=int(client_id),
                    round_idx=int(round_idx),
                    params=self.cluster_params[j],
                    state=self.cluster_states[j],
                    post=_tag_cluster(j),
                )
                for (client_id, round_idx), j in zip(argslist, best)
            ]
        paired = method == "_evaluate_with_cluster"
        return [
            ClientEvalSpec(
                client_id=int(client_id),
                params=self.cluster_params[j],
                state=self.cluster_states[j],
                post=_pair_with_cluster(j) if paired else None,
            )
            for (client_id,), j in zip(argslist, best)
        ]

    def aggregate(self, round_idx: int, updates: list[ClientUpdate]) -> None:
        by_cluster: dict[int, list[ClientUpdate]] = {}
        for u in updates:
            gid = int(u.extras["cluster"])
            self.cluster_of[u.client_id] = gid
            by_cluster.setdefault(gid, []).append(u)
        for gid, members in by_cluster.items():
            weights = [u.n_samples for u in members]
            self.cluster_params[gid] = self.combine(
                [u.params for u in members], weights
            )
            if members[0].state:
                self.cluster_states[gid] = self.combine_states(
                    [u.state for u in members], weights
                )

    @spec_task
    def _evaluate_with_cluster(self, client_id: int) -> tuple[float, int]:
        """``(accuracy, cluster)``: the client's accuracy on its best
        cluster by local *training* loss (test labels are never used for
        assignment), paired with that cluster so
        :meth:`per_client_accuracy` can record it without re-scoring."""
        (spec,) = self.client_task_specs("_evaluate_with_cluster", [(client_id,)])
        return run_spec(self, spec)

    def per_client_accuracy(self) -> np.ndarray:
        """Every client's accuracy, refreshing ``cluster_of`` as it goes.

        IFCA's assignments are implicit (argmin over cluster losses), so
        each evaluation sweep also updates ``cluster_of`` for *all*
        clients — including never-sampled ones — from the cluster choices
        the eval tasks report.
        """
        results = self._map_clients(
            "_evaluate_with_cluster",
            [(cid,) for cid in range(self.fed.num_clients)],
        )
        for cid, (_, j) in enumerate(results):
            self.cluster_of[cid] = j
        return np.asarray([acc for acc, _ in results], dtype=np.float64)

    def eval_params_for_client(self, client_id: int) -> np.ndarray:
        """Model evaluated for a client: its best cluster by train loss."""
        return self.cluster_params[self._best_cluster(client_id)]

    def eval_state_for_client(self, client_id: int) -> dict:
        """Buffers of the client's best cluster (kept consistent with
        :meth:`eval_params_for_client` for callers that use the pair)."""
        return self.cluster_states[self._best_cluster(client_id)]

    def download_bytes(self, client_id: int, round_idx: int) -> int:
        # The server ships all k cluster models every round.
        return self.k * self.model_bytes

    def wire_reference(self, update: ClientUpdate, round_idx: int) -> np.ndarray:
        # The client trained its argmin-chosen cluster model, not the one
        # ``cluster_of`` recorded last round — the codec must form the
        # delta against what the client actually started from.
        return self.cluster_params[int(update.extras["cluster"])]


def _tag_cluster(j: int):
    """Train postprocessor: tag the finished update with cluster ``j``."""

    def post(update: ClientUpdate) -> ClientUpdate:
        update.extras["cluster"] = j
        return update

    return post


def _pair_with_cluster(j: int):
    """Eval postprocessor: ``(accuracy, j)``, the result shape of
    :meth:`IFCA._evaluate_with_cluster`."""
    return lambda acc: (acc, j)
