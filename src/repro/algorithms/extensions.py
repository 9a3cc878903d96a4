"""Extension baselines: SCAFFOLD and FedDyn.

The paper's related-work section (§2.1) discusses two further global-model
methods for non-IID data that its tables do not include: SCAFFOLD
(Karimireddy et al., 2020 — control variates that cancel client drift) and
FedDyn (Acar et al., 2021 — a dynamic regularizer aligning local and global
stationary points).  They are implemented here as optional baselines so the
heterogeneity benches can ablate against the full global-method family.

Both need per-step gradient corrections, so they run their own minibatch
loops over flat parameter vectors instead of the engine's ``local_sgd``.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.global_baselines import FedAvg
from repro.fl.registry import opt, register
from repro.fl.server import ClientUpdate
from repro.fl.training import grad_on_batch, minibatches
from repro.nn.serialization import unflatten_params

__all__ = ["Scaffold", "FedDyn"]


@register("algorithm", "scaffold")
class Scaffold(FedAvg):
    """SCAFFOLD: stochastic controlled averaging.

    Every client step is corrected by ``c - c_i`` (server minus client
    control variate), cancelling the drift a client's skewed data induces.
    Clients and server exchange both model and control deltas, so each
    round costs twice FedAvg's bytes in both directions — faithfully
    metered.
    """

    name = "scaffold"

    def setup(self) -> None:
        super().setup()
        dim = self.global_params.size
        self.c_global = np.zeros(dim)
        self.c_client = [np.zeros(dim) for _ in range(self.fed.num_clients)]

    def client_update(self, client_id: int, round_idx: int) -> ClientUpdate:
        cfg = self.config
        client = self.fed[client_id]
        x_global = self.global_params
        params = x_global.copy()
        unflatten_params(self.model, params)
        if self.global_state:
            self.model.load_state(self.global_state)
        correction = self.c_global - self.c_client[client_id]
        rng = self.rngs.make(f"client{client_id}.train", round_idx)
        total_loss, steps = 0.0, 0
        for _ in range(cfg.local_epochs):
            for batch in minibatches(client.n_train, cfg.batch_size, rng):
                unflatten_params(self.model, params)
                g, loss = grad_on_batch(
                    self.model, client.train_x[batch], client.train_y[batch]
                )
                params -= cfg.lr * (g + correction)
                total_loss += loss
                steps += 1
        # Option II control update: c_i+ = c_i - c + (x - y_i) / (K * lr).
        # The new variate travels back via extras; ``aggregate`` installs it
        # (client tasks never write server state — execution contract).
        c_new = (
            self.c_client[client_id]
            - self.c_global
            + (x_global - params) / (max(steps, 1) * cfg.lr)
        )
        unflatten_params(self.model, params)
        return ClientUpdate(
            client_id=client_id,
            params=params,
            n_samples=client.n_train,
            steps=steps,
            loss=total_loss / max(steps, 1),
            state={k: v.copy() for k, v in self.model.state().items()},
            extras={"c_new": c_new},
        )

    def aggregate(self, round_idx: int, updates: list[ClientUpdate]) -> None:
        if not updates:
            return
        # Install c_i+ exactly as shipped (bitwise the seed's in-client
        # assignment); the delta for the global variate is recomputed here
        # from the identical operands, so it matches the client-side value.
        deltas = []
        for u in updates:
            c_new = u.extras["c_new"]
            deltas.append(c_new - self.c_client[u.client_id])
            self.c_client[u.client_id] = c_new
        super().aggregate(round_idx, updates)
        frac = len(updates) / self.fed.num_clients
        self.c_global = self.c_global + frac * np.mean(deltas, axis=0)

    def download_bytes(self, client_id: int, round_idx: int) -> int:
        return 2 * self.model_bytes  # model + server control variate

    def upload_bytes(self, client_id: int, round_idx: int) -> int:
        return 2 * self.model_bytes  # model delta + control delta


@register("algorithm", "feddyn", options=[
    opt("feddyn_alpha", float, 0.1, low=0.0, low_inclusive=False,
        help="dynamic-regularizer strength aligning local and global "
             "stationary points"),
])
class FedDyn(FedAvg):
    """FedDyn: federated learning with dynamic regularization.

    Each client adds ``-<grad_prev_i, w> + (alpha/2)||w - w_t||^2`` to its
    local objective so local and global stationary points align; the server
    keeps a running correction ``h`` folded into the global model.
    ``alpha`` comes from ``config.extra["feddyn_alpha"]`` (default 0.1).
    """

    name = "feddyn"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.alpha = float(self.config.extra.get("feddyn_alpha", 0.1))
        if self.alpha <= 0:
            raise ValueError(f"feddyn_alpha must be positive, got {self.alpha}")

    def setup(self) -> None:
        super().setup()
        dim = self.global_params.size
        self.h = np.zeros(dim)
        self.prev_grad = [np.zeros(dim) for _ in range(self.fed.num_clients)]

    def client_update(self, client_id: int, round_idx: int) -> ClientUpdate:
        cfg = self.config
        client = self.fed[client_id]
        w_t = self.global_params
        params = w_t.copy()
        unflatten_params(self.model, params)
        if self.global_state:
            self.model.load_state(self.global_state)
        rng = self.rngs.make(f"client{client_id}.train", round_idx)
        total_loss, steps = 0.0, 0
        for _ in range(cfg.local_epochs):
            for batch in minibatches(client.n_train, cfg.batch_size, rng):
                unflatten_params(self.model, params)
                g, loss = grad_on_batch(
                    self.model, client.train_x[batch], client.train_y[batch]
                )
                g = g - self.prev_grad[client_id] + self.alpha * (params - w_t)
                params -= cfg.lr * g
                total_loss += loss
                steps += 1
        # The updated linear-term gradient is folded in by ``aggregate``
        # (client tasks never write server state — execution contract).
        unflatten_params(self.model, params)
        return ClientUpdate(
            client_id=client_id,
            params=params,
            n_samples=client.n_train,
            steps=steps,
            loss=total_loss / max(steps, 1),
            state={k: v.copy() for k, v in self.model.state().items()},
        )

    def aggregate(self, round_idx: int, updates: list[ClientUpdate]) -> None:
        if not updates:
            return
        # prev_grad_i+ = prev_grad_i - alpha * (w_i - w_t); at this point
        # ``self.global_params`` still holds w_t.
        for u in updates:
            self.prev_grad[u.client_id] = self.prev_grad[u.client_id] - self.alpha * (
                u.params - self.global_params
            )
        mean_w = np.mean([u.params for u in updates], axis=0)
        self.h = self.h - self.alpha * (mean_w - self.global_params) * (
            len(updates) / self.fed.num_clients
        )
        self.global_params = mean_w - self.h / self.alpha
        if updates[0].state:
            from repro.fl.server import average_states

            self.global_state = average_states(
                [u.state for u in updates], [u.n_samples for u in updates]
            )
