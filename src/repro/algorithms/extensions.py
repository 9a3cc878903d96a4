"""Extension baselines: SCAFFOLD and FedDyn.

The paper's related-work section (§2.1) discusses two further global-model
methods for non-IID data that its tables do not include: SCAFFOLD
(Karimireddy et al., 2020 — control variates that cancel client drift) and
FedDyn (Acar et al., 2021 — a dynamic regularizer aligning local and global
stationary points).  They are implemented here as optional baselines so the
heterogeneity benches can ablate against the full global-method family.

Both need per-step gradient corrections, so their specs carry a client
loop of their own (``ClientTrainSpec.loop``): plain SGD on float64 master
weights along a corrected gradient, over a cohort's ``(C, P)`` stacks.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.global_baselines import FedAvg
from repro.fl.registry import opt, register
from repro.fl.server import ClientUpdate
from repro.fl.training import grad_on_batch_many, minibatches_many

__all__ = ["Scaffold", "FedDyn"]


class _CorrectedSGD(FedAvg):
    """FedAvg whose clients step plain SGD, without momentum, on float64
    master weights along a corrected gradient.

    A subclass states the correction: its ``_direction(members)`` returns
    ``direction(grads, params)``, the ``(C, P)`` step direction of the
    cohort block ``members`` at its master weights.
    """

    def client_task_specs(self, method, argslist):
        specs = super().client_task_specs(method, argslist)
        if method == "client_update":
            for spec in specs:
                spec.loop = self._train
        return specs

    def _train(self, model, members, x, y, rngs):
        cfg = self.config
        params = np.stack([s.params for s in members])
        direction = self._direction(members)
        rows = np.arange(len(members))[:, None]
        total_loss, steps = np.zeros(len(members)), 0
        for _ in range(cfg.local_epochs):
            for idx in minibatches_many(y.shape[1], cfg.batch_size, rngs):
                model.load_flat(params)
                grads, losses = grad_on_batch_many(model, x[rows, idx], y[rows, idx])
                params -= cfg.lr * direction(grads, params)
                total_loss += losses
                steps += 1
        return total_loss / max(steps, 1), steps, params


@register("algorithm", "scaffold")
class Scaffold(_CorrectedSGD):
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

    def on_join(self, client_id: int, key_idx: int) -> dict:
        # a joiner starts from a zero control variate, as the roster did
        self.c_client += [np.zeros_like(self.c_global)
                          for _ in range(len(self.c_client), client_id + 1)]
        return super().on_join(client_id, key_idx)

    def client_task_specs(self, method, argslist):
        specs = super().client_task_specs(method, argslist)
        if method == "client_update":
            for spec in specs:
                spec.post = self._with_control_variate
        return specs

    def _direction(self, members):
        correction = self.c_global - np.stack(
            [self.c_client[s.client_id] for s in members]
        )
        return lambda grads, params: grads + correction

    def _with_control_variate(self, update: ClientUpdate) -> ClientUpdate:
        # Option II control update: c_i+ = c_i - c + (x - y_i) / (K * lr).
        # The new variate travels back via extras; ``aggregate`` installs it
        # (client tasks never write server state — execution contract).
        update.extras["c_new"] = (
            self.c_client[update.client_id]
            - self.c_global
            + (self.global_params - update.params)
            / (max(update.steps, 1) * self.config.lr)
        )
        return update

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
class FedDyn(_CorrectedSGD):
    """FedDyn: federated learning with dynamic regularization.

    Each client adds ``-<grad_prev_i, w> + (alpha/2)||w - w_t||^2`` to its
    local objective so local and global stationary points align; the server
    keeps a running correction ``h`` folded into the global model.
    ``alpha`` is the ``feddyn_alpha`` option (default 0.1).
    """

    name = "feddyn"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.alpha = float(self.options["feddyn_alpha"])

    def setup(self) -> None:
        super().setup()
        dim = self.global_params.size
        self.h = np.zeros(dim)
        self.prev_grad = [np.zeros(dim) for _ in range(self.fed.num_clients)]

    def on_join(self, client_id: int, key_idx: int) -> dict:
        # a joiner starts from a zero linear term, as the roster did
        self.prev_grad += [np.zeros_like(self.h)
                           for _ in range(len(self.prev_grad), client_id + 1)]
        return super().on_join(client_id, key_idx)

    def _direction(self, members):
        # The updated linear-term gradient is folded in by ``aggregate``
        # (client tasks never write server state — execution contract).
        prev = np.stack([self.prev_grad[s.client_id] for s in members])
        w_t = self.global_params
        return lambda grads, params: grads - prev + self.alpha * (params - w_t)

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
