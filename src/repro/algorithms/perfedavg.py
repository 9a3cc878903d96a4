"""Per-FedAvg (Fallah et al., 2020), first-order MAML variant.

Clients optimize for *post-personalization* performance: each meta-step
takes a temporary inner step (rate α) on one minibatch, evaluates the
gradient after it on a second minibatch, and applies that outer gradient
(rate β) to the round's starting weights.  At evaluation time every client
personalizes the global model with a few α-steps on its own training data —
matching how the paper reports Per-FedAvg's local accuracy.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.global_baselines import FedAvg
from repro.fl.registry import SCALE_LR, opt, register
from repro.fl.server import ClientUpdate
from repro.fl.training import evaluate_accuracy, grad_on_batch, minibatches
from repro.nn.serialization import flatten_params, unflatten_params

__all__ = ["PerFedAvg"]


@register("algorithm", "perfedavg", options=[
    opt("alpha", float, 1e-2,
        help="inner (personalization) step rate of the first-order MAML "
             "update"),
    opt("beta", float, None, optional=True,
        help="outer meta-step rate (default: the run's learning rate)"),
    opt("personalize_epochs", int, 1, low=0,
        help="local fine-tuning epochs applied before evaluation"),
], extras_defaults={"alpha": 1e-2, "beta": SCALE_LR, "personalize_epochs": 1})
class PerFedAvg(FedAvg):
    """First-order MAML federated averaging (see module docstring);
    knobs: ``alpha``, ``beta``, ``personalize_epochs``."""

    name = "perfedavg"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Paper §5.1: alpha = 1e-2, beta = 1e-3 (we scale beta up by default
        # because our rounds are fewer; both remain overridable).
        o = self.options
        self.alpha = float(o["alpha"])
        self.beta = float(o["beta"] if o["beta"] is not None else self.config.lr)
        self.personalize_epochs = int(o["personalize_epochs"])

    def client_update(self, client_id: int, round_idx: int) -> ClientUpdate:
        cfg = self.config
        client = self.fed[client_id]
        model = self.model
        params = self.params_for_client(client_id, round_idx).copy()
        state = self.state_for_client(client_id, round_idx)
        unflatten_params(model, params)
        if state:
            model.load_state(state)
        rng = self.rngs.make(f"client{client_id}.train", round_idx)
        x, y = client.train_x, client.train_y
        total_loss, steps = 0.0, 0
        for _ in range(cfg.local_epochs):
            batches = minibatches(len(y), cfg.batch_size, rng)
            # consume batches in pairs: inner step on b1, outer grad on b2
            for k in range(0, len(batches) - 1, 2):
                b1, b2 = batches[k], batches[k + 1]
                unflatten_params(model, params)
                g1, _ = grad_on_batch(model, x[b1], y[b1])
                unflatten_params(model, params - self.alpha * g1)
                g2, loss = grad_on_batch(model, x[b2], y[b2])
                params -= self.beta * g2
                total_loss += loss
                steps += 1
            if len(batches) == 1:  # tiny client: plain step
                unflatten_params(model, params)
                g1, loss = grad_on_batch(model, x[batches[0]], y[batches[0]])
                params -= self.beta * g1
                total_loss += loss
                steps += 1
        unflatten_params(model, params)
        return ClientUpdate(
            client_id=client_id,
            params=params,
            n_samples=client.n_train,
            steps=max(steps, 1),
            loss=total_loss / max(steps, 1),
            state={k: v.copy() for k, v in model.state().items()},
        )

    def evaluate_client(self, client_id: int) -> float:
        """Personalize with a few inner steps, then test locally."""
        client = self.fed[client_id]
        model = self.model
        params = self.global_params.copy()
        unflatten_params(model, params)
        if self.global_state:
            model.load_state(self.global_state)
        rng = self.rngs.make(f"client{client_id}.personalize")
        for _ in range(self.personalize_epochs):
            for batch in minibatches(client.n_train, self.config.batch_size, rng):
                g, _ = grad_on_batch(model, client.train_x[batch], client.train_y[batch])
                params -= self.alpha * g
                unflatten_params(model, params)
        return evaluate_accuracy(model, client.test_x, client.test_y)
