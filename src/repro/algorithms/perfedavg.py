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
from repro.fl.training import grad_on_batch_many, minibatches_many

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
    knobs: ``alpha``, ``beta``, ``personalize_epochs``.

    Both client tasks are specs: training carries the meta-step loop
    (:meth:`_meta_train`), evaluation the personalisation
    (:meth:`_personalize`), each written once over a cohort's ``(C, P)``
    float64 master weights.
    """

    name = "perfedavg"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Paper §5.1: alpha = 1e-2, beta = 1e-3 (we scale beta up by default
        # because our rounds are fewer; both remain overridable).
        o = self.options
        self.alpha = float(o["alpha"])
        self.beta = float(o["beta"] if o["beta"] is not None else self.config.lr)
        self.personalize_epochs = int(o["personalize_epochs"])

    def client_task_specs(self, method, argslist):
        specs = super().client_task_specs(method, argslist)
        for spec in specs:
            if method == "client_update":
                spec.loop = self._meta_train
            else:  # evaluate_client
                spec.adapt = self._personalize
        return specs

    def _meta_train(self, model, members, x, y, rngs):
        cfg = self.config
        params = np.stack([s.params for s in members])
        rows = np.arange(len(members))[:, None]

        def grads_at(flat, idx):
            model.load_flat(flat)
            return grad_on_batch_many(model, x[rows, idx], y[rows, idx])

        total_loss, steps = np.zeros(len(members)), 0
        for _ in range(cfg.local_epochs):
            batches = minibatches_many(y.shape[1], cfg.batch_size, rngs)
            # consume batches in pairs: inner step on b1, outer grad on b2;
            # a one-batch client takes a plain step (no inner step)
            pairs = list(zip(batches[::2], batches[1::2])) or [(None, batches[0])]
            for b1, b2 in pairs:
                inner = params
                if b1 is not None:
                    inner = params - self.alpha * grads_at(params, b1)[0]
                g2, losses = grads_at(inner, b2)
                params -= self.beta * g2
                total_loss += losses
                steps += 1
        return total_loss / max(steps, 1), max(steps, 1), params

    def local_steps(self, client_id: int) -> int:
        # one meta-step per batch pair, or one plain step for a one-batch
        # client, per epoch (the loop in ``_meta_train``)
        cfg = self.config
        batches = -(-self.fed[client_id].n_train // cfg.batch_size)
        return max(cfg.local_epochs * max(batches // 2, 1), 1)

    def _personalize(self, model, members, x, y):
        """Personalize the loaded global model with a few α-steps on each
        client's training data, before it is tested locally."""
        params = np.stack([s.params for s in members])
        rngs = [self.rngs.make(f"client{s.client_id}.personalize") for s in members]
        rows = np.arange(len(members))[:, None]
        for _ in range(self.personalize_epochs):
            for idx in minibatches_many(y.shape[1], self.config.batch_size, rngs):
                grads, _ = grad_on_batch_many(model, x[rows, idx], y[rows, idx])
                params -= self.alpha * grads
                model.load_flat(params)
