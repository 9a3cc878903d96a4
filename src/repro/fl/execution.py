"""Client-execution backends for the federated round loop.

The engine (:class:`repro.fl.server.FederatedAlgorithm`) simulates every
selected client per round.  How those per-client tasks *execute* is the
concern of this module, selected via :attr:`repro.fl.config.FLConfig.backend`
(or the ``REPRO_BACKEND`` environment variable when ``backend="auto"``).
Both backends run every task in the calling thread:

``serial`` (:class:`SerialBackend`)
    The default: a plain loop over the tasks on the engine's work model.

``vector`` (:class:`CohortRunner`)
    Same-shape client tasks are stacked along a leading cohort axis and
    executed as *one* batched tensor program through the ``nn`` layers'
    ``forward_many``/``backward_many`` kernels.  Batching reorders float
    accumulation, so this backend trades bit-exactness for a pinned
    numeric tolerance (``VECTOR_*`` constants below); tasks it cannot
    batch (bespoke client loops, stateful-RNG layers, singleton
    dispatches) run through the serial loop and stay bit-for-bit.

There is no multi-core backend: multi-core scale-out is out of scope, and
``vector`` on one core outran a process pool on two on every measured cell
that it batches (``docs/architecture.md``, "Why no multi-core backend").

Client-task purity contract
---------------------------

Client-side work is written as a pure function of
``(server state, client id, round index)``:

* every random draw comes from a named child of the run's root seed
  (:class:`repro.utils.rng.RngFactory`), never from shared-generator call
  order;
* client tasks never write server-side state — algorithms fold results into
  the server exclusively inside ``aggregate``, after all of the round's
  tasks complete;
* results are returned in submission order, so downstream floating-point
  reductions see the same operand order.

Checkpoint/resume and event-log replay depend on it (a resumed or
replayed round re-derives every draw from its key), and so does
:class:`CohortRunner`, which advances all members of a cohort together
instead of running one client task after another.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from repro.fl import registry
from repro.fl.registry import register
from repro.fl.training import evaluate_accuracy_many, local_sgd_many
from repro.nn.model import CohortModel
from repro.nn.optim import CohortSGD

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.fl.server import ClientUpdate, FederatedAlgorithm

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "CohortRunner",
    "ClientTrainSpec",
    "ClientEvalSpec",
    "make_backend",
    "VECTOR_ACC_ATOL",
    "VECTOR_LOSS_RTOL",
    "VECTOR_PARAM_RTOL",
]

#: Numeric contract of the ``vector`` backend against the serial path.
#: Cohort batching changes only float *accumulation order* (stacked GEMMs
#: and fused reductions), never the algorithm, so per-round metrics agree
#: to within accumulated rounding noise.  The bounds below are pinned with
#: a wide margin over what the golden-equivalence suite measures (observed
#: drift is orders of magnitude smaller; see ``docs/architecture.md``) and
#: are enforced by ``tests/test_execution.py``:
#:
#: * accuracy is an argmax statistic over at most a few hundred test
#:   samples per client — a single boundary flip moves it by 1/n, so the
#:   tolerance admits a handful of flipped samples per federation;
#: * losses/params drift multiplicatively with the depth of reordered
#:   reductions.
#:
#: Byte counters (``cumulative_mb``, ``upload_bytes``, ``download_bytes``)
#: are metered from array shapes and stay *exact* under ``vector``.
VECTOR_ACC_ATOL = 0.05
VECTOR_LOSS_RTOL = 1e-2
VECTOR_PARAM_RTOL = 1e-4


class ExecutionBackend(ABC):
    """How the engine executes a batch of per-client tasks.

    A *task* is a bound-method call on the algorithm — ``client_update``,
    ``evaluate_client``, or an algorithm-specific round-0 method such as
    FedClust's ``client_partial_weights``.  Backends guarantee that the
    returned list is ordered like the submitted argument list.
    """

    #: registry name; subclasses set this
    name: str = "base"

    @abstractmethod
    def map(
        self,
        algorithm: "FederatedAlgorithm",
        method: str,
        argslist: Sequence[tuple],
    ) -> list:
        """Execute ``getattr(algorithm, method)(*args)`` for each args tuple.

        Args:
            algorithm: the running federation (one backend instance serves
                one algorithm run).
            method: name of the algorithm method to call for each task.
            argslist: one positional-argument tuple per task.

        Returns:
            The task results, in the order of ``argslist`` (never in
            completion order).
        """

    def run_updates(
        self,
        algorithm: "FederatedAlgorithm",
        round_idx: int,
        client_ids: Iterable[int],
    ) -> list["ClientUpdate"]:
        """Run ``client_update`` for every id in ``client_ids`` (in order)."""
        tasks = [(int(c), round_idx) for c in client_ids]
        with algorithm.telemetry.span(
            "execute", cat="backend", backend=self.name, clients=len(tasks)
        ):
            return self.map(algorithm, "client_update", tasks)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


@register("backend", "serial")
class SerialBackend(ExecutionBackend):
    """Sequential in-process execution — the seed engine's exact behaviour."""

    name = "serial"

    @staticmethod
    def map(algorithm, method, argslist):
        fn = getattr(algorithm, method)
        return [fn(*args) for args in argslist]


@dataclass
class ClientTrainSpec:
    """Declarative description of one default-recipe training task.

    ``FederatedAlgorithm.client_task_spec`` returns one of these when a
    ``client_update``-shaped task is exactly the engine's ``local_train``
    recipe, which is what lets :class:`CohortRunner` replay the task as a
    slice of one batched cohort instead of calling the method.  Algorithms
    with bespoke client loops return ``None`` instead and the runner falls
    back to the serial loop, bit-for-bit.
    """

    client_id: int
    round_idx: int
    #: flat parameter vector the client starts from
    params: np.ndarray
    #: non-trainable buffers installed before training ({} for stateless)
    state: dict[str, np.ndarray] = field(default_factory=dict)
    #: FedProx anchor (enables the proximal term, like ``local_train``)
    prox_center: np.ndarray | None = None
    #: overrides of ``config.local_epochs`` / ``config.lr``
    epochs: int | None = None
    lr: float | None = None
    #: postprocessor applied to the finished ``ClientUpdate``
    #: (FedClust's partial-weight selection); the task result is its
    #: return value
    post: Callable[["ClientUpdate"], object] | None = None


@dataclass
class ClientEvalSpec:
    """Declarative description of one default-recipe evaluation task
    (``evaluate_client``): install ``params``/``state``, measure top-1
    accuracy on the client's local test set."""

    client_id: int
    params: np.ndarray
    state: dict[str, np.ndarray] = field(default_factory=dict)


@register("backend", "vector")
class CohortRunner(ExecutionBackend):
    """Cohort-batched execution: one stacked tensor program per round.

    This backend removes the per-client Python loop: all same-shape tasks
    of a dispatch are stacked along a leading *cohort axis* and executed
    as one batched forward/backward/update per step through the ``nn``
    layers' ``forward_many``/``backward_many`` kernels and
    :class:`CohortSGD` — the throughput lever on a single core.

    The batching is strictly an implementation detail of *how* the default
    client recipe executes; everything downstream (``aggregate``/``merge``,
    codecs, attacks, topology) receives ordinary per-client
    ``ClientUpdate``s.  Tasks the runner cannot express as a cohort slice
    run through the exact serial loop instead, preserving bit-for-bit
    equivalence there:

    * algorithms overriding ``client_update``/``evaluate_client``/
      ``local_train`` (SCAFFOLD, FedDyn, IFCA, Per-FedAvg) — detected via
      ``client_task_spec`` returning ``None``;
    * models with layer-internal RNG state (``Dropout``) or layers
      without cohort kernels;
    * single-task dispatches (no batching win).

    Batched cohorts reproduce the serial math with identical minibatch
    schedules, per-client generators, and operand ordering *within* each
    step; only float accumulation order differs (see the module-level
    ``VECTOR_*`` tolerance contract).
    """

    name = "vector"

    #: cap on cached cohort models (distinct cohort sizes live per run)
    _COHORT_CACHE_MAX = 8

    def __init__(self):
        self._algo_id: int | None = None
        self._cohorts: dict[int, CohortModel] = {}
        self._probe: tuple[bool, bool] | None = None

    # -- plumbing ----------------------------------------------------------
    def _reset_for(self, algorithm: "FederatedAlgorithm") -> None:
        if self._algo_id != id(algorithm):
            self._algo_id = id(algorithm)
            self._cohorts = {}
            self._probe = None

    def _template_info(self, algorithm) -> tuple[bool, bool]:
        """``(batchable, has_state)`` for the run's model architecture."""
        if self._probe is None:
            template = algorithm.model_fn(algorithm.rngs.make("model_init"))
            batchable = all(
                layer.supports_cohort() for layer in template.layers
            ) and not any(
                isinstance(getattr(layer, "rng", None), np.random.Generator)
                for layer in template.layers
            )
            self._probe = (batchable, bool(template.state()))
        return self._probe

    def _cohort_model(self, algorithm, cohort: int) -> CohortModel:
        cm = self._cohorts.get(cohort)
        if cm is None:
            # a fresh, exclusively-owned template per cohort size; its
            # initial weights are irrelevant (load_flat overwrites them)
            template = algorithm.model_fn(algorithm.rngs.make("model_init"))
            cm = CohortModel(template, cohort)
            if len(self._cohorts) >= self._COHORT_CACHE_MAX:
                self._cohorts.pop(next(iter(self._cohorts)))
            self._cohorts[cohort] = cm
        return cm

    # -- dispatch ----------------------------------------------------------
    def map(self, algorithm, method, argslist):
        if not argslist:
            return []
        self._reset_for(algorithm)
        batchable, has_state = self._template_info(algorithm)
        if not batchable or len(argslist) == 1:
            return SerialBackend.map(algorithm, method, argslist)
        specs = [
            algorithm.client_task_spec(method, tuple(args))
            for args in argslist
        ]
        if any(s is None for s in specs):
            return SerialBackend.map(algorithm, method, argslist)
        if has_state and any(not s.state for s in specs):
            # a stateful model whose task carries no buffers relies on the
            # serial work model's carryover semantics; don't approximate it
            return SerialBackend.map(algorithm, method, argslist)
        if isinstance(specs[0], ClientTrainSpec):
            return self._run_train(algorithm, specs, has_state)
        return self._run_eval(algorithm, specs, has_state)

    def _run_train(self, algorithm, specs, has_state: bool):
        from repro.fl.server import ClientUpdate

        cfg = algorithm.config
        fed = algorithm.fed
        attack = algorithm.attack
        results: list = [None] * len(specs)
        # Cohorts must share the dataset/schedule shape; everything else
        # (params, labels, generators, prox anchors) stacks per member.
        groups: dict[tuple, list[int]] = {}
        for i, s in enumerate(specs):
            key = (
                fed[s.client_id].train_x.shape,
                s.epochs,
                s.lr,
                s.prox_center is not None,
            )
            groups.setdefault(key, []).append(i)
        for idxs in groups.values():
            members = [specs[i] for i in idxs]
            if len(members) == 1:
                s = members[0]
                update = algorithm.local_train(
                    s.client_id, s.round_idx, s.params, s.state,
                    prox_center=s.prox_center, epochs=s.epochs, lr=s.lr,
                )
                results[idxs[0]] = update if s.post is None else s.post(update)
                continue
            cm = self._cohort_model(algorithm, len(members))
            cm.load_flat(np.stack([s.params for s in members]))
            if has_state:
                cm.load_states([s.state for s in members])
            xs = np.stack([fed[s.client_id].train_x for s in members])
            ys = np.stack([
                attack.flip_labels(fed[s.client_id].train_y, fed.num_classes)
                if attack.flips_labels and attack.poisons(s.client_id, s.round_idx)
                else fed[s.client_id].train_y
                for s in members
            ])
            rngs = [
                algorithm.rngs.make(f"client{s.client_id}.train", s.round_idx)
                for s in members
            ]
            prox = (
                np.stack([s.prox_center for s in members])
                if members[0].prox_center is not None
                else None
            )
            opt_ = CohortSGD(
                cm,
                lr=members[0].lr if members[0].lr is not None else cfg.lr,
                momentum=cfg.momentum,
                weight_decay=cfg.weight_decay,
                prox_mu=float(cfg.extra.get("prox_mu", 0.0))
                if prox is not None
                else 0.0,
            )
            if prox is not None:
                opt_.set_prox_center(prox)
            losses, steps = local_sgd_many(
                cm, opt_, xs, ys,
                epochs=members[0].epochs
                if members[0].epochs is not None
                else cfg.local_epochs,
                batch_size=cfg.batch_size,
                rngs=rngs,
            )
            flats = cm.flatten()
            member_states = cm.states() if has_state else None
            for c, (i, s) in enumerate(zip(idxs, members)):
                update = ClientUpdate(
                    client_id=s.client_id,
                    params=flats[c].copy(),
                    n_samples=fed[s.client_id].n_train,
                    steps=steps,
                    loss=float(losses[c]),
                    state=member_states[c] if member_states else {},
                )
                results[i] = update if s.post is None else s.post(update)
        return results

    def _run_eval(self, algorithm, specs, has_state: bool):
        fed = algorithm.fed
        results: list = [None] * len(specs)
        groups: dict[tuple, list[int]] = {}
        for i, s in enumerate(specs):
            groups.setdefault(fed[s.client_id].test_x.shape, []).append(i)
        for idxs in groups.values():
            members = [specs[i] for i in idxs]
            if len(members) == 1:
                results[idxs[0]] = algorithm.evaluate_client(
                    members[0].client_id
                )
                continue
            cm = self._cohort_model(algorithm, len(members))
            cm.load_flat(np.stack([s.params for s in members]))
            if has_state:
                cm.load_states([s.state for s in members])
            xs = np.stack([fed[s.client_id].test_x for s in members])
            ys = np.stack([fed[s.client_id].test_y for s in members])
            accs = evaluate_accuracy_many(cm, xs, ys)
            for c, i in enumerate(idxs):
                results[i] = float(accs[c])
        return results


def make_backend(config=None, backend: str | None = None) -> ExecutionBackend:
    """Build the execution backend for one federation run.

    Args:
        config: an :class:`~repro.fl.config.FLConfig` supplying the
            default ``backend`` spec (optional).
        backend: explicit backend spec overriding the config — a
            registered name or ``"auto"``.

    Resolution is the registry's (:func:`repro.fl.registry.resolve`):
    ``"auto"`` reads ``REPRO_BACKEND`` (default ``serial``), which lets an
    entire benchmark or test invocation switch backends without touching
    code.

    Returns:
        A fresh :class:`ExecutionBackend` for one run.
    """
    return registry.resolve("backend", spec=backend, config=config).impl.cls()
