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
    ``forward_many``/``backward_many`` kernels; a task alone in its shape
    runs as a cohort of one.  Batching reorders float accumulation, so
    this backend trades bit-exactness for a pinned numeric tolerance
    (``VECTOR_*`` constants below).  Bespoke client loops, the one kind
    of task it does not batch (:func:`runs_as_specs`), run exactly as on
    ``serial``.

Spec tasks
----------

A task whose recipe is the engine's default — install a model, run
``local_train``'s SGD loop or ``local_eval``'s accuracy, optionally
post-process the result — is written once, as the
:class:`ClientTrainSpec`/:class:`ClientEvalSpec` that
``FederatedAlgorithm.client_task_specs`` builds.  Its method is marked
:func:`spec_task` and its body builds the one-task spec and hands it to
:func:`run_spec`, which is all ``serial`` runs; ``vector`` builds the
specs of a whole dispatch at once and batches them.  A subclass that
replaces such a method with its own ``def``, or replaces
``local_train``/``local_eval``, leaves the spec path: its dispatches run
the methods, on either backend (:func:`runs_as_specs`).

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
    "spec_task",
    "run_spec",
    "runs_as_specs",
    "make_backend",
    "VECTOR_ACC_ATOL",
    "VECTOR_LOSS_RTOL",
    "VECTOR_PARAM_RTOL",
]

#: Numeric contract of the ``vector`` backend against the serial path.
#: Cohort batching changes only float *accumulation order* (stacked GEMMs
#: and fused reductions), never the algorithm, so per-round metrics agree
#: to within accumulated rounding noise.  The bounds are enforced by
#: ``tests/test_execution.py`` and ``tests/golden.py``; see
#: ``docs/architecture.md`` for what has been measured against them:
#:
#: * accuracy is an argmax statistic over at most a few hundred test
#:   samples per client — a single boundary flip moves it by 1/n, so the
#:   tolerance admits a handful of flipped samples per federation;
#: * losses/params drift multiplicatively with the depth of reordered
#:   reductions.
#:
#: Measured drift on the three conv recipes is nil: each recipe's vector
#: capture in ``tests/data/golden_conv.json`` equals its serial capture
#: field for field, parameter and eval digests included, and
#: ``tests/test_golden_conv.py`` asserts it.  Conv2d's cohort columns
#: come in the serial im2col order, so its gradient sums run in the
#: serial order.  Before they did, the ResNet-9 recipe (BatchNorm) read
#: a round-3 accuracy gap of 0.0236 and a train-loss gap of a relative
#: 0.0121 from Conv2d's sum order alone.  Those recipes are bitwise on
#: one BLAS build, not by construction, so the bounds stay.
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

    ``FederatedAlgorithm.client_task_specs`` returns one of these per task
    of a training :func:`spec_task` (``client_update``, FedClust's
    ``client_partial_weights``).  :func:`run_spec` runs it through
    ``local_train``; :class:`CohortRunner` runs a dispatch's specs as
    slices of one batched cohort.
    """

    client_id: int
    round_idx: int
    #: flat parameter vector the client starts from
    params: np.ndarray
    #: non-trainable buffers installed before training ({} only for a
    #: model without buffers)
    state: dict[str, np.ndarray] = field(default_factory=dict)
    #: FedProx anchor and strength μ of the proximal term (``local_train``)
    prox_center: np.ndarray | None = None
    prox_mu: float = 0.0
    #: override of ``config.local_epochs`` (FedClust's round-0 warm-up)
    epochs: int | None = None
    #: postprocessor applied to the finished ``ClientUpdate``
    #: (FedClust's partial-weight selection, IFCA's cluster tag); the
    #: task result is its return value
    post: Callable[["ClientUpdate"], object] | None = None


@dataclass
class ClientEvalSpec:
    """Declarative description of one default-recipe evaluation task
    (``evaluate_client``): install ``params``/``state``, measure top-1
    accuracy on the client's local test set (``local_eval``)."""

    client_id: int
    params: np.ndarray
    #: non-trainable buffers ({} only for a model without buffers)
    state: dict[str, np.ndarray] = field(default_factory=dict)
    #: postprocessor applied to the accuracy (IFCA pairs it with the
    #: cluster it evaluated); the task result is its return value
    post: Callable[[float], object] | None = None


def spec_task(method):
    """Mark an algorithm method as a spec task.

    The method's body must be :func:`run_spec` on the one spec that
    ``client_task_specs(method.__name__, [args])`` builds, so a backend
    may build and run a whole dispatch's specs instead of calling it.
    """
    method.spec_task = True
    return method


def runs_as_specs(algorithm: "FederatedAlgorithm", method: str) -> bool:
    """Whether a dispatch of ``method`` may run as specs.

    It may when ``method`` is a :func:`spec_task` that no bespoke ``def``
    of a subclass replaces, and ``local_train``/``local_eval`` are the
    engine's.  Otherwise only the methods say what the tasks do, and the
    dispatch calls them.
    """
    from repro.fl.server import FederatedAlgorithm  # import cycle guard

    cls = type(algorithm)
    return getattr(getattr(cls, method), "spec_task", False) and all(
        getattr(cls, recipe) is getattr(FederatedAlgorithm, recipe)
        for recipe in ("local_train", "local_eval")
    )


def _require_buffers(
    algorithm: "FederatedAlgorithm",
    specs: Sequence[ClientTrainSpec | ClientEvalSpec],
) -> None:
    """Refuse specs without buffers for a model that has buffers.

    A task installs everything it starts from; without buffers it would
    run on whatever the previous task left in the work model.

    Raises:
        ValueError: if the model has buffers and a spec carries none.
    """
    if algorithm.model.state() and not all(s.state for s in specs):
        raise ValueError(
            f"{algorithm.name}: the model has buffers but a client task's "
            "spec carries none; state_for_client and eval_state_for_client "
            "must return the model's buffers"
        )


def run_spec(
    algorithm: "FederatedAlgorithm", spec: ClientTrainSpec | ClientEvalSpec
) -> object:
    """Run one spec on the algorithm's work model: ``local_train`` or
    ``local_eval``, then ``spec.post``.  The task's result."""
    _require_buffers(algorithm, [spec])
    if isinstance(spec, ClientTrainSpec):
        result = algorithm.local_train(
            spec.client_id, spec.round_idx, spec.params, spec.state,
            prox_center=spec.prox_center, prox_mu=spec.prox_mu,
            epochs=spec.epochs,
        )
    else:
        result = algorithm.local_eval(spec.client_id, spec.params, spec.state)
    return result if spec.post is None else spec.post(result)


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
    ``ClientUpdate``s.  A dispatch of a :func:`spec_task` is built into
    specs at once (``client_task_specs``), so an algorithm may share work
    across its tasks (IFCA scores every cluster model on all of them in
    one pass); same-shape specs run as one cohort, and a spec alone in its
    shape as a cohort of one.  A dispatch leaves this path only when
    :func:`runs_as_specs` refuses it — bespoke client loops (SCAFFOLD,
    FedDyn, Per-FedAvg), or any subclass ``def`` over a spec task or over
    ``local_train``/``local_eval`` — and then calls the methods, exactly
    as ``serial`` does, bit for bit.

    Batched cohorts reproduce the serial math with identical minibatch
    schedules, per-client generators, and operand ordering *within* each
    step; only float accumulation order differs (see the module-level
    ``VECTOR_*`` tolerance contract).  One runner serves one run.
    """

    name = "vector"

    #: cap on cached cohort models (distinct cohort sizes live per run)
    _COHORT_CACHE_MAX = 8

    def __init__(self):
        self._cohorts: dict[int, CohortModel] = {}

    # -- plumbing ----------------------------------------------------------
    def _load(self, algorithm, members) -> CohortModel:
        """A cohort model holding ``members``' params and buffers."""
        cohort = len(members)
        cm = self._cohorts.get(cohort)
        if cm is None:
            # a fresh, exclusively-owned template per cohort size; its
            # initial weights are irrelevant (load_flat overwrites them)
            template = algorithm.model_fn(algorithm.rngs.make("model_init"))
            cm = CohortModel(template, cohort)
            if len(self._cohorts) >= self._COHORT_CACHE_MAX:
                self._cohorts.pop(next(iter(self._cohorts)))
            self._cohorts[cohort] = cm
        cm.load_flat(np.stack([s.params for s in members]))
        cm.load_states([s.state for s in members])
        return cm

    # -- dispatch ----------------------------------------------------------
    def map(self, algorithm, method, argslist):
        if not argslist:
            return []
        if not runs_as_specs(algorithm, method):
            return SerialBackend.map(algorithm, method, argslist)
        specs = algorithm.client_task_specs(
            method, [tuple(args) for args in argslist]
        )
        _require_buffers(algorithm, specs)
        if isinstance(specs[0], ClientTrainSpec):
            return self._run_train(algorithm, specs)
        return self._run_eval(algorithm, specs)

    def _run_train(self, algorithm, specs):
        from repro.fl.server import ClientUpdate

        cfg = algorithm.config
        fed = algorithm.fed
        results: list = [None] * len(specs)
        # Cohorts must share the dataset/schedule shape and the optimizer's
        # scalars; everything else (params, labels, generators, prox
        # anchors) stacks per member.
        groups: dict[tuple, list[int]] = {}
        for i, s in enumerate(specs):
            key = (
                fed[s.client_id].train_x.shape,
                s.epochs,
                s.prox_center is not None,
                s.prox_mu,
            )
            groups.setdefault(key, []).append(i)
        for idxs in groups.values():
            members = [specs[i] for i in idxs]
            first = members[0]
            cm = self._load(algorithm, members)
            xs = np.stack([fed[s.client_id].train_x for s in members])
            ys = np.stack([fed[s.client_id].train_y for s in members])
            rngs = [
                algorithm.rngs.make(f"client{s.client_id}.train", s.round_idx)
                for s in members
            ]
            opt_ = CohortSGD(
                cm,
                lr=cfg.lr,
                momentum=cfg.momentum,
                weight_decay=cfg.weight_decay,
                prox_mu=first.prox_mu,
            )
            if first.prox_center is not None:
                opt_.set_prox_center(np.stack([s.prox_center for s in members]))
            losses, steps = local_sgd_many(
                cm, opt_, xs, ys,
                epochs=cfg.local_epochs if first.epochs is None else first.epochs,
                batch_size=cfg.batch_size,
                rngs=rngs,
            )
            flats = cm.flatten()
            member_states = cm.states()
            for c, (i, s) in enumerate(zip(idxs, members)):
                update = ClientUpdate(
                    client_id=s.client_id,
                    params=flats[c].copy(),
                    n_samples=fed[s.client_id].n_train,
                    steps=steps,
                    loss=float(losses[c]),
                    state=member_states[c],
                )
                results[i] = update if s.post is None else s.post(update)
        return results

    def _run_eval(self, algorithm, specs):
        fed = algorithm.fed
        results: list = [None] * len(specs)
        groups: dict[tuple, list[int]] = {}
        for i, s in enumerate(specs):
            groups.setdefault(fed[s.client_id].test_x.shape, []).append(i)
        for idxs in groups.values():
            members = [specs[i] for i in idxs]
            cm = self._load(algorithm, members)
            xs = np.stack([fed[s.client_id].test_x for s in members])
            ys = np.stack([fed[s.client_id].test_y for s in members])
            accs = evaluate_accuracy_many(cm, xs, ys)
            for acc, i, s in zip(accs, idxs, members):
                acc = float(acc)
                results[i] = acc if s.post is None else s.post(acc)
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
