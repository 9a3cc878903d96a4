"""The task runner: how the engine executes a dispatch of client tasks.

The engine (:class:`repro.fl.server.FederatedAlgorithm`) simulates every
selected client per round.  How those per-client tasks *execute* is the
concern of this module, selected via :attr:`repro.fl.config.FLConfig.backend`
(or the ``REPRO_BACKEND`` environment variable when ``backend="auto"``).
There is one runner, :class:`CohortRunner`, and it runs every task in the
calling thread.  The ``nn`` layers compute over a leading cohort axis
(``forward_many``/``backward_many``), and a single model is a cohort of
one.  The two backends are the runner with two groupings:

``serial`` (:class:`SerialBackend`)
    The default: every task is a group of its own, a cohort of one on the
    engine's work model.  It is the reference that ``vector``'s grouping
    must reproduce exactly.

``vector`` (:class:`CohortRunner`)
    Same-shape client tasks are stacked along the cohort axis and
    executed as *one* batched tensor program; a task alone in its shape
    runs as a cohort of one on the work model, as on ``serial``.  A
    group whose largest step buffer would exceed
    :data:`COHORT_STEP_BYTES` runs as the fewest near-equal member blocks
    that fit, so memory follows the block, not the dispatch.

The two agree bit for bit: histories, parameters and buffers compare with
``==`` in the tests on every CI leg.  That is measured, not guaranteed by
construction: a cohort's kernels could in principle sum in another order
than a cohort of one's.  If a leg ever differs, find the kernel whose
cohort and one-member forms diverge and make them agree; do not add a
tolerance back.

Spec tasks
----------

Every client task is written once, as the
:class:`ClientTrainSpec`/:class:`ClientEvalSpec` that
``FederatedAlgorithm.client_task_specs`` builds, and the recipe that runs
a spec exists once, in :class:`CohortRunner`: install a model, run the
local-SGD loop (or the spec's own ``loop``) or measure accuracy (after the
spec's ``adapt``), optionally post-process the result.  A task method is
marked :func:`spec_task` and its body dispatches its one task through the
runner; a dispatch builds the specs of all its tasks at once and runs them
on either backend.  A subclass ``def`` over such a method would never be
called, so its dispatches raise instead (:func:`runs_as_specs`).

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
:class:`CohortRunner`, which builds a dispatch's specs before it runs any
and advances all members of a cohort together instead of running one
client task after another.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.fl import registry
from repro.fl.registry import register
from repro.fl.training import evaluate_accuracy_many, local_sgd_many
from repro.nn.model import PREDICT_ROWS, CohortModel
from repro.nn.optim import CohortSGD

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.fl.server import ClientUpdate, FederatedAlgorithm

__all__ = [
    "SerialBackend",
    "CohortRunner",
    "ClientTrainSpec",
    "ClientEvalSpec",
    "spec_task",
    "runs_as_specs",
    "make_backend",
    "COHORT_STEP_BYTES",
    "VECTOR_ACC_ATOL",
]

#: Kept only because the benchmark (``perfbench/workloads.py``) imports it
#: for its seed-0 accuracy pin; nothing in the program or its tests reads
#: it, since the backends compare exactly.  It goes once that pin is exact.
VECTOR_ACC_ATOL = 0.05

#: most bytes the largest buffer of one cohort step may take: a group of
#: same-shape tasks whose step would hold more (a Conv2d's im2col columns,
#: ``Sequential.row_nbytes`` per member and row) runs as the fewest
#: near-equal member blocks that fit, and a member over it runs alone.
#: Only round-0 and evaluation dispatches of 40-100 clients exceed it in
#: the benchmark cells; chosen by a measured sweep (docs/architecture.md).
COHORT_STEP_BYTES = 4 * 2**20


@dataclass
class ClientTrainSpec:
    """Declarative description of one training task.

    ``FederatedAlgorithm.client_task_specs`` returns one of these per task
    of a training :func:`spec_task` (``client_update``, FedClust's
    ``client_partial_weights``).  :class:`CohortRunner` runs a dispatch's
    specs as members of cohorts: install ``params``/``state``, run the
    local-SGD loop (or ``loop``) from the client's keyed generator,
    package a ``ClientUpdate``.
    """

    client_id: int
    round_idx: int
    #: flat parameter vector the client starts from
    params: np.ndarray
    #: non-trainable buffers installed before training ({} only for a
    #: model without buffers)
    state: dict[str, np.ndarray] = field(default_factory=dict)
    #: FedProx anchor and strength μ of the proximal term
    prox_center: np.ndarray | None = None
    prox_mu: float = 0.0
    #: override of ``config.local_epochs`` (FedClust's round-0 warm-up)
    epochs: int | None = None
    #: a client loop of its own in place of the default ``CohortSGD`` +
    #: ``local_sgd_many`` recipe (SCAFFOLD, FedDyn, Per-FedAvg):
    #: ``loop(model, specs, x, y, rngs)`` trains the loaded cohort block
    #: ``model`` of ``specs`` on their stacked ``(C, n, ...)`` training
    #: data from their ``client{id}.train`` generators and returns the
    #: ``(C,)`` mean losses, the shared step count and the ``(C, P)``
    #: trained flat vectors; specs share a cohort only with specs of the
    #: same loop
    loop: Callable[..., tuple[np.ndarray, int, np.ndarray]] | None = None
    #: postprocessor applied to the finished ``ClientUpdate``
    #: (FedClust's partial-weight selection, IFCA's cluster tag,
    #: SCAFFOLD's control variate); the task result is its return value
    post: Callable[["ClientUpdate"], object] | None = None


@dataclass
class ClientEvalSpec:
    """Declarative description of one evaluation task
    (``evaluate_client``): install ``params``/``state``, optionally
    ``adapt`` the model, measure top-1 accuracy on the client's local test
    set."""

    client_id: int
    params: np.ndarray
    #: non-trainable buffers ({} only for a model without buffers)
    state: dict[str, np.ndarray] = field(default_factory=dict)
    #: ``adapt(model, specs, x, y)`` changes the loaded cohort block
    #: ``model`` of ``specs`` in place from their stacked ``(C, n, ...)``
    #: training data before accuracy is measured (Per-FedAvg's
    #: personalisation); specs share a cohort only with specs of the same
    #: ``adapt`` and training shape
    adapt: Callable[..., None] | None = None
    #: postprocessor applied to the accuracy (IFCA pairs it with the
    #: cluster it evaluated); the task result is its return value
    post: Callable[[float], object] | None = None


def spec_task(method):
    """Mark an algorithm method as a spec task.

    Its tasks are the specs that ``client_task_specs(method.__name__,
    argslist)`` builds, and the method's body dispatches its one task
    through ``FederatedAlgorithm._map_clients``: a backend builds and runs
    a whole dispatch's specs and never calls the method.
    """
    method.spec_task = True
    return method


def runs_as_specs(algorithm: "FederatedAlgorithm", method: str) -> None:
    """Refuse a dispatch of ``method`` unless it is a :func:`spec_task`.

    Every dispatch runs as specs, so a subclass ``def`` over a spec task
    would never be called; it raises here rather than be skipped.

    Raises:
        TypeError: naming the class and the method.
    """
    if not getattr(getattr(type(algorithm), method), "spec_task", False):
        raise TypeError(
            f"{type(algorithm).__name__}.{method} is not a spec task, so no "
            "backend would call it: state the task in client_task_specs "
            "instead (a spec's loop, adapt or post) and drop the def"
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


@register("backend", "vector")
class CohortRunner:
    """The task runner: one stacked tensor program per group of tasks.

    All same-shape tasks of a dispatch are stacked along a leading
    *cohort axis* and executed as one batched forward/backward/update per
    step through the ``nn`` layers' ``forward_many``/``backward_many``
    kernels and :class:`CohortSGD` — the throughput lever on a single
    core.  A group splits into member blocks where its largest step
    buffer would exceed :data:`COHORT_STEP_BYTES` (:meth:`_blocks`).  A
    cohort of one runs on the algorithm's work model
    (``algorithm.model.as_cohort()``); a larger one on a template of its
    own size, built once per run.

    The batching is strictly an implementation detail of *how* client
    tasks execute; everything downstream (``aggregate``/``merge``,
    codecs, attacks, topology) receives ordinary per-client
    ``ClientUpdate``s.  A dispatch of a :func:`spec_task` is built into
    specs at once (``client_task_specs``), so an algorithm may share work
    across its tasks (IFCA scores every cluster model on all of them in
    one pass).  Client loops of their own (SCAFFOLD, FedDyn, Per-FedAvg)
    run on the same cohort blocks, through a spec's ``loop`` or
    ``adapt``.

    Every group runs the same kernels, with identical minibatch
    schedules, per-client generators, and operand ordering within each
    step, so a member's result equals the one it gets alone (see the
    module docstring: measured bitwise, checked with ``==``), in a cohort
    of any size.  Subclasses change only the grouping (:meth:`_group`).
    One runner serves one run.
    """

    name = "vector"

    #: cap on cached cohort models (distinct cohort sizes live per run)
    _COHORT_CACHE_MAX = 8

    def __init__(self):
        self._cohorts: dict[int, CohortModel] = {}
        #: the work model's ``row_nbytes`` per (sample shape, dtype)
        self._row_nbytes: dict[tuple, int] = {}

    @staticmethod
    def _group(keys: Sequence[tuple]) -> list[list[int]]:
        """The groups of a dispatch, as lists of spec indices: specs with
        equal keys (data shapes and optimizer scalars) may share a
        cohort."""
        groups: dict[tuple, list[int]] = {}
        for i, key in enumerate(keys):
            groups.setdefault(key, []).append(i)
        return list(groups.values())

    def _blocks(
        self,
        algorithm,
        keys: Sequence[tuple],
        data: Sequence[np.ndarray],
        rows: int,
    ) -> Iterator[list[int]]:
        """The cohorts of a dispatch, as lists of spec indices.

        Each group of :meth:`_group` runs as the fewest near-equal blocks
        of consecutive members whose largest step buffer fits
        :data:`COHORT_STEP_BYTES`: ``data[i]`` is spec ``i``'s input
        array, and one member's step takes at most ``rows`` of its rows.
        A member's result does not depend on its block, so the blocks
        bound memory and change no byte of the results.
        """
        for idxs in self._group(keys):
            if len(idxs) == 1:
                yield idxs
                continue
            x = data[idxs[0]]
            key = (x.shape[1:], x.dtype.str)
            if key not in self._row_nbytes:
                self._row_nbytes[key] = algorithm.model.row_nbytes(*key)
            member = max(1, min(len(x), rows) * self._row_nbytes[key])
            count = -(-len(idxs) // max(1, COHORT_STEP_BYTES // member))
            ends = [len(idxs) * b // count for b in range(count + 1)]
            yield from (idxs[a:b] for a, b in zip(ends, ends[1:]))

    # -- plumbing ----------------------------------------------------------
    def _load(self, algorithm, members) -> CohortModel:
        """A cohort model holding ``members``' params and buffers."""
        cohort = len(members)
        cm = algorithm.model.as_cohort() if cohort == 1 else self._cohorts.get(cohort)
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

    def map(
        self,
        algorithm: "FederatedAlgorithm",
        method: str,
        argslist: Sequence[tuple],
    ) -> list:
        """The results of ``getattr(algorithm, method)(*args)`` for each
        args tuple, without calling the method.

        ``method`` is a :func:`spec_task` — ``client_update``,
        ``evaluate_client``, or an algorithm-specific one such as
        FedClust's round-0 ``client_partial_weights``.  The dispatch is
        built into specs at once and run (:meth:`run_specs`).

        Args:
            algorithm: the running federation (one runner serves one
                algorithm run).
            method: name of the algorithm method to call for each task.
            argslist: one positional-argument tuple per task.

        Returns:
            The task results, in the order of ``argslist``.

        Raises:
            TypeError: when a subclass ``def`` replaces the spec task
                (:func:`runs_as_specs`).
        """
        if not argslist:
            return []
        runs_as_specs(algorithm, method)
        return self.run_specs(
            algorithm,
            algorithm.client_task_specs(method, [tuple(args) for args in argslist]),
        )

    def run_specs(
        self,
        algorithm: "FederatedAlgorithm",
        specs: Sequence[ClientTrainSpec | ClientEvalSpec],
    ) -> list:
        """Run one dispatch's specs (all train or all eval), each result
        passed through its spec's ``post``, in spec order."""
        _require_buffers(algorithm, specs)
        if isinstance(specs[0], ClientTrainSpec):
            return self._run_train(algorithm, specs)
        return self._run_eval(algorithm, specs)

    def _run_train(self, algorithm, specs):
        from repro.fl.server import ClientUpdate

        cfg = algorithm.config
        fed = algorithm.fed
        results: list = [None] * len(specs)
        # Cohorts must share the dataset/schedule shape, the optimizer's
        # scalars and the loop; everything else (params, labels,
        # generators, prox anchors) stacks per member.
        keys = [
            (fed[s.client_id].train_x.shape, s.epochs,
             s.prox_center is not None, s.prox_mu, s.loop)
            for s in specs
        ]
        data = [fed[s.client_id].train_x for s in specs]
        for idxs in self._blocks(algorithm, keys, data, cfg.batch_size):
            members = [specs[i] for i in idxs]
            first = members[0]
            cm = self._load(algorithm, members)
            xs = np.stack([data[i] for i in idxs])
            ys = np.stack([fed[s.client_id].train_y for s in members])
            rngs = [
                algorithm.rngs.make(f"client{s.client_id}.train", s.round_idx)
                for s in members
            ]
            if first.loop is not None:
                losses, steps, flats = first.loop(cm, members, xs, ys, rngs)
            else:
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
        keys = [
            (fed[s.client_id].test_x.shape, s.adapt,
             None if s.adapt is None else fed[s.client_id].train_x.shape)
            for s in specs
        ]
        data = [fed[s.client_id].test_x for s in specs]
        for idxs in self._blocks(algorithm, keys, data, PREDICT_ROWS):
            members = [specs[i] for i in idxs]
            cm = self._load(algorithm, members)
            if members[0].adapt is not None:
                members[0].adapt(
                    cm, members,
                    np.stack([fed[s.client_id].train_x for s in members]),
                    np.stack([fed[s.client_id].train_y for s in members]),
                )
            xs = np.stack([data[i] for i in idxs])
            ys = np.stack([fed[s.client_id].test_y for s in members])
            accs = evaluate_accuracy_many(cm, xs, ys)
            for acc, i, s in zip(accs, idxs, members):
                acc = float(acc)
                results[i] = acc if s.post is None else s.post(acc)
        return results


@register("backend", "serial")
class SerialBackend(CohortRunner):
    """The runner with every task a group of its own: each trains or
    evaluates as a cohort of one on the engine's work model, one after
    another — the default, and the reference ``vector`` reproduces."""

    name = "serial"

    @staticmethod
    def _group(keys: Sequence[tuple]) -> list[list[int]]:
        return [[i] for i in range(len(keys))]


def make_backend(config=None, backend: str | None = None) -> CohortRunner:
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
        A fresh :class:`CohortRunner` (``serial`` or ``vector``) for one
        run.
    """
    return registry.resolve("backend", spec=backend, config=config).impl.cls()
