"""Pluggable client-execution backends for the federated round loop.

The engine (:class:`repro.fl.server.FederatedAlgorithm`) simulates every
selected client per round.  How those per-client tasks *execute* — serially,
on a thread pool, or on a pool of forked worker processes — is the concern of
this module, selected via :attr:`repro.fl.config.FLConfig.backend` and
:attr:`~repro.fl.config.FLConfig.workers` (or the ``REPRO_BACKEND`` /
``REPRO_WORKERS`` environment variables when ``backend="auto"``).

Bit-for-bit reproducibility contract
------------------------------------

All *distributing* backends (serial/thread/process) produce identical
results (histories, communication bills, cluster assignments) because
client-side work is written as a pure function of
``(server state, client id, round index)``:

* every random draw comes from a named child of the run's root seed
  (:class:`repro.utils.rng.RngFactory`), never from shared-generator call
  order;
* client tasks never write server-side state — algorithms fold results into
  the server exclusively inside ``aggregate`` (which always runs in the
  parent, after all of the round's tasks complete);
* results are returned in submission order regardless of completion order,
  so downstream floating-point reductions see the same operand order.

Backends
--------

``SerialBackend``
    The default: runs tasks in a plain loop on the caller's thread, on the
    engine's shared work model — the exact seed behaviour.

``ThreadBackend``
    A persistent :class:`~concurrent.futures.ThreadPoolExecutor`.  Each
    worker thread lazily builds its own work-model replica (see
    ``FederatedAlgorithm.model``), so tasks never share mutable buffers.
    NumPy releases the GIL only inside large kernels; at the small model
    sizes of the CPU benches this backend mostly demonstrates the seam
    rather than a speedup.

``CohortRunner`` (``backend="vector"``)
    No pool at all: same-shape client tasks are stacked along a leading
    cohort axis and executed as *one* batched tensor program through the
    ``nn`` layers' ``forward_many``/``backward_many`` kernels — the
    single-core throughput lever.  Batching reorders float accumulation,
    so this backend trades bit-exactness for a pinned numeric tolerance
    (``VECTOR_*`` constants below); tasks it cannot batch (bespoke client
    loops, stateful-RNG layers, singleton dispatches) run through the
    exact serial loop and stay bit-for-bit.

``ProcessBackend``
    A persistent pool of ``fork``-start worker processes (Linux/macOS).
    Workers inherit the immutable bulk of the simulation — datasets, model
    topology, config — through copy-on-write fork memory; the *mutable*
    server state a client task reads (global/cluster parameter vectors,
    control variates, …) is declared per algorithm via
    ``FederatedAlgorithm.exec_state_attrs`` and shipped to workers before
    every dispatch.  This is the backend that turns wall-clock speedups on
    multi-core hardware.

Process backend and lazy shards
-------------------------------

With an eager :class:`~repro.data.federated.FederatedDataset` the fork
inherits every client's materialised train/test arrays — cheap pages
while untouched, but the *whole federation's* shards are addressable in
every worker.  A :class:`~repro.data.federated.LazyFederatedDataset`
changes the accounting: at fork time only the raw dataset and the (lazy)
partition description are shared, and each worker materialises **exactly
the shards its own tasks touch** (shard synthesis is a pure function of
``(seed, client_id)``, so no coordination is needed and each worker's
resident set stays bounded by its task chunk plus the LRU cap —
asserted by ``tests/test_topology.py``).

One limitation stands: **population joins still require a shared-memory
backend** (serial/thread).  Workers fork before any joiner attaches, so
a mid-run ``attach`` would grow the roster in the parent only; the
engine rejects the combination at ``run()`` rather than diverge
(:class:`repro.fl.server.FederatedAlgorithm` raises on
``ProcessBackend`` + a joining population, lazy or not).
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from abc import ABC, abstractmethod
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from repro.fl import registry
from repro.fl.registry import opt, register
from repro.fl.training import evaluate_accuracy_many, local_sgd_many
from repro.nn.model import CohortModel
from repro.nn.optim import CohortSGD

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.fl.server import ClientUpdate, FederatedAlgorithm

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "CohortRunner",
    "ClientTrainSpec",
    "ClientEvalSpec",
    "ClientSlots",
    "make_backend",
    "resolve_workers",
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


#: worker-pool size knob, shared by the thread/process backends and
#: declared once for the whole family (``REPRO_WORKERS`` only fills a
#: zero/unset value, and only when the backend resolved through "auto")
registry.family_options("backend", [
    opt("workers", int, 0,
        low=0, env="REPRO_WORKERS", cli="workers", field="workers",
        only_for=("thread", "process"), env_mode="auto_fill",
        help="worker-pool size for thread/process backends "
             "(0 picks min(4, cpu_count))"),
])


class ClientSlots:
    """A per-client-indexed subset of a server-side sequence.

    ``FederatedAlgorithm.exec_state`` wraps attributes declared in
    ``exec_state_client_attrs`` (per-client parameter lists and the like) in
    this marker so the process backend ships only the dispatched clients'
    slots instead of the whole federation's, and ``load_exec_state`` writes
    them back slot-by-slot on the worker.
    """

    __slots__ = ("slots",)

    def __init__(self, slots: dict[int, object]):
        self.slots = slots

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ClientSlots({sorted(self.slots)})"


def resolve_workers(workers: int | None) -> int:
    """Resolve a worker-count knob to a concrete pool size.

    Args:
        workers: requested worker count; ``None`` or ``0`` means "pick a
            default" (``min(4, os.cpu_count())``).

    Returns:
        A positive integer pool size.
    """
    if workers is not None and workers > 0:
        return int(workers)
    return min(4, os.cpu_count() or 1)


def _split_chunks(seq: list, n: int) -> list[list]:
    """Split ``seq`` into at most ``n`` contiguous, size-balanced chunks."""
    n = max(1, min(n, len(seq)))
    q, r = divmod(len(seq), n)
    chunks, start = [], 0
    for i in range(n):
        size = q + (1 if i < r else 0)
        chunks.append(seq[start : start + size])
        start += size
    return chunks


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

    def close(self) -> None:
        """Release pool resources.  Idempotent; called by the engine when a
        run finishes (including on error)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


@register("backend", "serial")
class SerialBackend(ExecutionBackend):
    """Sequential in-process execution — the seed engine's exact behaviour."""

    name = "serial"

    def map(self, algorithm, method, argslist):
        fn = getattr(algorithm, method)
        return [fn(*args) for args in argslist]


@register("backend", "thread")
class ThreadBackend(ExecutionBackend):
    """Thread-pool execution with per-thread work-model replicas."""

    name = "thread"

    def __init__(self, workers: int | None = None):
        self.workers = resolve_workers(workers)
        self._pool: ThreadPoolExecutor | None = None

    def map(self, algorithm, method, argslist):
        if not argslist:
            return []
        fn = getattr(algorithm, method)
        if len(argslist) == 1 or self.workers == 1:
            return [fn(*args) for args in argslist]
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-exec"
            )
        return list(self._pool.map(lambda args: fn(*args), argslist))

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ThreadBackend(workers={self.workers})"


#: Handoff slot read by forked pool workers at fork time (the child keeps a
#: copy-on-write reference to the whole algorithm, datasets included).
#: Guarded by ``_FORK_LOCK`` so concurrent runs in one process cannot fork
#: workers bound to each other's algorithm.
_FORK_ALGORITHM: "FederatedAlgorithm | None" = None
_FORK_LOCK = threading.Lock()


def _run_chunk(payload: tuple[dict, list[tuple[str, tuple]]]) -> list:
    """Worker-side task runner: refresh server state, execute a job chunk."""
    state, jobs = payload
    algorithm = _FORK_ALGORITHM
    if algorithm is None:  # pragma: no cover - defensive
        raise RuntimeError("worker process has no inherited algorithm")
    if state:
        algorithm.load_exec_state(state)
    return [getattr(algorithm, method)(*args) for method, args in jobs]


@register("backend", "process")
class ProcessBackend(ExecutionBackend):
    """Forked worker-process execution with per-dispatch state sync.

    The pool is created lazily at the first dispatch, *after* the
    algorithm's ``__init__`` (and usually its ``setup``) has populated the
    immutable bulk of the simulation, which workers then inherit through
    fork copy-on-write memory.  Before each dispatch the parent ships the
    algorithm's declared mutable state (``exec_state_attrs``) to workers, so
    tasks always read the current round's parameters.
    """

    name = "process"

    def __init__(self, workers: int | None = None):
        self.workers = resolve_workers(workers)
        self._pool = None
        self._algo_id: int | None = None

    def _ensure_pool(self, algorithm: "FederatedAlgorithm") -> None:
        if self._pool is not None:
            if self._algo_id != id(algorithm):
                raise RuntimeError(
                    "a ProcessBackend instance serves one algorithm run; "
                    "create a fresh backend for a new run"
                )
            return
        if "fork" not in multiprocessing.get_all_start_methods():
            raise RuntimeError(
                "ProcessBackend requires the 'fork' start method "
                "(Linux/macOS); use backend='thread' or 'serial' instead"
            )
        global _FORK_ALGORITHM
        ctx = multiprocessing.get_context("fork")
        with _FORK_LOCK:
            _FORK_ALGORITHM = algorithm
            try:
                self._pool = ctx.Pool(processes=self.workers)
            finally:
                _FORK_ALGORITHM = None
        self._algo_id = id(algorithm)

    def map(self, algorithm, method, argslist):
        if not argslist:
            return []
        if len(argslist) == 1 or self.workers == 1:
            # Not worth a round-trip; run on the parent (same pure contract).
            fn = getattr(algorithm, method)
            return [fn(*args) for args in argslist]
        self._ensure_pool(algorithm)
        # Task shape contract: args[0] is the client id, which lets the
        # state snapshot narrow per-client attributes to each worker's own
        # chunk (a task may only read its own slot, so no worker needs the
        # other chunks' slots).
        jobs = [(method, tuple(args)) for args in argslist]
        payloads = [
            (algorithm.exec_state(client_ids=[args[0] for _, args in chunk]), chunk)
            for chunk in _split_chunks(jobs, self.workers)
        ]
        results = self._pool.map(_run_chunk, payloads, chunksize=1)
        return [r for chunk in results for r in chunk]

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None
            self._algo_id = None

    def __del__(self):  # pragma: no cover - safety net
        if getattr(self, "_pool", None) is not None:
            self._pool.terminate()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ProcessBackend(workers={self.workers})"


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
    #: main-thread postprocessor applied to the finished ``ClientUpdate``
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

    Instead of distributing the per-client Python loops (thread/process),
    this backend removes them: all same-shape tasks of a dispatch are
    stacked along a leading *cohort axis* and executed as one batched
    forward/backward/update per step through the ``nn`` layers'
    ``forward_many``/``backward_many`` kernels and :class:`CohortSGD` —
    the throughput lever on a single core, where pools cannot help.

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

    def __init__(self, workers: int | None = None):
        # ``workers`` is the backend family's shared knob; this backend
        # has no pool and accepts it only for constructor uniformity.
        del workers
        self._algo_id: int | None = None
        self._cohorts: dict[int, CohortModel] = {}
        self._probe: tuple[bool, bool] | None = None

    # -- plumbing ----------------------------------------------------------
    def _reset_for(self, algorithm: "FederatedAlgorithm") -> None:
        if self._algo_id != id(algorithm):
            self._algo_id = id(algorithm)
            self._cohorts = {}
            self._probe = None

    @staticmethod
    def _serial(algorithm, method, argslist) -> list:
        # the exact SerialBackend loop (bit-for-bit fallback path)
        fn = getattr(algorithm, method)
        return [fn(*args) for args in argslist]

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
            return self._serial(algorithm, method, argslist)
        specs = [
            algorithm.client_task_spec(method, tuple(args))
            for args in argslist
        ]
        if any(s is None for s in specs):
            return self._serial(algorithm, method, argslist)
        if has_state and any(not s.state for s in specs):
            # a stateful model whose task carries no buffers relies on the
            # serial work model's carryover semantics; don't approximate it
            return self._serial(algorithm, method, argslist)
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



def make_backend(
    config=None,
    backend: str | None = None,
    workers: int | None = None,
) -> ExecutionBackend:
    """Build the execution backend for one federation run.

    Args:
        config: an :class:`~repro.fl.config.FLConfig` supplying default
            ``backend`` / ``workers`` knobs (optional).
        backend: explicit backend spec overriding the config — a
            registered name, ``"auto"``, or an inline spec like
            ``"thread:workers=4"``.
        workers: explicit worker count overriding the config (``0``/``None``
            picks a machine-dependent default).

    Resolution is the registry's (:func:`repro.fl.registry.resolve`):
    ``"auto"`` reads ``REPRO_BACKEND`` (default ``serial``) and
    ``REPRO_WORKERS``, which lets an entire benchmark or test invocation
    switch backends without touching code.

    Returns:
        A fresh :class:`ExecutionBackend`; the caller owns it and must
        ``close()`` it when the run finishes.
    """
    r = registry.resolve(
        "backend", spec=backend, config=config, overrides={"workers": workers}
    )
    if r.impl.cls is SerialBackend:
        return SerialBackend()
    return r.impl.cls(workers=r.options["workers"])
