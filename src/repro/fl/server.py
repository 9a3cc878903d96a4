"""The federated simulation engine.

One round loop serves all ten algorithms: subclasses override *which model a
client trains* (``params_for_client``), *how updates combine*
(``aggregate``), and optionally the client update itself
(``client_update``).  Communication is metered per transfer from actual
array byte sizes, every random draw comes from a named child of the run's
root seed, and per-round wall-clock time is recorded in the history, so
runs are bit-for-bit reproducible *and* measurable.

Between client execution and aggregation sits the **wire layer**
(:mod:`repro.fl.codecs` / :mod:`repro.fl.network`): each upload's delta is
encoded by the configured codec (quantization, top-k sparsification), the
compressed byte count is metered, and the server decodes — so
aggregation operates on what was actually transmitted.  All of it runs
after the round's client tasks return, so it is the same under either
execution backend (contract below).  The simulated network timing, and
with it a per-round deadline's cuts, is planned before the tasks run,
from the codec's size for the slice length and :meth:`local_steps
<FederatedAlgorithm.local_steps>` (:mod:`repro.fl.scheduler`).

Round convention (paper Alg. 1): round 0 is the setup round (FedClust's
one-shot clustering happens there); training rounds are 1..T.

Execution contract
------------------

Per-client work (``client_update`` / ``evaluate_client``) must be a pure
function of ``(server state, client id, round index)``:

* read server state freely, but never write it — fold results into the
  server only inside ``aggregate``, which runs after all of a round's
  client tasks complete;
* draw randomness only from ``self.rngs.make(name, index)`` with a
  client/round-specific key, never from a shared sequential generator.

Checkpoint/resume and event-log replay rely on this (a resumed round
re-derives every draw from its key), and so does the task runner
(:class:`~repro.fl.execution.CohortRunner`), which builds a dispatch's
tasks at once and, under ``vector``, trains a round's same-shape clients
together as one cohort instead of one after another.  Either backend runs
the one recipe in the runner, and their results compare exactly.
``self.model`` is shared scratch: a task may overwrite its parameters and
buffers freely, and a cohort of one trains on it.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field, replace as dataclass_replace
from typing import Callable, Sequence

import numpy as np

from repro.data.federated import FederatedDataset
from repro.fl import registry
from repro.fl.aggregation import (
    WEIGHTED,
    Aggregator,
    average_states,
    make_aggregator,
    weighted_average,
)
from repro.fl.attacks import NULL_ATTACK, AttackModel, make_attack
from repro.fl.checkpoint import (
    Checkpoint,
    check_compatible,
    load_checkpoint,
    restore as restore_checkpoint,
    run_fingerprint,
)
from repro.fl.codecs import Codec, make_codec
from repro.fl.comm import CommTracker
from repro.fl.config import FLConfig
from repro.fl.execution import (
    ClientEvalSpec,
    ClientTrainSpec,
    CohortRunner,
    SerialBackend,
    make_backend,
    run_spec,
    spec_task,
)
from repro.fl.network import NetworkModel, make_network
from repro.fl.population import PopulationEvent, PopulationModel, make_population
from repro.fl.history import History
from repro.fl.sampling import sample_clients
from repro.fl.scheduler import Scheduler, make_scheduler
from repro.fl.telemetry import NULL_TELEMETRY, make_telemetry
from repro.fl.topology import FLAT_TOPOLOGY, Topology, make_topology
# not called here: the benchmark's tracer (perfbench/layertrace.py)
# patches ``server.local_sgd`` by name, so the name must stay importable
from repro.fl.training import local_sgd  # noqa: F401
from repro.nn.model import Sequential
from repro.nn.serialization import param_nbytes
from repro.utils.rng import RngFactory

__all__ = ["ClientUpdate", "FederatedAlgorithm", "weighted_average", "average_states"]


@dataclass
class ClientUpdate:
    """What a client ships back to the server after local training.

    Attributes:
        client_id: the reporting client.
        params: flat trained parameter vector.
        n_samples: client's local training-set size (FedAvg weighting).
        steps: SGD steps taken (FedNova normalization).
        loss: mean local training loss over the update.
        state: non-trainable buffers (batch-norm statistics) after training.
        extras: algorithm-specific payload (e.g. IFCA's chosen cluster,
            SCAFFOLD's control-variate delta).  Client tasks never write
            server state (the execution contract), so ``extras`` is the
            *only* channel by which a client may influence it — the server
            folds it in during ``aggregate``.
    """

    client_id: int
    params: np.ndarray
    n_samples: int
    steps: int
    loss: float
    state: dict[str, np.ndarray] = field(default_factory=dict)
    extras: dict = field(default_factory=dict)


class FederatedAlgorithm(ABC):
    """Abstract federated algorithm over the shared engine."""

    #: registry name; subclasses set this
    name: str = "base"

    #: whether this algorithm's ``aggregate`` is a plain weighted combine
    #: over the cohort, so a hierarchical topology may pre-reduce the
    #: cohort into edge summaries without changing the method's algebra.
    #: FedAvg/FedProx set this True; algorithms with bespoke cross-client
    #: aggregation (FedNova's normalized directions, the clustered
    #: methods' assignment steps) keep the default and ``run`` rejects
    #: ``topology="hier"`` with ``topo_edges >= 2``.
    supports_hier: bool = False

    def __init__(
        self,
        fed: FederatedDataset,
        model_fn: Callable[[np.random.Generator], Sequential],
        config: FLConfig,
        seed: int = 0,
    ):
        self.fed = fed
        self.config = config
        #: the algorithm's registered knobs, resolved from ``config.extra``
        #: (defaulted and bounds-checked by the registry, so an invalid
        #: value fails here, before any client trains); empty for an
        #: unregistered subclass
        self.options: dict = (
            registry.resolve("algorithm", spec=self.name, config=config).options
            if self.name in registry.get_family("algorithm").impls
            else {}
        )
        self.model_fn = model_fn
        self.rngs = RngFactory(seed)
        self.seed = seed
        #: the one reusable scratch work model: all parameter movement
        #: goes through flat vectors, so a single instance serves every
        #: client/cluster
        self.model: Sequential = model_fn(self.rngs.make("model_init"))
        self.model_bytes = param_nbytes(self.model)
        self.comm = CommTracker()
        self.history = History(self.name, fed.name)
        self._backend: CohortRunner | None = None
        #: wire layer, built by ``run`` from the config (introspectable
        #: afterwards: ``algo.codec.name``, ``algo.network.name``)
        self.codec: Codec | None = None
        self.network: NetworkModel | None = None
        #: control-loop scheduler (:mod:`repro.fl.scheduler`), built by
        #: ``run`` from the config
        self.scheduler: Scheduler | None = None
        #: client-population model (:mod:`repro.fl.population`), built by
        #: ``run`` from the config
        self.population: PopulationModel | None = None
        #: ids currently eligible for selection; ``None`` means "everyone"
        #: (the static population's fast path — bit-for-bit the seed
        #: sampling).  Dynamic populations mutate this set through
        #: :meth:`apply_population_event`.
        self._eligible: set[int] | None = None
        self._ran = False
        #: called as ``on_checkpoint(completed_round, path)`` after every
        #: periodic checkpoint save (the crash-injection harness hooks
        #: its SIGKILL here); ``None`` disables the callback
        self.on_checkpoint: Callable[[int, object], None] | None = None
        #: free-form provenance stored in every checkpoint — the
        #: experiments runner records the cell coordinates here so the
        #: ``resume`` CLI can rebuild the run from the file alone
        self.checkpoint_meta: dict = {}
        #: run-configuration fingerprint, computed at ``run()`` entry
        #: (before any joiner pool detaches) and embedded in checkpoints
        self._fingerprint: dict = {}
        #: run observability (:mod:`repro.fl.telemetry`), built by ``run``
        #: from the config; the shared no-op sink until then (and forever,
        #: with the default ``telemetry="off"``)
        self.telemetry = NULL_TELEMETRY
        #: byzantine-attack model (:mod:`repro.fl.attacks`), built by
        #: ``run`` from the config; the shared no-op attack until then
        #: (and forever, with the default ``attack="none"``)
        self.attack: AttackModel = NULL_ATTACK
        #: server aggregation rule (:mod:`repro.fl.aggregation`), built
        #: by ``run`` from the config; the shared seed-rule (weighted
        #: mean) instance until then, so hooks called outside ``run``
        #: (direct ``aggregate`` calls in tests) keep the seed behaviour
        self.aggregator: Aggregator = WEIGHTED
        #: aggregation topology (:mod:`repro.fl.topology`), built by
        #: ``run`` from the config; the shared flat pass-through until
        #: then, so hooks called outside ``run`` keep the seed data path
        self.topology: Topology = FLAT_TOPOLOGY

    # ------------------------------------------------------------------
    # hooks
    # ------------------------------------------------------------------
    def setup(self) -> None:
        """Round-0 work (one-shot clustering, model initialization...)."""

    @abstractmethod
    def params_for_client(self, client_id: int, round_idx: int) -> np.ndarray:
        """Flat parameter vector the client downloads this round."""

    @abstractmethod
    def aggregate(self, round_idx: int, updates: list[ClientUpdate]) -> None:
        """Fold client updates into server state.

        Always runs after every update of the round has been collected,
        in the deterministic selection order — this is the one place an
        algorithm may write server state in response to client work.
        """

    def staleness_discount(self, staleness: float) -> float:
        """Aggregation-weight multiplier for an update ``staleness`` flushes old.

        Used by asynchronous schedulers (:mod:`repro.fl.scheduler`) when
        folding buffered updates: ``(1 + s)^(-alpha)``, FedAsync's
        polynomial discount, with ``alpha`` the scheduler's resolved
        ``staleness_alpha`` (the config's before ``run`` builds one;
        ``alpha=0`` disables discounting entirely).

        Returns:
            A multiplier in ``[0, 1]``; exactly ``1.0`` for fresh updates.
        """
        if staleness <= 0:
            return 1.0
        options = self.scheduler.options if self.scheduler is not None else {}
        alpha = float(options.get("staleness_alpha", self.config.staleness_alpha))
        return float((1.0 + staleness) ** (-alpha))

    def merge(
        self,
        flush_idx: int,
        updates: list[ClientUpdate],
        staleness: Sequence[float],
    ) -> None:
        """Fold a buffer of possibly-stale client updates into server state.

        The asynchronous schedulers' analogue of :meth:`aggregate`: each
        update carries a *staleness* (how many buffer flushes completed
        between its dispatch and now).  The default implementation
        discounts each update's aggregation weight — its ``n_samples`` —
        by :meth:`staleness_discount` and delegates to :meth:`aggregate`,
        so every algorithm gets staleness-aware buffered aggregation for
        free; updates whose discount reaches 0 are dropped.  Algorithms
        with richer asynchronous semantics (server-side momentum,
        delta-based folding) override this.

        With all-zero staleness the updates pass through untouched, which
        is what makes ``buffered`` with ``buffer_size == cohort`` and
        ``staleness_alpha = 0`` bit-for-bit identical to ``sync``.

        Always runs after the buffer's client tasks, like :meth:`aggregate`.
        """
        merged: list[ClientUpdate] = []
        for u, s in zip(updates, staleness):
            d = self.staleness_discount(s)
            if d <= 0.0:
                continue
            if d != 1.0:
                u = dataclass_replace(u, n_samples=u.n_samples * d)
            merged.append(u)
        self.aggregate(flush_idx, merged)

    # ------------------------------------------------------------------
    # aggregation rule (:mod:`repro.fl.aggregation`)
    # ------------------------------------------------------------------
    def combine(
        self, vectors: list[np.ndarray], weights: Sequence[float]
    ) -> np.ndarray:
        """Merge parameter vectors through the configured aggregation rule.

        Algorithms call this from ``aggregate`` instead of
        :func:`weighted_average` so robust rules (median, trimmed mean)
        plug in beneath every method — per cluster, for the clustered
        ones.  With the default ``weighted`` rule this *is*
        ``weighted_average``, bit-for-bit.  Staleness discounts already
        ride in ``weights`` (``merge`` scales ``n_samples``).

        Args:
            vectors: flat parameter vectors of identical shape.
            weights: non-negative aggregation weights.
        """
        return self.aggregator.combine(vectors, list(weights))

    def combine_states(
        self, states: list[dict[str, np.ndarray]], weights: Sequence[float]
    ) -> dict[str, np.ndarray]:
        """Merge non-trainable buffers through the configured rule.

        With the default rule this is :func:`average_states`, bit-for-bit.
        """
        return self.aggregator.combine_states(states, list(weights))

    def eval_params_for_client(self, client_id: int) -> np.ndarray:
        """Model evaluated on a client's local test set (defaults to the
        model it would train)."""
        return self.params_for_client(client_id, round_idx=-1)

    def eval_state_for_client(self, client_id: int) -> dict[str, np.ndarray]:
        """Non-trainable buffers paired with the eval model."""
        return {}

    def state_for_client(self, client_id: int, round_idx: int) -> dict[str, np.ndarray]:
        """Non-trainable buffers the client downloads this round."""
        return self.eval_state_for_client(client_id)

    def client_task_specs(
        self, method: str, argslist: Sequence[tuple]
    ) -> "list[ClientTrainSpec] | list[ClientEvalSpec]":
        """The tasks of one dispatch of a spec task, as specs.

        This is the one statement of each default-recipe task
        (:mod:`repro.fl.execution`, "Spec tasks"): the task method runs
        the one spec built from its own arguments through
        :func:`~repro.fl.execution.run_spec`, and either backend builds a
        whole dispatch at once and runs it.  Building at once lets an
        algorithm share work across its tasks (IFCA scores every cluster
        model on all of them in one pass).  The base answers for
        ``client_update`` (local SGD from ``params_for_client``/
        ``state_for_client``) and ``evaluate_client`` (the accuracy of
        ``eval_params_for_client``/``eval_state_for_client``).  An
        algorithm changes a task's inputs by overriding this (FedProx's
        proximal anchor, IFCA's argmin cluster), and adds a task by
        answering for a new :func:`~repro.fl.execution.spec_task` method
        here (FedClust's round-0 warm-up).

        Args:
            method: the spec task's method name.
            argslist: one positional-argument tuple per task.

        Returns:
            One spec per task, in ``argslist`` order.
        """
        if method == "client_update":
            return [
                ClientTrainSpec(
                    client_id=int(client_id),
                    round_idx=int(round_idx),
                    params=self.params_for_client(client_id, round_idx),
                    state=self.state_for_client(client_id, round_idx),
                )
                for client_id, round_idx in argslist
            ]
        if method == "evaluate_client":
            return [
                ClientEvalSpec(
                    client_id=int(client_id),
                    params=self.eval_params_for_client(client_id),
                    state=self.eval_state_for_client(client_id),
                )
                for (client_id,) in argslist
            ]
        raise ValueError(f"{method!r} is not a spec task of {self.name!r}")

    def local_steps(self, client_id: int) -> int:
        """SGD steps the client's update takes, known before it trains.

        The scheduler plans each round's simulated arrivals from this
        count, and a planned upload that reports another ``steps`` fails
        the run (:meth:`Scheduler.encode_upload
        <repro.fl.scheduler.Scheduler.encode_upload>`).  This is the
        default recipe's ``local_epochs × ⌈n_train / batch_size⌉``, which
        SCAFFOLD's and FedDyn's loops also take; an algorithm whose loop
        takes another number of steps overrides it (Per-FedAvg).
        """
        cfg = self.config
        return cfg.local_epochs * -(-self.fed[client_id].n_train // cfg.batch_size)

    def download_bytes(self, client_id: int, round_idx: int) -> int:
        """Bytes the server sends a selected client this round."""
        return self.model_bytes

    def upload_bytes(self, client_id: int, round_idx: int) -> int:
        """Bytes the client sends back this round."""
        return self.model_bytes

    # ------------------------------------------------------------------
    # wire layer (codec) hooks
    # ------------------------------------------------------------------
    def wire_reference(self, update: ClientUpdate, round_idx: int) -> np.ndarray:
        """The parameter vector the client *downloaded* this round.

        The codec encodes ``update.params - wire_reference`` (the delta
        that actually crosses the wire) and the server reconstructs from
        the same reference, which it still holds because ``aggregate`` has
        not yet run.  Algorithms whose clients train a model other than
        ``params_for_client`` (e.g. IFCA's argmin choice) override this.
        """
        return self.params_for_client(update.client_id, round_idx)

    def wire_slice(self) -> slice:
        """Portion of the flat parameter vector that crosses the wire.

        The codec compresses exactly this slice; anything outside it never
        leaves the client (LG-FedAvg's local representation layers) and is
        kept bit-exact in the update.  Defaults to the whole vector.
        """
        return slice(None)

    def wire_payload_bytes(self) -> int:
        """Seed-metering cost of the codec-compressible payload.

        ``upload_bytes()`` minus this is protocol overhead the codec does
        not touch (SCAFFOLD's control variate rides uncompressed);
        overridden alongside :meth:`wire_slice` (LG's global segment).
        """
        return self.model_bytes

    # ------------------------------------------------------------------
    # checkpoint state (:mod:`repro.fl.checkpoint`)
    # ------------------------------------------------------------------
    #: instance attributes that are engine infrastructure, not algorithm
    #: state: a resumed run rebuilds them deterministically (or they are
    #: captured through their own state sections), so the generic
    #: ``checkpoint_state`` capture below excludes them.  Everything an
    #: algorithm subclass adds to ``self`` — cluster maps, control
    #: variates, per-client models, residual-carrying scalars — is
    #: captured automatically.
    _ENGINE_STATE_ATTRS = frozenset({
        "fed", "config", "options", "model_fn", "rngs", "seed", "model",
        "model_bytes",
        "comm", "history", "_backend",
        "codec", "network", "scheduler", "population",
        "_eligible", "_ran",
        "on_checkpoint", "checkpoint_meta", "_fingerprint",
        "telemetry", "attack", "aggregator", "topology",
    })

    def checkpoint_state(self) -> dict:
        """Picklable snapshot of all algorithm-owned mutable state.

        Generic by design: every attribute outside the engine's
        infrastructure set is algorithm state (numpy arrays, dicts,
        lists, scalars — all plain data by the execution contract), so
        subclasses get checkpointing without writing capture code.
        """
        return {
            k: v
            for k, v in self.__dict__.items()
            if k not in self._ENGINE_STATE_ATTRS
        }

    def load_checkpoint_state(self, state: dict) -> None:
        """Install a :meth:`checkpoint_state` snapshot."""
        for key, value in state.items():
            setattr(self, key, value)

    def _map_clients(self, method: str, argslist: list[tuple]) -> list:
        """Run per-client tasks through the active backend (a fresh
        ``serial`` one when no run is in progress, e.g. in tests that call
        hooks directly)."""
        return (self._backend or SerialBackend()).map(self, method, argslist)

    # ------------------------------------------------------------------
    # engine
    # ------------------------------------------------------------------
    def run(self, resume_from: "str | Checkpoint | None" = None) -> History:
        """Execute the federation and return its history.

        ``run`` builds the run's population model, backend, wire layer,
        and control-loop scheduler — each resolved through the component
        registry (:mod:`repro.fl.registry`) from the config, the
        ``REPRO_*`` environment, or inline spec strings — executes
        round-0 ``setup`` (over the population's initial roster; a
        joining model holds its pool out of the one-shot clustering),
        and hands rounds 1..T to the scheduler, which interleaves the
        population's join/leave/return events with arrivals on the
        virtual clock (:mod:`repro.fl.population`).  The default ``sync``
        scheduler is the seed round loop: sample clients, drop the
        unavailable (network model), meter downloads, draw dropouts,
        plan each survivor's simulated trip and cut those a deadline
        would, execute the kept clients' updates on the configured
        backend, pass each upload through the wire layer (codec encode →
        meter compressed bytes → decode), aggregate the delivered
        cohort, and (on eval rounds) record accuracy, communication,
        simulated round time, and wall-clock timing.  ``semisync`` and
        ``buffered`` rearrange the same primitives on a virtual-clock
        event queue.

        With ``scheduler="sync"``, ``codec="none"``, ``network="ideal"``,
        ``population="static"``, and no deadline (the defaults) every
        wire-layer and population branch is skipped and the loop is
        bit-for-bit the seed behaviour.

        Args:
            resume_from: a checkpoint path or loaded
                :class:`~repro.fl.checkpoint.Checkpoint` to resume.  The
                engine builds the run exactly as a fresh one (the
                deterministic parts — dataset, joiner pools, link draws —
                re-derive from the seed), verifies the checkpoint's
                configuration fingerprint, installs the saved state,
                skips round-0 ``setup`` (it already ran), and continues
                at the next round.  The resulting history is bit-for-bit
                the unbroken run's (wall-clock ``seconds`` aside).

        Returns:
            The populated :class:`~repro.fl.history.History` (also available
            as ``self.history``).

        Raises:
            RuntimeError: if called more than once on the same instance.
            ValueError: if ``resume_from`` is invalid, corrupt, or was
                saved under a different run configuration (the message
                names every mismatched field).
        """
        if self._ran:
            raise RuntimeError("run() may only be called once per instance")
        self._ran = True
        cfg = self.config
        ckpt: Checkpoint | None = None
        if resume_from is not None:
            ckpt = (
                resume_from
                if isinstance(resume_from, Checkpoint)
                else load_checkpoint(resume_from)
            )
        # fingerprint before the population detaches any joiner pool, so
        # ``num_clients`` means the full federation on both sides of a
        # crash/resume pair
        self._fingerprint = run_fingerprint(self)
        if ckpt is not None:
            check_compatible(ckpt, self)
        # Adversaries are drawn over the *full* id space before the
        # population detaches its joiner pool (late joiners carry their
        # allegiance in).  The aggregation rule is built alongside; with
        # the defaults both are the shared no-op / seed-rule objects and
        # nothing downstream changes.
        self.attack = make_attack(cfg, self.fed.num_clients, self.rngs)
        self.aggregator = make_aggregator(cfg)
        # The aggregation topology sits between scheduler delivery and
        # the algorithm; ``flat`` (the default) is a shared pass-through
        # and nothing downstream changes.  Hierarchical pre-reduction is
        # only sound for plain-combine algorithms (``supports_hier``).
        self.topology = make_topology(cfg, self.fed.num_clients, self.rngs)
        if self.topology.edges > 1 and not self.supports_hier:
            raise RuntimeError(
                f"algorithm {self.name!r} has bespoke cross-client "
                "aggregation and cannot run under a hierarchical topology "
                f"({self.topology.name}:{self.topology.edges} edges); use "
                "topology='flat' or a plain-combine algorithm "
                "(fedavg/fedprox)"
            )
        self.topology.begin(self)
        # The population binds first: a joining model detaches its pool
        # here, so round-0 setup and the network/backend below only ever
        # see the initial roster (total size is passed for id-keyed
        # draws; joiner links draw lazily on arrival).
        self.population = make_population(cfg, self.fed.num_clients, self.rngs)
        if self.population.dynamic:
            self.population.begin(self)
            if not self.population.lazy:
                # a lazy model keeps no eligibility set (O(population));
                # selection runs over the full roster and reachability is
                # resolved per sampled client at wire-down
                self._eligible = {
                    int(c) for c in self.population.initial_roster()
                }
        self._backend = make_backend(cfg)
        self.codec = make_codec(cfg)
        self.network = make_network(cfg, self.fed.num_clients, self.rngs)
        self.scheduler = make_scheduler(cfg)
        resume_sched: dict | None = None
        if ckpt is not None:
            # install the saved state over the freshly-built components;
            # ``setup`` is skipped below — its results live in the state
            resume_sched = restore_checkpoint(self, ckpt)
        # a caller may inject a pre-built Telemetry (e.g. to attach an
        # ``on_record`` hook) before run(); otherwise resolve from config
        if self.telemetry is NULL_TELEMETRY:
            self.telemetry = make_telemetry(cfg)
        self.codec.telemetry = self.telemetry
        self.telemetry.begin_run(
            self, resumed_from=None if ckpt is None else int(ckpt.round)
        )
        if self.attack.enabled:
            # the NULL_ATTACK singleton is shared across runs, so only a
            # real per-run attack model gets the live sink attached
            self.attack.telemetry = self.telemetry
            for cid in self.attack.roster:
                self.telemetry.emit("attack_assign", client=int(cid))
        try:
            if ckpt is None:
                t0 = time.perf_counter()
                with self.telemetry.span("setup", cat="engine"):
                    self.setup()
                self.history.setup_seconds = time.perf_counter() - t0
                self.telemetry.emit(
                    "setup", seconds=float(self.history.setup_seconds)
                )
            self.scheduler.run(self, resume=resume_sched)
        finally:
            self._backend = None
            self.telemetry.finish(self)
        return self.history

    def select_clients(
        self, round_idx: int, sample_rate: float | None = None
    ) -> np.ndarray:
        """Sampled client ids for one round (sorted, without replacement).

        Under a dynamic population (:mod:`repro.fl.population`) the draw
        is over the currently *eligible* ids and the cohort size scales
        with the eligible count, so churn shrinks cohorts
        proportionally; with the default static population this is
        bit-for-bit the seed sampling.

        Args:
            round_idx: round (or dispatch-cycle) index keying the draw.
            sample_rate: participation-rate override — the ``semisync``
                scheduler passes its over-selected rate; defaults to
                ``config.sample_rate``.
        """
        rate = self.config.sample_rate if sample_rate is None else sample_rate
        rng = self.rngs.make("sampling", round_idx)
        if self._eligible is None:
            return sample_clients(self.fed.num_clients, rate, rng)
        eligible = self.roster()
        return sample_clients(eligible.size, rate, rng, eligible=eligible)

    # ------------------------------------------------------------------
    # dynamic populations (:mod:`repro.fl.population`)
    # ------------------------------------------------------------------
    def roster(self) -> np.ndarray:
        """Sorted ids currently eligible for selection."""
        if self._eligible is None:
            return np.arange(self.fed.num_clients, dtype=np.int64)
        return np.fromiter(sorted(self._eligible), dtype=np.int64,
                           count=len(self._eligible))

    def roster_size(self) -> int:
        """Eligible-id count without materializing the roster array
        (schedulers size quorums from this at every round; a lazy
        million-client population must not build an id array per round)."""
        if self._eligible is None:
            return int(self.fed.num_clients)
        return len(self._eligible)

    def on_join(self, client_id: int, key_idx: int) -> dict:
        """Algorithm-specific work for a mid-run join (population event).

        The base implementation does nothing — global-model algorithms
        serve a newcomer out of the box.  Clustered algorithms override
        this to assign the joiner a cluster (FedClust through the
        paper's Alg. 2 weight-distance rule); whatever dict is returned
        is merged into the recorded population event.
        """
        return {}

    def apply_population_event(self, event: PopulationEvent, key_idx: int) -> dict | None:
        """Apply one population event to the running federation.

        Called by the scheduler on the main thread, between rounds (or
        dispatch cycles), in event-time order.  ``leave`` removes a
        client from selection eligibility — its per-cluster state stays,
        so a later ``return`` resumes where it left off; a leave that
        would empty the federation is suppressed (and recorded as such).
        ``join`` attaches the joiner's shard to the dataset, runs
        :meth:`on_join`, and makes the client eligible.

        Returns:
            The event record for ``RoundRecord.extras["population"]``,
            or ``None`` for a no-op (leaving while already away,
            returning while present).
        """
        if self._eligible is None and not self.population.lazy:
            # population hooks off (static)
            return None
        cid = int(event.client)
        rec: dict = {"t": float(event.time), "kind": event.kind, "client": cid}
        if event.kind == "leave":
            # lazy models never emit leave/return — reachability is
            # answered at wire-down (Scheduler.wire_down) instead
            if self._eligible is None or cid not in self._eligible:
                return None
            if len(self._eligible) == 1:
                # never let the federation empty out entirely
                rec["suppressed"] = True
                return rec
            self._eligible.discard(cid)
        elif event.kind == "return":
            if (
                self._eligible is None
                or cid >= self.fed.num_clients
                or cid in self._eligible
            ):
                return None
            self._eligible.add(cid)
        elif event.kind == "join":
            client = self.population.take_joiner(cid)
            self.fed.attach(client)
            rec.update(self.on_join(cid, key_idx) or {})
            if self._eligible is not None:
                self._eligible.add(cid)
        else:
            raise ValueError(f"unknown population event kind {event.kind!r}")
        return rec

    @spec_task
    def client_update(self, client_id: int, round_idx: int) -> ClientUpdate:
        """Default client behaviour: local SGD from the assigned model, as
        :meth:`client_task_specs` states it.

        Pure with respect to server state (see the module docstring).
        """
        (spec,) = self.client_task_specs("client_update", [(client_id, round_idx)])
        return run_spec(self, spec)

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def evaluate(self) -> float:
        """The paper's headline metric: average local test accuracy.

        With ``eval_clients == 0`` (the default) every client is
        evaluated on its own designated model — the seed behaviour,
        bit-for-bit.  A positive ``eval_clients`` instead draws that
        many clients (without replacement, from the full id space) with
        a keyed generator seeded per evaluation, so million-client runs
        pay O(eval_clients) per record; the draw is a pure function of
        the run seed and the committed-record count, hence identical
        across a crash/resume pair.
        """
        n = self.fed.num_clients
        k = int(self.config.eval_clients)
        if k and k < n:
            rng = self.rngs.make("eval_sample", len(self.history.records))
            ids = np.sort(rng.choice(n, size=k, replace=False))
            with self.telemetry.span("eval", cat="engine", clients=k):
                argslist = [(int(cid),) for cid in ids]
                accs = self._map_clients("evaluate_client", argslist)
                return float(np.mean(np.asarray(accs, dtype=np.float64)))
        with self.telemetry.span("eval", cat="engine", clients=int(n)):
            return float(np.mean(self.per_client_accuracy()))

    def per_client_accuracy(self) -> np.ndarray:
        """Local test accuracy of every client, in client-id order.

        Runs through the active execution backend during :meth:`run`;
        serially otherwise.
        """
        argslist = [(cid,) for cid in range(self.fed.num_clients)]
        return np.asarray(self._map_clients("evaluate_client", argslist), dtype=np.float64)

    @spec_task
    def evaluate_client(self, client_id: int) -> float:
        """One client's local test accuracy on its designated eval model,
        as :meth:`client_task_specs` states it.

        Pure with respect to server state (see the module docstring).
        """
        (spec,) = self.client_task_specs("evaluate_client", [(client_id,)])
        return run_spec(self, spec)
