"""Dynamic client populations: churn, growth, and newcomer onboarding.

The seed engine simulates a *fixed* population: whoever exists at round 0
is the federation forever.  Real federations are dynamic — clients go
offline for hours, come back, and brand-new clients join long after the
initial clustering.  The paper's headline practical claim (Alg. 2) is
that weight-driven clustering absorbs such *newcomers* cheaply: assign a
joiner to an existing cluster from its weights instead of re-clustering
the world.  This module makes the population itself a pluggable
component family, exercised by every scheduler.

A :class:`PopulationModel` owns two things:

* the **initial roster** (who is eligible for selection at round 1), and
* a deterministic, seeded stream of :class:`PopulationEvent`\\ s —
  ``leave`` / ``return`` / ``join`` — on the scheduler's virtual clock.

Schedulers (:mod:`repro.fl.scheduler`) drain due events at each round
(sync/semisync) or dispatch cycle (buffered) boundary and apply them to
the running federation: leaves remove clients from selection
*eligibility* without touching their per-cluster state (so a returning
client resumes where it left off), and joins flow through the paper's
newcomer path — the joiner briefly trains θ⁰, uploads partial weights,
and is assigned to the nearest cluster centroid
(:meth:`repro.core.fedclust.FedClust.assign_newcomer`), with ``random``
and ``coldstart`` ablation knobs.  Applied events land in
``RoundRecord.extras["population"]``.

Population models
-----------------

``static``
    The seed behaviour: the round-0 roster never changes.  The engine
    short-circuits every population hook, so the default configuration
    stays bit-for-bit the seed engine.

``churn``
    Seeded per-client up/down sessions: each churning client
    (``pop_churn_frac`` of the federation) alternates exponentially
    distributed on-times (mean ``pop_session``) and off-times (mean
    ``pop_gap``).  Optional late joiners via ``pop_joiners``.

``growth``
    Holds out the last ``pop_joiners`` clients (their shards were
    already materialised by the partitioner; see
    :meth:`repro.data.federated.FederatedDataset.detach_joiners`) and
    joins them one by one at ``pop_join_start + i * pop_join_every``.

``trace``
    Replays an explicit ``pop_trace`` event list
    (``"time:kind:client;..."``), for scripted scenarios and tests.

Virtual time
------------

Event times are in the scheduler's simulated seconds.  When nothing is
being simulated (the ideal network with no deadline) every scheduler
falls back to counting **one second per round** (per flush, for
``buffered``), so population scenarios remain expressible — and mean
the same thing across schedulers — in the default configuration.

Determinism
-----------

Every draw comes from a client-keyed child of the run's root seed
(``rngs.make("population.churn", client_id)``), consumed in a fixed
per-client order, so the event stream is reproducible regardless of
scheduler or execution backend.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.fl import registry
from repro.fl.registry import opt, register
from repro.utils.rng import RngFactory, generator_state, restore_generator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.data.federated import ClientData
    from repro.fl.server import FederatedAlgorithm

__all__ = [
    "PopulationEvent",
    "PopulationModel",
    "StaticPopulation",
    "ChurnPopulation",
    "GrowthPopulation",
    "TracePopulation",
    "make_population",
]

#: implementations whose joins/assignment knobs make sense
_JOINING = ("churn", "growth", "trace")

#: ``FLConfig.extra`` knobs shared across population models, declared
#: once for the family (prefix ``pop_``; unknown ``pop_*`` keys are
#: rejected by ``FLConfig`` validation).
registry.family_options("population", [
    opt("pop_assign", str, "weights",
        choices=("weights", "random", "coldstart"),
        env="REPRO_POP_ASSIGN", alias="assign", only_for=_JOINING,
        help="newcomer cluster assignment: `weights` = the paper's "
             "Alg. 2 nearest-centroid rule from a brief θ⁰ probe, "
             "`random` = seeded uniform cluster draw, `coldstart` = "
             "largest existing cluster, no probe"),
    opt("pop_probe_epochs", int, None, optional=True, low=0,
        env="REPRO_POP_PROBE_EPOCHS", alias="probe_epochs",
        only_for=_JOINING,
        help="local epochs of the joiner's θ⁰ probe before weight "
             "assignment (default: the algorithm's warm-up epochs)"),
    opt("pop_joiners", int, 0, low=0,
        env="REPRO_POP_JOINERS", alias="joiners", only_for=("churn", "growth"),
        help="clients held out of the initial federation to join later "
             "(for `growth`, 0 means one fifth of the federation)"),
    opt("pop_join_start", float, 2.0, low=0.0,
        env="REPRO_POP_JOIN_START", alias="join_start",
        only_for=("churn", "growth"),
        help="virtual time of the first join"),
    opt("pop_join_every", float, 2.0, low=0.0, low_inclusive=False,
        env="REPRO_POP_JOIN_EVERY", alias="join_every",
        only_for=("churn", "growth"),
        help="virtual seconds between consecutive joins"),
])


@dataclass(frozen=True)
class PopulationEvent:
    """One membership change on the virtual clock.

    Attributes:
        time: virtual time the event fires at.
        kind: ``"leave"`` (drop from eligibility), ``"return"``
            (restore eligibility), or ``"join"`` (a brand-new client
            enters through the newcomer path).
        client: the client id the event concerns.
    """

    time: float
    kind: str
    client: int


class PopulationModel:
    """Base class: who is in the federation, and when that changes.

    One instance serves one run.  ``begin`` runs once, after the
    algorithm is constructed but *before* round-0 ``setup`` — a joining
    model detaches its joiner pool there, so the one-shot clustering
    only ever sees the initial roster.
    """

    #: registry name; subclasses set this
    name: str = "base"
    #: False → the engine skips every population hook (the static model)
    dynamic: bool = True
    #: True → the model has no leave/return event stream: reachability is
    #: answered per sampled client via :meth:`available` at wire-down
    #: time, the engine keeps no eligibility set, and memory stays
    #: O(cohort) instead of O(population) (churn's ``pop_lazy`` mode)
    lazy: bool = False

    def __init__(self, num_clients: int, rngs: RngFactory, options: dict):
        self.num_clients = int(num_clients)
        self.rngs = rngs
        #: the model's resolved ``pop_*`` knobs (:func:`make_population`)
        self.options = options
        #: newcomer-assignment rule (``weights`` / ``random`` / ``coldstart``)
        self.assign = str(options["pop_assign"]).strip().lower()
        probe = options["pop_probe_epochs"]
        #: θ⁰-probe epochs for weight assignment (None → algorithm default)
        self.probe_epochs = int(probe) if probe is not None else None
        self.join_start = float(options["pop_join_start"])
        self.join_every = float(options["pop_join_every"])
        #: (time, seq, event) min-heap of pending events
        self._heap: list[tuple[float, int, PopulationEvent]] = []
        self._seq = 0
        #: detached joiner shards, by client id
        self._pool: dict[int, "ClientData"] = {}

    # ------------------------------------------------------------------
    def joiner_count(self) -> int:
        """How many clients this model holds out as late joiners."""
        return 0

    def begin(self, algo: "FederatedAlgorithm") -> None:
        """Bind to a run: detach the joiner pool, seed the event heap."""
        k = self.joiner_count()
        if k:
            if k >= self.num_clients:
                raise ValueError(
                    f"pop_joiners must leave at least one initial client, "
                    f"got {k} of {self.num_clients}"
                )
            for client in algo.fed.detach_joiners(k):
                self._pool[int(client.client_id)] = client
            for i, cid in enumerate(sorted(self._pool)):
                self._push(
                    self.join_start + i * self.join_every, "join", cid
                )

    def initial_roster(self) -> np.ndarray:
        """Sorted client ids eligible at round 1 (after ``begin``)."""
        return np.arange(self.num_clients - len(self._pool), dtype=np.int64)

    def events_until(self, now: float) -> list[PopulationEvent]:
        """Drain every pending event with ``time <= now``, in time order."""
        due: list[PopulationEvent] = []
        while self._heap and self._heap[0][0] <= now:
            _, _, event = heapq.heappop(self._heap)
            due.append(event)
            self._on_emit(event)
        return due

    def available(self, client_id: int, now: float) -> bool:
        """Is ``client_id`` reachable at virtual time ``now``?

        Only consulted for lazy models (``self.lazy``), by the
        scheduler's wire-down; eventful models answer through the
        leave/return stream instead.  The base model is always up.
        """
        return True

    def take_joiner(self, client_id: int) -> "ClientData":
        """Hand over a pool client's shard (exactly once, at its join)."""
        try:
            return self._pool.pop(int(client_id))
        except KeyError:
            raise KeyError(
                f"client {client_id} is not in the joiner pool "
                f"(remaining: {sorted(self._pool)})"
            ) from None

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Picklable snapshot of the pending-event stream and joiner pool.

        The joiner shards themselves are *not* serialized — they are a
        deterministic function of the run's seed, so a resume rebuilds
        them by running ``begin`` on a fresh dataset and re-attaching
        whichever clients had already joined (see :meth:`load_state_dict`).
        """
        return {
            # a sorted (time, seq, ...) list is a valid min-heap, and —
            # unlike the heap's internal order — is byte-stable across
            # save → load → save round-trips
            "heap": [
                (t, seq, (e.time, e.kind, e.client))
                for t, seq, e in sorted(self._heap, key=lambda h: (h[0], h[1]))
            ],
            "seq": self._seq,
            "pool": sorted(self._pool),
        }

    def load_state_dict(self, state: dict, algo: "FederatedAlgorithm") -> None:
        """Restore a :meth:`state_dict` snapshot onto a freshly-``begin``-ed
        model: clients that had already joined are re-attached to the
        federation, then the event heap and sequence counter are replaced.
        """
        pool_ids = {int(c) for c in state["pool"]}
        for cid in sorted(set(self._pool) - pool_ids):
            algo.fed.attach(self._pool.pop(cid))
        self._heap = [
            (float(t), int(seq), PopulationEvent(float(et), str(kind), int(cid)))
            for t, seq, (et, kind, cid) in state["heap"]
        ]
        self._seq = int(state["seq"])

    # ------------------------------------------------------------------
    def _push(self, time: float, kind: str, client: int) -> None:
        event = PopulationEvent(float(time), kind, int(client))
        heapq.heappush(self._heap, (event.time, self._seq, event))
        self._seq += 1

    def _on_emit(self, event: PopulationEvent) -> None:
        """Hook: schedule an emitted event's follow-up (churn toggling)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(clients={self.num_clients})"


@register("population", "static")
class StaticPopulation(PopulationModel):
    """The seed behaviour: the round-0 roster is the federation forever."""

    name = "static"
    dynamic = False

    def begin(self, algo: "FederatedAlgorithm") -> None:  # no pool, no events
        return


@register("population", "churn", options=[
    opt("pop_session", float, 20.0,
        low=0.0, low_inclusive=False,
        env="REPRO_POP_SESSION", alias="session", only_for=("churn",),
        help="mean virtual seconds a churning client stays reachable "
             "before leaving (exponential sessions)"),
    opt("pop_gap", float, 5.0,
        low=0.0, low_inclusive=False,
        env="REPRO_POP_GAP", alias="gap", only_for=("churn",),
        help="mean virtual seconds a departed client stays away before "
             "returning (exponential gaps)"),
    opt("pop_churn_frac", float, 1.0,
        low=0.0, high=1.0, low_inclusive=False,
        env="REPRO_POP_CHURN_FRAC", alias="churn_frac", only_for=("churn",),
        help="fraction of clients subject to churn (the rest never leave)"),
    opt("pop_lazy", int, 0,
        low=0, high=1,
        env="REPRO_POP_LAZY", alias="lazy", only_for=("churn",),
        help="1 = no per-client pre-roll: each sampled client's up/down "
             "timeline is walked lazily from its pure keyed stream at "
             "wire-down time (memory O(cohort), for million-client "
             "populations; cohorts shrink by the offline fraction via "
             "rejection instead of re-drawing)"),
])
class ChurnPopulation(PopulationModel):
    """Seeded per-client up/down sessions, plus optional late joiners.

    Each churning client alternates exponentially distributed on-times
    (mean ``pop_session``) and off-times (mean ``pop_gap``), drawn
    lazily from its own client-keyed generator — a client's timeline
    never depends on any other client's.  Departed clients keep their
    cluster membership and per-client state, so a ``return`` resumes
    training exactly where the client left off.  ``pop_joiners > 0``
    additionally holds out that many clients to join late through the
    newcomer path, like ``growth``.
    """

    name = "churn"

    def __init__(self, num_clients, rngs, options):
        super().__init__(num_clients, rngs, options)
        self.session = float(options["pop_session"])
        self.gap = float(options["pop_gap"])
        self.churn_frac = float(options["pop_churn_frac"])
        self.joiners = int(options["pop_joiners"])
        self.lazy = bool(int(options["pop_lazy"]))
        self._client_rng: dict[int, np.random.Generator] = {}
        #: lazy mode: cid → (rng, interval_start, next_toggle, up) walk
        #: positions, LRU-bounded — eviction is harmless because a walk
        #: re-derives from its keyed stream
        self._walk: OrderedDict[int, tuple] = OrderedDict()
        self._walk_cap = 4096
        #: lazy mode: join time per late joiner (offsets its walk origin)
        self._join_time: dict[int, float] = {}

    def joiner_count(self) -> int:
        return self.joiners

    def begin(self, algo: "FederatedAlgorithm") -> None:
        super().begin(algo)
        if self.lazy:
            # no pre-roll: only join events (few) live on the heap;
            # session timelines are walked per sampled client in
            # available(), so begin costs O(joiners), not O(population)
            return
        for cid in range(self.num_clients - len(self._pool)):
            rng = self.rngs.make("population.churn", cid)
            self._client_rng[cid] = rng
            if rng.random() < self.churn_frac:
                self._push(rng.exponential(self.session), "leave", cid)

    def available(self, client_id: int, now: float) -> bool:
        """Walk the client's keyed on/off timeline up to ``now`` (lazy mode).

        The draw sequence per client is identical to the eventful mode's
        (churn gate, then alternating Exp(session)/Exp(gap)), so the two
        modes describe the same stochastic process; only *when* draws
        happen differs.  Walk positions are cached (LRU, ``_walk_cap``)
        under the scheduler's monotone virtual clock; a query behind the
        cached interval (fresh resume) simply re-walks from the origin.
        """
        if not self.lazy:
            return True
        cid = int(client_id)
        entry = self._walk.get(cid)
        if entry is not None and entry[1] > now:
            entry = None  # cached walk is past `now`; re-derive from keys
        if entry is None:
            rng = self.rngs.make("population.churn", cid)
            if rng.random() >= self.churn_frac:
                entry = (None, 0.0, float("inf"), True)  # never churns
            else:
                t0 = float(self._join_time.get(cid, 0.0))
                entry = (rng, t0, t0 + rng.exponential(self.session), True)
        else:
            self._walk.move_to_end(cid)
        rng, start, toggle, up = entry
        while toggle <= now:
            start = toggle
            toggle += rng.exponential(self.gap if up else self.session)
            up = not up
        self._walk[cid] = (rng, start, toggle, up)
        while len(self._walk) > self._walk_cap:
            self._walk.popitem(last=False)
        return up

    def _on_emit(self, event: PopulationEvent) -> None:
        if event.kind == "join":
            if self.lazy:
                # the joiner's timeline starts at its join, walked lazily
                self._join_time[event.client] = float(event.time)
                return
            # a late joiner churns too, from its own keyed stream
            rng = self.rngs.make("population.churn", event.client)
            self._client_rng[event.client] = rng
            if rng.random() < self.churn_frac:
                self._push(
                    event.time + rng.exponential(self.session),
                    "leave", event.client,
                )
            return
        rng = self._client_rng[event.client]
        if event.kind == "leave":
            self._push(event.time + rng.exponential(self.gap), "return", event.client)
        else:  # return → next session
            self._push(event.time + rng.exponential(self.session), "leave", event.client)

    def state_dict(self) -> dict:
        state = super().state_dict()
        # the per-client session generators are the engine's only
        # long-lived sequential RNG streams: everything else re-derives
        # from (seed, name, index) keys, but these advance draw by draw
        state["client_rng"] = {
            int(c): generator_state(g) for c, g in sorted(self._client_rng.items())
        }
        if self.lazy:
            # walk positions are pure re-derivations and stay out of the
            # snapshot; only the joiners' timeline origins are state
            state["join_time"] = {
                int(c): float(t) for c, t in sorted(self._join_time.items())
            }
        return state

    def load_state_dict(self, state: dict, algo: "FederatedAlgorithm") -> None:
        super().load_state_dict(state, algo)
        self._client_rng = {
            int(c): restore_generator(s) for c, s in state["client_rng"].items()
        }
        self._join_time = {
            int(c): float(t) for c, t in state.get("join_time", {}).items()
        }
        self._walk.clear()


@register("population", "growth")
class GrowthPopulation(PopulationModel):
    """New clients with freshly partitioned shards arrive over time.

    The last ``pop_joiners`` clients of the federation (default: one
    fifth, minimum one) are held out of the initial roster — their
    shards exist (the partitioner materialised them) but the server has
    never seen them, exactly the paper's Table-6 protocol.  Joiner ``i``
    arrives at ``pop_join_start + i * pop_join_every`` and enters
    through the newcomer-assignment path (``pop_assign``).
    """

    name = "growth"

    def __init__(self, num_clients, rngs, options):
        super().__init__(num_clients, rngs, options)
        joiners = int(options["pop_joiners"])
        if joiners == 0:
            joiners = max(1, int(round(0.2 * self.num_clients)))
        self.joiners = joiners

    def joiner_count(self) -> int:
        return self.joiners


@register("population", "trace", options=[
    opt("pop_trace", str, "",
        env="REPRO_POP_TRACE", alias="trace", only_for=("trace",),
        help="explicit event list `time:kind:client;...` with kind in "
             "join/leave/return (join clients must form the id tail)"),
])
class TracePopulation(PopulationModel):
    """Replays an explicit event list (scripted scenarios, tests).

    ``pop_trace`` is ``"time:kind:client"`` triples joined by ``";"``,
    e.g. ``"1:leave:0;3:return:0;2:join:5"``.  Clients named by a
    ``join`` event are held out of the initial roster and must form the
    contiguous tail of the id space (the joiner pool).
    """

    name = "trace"

    def __init__(self, num_clients, rngs, options):
        super().__init__(num_clients, rngs, options)
        raw = str(options["pop_trace"]).strip()
        self.events: list[PopulationEvent] = []
        if raw:
            for part in raw.split(";"):
                part = part.strip()
                if not part:
                    continue
                fields = part.split(":")
                if len(fields) != 3:
                    raise ValueError(
                        f"invalid pop_trace entry {part!r}: expected "
                        "'time:kind:client'"
                    )
                t, kind, cid = fields
                kind = kind.strip().lower()
                if kind not in ("join", "leave", "return"):
                    raise ValueError(
                        f"pop_trace kind must be join/leave/return, got {kind!r}"
                    )
                self.events.append(PopulationEvent(float(t), kind, int(cid)))
        self.events.sort(key=lambda e: e.time)
        join_order = [e.client for e in self.events if e.kind == "join"]
        join_ids = sorted(set(join_order))
        expected = list(range(self.num_clients - len(join_ids), self.num_clients))
        if join_ids and join_ids != expected:
            raise ValueError(
                f"pop_trace join clients must be the id tail {expected}, "
                f"got {join_ids}"
            )
        if join_order != join_ids:
            # joins must fire in id order so roster ids stay contiguous
            raise ValueError(
                f"pop_trace joins must occur in ascending id order, "
                f"got {join_order}"
            )
        self._join_ids = join_ids

    def joiner_count(self) -> int:
        return len(self._join_ids)

    def begin(self, algo: "FederatedAlgorithm") -> None:
        k = self.joiner_count()
        if k:
            if k >= self.num_clients:
                raise ValueError(
                    "pop_trace must leave at least one initial client"
                )
            for client in algo.fed.detach_joiners(k):
                self._pool[int(client.client_id)] = client
        for event in sorted(self.events, key=lambda e: e.time):
            self._push(event.time, event.kind, event.client)



def make_population(
    config=None,
    num_clients: int = 0,
    rngs: RngFactory | None = None,
    population: str | None = None,
) -> PopulationModel:
    """Build the client-population model for one federation run.

    Args:
        config: an :class:`~repro.fl.config.FLConfig` supplying the
            ``population`` knob and ``extra`` profile parameters
            (optional).
        num_clients: total federation size, *including* any clients a
            joining profile will hold out.
        rngs: the run's :class:`~repro.utils.rng.RngFactory` (a fresh
            seed-0 factory when omitted, for standalone use in tests).
        population: explicit model spec overriding the config — a
            registered name, ``"auto"``, or an inline spec like
            ``"churn:session=20,gap=5"``.

    Resolution is the registry's (:func:`repro.fl.registry.resolve`):
    ``"auto"`` reads ``REPRO_POPULATION`` (default ``static``), and
    ``pop_*`` knobs may come from ``FLConfig.extra``, ``REPRO_POP_*``
    env vars, or inline assignments; the model is built from the
    resolved options.

    Returns:
        A fresh :class:`PopulationModel` bound to the run's seed.
    """
    r = registry.resolve("population", spec=population, config=config)
    return r.impl.cls(num_clients, rngs or RngFactory(0), r.options)
