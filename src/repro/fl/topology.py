"""Aggregation topology: how the cohort's updates reach the cloud.

The seed engine is *flat*: every scheduler collects the whole cohort's
decoded updates into one list and hands it to ``algo.aggregate`` — memory
O(cohort · model) on the server, and one logical hop.  At production
scale (the ROADMAP's million-client target) real systems interpose a
tier of **edge aggregators**: clients report to a nearby edge, each edge
reduces its members, and only the edge summaries travel to the cloud.

This module makes that tier a registry family:

``flat``
    The default: a shared pass-through sink.  The scheduler appends each
    delivered update and ``finish()`` returns the identical list in the
    identical order, so the seed trajectory is preserved bit-for-bit.

``hier``
    Two-tier aggregation over ``topo_edges`` edge aggregators.  The
    client→edge assignment is a pure function of the run seed and the
    client id (``rngs.make("topology.edge", client_id)``), so it is
    stable under churn and needs no checkpoint state.  Each edge folds its members through the
    configured ``aggregator``'s streaming accumulator
    (:meth:`~repro.fl.aggregation.Aggregator.accumulator`) the moment
    they are delivered — the scheduler releases each decoded update
    immediately — and ``finish()`` emits one synthetic
    :class:`~repro.fl.server.ClientUpdate` per non-empty edge
    (``n_samples`` = member weight sum, ``loss`` = member mean) while
    metering the edge→cloud hop through the run's
    :class:`~repro.fl.comm.CommTracker` (raw float64 bytes, the same
    convention as the logical baseline).  The cloud then combines the
    summaries exactly as it would a flat cohort.

    ``topo_edges=1`` is the documented degenerate case: a single edge
    *is* the cloud, so ``hier`` behaves as a pass-through — no edge
    reduce, no extra metering — and reproduces ``flat`` bit-for-bit
    (the acceptance test pins this on every golden config).  With two
    or more edges the weighted mean of weighted means matches the flat
    mean only up to float64 round-off, which is why the equivalence is
    a property test with a documented tolerance, not a golden.

Only algorithms whose ``aggregate`` is a plain weighted combine over the
cohort (``supports_hier = True``: FedAvg, FedProx) admit a hierarchical
tier; algorithms with bespoke cross-client algebra (FedNova's normalized
directions, the clustered methods' per-cluster assignment) reject
``hier`` with ``topo_edges >= 2`` at run start.

The buffered scheduler routes through :meth:`Topology.reduce_merge`
instead of a sink: staleness discounts are applied to each member's
weight *before* the edge reduce (the edge sees the discounted update)
and the summaries reach ``algo.merge`` with zero staleness.
"""

from __future__ import annotations

from dataclasses import replace as dataclass_replace
from typing import TYPE_CHECKING

import numpy as np

from repro.fl import registry
from repro.fl.registry import opt, register

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fl.server import ClientUpdate, FederatedAlgorithm

__all__ = [
    "Topology",
    "FlatTopology",
    "HierTopology",
    "TopologySink",
    "FLAT_TOPOLOGY",
    "make_topology",
]


class TopologySink:
    """Pass-through sink: the flat (and degenerate ``hier``) data path.

    ``add`` appends the delivered update; ``finish`` returns the same
    list object in delivery order — bit-for-bit the seed behaviour.
    """

    def __init__(self):
        self._out: list = []
        #: updates fed so far (the scheduler's arrival count — with a
        #: hierarchical sink ``len(finish())`` is the edge count instead)
        self.added = 0

    def add(self, update: "ClientUpdate", weight: float | None = None) -> None:
        self._out.append(update)
        self.added += 1

    def finish(self) -> list:
        return self._out


class Topology:
    """Base class: the tier between scheduler delivery and aggregation.

    One instance serves one run, built by ``FederatedAlgorithm.run``
    (:func:`make_topology`).  Schedulers obtain a fresh :meth:`sink` per
    aggregation boundary (round / quorum flush) and feed it each
    delivered update; ``finish()`` yields the list the algorithm
    aggregates.  The buffered scheduler uses :meth:`reduce_merge`.
    """

    #: registry name; subclasses set this
    name: str = "base"
    #: edge aggregator count (1 = no hierarchical tier)
    edges: int = 1

    def __init__(self, num_clients: int = 0, rngs=None, extra: dict | None = None):
        self.num_clients = int(num_clients)
        self.rngs = rngs

    def begin(self, algo: "FederatedAlgorithm") -> None:
        """Bind run-scoped collaborators (telemetry, comm) at run start."""

    def sink(self, algo: "FederatedAlgorithm", flush_idx: int) -> TopologySink:
        """A fresh per-boundary sink for delivered updates."""
        return TopologySink()

    def reduce_merge(
        self,
        algo: "FederatedAlgorithm",
        flush_idx: int,
        updates: list,
        staleness: list,
    ) -> tuple[list, list]:
        """The buffered-scheduler path: possibly reduce a stale buffer.

        Returns the ``(updates, staleness)`` pair handed to
        ``algo.merge`` — unchanged for ``flat``.
        """
        return updates, list(staleness)

    def state_dict(self) -> dict:
        """Checkpoint section (assignment is pure, so usually tiny)."""
        return {}

    def load_state_dict(self, state: dict) -> None:
        """Restore/verify from a checkpoint section."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(edges={self.edges})"


@register("topology", "flat")
class FlatTopology(Topology):
    """The seed data path: deliver straight to the cloud, bit-for-bit."""

    name = "flat"
    edges = 1


class _EdgeState:
    """One edge aggregator's in-flight reduction (hier sink internals)."""

    __slots__ = ("acc", "first", "weight", "n_samples", "steps", "loss_sum",
                 "members")

    def __init__(self, acc, first: "ClientUpdate"):
        self.acc = acc
        self.first = first
        self.weight = 0.0
        self.n_samples = 0.0
        self.steps = 0
        self.loss_sum = 0.0
        self.members = 0


class _HierSink(TopologySink):
    """Stream each delivered update into its edge's accumulator.

    Memory O(edges · model) plus whatever the configured aggregation
    rule's accumulator buffers (O(1) extra for ``weighted``; the robust
    rules keep their members per edge — still O(cohort / edges · model)
    per edge rather than a second full-cohort list).
    """

    def __init__(self, topo: "HierTopology", algo: "FederatedAlgorithm",
                 flush_idx: int):
        super().__init__()
        self._topo = topo
        self._algo = algo
        self._flush_idx = int(flush_idx)
        self._ref = getattr(algo, "global_params", None)
        self._edges: dict[int, _EdgeState] = {}

    def add(self, update, weight=None):
        w = float(update.n_samples if weight is None else weight)
        edge = self._topo.edge_of(update.client_id)
        entry = self._edges.get(edge)
        if entry is None:
            acc = self._algo.aggregator.accumulator(ref=self._ref)
            entry = self._edges[edge] = _EdgeState(acc, update)
        entry.acc.update(update.params, w, state=update.state or None)
        entry.weight += w
        entry.n_samples += float(update.n_samples)
        entry.steps += int(update.steps)
        entry.loss_sum += float(update.loss)
        entry.members += 1
        self.added += 1

    def finish(self):
        algo, tele = self._algo, self._algo.telemetry
        out = []
        for edge in sorted(self._edges):
            entry = self._edges[edge]
            with tele.span(
                "edge_reduce", cat="topology", edge=int(edge),
                members=entry.members, flush=self._flush_idx,
            ):
                params, state = entry.acc.finalize()
            nbytes = int(params.nbytes) + sum(
                int(np.asarray(v).nbytes) for v in state.values()
            )
            algo.comm.record_upload(self._flush_idx, nbytes, nbytes)
            tele.count("edge_uploads")
            tele.count("edge_bytes_up", nbytes)
            tele.emit(
                "edge", flush=self._flush_idx, edge=int(edge),
                members=entry.members, nbytes=nbytes,
            )
            out.append(dataclass_replace(
                entry.first,
                params=params,
                n_samples=entry.weight,
                steps=entry.steps,
                loss=entry.loss_sum / entry.members,
                state=state,
                extras={},
            ))
        self._edges.clear()
        return out


@register("topology", "hier", options=[
    opt("topo_edges", int, 4, low=1,
        env="REPRO_TOPO_EDGES", alias="edges", cli="topo-edges",
        only_for=("hier",),
        help="edge aggregators sharding the cohort; 1 is the documented "
             "degenerate case, a pass-through bit-for-bit equal to flat"),
])
class HierTopology(Topology):
    """Two-tier aggregation: seeded edge shards reduce, the cloud merges.

    See the module docstring for semantics; ``edge_of`` is the pure
    seeded client→edge assignment (stable under churn, no state).
    """

    name = "hier"

    def __init__(self, num_clients: int = 0, rngs=None, extra: dict | None = None):
        super().__init__(num_clients, rngs, extra)
        self.edges = int((extra or {}).get("topo_edges", 4))
        if self.edges < 1:
            raise ValueError(f"topo_edges must be >= 1, got {self.edges}")
        if self.edges > 1 and rngs is None:
            raise ValueError("hier topology with edges >= 2 needs an rng factory")

    def edge_of(self, client_id: int) -> int:
        """The client's edge: a pure function of the run seed and id."""
        if self.edges == 1:
            return 0
        return int(self.rngs.make("topology.edge", int(client_id)).integers(self.edges))

    def sink(self, algo, flush_idx):
        if self.edges == 1:
            # a single edge IS the cloud: pass through (bitwise flat)
            return TopologySink()
        return _HierSink(self, algo, flush_idx)

    def reduce_merge(self, algo, flush_idx, updates, staleness):
        if self.edges == 1 or not updates:
            return updates, list(staleness)
        sink = _HierSink(self, algo, flush_idx)
        for u, s in zip(updates, staleness):
            d = algo.staleness_discount(s)
            if d <= 0.0:
                continue
            sink.add(u, weight=u.n_samples * d)
        if not sink.added:
            # every member discounted away: let merge() drop them (and
            # the flush record keep its member losses) exactly as flat
            return updates, list(staleness)
        summaries = sink.finish()
        return summaries, [0.0] * len(summaries)

    def state_dict(self):
        # assignment is pure, so the section is a verification probe,
        # not state: resume recomputes it and must agree bit-for-bit
        probe = [self.edge_of(c) for c in range(min(64, self.num_clients))]
        return {"edges": int(self.edges), "assign_probe": probe}

    def load_state_dict(self, state):
        if not state:
            return
        if int(state.get("edges", self.edges)) != self.edges:
            raise ValueError(
                f"checkpoint topology has {state.get('edges')} edges, "
                f"run has {self.edges}"
            )
        probe = [self.edge_of(c) for c in range(min(64, self.num_clients))]
        if list(state.get("assign_probe", probe)) != probe:
            raise ValueError(
                "checkpoint edge assignment disagrees with this run's "
                "seeded assignment"
            )


#: shared default instance used before ``run()`` builds the real one
#: (direct hook calls in tests) — stateless, so sharing is safe
FLAT_TOPOLOGY = FlatTopology()


def make_topology(
    config=None,
    num_clients: int = 0,
    rngs=None,
    topology: str | None = None,
) -> Topology:
    """Build the aggregation topology for one federation run.

    Args:
        config: an :class:`~repro.fl.config.FLConfig` supplying the
            ``topology`` knob and ``topo_*`` extra parameters (optional).
        num_clients: the federation's client-id space (edge assignment
            probes and checkpoint verification).
        rngs: the run's keyed :class:`~repro.utils.rng.RngFactory`
            (seeded edge assignment).
        topology: explicit spec overriding the config — a registered
            name, ``"auto"``, or an inline spec like ``"hier:edges=4"``.

    Resolution is the registry's (:func:`repro.fl.registry.resolve`):
    ``"auto"`` reads ``REPRO_TOPOLOGY`` (default ``flat`` — the seed
    path, bit-for-bit).
    """
    r = registry.resolve("topology", spec=topology, config=config)
    extra = getattr(config, "extra", None) if config is not None else None
    if r.provided_extra:
        extra = {**(extra or {}), **r.provided_extra}
    return r.impl.cls(num_clients, rngs, extra)
