"""Federation schedulers: one round loop, three arrival policies.

A :class:`Scheduler` owns rounds 1..T of a federation run (round-0
``setup`` has already run).  :meth:`Scheduler.run` is the one round
loop, on a virtual clock driven by :meth:`NetworkModel.client_seconds
<repro.fl.network.NetworkModel.client_seconds>`:

    select → ``wire_down`` → ``execute`` → ``encode_upload`` +
    ``trip_seconds`` per upload → arrival policy (keep, deadline-cut or
    cancel) → ``deliver`` into the topology sink → ``aggregate`` →
    record on the eval cadence → checkpoint

Schedulers differ only in their *arrival policy* — which uploads a
boundary waits for:

``sync`` — wait for all
    Samples ``sample_rate`` of the roster and keeps every upload the
    deadline (if any) does not cut.  Each upload is classified the
    moment it is encoded, in submission order, and delivered before the
    next one is encoded; the clock only runs when something is simulated
    (a non-ideal network or a deadline).  With the default configuration
    this is **bit-for-bit** the seed engine on every execution backend.

``semisync`` — first quorum
    Over-selects by ``over_select_frac``, ranks the round's uploads by
    simulated arrival time, keeps the first *quorum* (the nominal cohort
    of the live roster) and cancels the tail: cancelled uploads never
    complete, are never metered, and (for error-feedback codecs) never
    commit their residuals.  Ranking needs the clock, so it always runs,
    and every kept arrival is logged in ``extras["events"]``.  With
    ``over_select_frac=0`` it keeps exactly the uploads ``sync`` keeps.

``buffered`` — buffered flush
    Buffered asynchronous aggregation in the FedBuff/FedAsync style,
    on an event queue instead of the round loop (it reuses the loop's
    per-upload and commit steps): up to ``concurrency`` clients run
    continuously on the virtual clock; the server folds the buffer into
    its state every ``buffer_size`` arrivals via
    :meth:`FederatedAlgorithm.merge
    <repro.fl.server.FederatedAlgorithm.merge>`, discounting each
    update's aggregation weight by its *staleness* (how many buffer
    flushes happened between the client's dispatch and its merge).
    Freed slots are re-dispatched at every flush from the then-current
    model, so fast clients cycle many times while a straggler's slot is
    stuck — flushes never wait for the tail.  With
    ``buffer_size == cohort`` and a zero staleness discount
    (``staleness_alpha=0``) the schedule degenerates to ``sync`` and the
    run is bit-for-bit identical to it (histories, communication,
    aggregated parameters).  It has no round barrier, so a ``deadline``
    is rejected.

Selection mirrors the other engine knobs: ``FLConfig(scheduler=...,
buffer_size=..., staleness_alpha=..., over_select_frac=...)``;
``scheduler="auto"`` (the default) resolves from ``REPRO_SCHEDULER`` /
``REPRO_BUFFER_SIZE`` / ``REPRO_STALENESS_ALPHA`` /
``REPRO_OVER_SELECT_FRAC``, and the experiments CLI exposes
``--scheduler`` / ``--buffer-size`` / ``--staleness-alpha`` /
``--over-select-frac``.  Buffered discounts a stale update's weight by
``(1+s)^(-alpha)``.  Its other knob lives in ``FLConfig.extra`` under a
``sched_`` prefix: ``sched_concurrency`` (the concurrent-client pool
size; 0 = the nominal cohort size).

Determinism
-----------

Everything here runs on the main thread with named-key randomness, and
all event ordering derives from deterministic simulated durations (ties
broken by dispatch sequence), so every scheduler preserves the engine's
bit-for-bit backend-equivalence contract.  Kept uploads are delivered,
and buffers folded, in *submission* order (not arrival order) so
floating-point reductions see a canonical operand order.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.fl import registry
from repro.fl.checkpoint import Checkpointer
from repro.fl.codecs import Encoded, IdentityCodec
from repro.fl.history import RoundRecord
from repro.fl.network import IdealNetwork, resolve_deadline
from repro.fl.registry import opt, register

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.fl.server import ClientUpdate, FederatedAlgorithm

__all__ = [
    "Scheduler",
    "SyncScheduler",
    "SemiSyncScheduler",
    "BufferedScheduler",
    "make_scheduler",
    "nominal_cohort",
]

#: checkpointing applies to every scheduler, so its knobs are declared
#: once at the family level (like the network family's ``deadline``);
#: ``env_mode="fill"`` lets ``REPRO_CHECKPOINT_*`` fill an unset config
#: field regardless of how the scheduler itself was selected
registry.family_options("scheduler", [
    opt("checkpoint_every", int, None,
        optional=True, low=1, inline=False,
        env="REPRO_CHECKPOINT_EVERY", cli="checkpoint-every",
        field="checkpoint_every", env_mode="fill",
        help="save a resumable checkpoint every N completed rounds "
             "(flushes, for `buffered`); unset disables checkpointing"),
    opt("checkpoint_dir", str, None,
        optional=True, inline=False,
        env="REPRO_CHECKPOINT_DIR", cli="checkpoint-dir",
        field="checkpoint_dir", env_mode="fill",
        help="directory periodic checkpoints are written to "
             "(`round-NNNNNN.ckpt` + `latest.ckpt`; default "
             "`checkpoints`)"),
])


def nominal_cohort(num_clients: int, sample_rate: float) -> int:
    """Cohort size the sync engine selects per round (Alg. 1 line 9).

    Uses Python's half-to-even ``round`` — the same deliberate banker's
    rounding as :func:`repro.fl.sampling.sample_clients` (see its module
    docstring), so scheduler quorums and cohorts always agree.
    """
    return max(int(round(sample_rate * num_clients)), 1)


@dataclass
class WireItem:
    """One upload after codec encoding, before delivery.

    Produced by :meth:`Scheduler.encode_upload` at dispatch/upload time
    (while the server still holds the parameters the client downloaded)
    and consumed by :meth:`Scheduler.deliver` at arrival time — the split
    lets asynchronous schedulers put virtual time between the two.
    """

    update: "ClientUpdate"
    wire_up: int
    logical_up: int
    encoded: Encoded | None = None
    #: codec reference slice (copied, so later server flushes cannot
    #: invalidate it) — the decode base
    ref_sl: np.ndarray | None = None
    sl: slice | None = None


class _Spans(object):
    """Per-record span accumulators shared by every scheduler.

    Mirrors the seed engine's bookkeeping exactly: wall-clock and
    simulated seconds, wire bytes, deadline casualties, and availability
    skips accumulate between evaluation records and reset at each one.
    """

    def __init__(self, algo: "FederatedAlgorithm"):
        self.algo = algo
        self.mark = time.perf_counter()
        self.last_up = 0
        self.last_down = 0
        self.sim = 0.0
        self.dropped: list[int] = []
        self.unavailable: list[int] = []
        self.cancelled: list[int] = []
        self.events: list[dict] = []
        self.pop_events: list[dict] = []

    def arrival(self, client: int, t: float, staleness: int, flush: int) -> None:
        """Log one delivered upload: an ``extras["events"]`` entry plus an
        ``arrival`` telemetry event."""
        event = {
            "client": int(client),
            "t": float(t),
            "staleness": int(staleness),
            "flush": int(flush),
        }
        self.events.append(event)
        self.algo.telemetry.emit("arrival", **event)

    def flush_record(self, round_idx: int, delivered: list["ClientUpdate"]) -> None:
        """Evaluate and append one :class:`RoundRecord`, then reset spans."""
        algo = self.algo
        acc = algo.evaluate()
        mean_loss = (
            float(np.mean([u.loss for u in delivered])) if delivered else 0.0
        )
        extras: dict = {}
        if self.dropped:
            extras["deadline_dropped"] = list(self.dropped)
        if self.unavailable:
            extras["unavailable"] = list(self.unavailable)
        if self.cancelled:
            extras["cancelled"] = list(self.cancelled)
        if self.events:
            extras["events"] = list(self.events)
        if self.pop_events:
            extras["population"] = list(self.pop_events)
        tele = algo.telemetry
        if tele.enabled:
            resident = getattr(algo.fed, "resident_shards", None)
            if resident is not None:
                # the lazy dataset's materialized-shard count: the LRU's
                # set is order-independent (pure keyed materialization),
                # so the gauge is deterministic and may live in records
                tele.gauge("resident_shards", int(resident()))
            # deterministic per-record metric deltas (bytes, event
            # counts, virtual-clock staleness — never wall clocks), so
            # telemetry-enabled histories stay bit-for-bit reproducible
            extras["metrics"] = tele.metrics_snapshot()
        now = time.perf_counter()
        record = RoundRecord(
            round=round_idx,
            accuracy=acc,
            train_loss=mean_loss,
            cumulative_mb=algo.comm.total_mb(),
            seconds=now - self.mark,
            upload_bytes=algo.comm.total_up - self.last_up,
            download_bytes=algo.comm.total_down - self.last_down,
            sim_seconds=self.sim,
            extras=extras,
        )
        algo.history.append(record)
        tele.record(record)
        self.mark = now
        self.last_up, self.last_down = algo.comm.total_up, algo.comm.total_down
        self.sim = 0.0
        self.dropped = []
        self.unavailable = []
        self.cancelled = []
        self.events = []
        self.pop_events = []

    def state_dict(self) -> dict:
        """Picklable snapshot of the partial span (checkpointing).

        Wall-clock ``mark`` is excluded: a resumed span restarts its
        wall-clock measurement, which is why checkpoint equality is
        defined over everything *except* the ``seconds`` fields.
        """
        return {
            "sim": self.sim,
            "last_up": self.last_up,
            "last_down": self.last_down,
            "dropped": list(self.dropped),
            "unavailable": list(self.unavailable),
            "cancelled": list(self.cancelled),
            "events": [dict(e) for e in self.events],
            "pop_events": [dict(e) for e in self.pop_events],
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a partial span (the wall-clock mark restarts at now)."""
        self.sim = float(state["sim"])
        self.last_up = int(state["last_up"])
        self.last_down = int(state["last_down"])
        self.dropped = list(state["dropped"])
        self.unavailable = list(state["unavailable"])
        self.cancelled = list(state["cancelled"])
        self.events = [dict(e) for e in state["events"]]
        self.pop_events = [dict(e) for e in state["pop_events"]]
        self.mark = time.perf_counter()


class Scheduler:
    """Owns a federation's control loop (rounds 1..T, after ``setup``).

    :meth:`run` is the round loop; a subclass supplies only its arrival
    policy, :meth:`selection_rate` and :meth:`quorum` (the defaults are
    ``sync``'s: sample at ``sample_rate``, wait for every upload).  The
    loop calls the round primitives — ``wire_down`` (select →
    availability → download metering → dropout), ``execute`` (the
    backend sweep), ``encode_upload`` / ``trip_seconds`` / ``deliver``
    (the wire layer split at the virtual-time boundary) — and the
    boundary's :meth:`commit` through ``self``, so subclasses and
    profilers can wrap each one.  One scheduler instance serves one run.
    """

    #: registry name; subclasses set this
    name: str = "base"

    def __init__(self, options: dict):
        #: the scheduler's resolved knobs (:func:`make_scheduler`): field
        #: options such as ``buffer_size`` and ``sched_*`` extras alike
        self.options = options

    # ------------------------------------------------------------------
    # the arrival policy (what subclasses supply)
    # ------------------------------------------------------------------
    def selection_rate(self, cfg) -> float:
        """Participation rate each round samples the roster at."""
        return cfg.sample_rate

    def quorum(self, algo: "FederatedAlgorithm") -> int | None:
        """Uploads a round keeps before cancelling the rest (None = all).

        A quorum makes the round rank its uploads by virtual arrival
        time, so the clock always runs and every kept arrival is logged.
        """
        return None

    # ------------------------------------------------------------------
    # the round loop
    # ------------------------------------------------------------------
    def run(self, algo: "FederatedAlgorithm", resume: dict | None = None) -> None:
        """Drive rounds 1..T of the federation (``setup`` already ran).

        Args:
            algo: the federation to drive.
            resume: a scheduler resume dict produced by :meth:`state_dict`
                (via :func:`repro.fl.checkpoint.restore`); ``None`` starts
                from round 1.
        """
        cfg = algo.config
        tele = algo.telemetry
        spans = self.begin(algo, resume)
        start = 1 if resume is None else int(resume["round"]) + 1
        for round_idx in range(start, cfg.rounds + 1):
            with tele.span("round", cat="scheduler", round=round_idx):
                self.advance_population(algo, spans, round_idx, self.pop_now)
                selected = algo.select_clients(
                    round_idx, self.selection_rate(cfg)
                )
                survivors, down_nbytes, unavailable = self.wire_down(
                    algo, round_idx, selected
                )
                spans.unavailable.extend(unavailable)
                updates = self.execute(algo, round_idx, survivors)
                # the topology sink receives each delivered update the
                # moment it clears the wire (flat: a pass-through list,
                # bit-for-bit the seed; hier: streaming edge reduction)
                sink = algo.topology.sink(algo, round_idx)
                with tele.span("wire_up", cat="wire", uploads=len(updates)):
                    round_sim = self.arrive(
                        algo, spans, round_idx, updates, down_nbytes, sink
                    )
                delivered = sink.finish()
                spans.sim += round_sim
                self.pop_now += round_sim if self.simulate else 1.0
                self.commit(
                    algo, spans, round_idx, cfg.rounds, sink.added, delivered
                )
                self.maybe_checkpoint(algo, spans, round_idx)

    def arrive(
        self, algo: "FederatedAlgorithm", spans: _Spans, round_idx: int,
        updates: list, down_nbytes: dict[int, int], sink,
    ) -> float:
        """Keep, deadline-cut or cancel one round's uploads; deliver the kept.

        Without a quorum each upload is classified as soon as it is
        encoded, in submission order, and delivered before the next one
        is encoded (the loop drops its own reference, so at most one
        upload is held on the wire).  With a quorum all uploads are
        encoded first and ranked by ``(arrival time, submission order)``;
        the kept ones are then delivered in submission order and logged
        as arrivals.  Returns the round's simulated duration: the last
        kept arrival, or the whole deadline when anyone was cut.
        """
        tele = algo.telemetry
        quorum = self.quorum(algo)
        ranked = quorum is not None
        clocked = ranked or self.simulate

        def timed(seq: int) -> tuple[float, int, WireItem]:
            u, updates[seq] = updates[seq], None
            item = self.encode_upload(algo, u, round_idx)
            t = self.trip_seconds(algo, item, down_nbytes) if clocked else 0.0
            return t, seq, item

        arrivals = map(timed, range(len(updates)))
        if ranked:
            arrivals = sorted(arrivals, key=lambda a: a[:2])
        kept: list[tuple[int, float, WireItem]] = []
        cut = False
        round_sim = 0.0
        for t, seq, item in arrivals:
            cid = item.update.client_id
            if ranked and len(kept) >= quorum:
                # the server stopped waiting when the quorum filled;
                # everything later is cancelled, deadline or not
                spans.cancelled.append(cid)
                tele.emit(
                    "cancel", client=int(cid), t=float(t), flush=int(round_idx)
                )
                tele.count("cancellations")
            elif self.deadline is not None and t > self.deadline:
                # cut off mid-round: the upload never completes (not
                # metered), error-feedback residuals stay as they were,
                # and the update is discarded
                spans.dropped.append(cid)
                cut = True
                tele.emit(
                    "deadline_drop", client=int(cid), t=float(t),
                    flush=int(round_idx),
                )
                tele.count("deadline_drops")
            else:
                if clocked:
                    tele.vspan(
                        "trip", self.pop_now, self.pop_now + t, client=int(cid)
                    )
                    round_sim = max(round_sim, t)
                if ranked:
                    kept.append((seq, t, item))
                else:
                    sink.add(self.deliver(algo, item, round_idx))
        for seq, t, item in sorted(kept, key=lambda k: k[0]):
            sink.add(self.deliver(algo, item, round_idx))
            spans.arrival(item.update.client_id, t, 0, round_idx)
        # the server waits out the budget; a ranked round only cuts when
        # its quorum never filled (every arrival after a cut is late too)
        return self.deadline if cut else round_sim

    # ------------------------------------------------------------------
    # steps shared by every scheduler
    # ------------------------------------------------------------------
    def begin(self, algo: "FederatedAlgorithm", resume: dict | None) -> _Spans:
        """Resolve the run's wire-layer flags and open its record span.

        Call once, before the loop; ``resume`` restores the population
        clock and the partial span (what every scheduler checkpoints).
        """
        self.deadline = resolve_deadline(algo.config)
        self.identity = isinstance(algo.codec, IdentityCodec)
        self.ideal = isinstance(algo.network, IdealNetwork)
        #: sync only simulates time when a non-ideal network or a deadline
        #: is active (the seed behaviour); quorum and event-driven
        #: schedulers always run the virtual clock
        self.simulate = (not self.ideal) or self.deadline is not None
        #: whether the run's population can change (non-static model);
        #: False short-circuits every population hook
        self.dynamic_population = (
            algo.population is not None and algo.population.dynamic
        )
        #: the population clock: the scheduler's virtual time, except for
        #: a run that simulates nothing (ideal network, no deadline),
        #: which counts one second per round (per flush, for buffered) so
        #: population scenarios stay expressible under the defaults
        self.pop_now = 0.0
        #: periodic checkpoint writer (``None`` = checkpointing disabled)
        self._checkpointer = Checkpointer.from_config(algo.config)
        spans = _Spans(algo)
        if resume is not None:
            self.pop_now = float(resume["pop_now"])
            spans.load_state_dict(resume["spans"])
        return spans

    def commit(
        self, algo: "FederatedAlgorithm", spans: _Spans, idx: int, last: int,
        arrived: int, updates: list,
    ) -> bool:
        """Close a boundary: :meth:`fold` it in, then record on the cadence.

        ``idx`` is the round (or buffered flush); ``last``, the run's
        final boundary, always records.  ``arrived`` counts the uploads
        that reached the server (a hierarchical sink hands over fewer
        edge summaries as ``updates``).  An empty boundary — everyone
        cut, unavailable or dropped out — changes nothing server-side,
        but the federation still advances and the record still commits.
        Returns whether a record was written.
        """
        algo.telemetry.observe("arrivals_per_flush", arrived)
        if updates:
            self.fold(algo, spans, idx, updates)
        if idx % algo.config.eval_every and idx != last:
            return False
        spans.flush_record(idx, updates)
        return True

    def fold(
        self, algo: "FederatedAlgorithm", spans: _Spans, idx: int, updates: list
    ) -> None:
        """Fold one round's delivered updates into the server state."""
        with algo.telemetry.span(
            "aggregate", cat="scheduler", updates=len(updates)
        ):
            algo.aggregate(idx, updates)

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def state_dict(self, completed: int, spans: _Spans) -> dict:
        """Resume state at a completed round/flush boundary.

        Subclasses with a live event queue (``buffered``) extend this
        with their in-flight state.
        """
        return {
            "round": int(completed),
            "pop_now": float(self.pop_now),
            "spans": spans.state_dict(),
        }

    def maybe_checkpoint(
        self, algo: "FederatedAlgorithm", spans: _Spans, completed: int
    ) -> None:
        """Write a periodic checkpoint at a completed boundary (if enabled).

        Runs after the boundary's aggregation and any record are
        committed, so the snapshot is exactly "``completed`` rounds
        done".  Fires ``algo.on_checkpoint(completed, path)`` afterwards
        — the crash-injection harness hangs its SIGKILL there.
        """
        cp = self._checkpointer
        if cp is None or completed % cp.every != 0:
            return
        path = cp.save(algo, self.state_dict(completed, spans))
        if algo.on_checkpoint is not None:
            algo.on_checkpoint(completed, path)

    # ------------------------------------------------------------------
    # round primitives
    # ------------------------------------------------------------------
    def advance_population(
        self, algo: "FederatedAlgorithm", spans: _Spans, key_idx: int, now: float
    ) -> None:
        """Apply every population event due by virtual time ``now``.

        Runs on the main thread at a round (or dispatch-cycle) boundary:
        drains the population model's due events in time order, applies
        each to the federation (:meth:`FederatedAlgorithm.apply_population_event
        <repro.fl.server.FederatedAlgorithm.apply_population_event>` —
        eligibility changes, joiner attachment and cluster assignment),
        and records the applied events for
        ``RoundRecord.extras["population"]``.
        """
        if not self.dynamic_population:
            return
        tele = algo.telemetry
        for event in algo.population.events_until(now):
            rec = algo.apply_population_event(event, key_idx)
            if rec is not None:
                spans.pop_events.append(rec)
                tele.emit("population", **rec)
                tele.count(f"population_{rec['kind']}")
        if tele.enabled and algo._eligible is not None:
            tele.gauge("roster_size", len(algo._eligible))

    def wire_down(
        self, algo: "FederatedAlgorithm", round_idx: int, selected: np.ndarray
    ) -> tuple[list[int], dict[int, int], list[int]]:
        """Availability mask → download metering → dropout draw.

        Args:
            algo: the running federation.
            round_idx: RNG key index for the availability/dropout draws
                (the sync round, or an async scheduler's dispatch cycle).
            selected: candidate client ids, in selection order.

        Returns:
            ``(survivors, down_nbytes, unavailable)``: clients that will
            execute, each selected client's metered download size, and the
            ids the availability draw skipped.
        """
        cfg = algo.config
        tele = algo.telemetry
        with tele.span("wire_down", cat="wire", selected=len(selected)):
            selected = np.asarray(selected, dtype=int)
            pop = algo.population
            masks = []
            if self.dynamic_population and pop.lazy:
                # a lazy population has no leave/return event stream: each
                # sampled client's reachability is resolved here from its
                # pure keyed session timeline.  Rejection-sampling
                # semantics: the cohort shrinks by the offline fraction
                # instead of re-drawing — a coordinator discovers liveness
                # only on contact, exactly like the eventful model's
                # shrunk-eligible-set draw in expectation but O(cohort)
                # in memory.
                masks.append(lambda sel: np.fromiter(
                    (pop.available(int(c), self.pop_now) for c in sel),
                    dtype=bool, count=sel.size,
                ))
            if not self.ideal:
                masks.append(
                    lambda sel: algo.network.available_mask(round_idx, sel)
                )
            unavailable: list[int] = []
            for mask_of in masks:
                mask = mask_of(selected)
                skipped = [int(c) for c in selected[~mask]]
                selected = selected[mask]
                for cid in skipped:
                    tele.emit("unavailable", client=cid)
                if skipped:
                    tele.count("unavailable", len(skipped))
                    unavailable.extend(skipped)
            dropout_rng = (
                algo.rngs.make("dropout", round_idx)
                if cfg.dropout_rate > 0
                else None
            )
            survivors: list[int] = []
            down_nbytes: dict[int, int] = {}
            for cid in selected:
                nb = algo.download_bytes(int(cid), round_idx)
                down_nbytes[int(cid)] = nb
                algo.comm.record_download(round_idx, nb)
                tele.count("bytes_down", nb)
                if (
                    dropout_rng is not None
                    and dropout_rng.random() < cfg.dropout_rate
                ):
                    # Dropped out after receiving the model (paper §4.2):
                    # no upload, no contribution to aggregation.
                    tele.count("dropouts")
                    continue
                survivors.append(int(cid))
        return survivors, down_nbytes, unavailable

    def execute(
        self, algo: "FederatedAlgorithm", round_idx: int, survivors: Sequence[int]
    ) -> list["ClientUpdate"]:
        """Run ``client_update`` for the survivors on the active backend."""
        return algo._backend.run_updates(algo, round_idx, survivors)

    def encode_upload(
        self, algo: "FederatedAlgorithm", u: "ClientUpdate", key_idx: int
    ) -> WireItem:
        """Codec-encode one upload and size it (no metering, no commit).

        Must be called while the server still holds the parameters the
        client downloaded (``wire_reference``) — i.e. before any
        intervening aggregation — which is why asynchronous schedulers
        call it at dispatch time.

        A byzantine client's upload is poisoned here, *before* the codec
        (:mod:`repro.fl.attacks`): lossy codecs, wire metering, and the
        simulated network all see the poisoned update, identically
        across the sync/semisync/buffered schedulers.
        """
        if algo.attack.enabled:
            u = algo.attack.poison_upload(algo, u, key_idx)
        protocol_up = algo.upload_bytes(u.client_id, key_idx)
        item = WireItem(u, protocol_up, protocol_up)
        if protocol_up > 0:
            sl = algo.wire_slice()
            overhead = max(0, protocol_up - algo.wire_payload_bytes())
            item.logical_up = int(u.params[sl].nbytes) + overhead
            if not self.identity:
                ref = algo.wire_reference(u, key_idx)
                encoded = algo.codec.traced_encode(
                    u.client_id,
                    u.params[sl] - ref[sl],
                    algo.rngs.make(f"codec.client{u.client_id}", key_idx),
                )
                item.encoded = encoded
                item.ref_sl = ref[sl].copy()
                item.sl = sl
                item.wire_up = encoded.nbytes + overhead
        return item

    def trip_seconds(
        self, algo: "FederatedAlgorithm", item: WireItem, down_nbytes: dict[int, int]
    ) -> float:
        """Simulated seconds for the upload's full client round trip."""
        u = item.update
        return algo.network.client_seconds(
            u.client_id, down_nbytes[u.client_id], item.wire_up, u.steps
        )

    def deliver(
        self, algo: "FederatedAlgorithm", item: WireItem, meter_idx: int
    ) -> "ClientUpdate":
        """Complete an upload: meter wire bytes, commit codec state, decode."""
        u = item.update
        algo.comm.record_upload(meter_idx, item.wire_up, item.logical_up)
        algo.telemetry.count("bytes_up", item.wire_up)
        if item.encoded is not None:
            algo.codec.commit(u.client_id, item.encoded)
            received = u.params.copy()
            received[item.sl] = item.ref_sl + algo.codec.traced_decode(
                item.encoded, u.client_id
            )
            u.params = received
        return u

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


@register("scheduler", "sync")
class SyncScheduler(Scheduler):
    """Wait for all: the round loop under the base arrival policy.

    Every round samples ``sample_rate`` of the roster and keeps every
    surviving upload the deadline (if any) does not cut.  With the
    default configuration this is bit-for-bit the pre-scheduler engine —
    the cross-backend equivalence contract's reference behaviour.
    """

    name = "sync"


@register("scheduler", "semisync", options=[
    opt("over_select_frac", float, 0.25,
        low=0.0, env="REPRO_OVER_SELECT_FRAC", cli="over-select-frac",
        field="over_select_frac", alias="osf", only_for=("semisync",),
        help="extra cohort fraction `semisync` over-selects before "
             "keeping the first quorum arrivals"),
])
class SemiSyncScheduler(Scheduler):
    """First quorum: over-select, keep the first arrivals, cancel the tail.

    Each round samples ``sample_rate * (1 + over_select_frac)`` of the
    federation, executes every survivor, ranks their simulated round
    trips, and keeps the first ``quorum`` (= the nominal cohort of the
    live roster) to arrive.  The rest are cancelled: their uploads never
    complete, cost no wire bytes, and never commit error-feedback
    residuals — their ids land in ``RoundRecord.extras["cancelled"]``.
    The round's simulated duration is the quorum-th arrival, so a single
    straggler no longer gates the round.  A configured ``deadline``
    still applies on top (arrivals past it count as ``deadline_dropped``).

    Cancelled clients still *train* (in the modeled world their compute
    happened; the server just ignores the upload), so the simulation pays
    their real wall-clock cost too — over-selection trades client compute
    for virtual time, exactly like the deployed systems it models.
    """

    name = "semisync"

    def selection_rate(self, cfg) -> float:
        over = float(self.options["over_select_frac"])
        return min(1.0, cfg.sample_rate * (1.0 + over))

    def quorum(self, algo: "FederatedAlgorithm") -> int:
        # sized per round, so it tracks the eligible roster as it churns
        return nominal_cohort(algo.roster_size(), algo.config.sample_rate)


@register("scheduler", "buffered", options=[
    opt("buffer_size", int, 0,
        low=0, env="REPRO_BUFFER_SIZE", cli="buffer-size",
        field="buffer_size", alias="bs", only_for=("buffered",),
        help="arrivals the `buffered` scheduler accumulates before "
             "folding them in (0 = half the concurrency, min 2, capped "
             "at the concurrency); `buffer_size == cohort` with "
             "`staleness_alpha` 0 reduces to `sync` exactly"),
    opt("staleness_alpha", float, 0.5,
        low=0.0, env="REPRO_STALENESS_ALPHA", cli="staleness-alpha",
        field="staleness_alpha", alias="sa", only_for=("buffered",),
        help="staleness-discount strength for buffered aggregation "
             "weights (`(1+s)^-alpha`; 0 disables)"),
    opt("sched_concurrency", int, 0,
        low=0, env="REPRO_SCHED_CONCURRENCY", alias="concurrency",
        only_for=("buffered",),
        help="buffered's concurrent-client pool size (0 = the nominal "
             "cohort size)"),
])
class BufferedScheduler(Scheduler):
    """Buffered asynchronous aggregation on the virtual-clock event queue.

    Up to ``concurrency`` clients run at once.  Arrivals accumulate into
    a buffer; every ``buffer_size`` arrivals (or when nothing is left in
    flight) the server *flushes*: it folds the buffer into its state via
    :meth:`FederatedAlgorithm.merge` with per-update staleness (flushes
    completed since each update's dispatch), evaluates on the record
    cadence, and re-dispatches every free slot from the then-current
    model.  The run executes the same total client-update budget as sync
    (``rounds × concurrency`` updates across ``rounds × concurrency /
    buffer_size`` flushes), so comparisons are schedule-vs-schedule at
    equal work; ``History`` rounds count flushes.

    There are no round barriers, so a per-round ``deadline`` is rejected
    (:func:`make_scheduler`); a client in flight at the end of the run
    is discarded, like a real federation shutting down.
    """

    name = "buffered"

    def run(self, algo: "FederatedAlgorithm", resume: dict | None = None) -> None:
        cfg = algo.config
        spans = self.begin(algo, resume)
        if resume is None:
            self._cohort = nominal_cohort(algo.fed.num_clients, cfg.sample_rate)
            concurrency = int(self.options["sched_concurrency"]) or self._cohort
            self._concurrency = concurrency
            self._k = int(self.options["buffer_size"]) or min(
                concurrency, max(2, concurrency // 2)
            )
            self._total_flushes = max(
                cfg.rounds, int(np.ceil(cfg.rounds * concurrency / self._k))
            )
            self._heap: list[tuple[float, int, int, int, WireItem]] = []
            self._running: set[int] = set()
            self._buffer: list[tuple[int, int, int, float, "ClientUpdate"]] = []
            self._cycle = 0
            self._seq = 0
            self._version = 0  # completed flushes (the server's model version)
            self._now = 0.0
            self._mark_sim = 0.0  # virtual time at the last record
            self._dispatch(algo, spans, self._now)
        else:
            self._load_resume(resume)
        while self._version < self._total_flushes:
            if self._heap:
                t, seq, cycle, v_dispatch, item = heapq.heappop(self._heap)
                self._now = t
                self._running.discard(int(item.update.client_id))
                u = self.deliver(algo, item, cycle)
                self._buffer.append((seq, cycle, v_dispatch, self._now, u))
                if len(self._buffer) < self._k and self._running:
                    continue
            # flush: fold the buffer in dispatch (submission) order —
            # also reached with an empty heap, so a cohort that entirely
            # dropped out still advances the federation
            self._version += 1
            self._buffer.sort(key=lambda b: b[0])
            merged = [b[4] for b in self._buffer]
            spans.sim = self._now - self._mark_sim  # since the last record
            if self.commit(
                algo, spans, self._version, self._total_flushes,
                len(merged), merged,
            ):
                self._mark_sim = self._now
            self._buffer = []
            if self._version < self._total_flushes:
                self._dispatch(algo, spans, self._now)
            # checkpoint after the re-dispatch: the snapshot's heap holds
            # the newly in-flight uploads, so resuming re-enters the loop
            # exactly where the unbroken run stood ("round" = flushes)
            self.maybe_checkpoint(algo, spans, self._version)

    def fold(
        self, algo: "FederatedAlgorithm", spans: _Spans, version: int, merged: list
    ) -> None:
        """Merge the flushed buffer with per-update staleness, then log
        its arrivals.

        A hierarchical topology pre-reduces the buffer here: staleness
        discounts apply per member *before* the edge reduce, and the
        summaries merge with zero staleness (flat returns the pair
        unchanged).  The flush record keeps the member-level losses
        either way.
        """
        tele = algo.telemetry
        staleness = [version - 1 - b[2] for b in self._buffer]
        folded, fold_stale = algo.topology.reduce_merge(
            algo, version, merged, staleness
        )
        with tele.span(
            "merge", cat="scheduler", flush=version, updates=len(folded)
        ):
            algo.merge(version, folded, fold_stale)
        for (_, _, _, t_arr, u), s in zip(self._buffer, staleness):
            spans.arrival(u.client_id, t_arr, s, version)
            tele.observe("staleness", s)

    def _dispatch(self, algo: "FederatedAlgorithm", spans: _Spans, t: float) -> None:
        """Fill every free slot with a fresh client at virtual time t."""
        tele = algo.telemetry
        with tele.span("dispatch", cat="scheduler", cycle=self._cycle + 1):
            # population clock: virtual time when anything is simulated,
            # else one second per completed flush (mirrors sync's
            # one-second-per-round fallback)
            self.pop_now = t if self.simulate else float(self._version)
            self.advance_population(algo, spans, self._cycle + 1, self.pop_now)
            free = self._concurrency - len(self._running)
            if free <= 0:
                return
            self._cycle += 1
            cycle = self._cycle
            pool = algo.select_clients(cycle)
            picks = [int(c) for c in pool if int(c) not in self._running]
            if len(picks) > free:
                # More candidates than free slots: choose uniformly (the
                # pool is sorted, so truncating would starve high ids),
                # then restore sorted order for the wire-down draws.
                perm = algo.rngs.make(
                    "sched.refill", cycle
                ).permutation(len(picks))
                picks = sorted(picks[i] for i in perm[:free])
            survivors, down_nbytes, unavailable = self.wire_down(
                algo, cycle, np.asarray(picks, dtype=int)
            )
            spans.unavailable.extend(unavailable)
            for u in self.execute(algo, cycle, survivors):
                item = self.encode_upload(algo, u, cycle)
                dur = self.trip_seconds(algo, item, down_nbytes)
                heapq.heappush(
                    self._heap, (t + dur, self._seq, cycle, self._version, item)
                )
                tele.vspan("trip", t, t + dur, client=int(u.client_id))
                self._running.add(int(u.client_id))
                self._seq += 1

    def state_dict(self, completed: int, spans: _Spans) -> dict:
        state = super().state_dict(completed, spans)
        state.update(
            # sized at run start from the *initial* roster — a resumed
            # run must not recompute them after joins grew the federation
            cohort=self._cohort,
            concurrency=self._concurrency,
            k=self._k,
            total_flushes=self._total_flushes,
            # in-flight uploads; sorted (time, seq) is a valid min-heap
            # and, unlike the heap's internal layout, byte-stable across
            # save → load → save round-trips.  The buffer is always empty
            # here (checkpoints happen right after a flush).
            heap=sorted(self._heap, key=lambda h: (h[0], h[1])),
            running=sorted(self._running),
            cycle=self._cycle,
            seq=self._seq,
            version=self._version,
            now=self._now,
            mark_sim=self._mark_sim,
        )
        return state

    def _load_resume(self, resume: dict) -> None:
        self._cohort = int(resume["cohort"])
        self._concurrency = int(resume["concurrency"])
        self._k = int(resume["k"])
        self._total_flushes = int(resume["total_flushes"])
        self._heap = list(resume["heap"])
        self._running = {int(c) for c in resume["running"]}
        self._buffer = []
        self._cycle = int(resume["cycle"])
        self._seq = int(resume["seq"])
        self._version = int(resume["version"])
        self._now = float(resume["now"])
        self._mark_sim = float(resume["mark_sim"])


def make_scheduler(
    config=None,
    scheduler: str | None = None,
    buffer_size: int | None = None,
    staleness_alpha: float | None = None,
    over_select_frac: float | None = None,
) -> Scheduler:
    """Build the control-loop scheduler for one federation run.

    Args:
        config: an :class:`~repro.fl.config.FLConfig` supplying the
            ``scheduler`` / ``buffer_size`` / ``staleness_alpha`` /
            ``over_select_frac`` knobs (optional).
        scheduler: explicit scheduler spec overriding the config — a
            registered name, ``"auto"``, or an inline spec like
            ``"buffered:bs=8,sa=0.5"``.
        buffer_size: explicit arrivals-per-flush for ``buffered``
            (``0``/``None`` defaults to half the concurrency, min 2,
            capped at the concurrency).
        staleness_alpha: explicit staleness-discount strength.
        over_select_frac: explicit over-selection fraction for
            ``semisync``.

    Resolution is the registry's (:func:`repro.fl.registry.resolve`):
    ``"auto"`` reads ``REPRO_SCHEDULER`` (default ``sync``) plus
    ``REPRO_BUFFER_SIZE`` / ``REPRO_STALENESS_ALPHA`` /
    ``REPRO_OVER_SELECT_FRAC``, mirroring every other family; the
    scheduler is built from the resolved options.

    Returns:
        A fresh :class:`Scheduler`; one instance serves one run.

    Raises:
        ValueError: if the scheduler resolves to ``buffered`` while a
            ``deadline`` is set (config field or ``REPRO_DEADLINE``).
            :meth:`FederatedAlgorithm.run
            <repro.fl.server.FederatedAlgorithm.run>` builds the
            scheduler here, before round-0 ``setup``, so every way of
            selecting either knob fails before any client trains.
    """
    r = registry.resolve(
        "scheduler",
        spec=scheduler,
        config=config,
        overrides={
            "buffer_size": buffer_size,
            "staleness_alpha": staleness_alpha,
            "over_select_frac": over_select_frac,
        },
    )
    if r.name == "buffered" and resolve_deadline(config) is not None:
        raise ValueError(
            "deadline does not apply to scheduler 'buffered': it has no "
            "round barrier to enforce it at; unset deadline (and "
            "REPRO_DEADLINE) or use scheduler 'sync' or 'semisync'"
        )
    return r.impl.cls(r.options)
