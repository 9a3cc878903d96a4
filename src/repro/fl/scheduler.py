"""Federation schedulers: one round loop, three arrival policies.

A :class:`Scheduler` owns rounds 1..T of a federation run (round-0
``setup`` has already run).  :meth:`Scheduler.run` is the one round
loop, on a virtual clock driven by :meth:`NetworkModel.client_seconds
<repro.fl.network.NetworkModel.client_seconds>`:

    select → ``wire_down`` → ``trip_seconds`` per survivor → arrival
    policy (keep, deadline-cut or cancel) → ``execute`` the kept →
    ``encode_upload`` + ``deliver`` each into the topology sink →
    ``aggregate`` → record on the eval cadence → checkpoint

Nothing a client computes moves its simulated arrival: a trip reads
only the download bytes, the upload's wire bytes (every codec sizes its
payload from the slice length alone) and the step count
(:meth:`FederatedAlgorithm.local_steps
<repro.fl.server.FederatedAlgorithm.local_steps>`).  So the policy runs
on the planned trips before ``execute``: a cancelled or cut client is
charged in virtual time (its download is metered, its trip ranks it)
but never trained or encoded.  A kept upload whose actual wire bytes or
steps differ from its plan fails the run.  A round without a clock
(``sync`` on an ideal network with no deadline) plans nothing.

Schedulers differ only in their *arrival policy* — which uploads a
boundary waits for:

``sync`` — wait for all
    Samples ``sample_rate`` of the roster and keeps every upload the
    deadline (if any) does not cut, classifying the planned trips in
    submission order; the clock only runs when something is simulated
    (a non-ideal network or a deadline).  With the default configuration
    this is **bit-for-bit** the seed engine on every execution backend.

``semisync`` — first quorum
    Over-selects by ``over_select_frac``, ranks the round's planned
    trips by simulated arrival time, keeps the first *quorum* (the
    nominal cohort of the live roster) and cancels the tail: cancelled
    uploads are never trained, never metered, and (for error-feedback
    codecs) never commit their residuals.  Ranking needs the clock, so
    it always runs, and every kept arrival is logged in
    ``extras["events"]``.  With ``over_select_frac=0`` it keeps exactly
    the uploads ``sync`` keeps.

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

import copy
import heapq
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.fl import registry
from repro.fl.checkpoint import Checkpointer
from repro.fl.codecs import Encoded, IdentityCodec
from repro.fl.history import RoundRecord, record_extras
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


class Scheduler:
    """Owns a federation's control loop (rounds 1..T, after ``setup``).

    :meth:`run` is the round loop; a subclass supplies only its arrival
    policy, :meth:`selection_rate` and :meth:`quorum` (the defaults are
    ``sync``'s: sample at ``sample_rate``, wait for every upload).  The
    loop calls the round primitives — ``wire_down`` (select →
    availability → download metering → dropout), ``trip_seconds`` (the
    planned trip), ``execute`` (the backend sweep over the kept
    clients), ``encode_upload`` / ``deliver`` (the wire layer split at
    the virtual-time boundary) — and the boundary's :meth:`commit`
    through ``self``, so subclasses and profilers can wrap each one.

    One scheduler instance serves one run, so it also holds the run's
    *open span*, the rounds (or flushes) since the last record: their
    simulated seconds ``sim``, the wire-byte marks ``last_up`` /
    ``last_down``, the wall-clock ``mark``, and ``facts``, one ``(type,
    fields)`` pair per deadline cut, unavailable client, cancel, arrival
    and population event (:meth:`note`).  Each record folds and empties
    it (:meth:`commit`).
    """

    #: registry name; subclasses set this
    name: str = "base"
    #: what a checkpoint saves and a resume restores, by attribute name:
    #: the population clock and the open span (its wall mark restarts, so
    #: resume equality excludes the ``seconds`` fields)
    STATE = ("pop_now", "sim", "last_up", "last_down", "facts")

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
        self.begin(algo, resume)
        start = 1 if resume is None else int(resume["round"]) + 1
        for round_idx in range(start, cfg.rounds + 1):
            with tele.span("round", cat="scheduler", round=round_idx):
                self.advance_population(algo, round_idx, self.pop_now)
                selected = algo.select_clients(
                    round_idx, self.selection_rate(cfg)
                )
                survivors, down_nbytes = self.wire_down(algo, round_idx, selected)
                quorum = self.quorum(algo)
                kept, round_sim = self.plan_arrivals(
                    algo, round_idx, survivors, down_nbytes, quorum
                )
                updates = self.execute(algo, round_idx, [c for c, _ in kept])
                # the topology sink receives each delivered update the
                # moment it clears the wire (flat: a pass-through list,
                # bit-for-bit the seed; hier: streaming edge reduction)
                sink = algo.topology.sink(algo, round_idx)
                with tele.span("wire_up", cat="wire", uploads=len(updates)):
                    # one upload on the wire at a time: each is encoded and
                    # delivered before the next, and the loop drops its own
                    # reference to the update
                    for seq, (cid, t) in enumerate(kept):
                        u, updates[seq] = updates[seq], None
                        item = self.encode_upload(
                            algo, u, round_idx, planned=t is not None
                        )
                        sink.add(self.deliver(algo, item, round_idx))
                        if quorum is not None:
                            self.note(
                                algo, "arrival", client=cid, t=float(t),
                                staleness=0, flush=round_idx,
                            )
                delivered = sink.finish()
                self.sim += round_sim
                self.pop_now += round_sim if self.simulate else 1.0
                self.commit(algo, round_idx, cfg.rounds, sink.losses, delivered)
                self.maybe_checkpoint(algo, round_idx)

    def plan_arrivals(
        self, algo: "FederatedAlgorithm", round_idx: int,
        survivors: list[int], down_nbytes: dict[int, int], quorum: int | None,
    ) -> tuple[list[tuple[int, float | None]], float]:
        """Keep, deadline-cut or cancel one round's survivors on their
        planned trips, before any of them trains.

        Nothing a client computes moves its arrival (:meth:`trip_seconds`),
        so the policy runs here, in front of ``execute``: a cancelled or
        cut client is charged in virtual time but never trained or
        encoded.  Without a quorum the trips are classified in submission
        order; a quorum ranks them by ``(arrival time, submission order)``
        and cancels every one after the quorum-th.  A round without a
        clock (``sync`` on an ideal network with no deadline) plans
        nothing and keeps every survivor, with no arrival time.

        Returns:
            ``(kept, round_sim)``: the kept ``(client id, arrival time)``
            pairs in submission order, and the round's simulated
            duration: the last kept arrival, or the whole deadline when
            anyone was cut.
        """
        ranked = quorum is not None
        if not (ranked or self.simulate):
            return [(cid, None) for cid in survivors], 0.0
        tele = algo.telemetry
        trips = [
            (self.trip_seconds(algo, cid, down_nbytes, round_idx), seq, cid)
            for seq, cid in enumerate(survivors)
        ]
        if ranked:
            trips.sort(key=lambda trip: trip[:2])
        kept: list[tuple[int, int, float]] = []
        cut = False
        round_sim = 0.0
        for t, seq, cid in trips:
            if ranked and len(kept) >= quorum:
                # the server stopped waiting when the quorum filled;
                # everything later is cancelled, deadline or not
                self.note(algo, "cancel", client=cid, t=float(t), flush=round_idx)
                tele.count("cancellations")
            elif self.deadline is not None and t > self.deadline:
                # cut off mid-round: the upload never completes (not
                # metered), error-feedback residuals stay as they were,
                # and the update is discarded
                self.note(
                    algo, "deadline_drop", client=cid, t=float(t), flush=round_idx
                )
                cut = True
                tele.count("deadline_drops")
            else:
                tele.vspan(
                    "trip", self.pop_now, self.pop_now + t, client=int(cid)
                )
                round_sim = max(round_sim, t)
                kept.append((seq, cid, t))
        kept.sort()
        # the server waits out the budget; a ranked round only cuts when
        # its quorum never filled (every arrival after a cut is late too)
        return (
            [(cid, t) for _, cid, t in kept],
            self.deadline if cut else round_sim,
        )

    # ------------------------------------------------------------------
    # steps shared by every scheduler
    # ------------------------------------------------------------------
    def begin(self, algo: "FederatedAlgorithm", resume: dict | None) -> None:
        """Resolve the run's wire-layer flags and open its record span.

        Call once, before the loop; ``resume`` restores :attr:`STATE`.
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
        # the open span; the first one also covers round-0 setup traffic
        self.mark = time.perf_counter()
        self.sim = 0.0
        self.last_up = self.last_down = 0
        self.facts: list[tuple[str, dict]] = []
        if resume is not None:
            # shallow copies: the run appends to the saved lists, and the
            # checkpoint it resumes from stays as saved
            for name in self.STATE:
                setattr(self, name, copy.copy(resume[name]))

    def note(self, algo: "FederatedAlgorithm", type_: str, /, **fields) -> None:
        """Note one fact of the open span: the telemetry event ``type_``
        with ``fields``, and the same pair in :attr:`facts` for the next
        record's extras (:func:`~repro.fl.history.record_extras`)."""
        self.facts.append((type_, fields))
        algo.telemetry.emit(type_, **fields)

    def commit(
        self, algo: "FederatedAlgorithm", idx: int, last: int,
        losses: list[float], updates: list,
    ) -> bool:
        """Close a boundary: :meth:`fold` it in, then record on the cadence.

        ``idx`` is the round (or buffered flush); ``last``, the run's
        final boundary, always records.  ``losses`` holds the training
        loss of each upload that reached the server (a hierarchical sink
        hands over fewer edge summaries as ``updates``); the record's
        ``train_loss`` is their mean.  An empty boundary — everyone cut,
        unavailable or dropped out — changes nothing server-side, but the
        federation still advances and the record still commits.  A record
        closes the open span: its extras are the span's facts, folded, and
        the next span starts empty.  Returns whether a record was written.
        """
        tele = algo.telemetry
        tele.observe("arrivals_per_flush", len(losses))
        if updates:
            self.fold(algo, idx, updates)
        if idx % algo.config.eval_every and idx != last:
            return False
        acc = algo.evaluate()
        extras = record_extras(self.facts)
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
        now, comm = time.perf_counter(), algo.comm
        record = RoundRecord(
            round=idx,
            accuracy=acc,
            train_loss=float(np.mean(losses)) if losses else 0.0,
            cumulative_mb=comm.total_mb(),
            seconds=now - self.mark,
            upload_bytes=comm.total_up - self.last_up,
            download_bytes=comm.total_down - self.last_down,
            sim_seconds=self.sim,
            extras=extras,
        )
        algo.history.append(record)
        tele.record(record)
        self.mark, self.sim, self.facts = now, 0.0, []
        self.last_up, self.last_down = comm.total_up, comm.total_down
        return True

    def fold(self, algo: "FederatedAlgorithm", idx: int, updates: list) -> None:
        """Fold one round's delivered updates into the server state."""
        with algo.telemetry.span(
            "aggregate", cat="scheduler", updates=len(updates)
        ):
            algo.aggregate(idx, updates)

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def state_dict(self, completed: int) -> dict:
        """Resume state at a completed round/flush boundary: :attr:`STATE`
        by name (the open span's facts as they stand), plus ``round``."""
        state = {name: getattr(self, name) for name in self.STATE}
        state["round"] = int(completed)
        return state

    def maybe_checkpoint(self, algo: "FederatedAlgorithm", completed: int) -> None:
        """Write a periodic checkpoint at a completed boundary (if enabled).

        Runs after the boundary's aggregation and any record are
        committed, so the snapshot is exactly "``completed`` rounds
        done".  Fires ``algo.on_checkpoint(completed, path)`` afterwards
        — the crash-injection harness hangs its SIGKILL there.
        """
        cp = self._checkpointer
        if cp is None or completed % cp.every != 0:
            return
        path = cp.save(algo, self.state_dict(completed))
        if algo.on_checkpoint is not None:
            algo.on_checkpoint(completed, path)

    # ------------------------------------------------------------------
    # round primitives
    # ------------------------------------------------------------------
    def advance_population(
        self, algo: "FederatedAlgorithm", key_idx: int, now: float
    ) -> None:
        """Apply every population event due by virtual time ``now``.

        Runs on the main thread at a round (or dispatch-cycle) boundary:
        drains the population model's due events in time order, applies
        each to the federation (:meth:`FederatedAlgorithm.apply_population_event
        <repro.fl.server.FederatedAlgorithm.apply_population_event>` —
        eligibility changes, joiner attachment and cluster assignment),
        and notes each applied event (``RoundRecord.extras["population"]``).
        """
        if not self.dynamic_population:
            return
        tele = algo.telemetry
        for event in algo.population.events_until(now):
            rec = algo.apply_population_event(event, key_idx)
            if rec is not None:
                self.note(algo, "population", **rec)
                tele.count(f"population_{rec['kind']}")
        if tele.enabled and algo._eligible is not None:
            tele.gauge("roster_size", len(algo._eligible))

    def wire_down(
        self, algo: "FederatedAlgorithm", round_idx: int, selected: np.ndarray
    ) -> tuple[list[int], dict[int, int]]:
        """Availability mask → download metering → dropout draw.

        Args:
            algo: the running federation.
            round_idx: RNG key index for the availability/dropout draws
                (the sync round, or an async scheduler's dispatch cycle).
            selected: candidate client ids, in selection order.

        Each client the availability draw skips is noted as an
        ``unavailable`` fact (:meth:`note`).

        Returns:
            ``(survivors, down_nbytes)``: clients that will execute, and
            each selected client's metered download size.
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
            for mask_of in masks:
                mask = mask_of(selected)
                skipped = [int(c) for c in selected[~mask]]
                selected = selected[mask]
                for cid in skipped:
                    self.note(algo, "unavailable", client=cid)
                if skipped:
                    tele.count("unavailable", len(skipped))
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
        return survivors, down_nbytes

    def execute(
        self, algo: "FederatedAlgorithm", round_idx: int, survivors: Sequence[int]
    ) -> list["ClientUpdate"]:
        """Run ``client_update`` for the kept clients on the active backend."""
        return algo._backend.run_updates(algo, round_idx, survivors)

    def encode_upload(
        self, algo: "FederatedAlgorithm", u: "ClientUpdate", key_idx: int,
        planned: bool = False,
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

        Raises:
            RuntimeError: if ``planned`` (the upload's trip was planned
                before the client trained) and its actual wire bytes or
                step count differ from :meth:`planned_upload`'s.
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
        if planned:
            plan = self.planned_upload(algo, u.client_id, key_idx)
            if (item.wire_up, u.steps) != plan:
                raise RuntimeError(
                    f"{type(algo).__name__} ({algo.name!r}): client "
                    f"{u.client_id}'s upload took {u.steps} steps and "
                    f"{item.wire_up} wire bytes, but its arrival was planned "
                    f"from {plan[1]} steps and {plan[0]} bytes before it "
                    "trained; an algorithm whose loop takes another number "
                    "of steps must override local_steps"
                )
        return item

    def planned_upload(
        self, algo: "FederatedAlgorithm", client_id: int, key_idx: int
    ) -> tuple[int, int]:
        """``(wire bytes, steps)`` of the client's upload, before it trains.

        Every codec sizes its payload from the wire slice's length alone
        (:meth:`Codec.wire_nbytes <repro.fl.codecs.Codec.wire_nbytes>`)
        and :meth:`FederatedAlgorithm.local_steps
        <repro.fl.server.FederatedAlgorithm.local_steps>` counts the
        steps, so neither waits for the client's update.
        """
        wire_up = algo.upload_bytes(client_id, key_idx)
        if wire_up > 0 and not self.identity:
            n = len(range(algo.model.num_parameters())[algo.wire_slice()])
            overhead = max(0, wire_up - algo.wire_payload_bytes())
            wire_up = algo.codec.wire_nbytes(n) + overhead
        return wire_up, algo.local_steps(client_id)

    def trip_seconds(
        self, algo: "FederatedAlgorithm", client_id: int,
        down_nbytes: dict[int, int], key_idx: int,
    ) -> float:
        """Simulated seconds for the client's full planned round trip."""
        wire_up, steps = self.planned_upload(algo, client_id, key_idx)
        return algo.network.client_seconds(
            client_id, down_nbytes[client_id], wire_up, steps
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
    federation, ranks every survivor's planned round trip, and keeps the
    first ``quorum`` (= the nominal cohort of the live roster) to
    arrive.  The rest are cancelled: their uploads never complete, cost
    no wire bytes, and never commit error-feedback residuals — their ids
    land in ``RoundRecord.extras["cancelled"]``.  The round's simulated
    duration is the quorum-th arrival, so a single straggler no longer
    gates the round.  A configured ``deadline`` still applies on top
    (arrivals past it count as ``deadline_dropped``).

    In the modeled world a cancelled client's compute happened: it is
    charged in virtual time (its download is metered and its trip ranks
    it), so over-selection still trades client compute for virtual time,
    like the deployed systems it models.  Only wall-clock changes: the
    ranking runs on planned trips before ``execute``, so the simulator
    never trains or encodes a cancelled client.
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
    #: plus the event queue, sized at run start from the *initial*
    #: roster (a resume must not re-size it after joins grew the
    #: federation); the buffer is empty at every checkpoint
    STATE = Scheduler.STATE + (
        "_concurrency", "_k", "_total_flushes", "_heap", "_running",
        "_cycle", "_seq", "_version", "_now", "_mark_sim",
    )

    def run(self, algo: "FederatedAlgorithm", resume: dict | None = None) -> None:
        cfg = algo.config
        self.begin(algo, resume)
        self._buffer: list[tuple[int, int, int, float, "ClientUpdate"]] = []
        if resume is not None:
            self._running = set(self._running)
        else:
            concurrency = int(self.options["sched_concurrency"]) or nominal_cohort(
                algo.fed.num_clients, cfg.sample_rate
            )
            self._concurrency = concurrency
            self._k = int(self.options["buffer_size"]) or min(
                concurrency, max(2, concurrency // 2)
            )
            self._total_flushes = max(
                cfg.rounds, int(np.ceil(cfg.rounds * concurrency / self._k))
            )
            self._heap: list[tuple[float, int, int, int, WireItem]] = []
            self._running: set[int] = set()
            self._cycle = self._seq = 0
            self._version = 0  # completed flushes (the server's model version)
            # virtual time: now, and at the last record
            self._now = self._mark_sim = 0.0
            self._dispatch(algo, self._now)
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
            self.sim = self._now - self._mark_sim  # since the last record
            losses = [u.loss for u in merged]
            last = self._total_flushes
            if self.commit(algo, self._version, last, losses, merged):
                self._mark_sim = self._now
            self._buffer = []
            if self._version < self._total_flushes:
                self._dispatch(algo, self._now)
            # checkpoint after the re-dispatch: the snapshot's heap holds
            # the newly in-flight uploads, so resuming re-enters the loop
            # exactly where the unbroken run stood ("round" = flushes)
            self.maybe_checkpoint(algo, self._version)

    def fold(self, algo: "FederatedAlgorithm", version: int, merged: list) -> None:
        """Merge the flushed buffer with per-update staleness, then note
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
            self.note(
                algo, "arrival", client=int(u.client_id), t=float(t_arr),
                staleness=int(s), flush=int(version),
            )
            tele.observe("staleness", s)

    def _dispatch(self, algo: "FederatedAlgorithm", t: float) -> None:
        """Fill every free slot with a fresh client at virtual time t."""
        tele = algo.telemetry
        with tele.span("dispatch", cat="scheduler", cycle=self._cycle + 1):
            # population clock: virtual time when anything is simulated,
            # else one second per completed flush (mirrors sync's
            # one-second-per-round fallback)
            self.pop_now = t if self.simulate else float(self._version)
            self.advance_population(algo, self._cycle + 1, self.pop_now)
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
            survivors, down_nbytes = self.wire_down(
                algo, cycle, np.asarray(picks, dtype=int)
            )
            trips = [
                self.trip_seconds(algo, cid, down_nbytes, cycle)
                for cid in survivors
            ]
            for u, dur in zip(self.execute(algo, cycle, survivors), trips):
                item = self.encode_upload(algo, u, cycle, planned=True)
                heapq.heappush(
                    self._heap, (t + dur, self._seq, cycle, self._version, item)
                )
                tele.vspan("trip", t, t + dur, client=int(u.client_id))
                self._running.add(int(u.client_id))
                self._seq += 1

    def state_dict(self, completed: int) -> dict:
        state = super().state_dict(completed)
        # in-flight uploads; sorted (time, seq) is a valid min-heap and,
        # unlike the heap's internal layout, byte-stable across save →
        # load → save round-trips
        state["_heap"] = sorted(self._heap, key=lambda h: h[:2])
        state["_running"] = sorted(self._running)
        return state


def make_scheduler(config=None, scheduler: str | None = None) -> Scheduler:
    """Build the control-loop scheduler for one federation run.

    Args:
        config: an :class:`~repro.fl.config.FLConfig` supplying the
            ``scheduler`` / ``buffer_size`` / ``staleness_alpha`` /
            ``over_select_frac`` knobs (optional).
        scheduler: explicit scheduler spec overriding the config — a
            registered name, ``"auto"``, or an inline spec like
            ``"buffered:bs=8,sa=0.5"``.

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
    r = registry.resolve("scheduler", spec=scheduler, config=config)
    if r.name == "buffered" and resolve_deadline(config) is not None:
        raise ValueError(
            "deadline does not apply to scheduler 'buffered': it has no "
            "round barrier to enforce it at; unset deadline (and "
            "REPRO_DEADLINE) or use scheduler 'sync' or 'semisync'"
        )
    return r.impl.cls(r.options)
