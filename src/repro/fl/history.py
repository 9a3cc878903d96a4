"""Training history: per-round metrics and the paper's derived statistics.

Collects the three quantities the evaluation section reports, plus
wall-clock timing so execution-backend speedups are measurable:

* the accuracy-vs-round curve (Fig. 3);
* rounds to reach a target accuracy (Table 4);
* communication Mb to reach a target accuracy (Table 5);
* wall-clock seconds per recorded span and for round-0 setup;
* per-span upload/download wire bytes and, when a network model or
  deadline is active, the *simulated* round duration and which clients a
  deadline cut (:mod:`repro.fl.network`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

__all__ = [
    "RoundRecord", "History", "RECORD_SCALARS", "FACT_TYPES", "record_extras",
]


@dataclass(frozen=True)
class RoundRecord:
    """One evaluation point of a federation run.

    Attributes:
        round: 1-based training round index (round 0 is setup).
        accuracy: average local test accuracy over all clients.
        train_loss: mean training loss of the round's reporting clients.
        cumulative_mb: total communication (Mb) up to and including this
            round.
        seconds: wall-clock seconds spent since the previous record (covers
            every training round in between when ``eval_every > 1``).
        upload_bytes: client→server wire bytes metered in this record's
            span (compressed when a codec is active; the first record's
            span includes round-0 setup traffic, so spans sum to the run
            total).
        download_bytes: server→client wire bytes for the span.
        sim_seconds: simulated network + compute seconds for the span
            (0.0 under the ideal network with no deadline).
        extras: free-form per-record annotations, folded from the span's
            facts by :func:`record_extras`.  The engine stores
            ``"deadline_dropped"`` (client ids a deadline cut during the
            span) and ``"unavailable"`` (ids skipped by the availability
            draw) when non-empty.  Event-driven schedulers
            (:mod:`repro.fl.scheduler`) additionally store
            ``"cancelled"`` (ids semisync cancelled after its quorum
            filled) and ``"events"`` (one dict per delivered upload:
            ``client``, arrival virtual time ``t``, ``staleness`` in
            flushes, and the ``flush`` index that merged it).  Dynamic
            populations (:mod:`repro.fl.population`) store
            ``"population"`` — one dict per applied membership event:
            virtual time ``t``, ``kind`` (``join``/``leave``/``return``),
            ``client``, plus ``cluster`` for joins through a clustered
            algorithm and ``suppressed`` for a leave deferred because it
            would have emptied the federation.
    """

    round: int
    accuracy: float
    train_loss: float
    cumulative_mb: float
    seconds: float = 0.0
    upload_bytes: int = 0
    download_bytes: int = 0
    sim_seconds: float = 0.0
    extras: dict = field(default_factory=dict)


#: a record's scalar fields (all but ``extras``), in declaration order
RECORD_SCALARS = tuple(f.name for f in fields(RoundRecord) if f.name != "extras")

#: each fact type a record folds into ``extras``, in key order: its key,
#: and whether the key keeps only the client id of each fact
_FOLDS = (
    ("deadline_drop", "deadline_dropped", True),
    ("unavailable", "unavailable", True),
    ("cancel", "cancelled", True),
    ("arrival", "events", False),
    ("population", "population", False),
)
#: the telemetry event types that are record facts
FACT_TYPES = tuple(type_ for type_, _, _ in _FOLDS)


def record_extras(facts: list[tuple[str, dict]]) -> dict:
    """Fold one record span's facts into its ``RoundRecord.extras``.

    ``facts`` are ``(type, fields)`` pairs in the order they happened,
    ``fields`` being the telemetry event's fields without ``type`` and
    ``seq``.  The live record (:meth:`Scheduler.commit
    <repro.fl.scheduler.Scheduler.commit>`) and
    :func:`~repro.fl.telemetry.replay_history` both build their extras
    here.  Each non-empty key lists its facts in order: a cut, skipped
    or cancelled client as its id, an arrival or a population event as
    its whole field dict.
    """
    extras: dict = {}
    for type_, key, ids_only in _FOLDS:
        folded = [f["client"] if ids_only else f for t, f in facts if t == type_]
        if folded:
            extras[key] = folded
    return extras


class History:
    """Ordered per-round records plus summary statistics."""

    def __init__(self, algorithm: str = "", dataset: str = ""):
        self.algorithm = algorithm
        self.dataset = dataset
        self.records: list[RoundRecord] = []
        #: wall-clock seconds the engine spent in round-0 ``setup`` (one-shot
        #: clustering, per-client warm-up...); 0.0 until ``run`` sets it
        self.setup_seconds: float = 0.0

    def append(self, record: RoundRecord) -> None:
        """Append a record; rounds must be strictly increasing.

        Args:
            record: the evaluation point to store.

        Raises:
            ValueError: if ``record.round`` does not follow the last round.
        """
        if self.records and record.round <= self.records[-1].round:
            raise ValueError(
                f"round {record.round} not after round {self.records[-1].round}"
            )
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    @property
    def rounds(self) -> np.ndarray:
        """Recorded round indices, ascending."""
        return np.array([r.round for r in self.records])

    @property
    def accuracies(self) -> np.ndarray:
        """Recorded accuracies, aligned with :attr:`rounds`."""
        return np.array([r.accuracy for r in self.records])

    @property
    def losses(self) -> np.ndarray:
        """Recorded training losses, aligned with :attr:`rounds`."""
        return np.array([r.train_loss for r in self.records])

    @property
    def cumulative_mb(self) -> np.ndarray:
        """Cumulative communication (Mb), aligned with :attr:`rounds`."""
        return np.array([r.cumulative_mb for r in self.records])

    @property
    def seconds(self) -> np.ndarray:
        """Wall-clock seconds per record span, aligned with :attr:`rounds`."""
        return np.array([r.seconds for r in self.records])

    @property
    def upload_bytes(self) -> np.ndarray:
        """Upload wire bytes per record span, aligned with :attr:`rounds`."""
        return np.array([r.upload_bytes for r in self.records], dtype=np.int64)

    @property
    def download_bytes(self) -> np.ndarray:
        """Download wire bytes per record span, aligned with :attr:`rounds`."""
        return np.array([r.download_bytes for r in self.records], dtype=np.int64)

    @property
    def sim_seconds(self) -> np.ndarray:
        """Simulated seconds per record span, aligned with :attr:`rounds`."""
        return np.array([r.sim_seconds for r in self.records])

    def total_sim_seconds(self) -> float:
        """Total simulated duration of the run (0.0 for an ideal network)."""
        return float(self.sim_seconds.sum()) if self.records else 0.0

    def deadline_dropped(self) -> list[int]:
        """Every client id a per-round deadline cut, in record order."""
        out: list[int] = []
        for r in self.records:
            out.extend(r.extras.get("deadline_dropped", ()))
        return out

    def population_events(self, kind: str | None = None) -> list[dict]:
        """Every applied population event, in record order.

        Args:
            kind: restrict to one event kind (``"join"`` / ``"leave"``
                / ``"return"``); ``None`` returns all.

        Returns:
            The event dicts dynamic populations stored in
            ``extras["population"]`` (empty for a static run).
        """
        out: list[dict] = []
        for r in self.records:
            for event in r.extras.get("population", ()):
                if kind is None or event.get("kind") == kind:
                    out.append(event)
        return out

    def total_seconds(self, include_setup: bool = True) -> float:
        """Total measured wall-clock time of the run.

        Args:
            include_setup: whether to add round-0 :attr:`setup_seconds`.

        Returns:
            Seconds spent across all recorded spans (0.0 for an empty,
            untimed history).
        """
        total = float(self.seconds.sum()) if self.records else 0.0
        return total + (self.setup_seconds if include_setup else 0.0)

    def final_accuracy(self) -> float:
        """Accuracy of the last record.

        Raises:
            ValueError: on an empty history.
        """
        if not self.records:
            raise ValueError("empty history")
        return self.records[-1].accuracy

    def best_accuracy(self) -> float:
        """Highest recorded accuracy.

        Raises:
            ValueError: on an empty history.
        """
        if not self.records:
            raise ValueError("empty history")
        return float(self.accuracies.max())

    def rounds_to_target(self, target: float) -> int | None:
        """First round index at which accuracy >= target (None if never) —
        Table 4's metric."""
        hits = np.flatnonzero(self.accuracies >= target)
        return int(self.rounds[hits[0]]) if hits.size else None

    def mb_to_target(self, target: float) -> float | None:
        """Cumulative communication (Mb) when the target accuracy is first
        reached (None if never) — Table 5's metric."""
        hits = np.flatnonzero(self.accuracies >= target)
        return float(self.cumulative_mb[hits[0]]) if hits.size else None

    def sim_seconds_to_target(self, target: float) -> float | None:
        """Cumulative *simulated* seconds when the target accuracy is first
        reached (None if never) — the scheduler benchmarks' metric.

        The virtual-clock analogue of :meth:`mb_to_target`: under a
        simulated network this measures how long the federation would
        really have taken to reach the target, which is what the
        asynchronous schedulers (:mod:`repro.fl.scheduler`) improve.
        Always 0.0-valued under the ideal network with the sync scheduler
        (nothing is simulated there).
        """
        hits = np.flatnonzero(self.accuracies >= target)
        if not hits.size:
            return None
        return float(np.cumsum(self.sim_seconds)[hits[0]])

    def state_dict(self) -> dict:
        """Full, picklable snapshot for checkpointing (exact floats)."""
        return {
            "algorithm": self.algorithm,
            "dataset": self.dataset,
            "setup_seconds": self.setup_seconds,
            "records": [
                {
                    **{k: getattr(r, k) for k in RECORD_SCALARS},
                    "extras": dict(r.extras),
                }
                for r in self.records
            ],
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (replaces all records)."""
        self.algorithm = state["algorithm"]
        self.dataset = state["dataset"]
        self.setup_seconds = float(state["setup_seconds"])
        self.records = [RoundRecord(**r) for r in state["records"]]

    def as_dict(self) -> dict:
        """JSON-serializable summary of the history (see ``utils.io``)."""
        return {
            "algorithm": self.algorithm,
            "dataset": self.dataset,
            "rounds": self.rounds.tolist(),
            "accuracy": self.accuracies.tolist(),
            "train_loss": self.losses.tolist(),
            "cumulative_mb": self.cumulative_mb.tolist(),
            "seconds": self.seconds.tolist(),
            "setup_seconds": self.setup_seconds,
            "upload_bytes": self.upload_bytes.tolist(),
            "download_bytes": self.download_bytes.tolist(),
            "sim_seconds": self.sim_seconds.tolist(),
            "extras": [dict(r.extras) for r in self.records],
        }
