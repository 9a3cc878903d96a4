"""Telemetry: structured spans, a metrics registry, and a replayable event log.

The engine produces rich per-round facts — wire bytes, virtual-clock
arrivals, staleness, deadline cuts, population churn.  One
:class:`Telemetry` object, threaded through the engine by
:meth:`FederatedAlgorithm.run <repro.fl.server.FederatedAlgorithm.run>`,
observes every phase, so "where did this round's time go?" and "what
did the scheduler do at t=431.2s?" need no re-run:

* **Span tracer** — nested wall-clock spans (``setup``, ``round``,
  ``wire_down``, ``execute``, ``encode``/``decode``, ``wire_up``,
  ``aggregate``/``merge``, ``eval``, ``checkpoint``) plus virtual-clock
  spans (one ``trip`` per simulated client round trip), exportable as a
  Chrome-trace-event JSON (:meth:`Telemetry.chrome_trace`) that loads
  directly in ``chrome://tracing`` or https://ui.perfetto.dev — the wall
  clock and the virtual clock render as two separate process lanes.
* **Metrics registry** — counters (``bytes_up``/``bytes_down``,
  ``deadline_drops``, ``dropouts``, ``unavailable``,
  ``population_join``/``leave``/``return``), gauges (``roster_size``),
  and histograms (``staleness``, ``arrivals_per_flush``).  Deterministic
  per-record *deltas* are snapshotted into ``RoundRecord.extras
  ["metrics"]`` (wall-clock phase seconds deliberately stay out of the
  record so telemetry-enabled histories remain reproducible); cumulative
  totals + per-phase seconds dump as JSON or CSV at run end.
* **Replayable event log** — every engine fact is a typed event
  (``arrival``, ``deadline_drop``, ``cancel``, ``unavailable``,
  ``population``, ``record``, ...) in an in-memory list and, when
  configured, an append-only JSONL sink.  The scheduler notes each fact
  a record folds into ``extras`` once, as the event and as an entry of
  its open span (:meth:`Scheduler.note <repro.fl.scheduler.Scheduler.note>`).
  :func:`replay_history` folds the events back through the live
  record's own fold (:func:`~repro.fl.history.record_extras`) into a
  :class:`~repro.fl.history.History` that is **bit-identical** to the
  live one — accuracy, losses, Mb, wire bytes, sim_seconds, extras —
  without re-executing anything.

Telemetry is **off by default** and costs nothing when off: the engine
holds the shared :data:`NULL_TELEMETRY` singleton whose methods are
no-ops (``bench_telemetry.py`` gates the disabled-mode overhead at <2%
of the plain run; its <10% enabled-mode gate applies only to a plain run
of 1 s or more, so the sub-second CI smoke reports that overhead
ungated).  Because
observation never changes the trajectory, ``tele_*`` knobs are excluded
from the checkpoint fingerprint — a run checkpointed without telemetry
may resume with it, and vice versa.

Selection mirrors every other engine family: ``FLConfig(telemetry="on")``
/ ``REPRO_TELEMETRY=on`` / ``--telemetry on``, with knobs
``tele_dir`` (``--telemetry-dir``: the events/metrics/trace trio in one
run directory, what ``python -m repro.experiments trace <run-dir>``
inspects), ``tele_trace_out`` / ``tele_metrics_out`` / ``tele_events_out``
(individual paths), and ``tele_progress`` (``"on:progress=1"``: a
logging progress line every N recorded rounds — live streaming for long
runs).
"""

from __future__ import annotations

import json
import logging
import sys
import time
from pathlib import Path
from typing import IO, Any, Callable

import numpy as np

from repro.fl.history import (
    FACT_TYPES, RECORD_SCALARS, History, RoundRecord, record_extras,
)
from repro.fl.registry import opt, register, resolve

__all__ = [
    "Telemetry",
    "NullTelemetry",
    "NULL_TELEMETRY",
    "MetricsRegistry",
    "make_telemetry",
    "replay_history",
    "load_events",
    "EVENT_TYPES",
]

logger = logging.getLogger("repro.telemetry")

#: every event type the engine emits (the JSONL schema's ``type`` values)
EVENT_TYPES = (
    "run_start",   # algorithm/dataset/num_clients/seed (+ resumed_from)
    "setup",       # round-0 setup finished: wall seconds
    "unavailable", # availability draw skipped a selected client
    "deadline_drop",  # a deadline cut an upload mid-flight
    "cancel",      # semisync cancelled a straggler past its quorum
    "arrival",     # a delivered upload: client, virtual t, staleness, flush
    "edge",        # a hier-topology edge summary: flush, edge, members, bytes
    "population",  # an applied membership event (join/leave/return)
    "attack_assign",    # a client was marked byzantine at run start
    "poisoned_update",  # an adversary's upload was poisoned pre-wire
    "record",      # one RoundRecord committed (scalars + metrics snapshot)
    "checkpoint",  # a periodic checkpoint was written
    "run_end",     # the run finished; total records
)


def _json_default(obj: Any):
    """Plain-type coercion for the JSON sinks (numpy scalars/arrays)."""
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj).__name__}")


try:  # Unix only; absent on some platforms — RSS gauging just degrades
    import resource as _resource
except ImportError:  # pragma: no cover - non-Unix
    _resource = None


def _peak_rss_mb() -> float | None:
    """This process's peak resident-set size in (decimal) megabytes.

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; returns
    ``None`` where the ``resource`` module is unavailable.
    """
    if _resource is None:
        return None
    peak = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - platform-specific
        return peak / 1e6
    return peak * 1024 / 1e6


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class _NullSpan:
    """Shared no-op context manager — the disabled-mode hot path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    """One wall-clock span; records itself on the owning tracer at exit."""

    __slots__ = ("_tele", "name", "cat", "args", "_t0")

    def __init__(self, tele: "Telemetry", name: str, cat: str, args: dict):
        self._tele = tele
        self.name = name
        self.cat = cat
        self.args = args

    def __enter__(self) -> "_Span":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        tele = self._tele
        dur = time.perf_counter() - self._t0
        tele.spans.append({
            "name": self.name,
            "cat": self.cat,
            "t0": self._t0 - tele._origin,
            "dur": dur,
            "args": self.args,
        })
        tele.phase_seconds[self.name] = (
            tele.phase_seconds.get(self.name, 0.0) + dur
        )
        return False


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
class _Hist:
    """Streaming summary of an observed distribution."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def stats(self) -> dict:
        return {
            "count": self.count,
            "max": self.max,
            "mean": self.total / self.count,
            "min": self.min,
            "sum": self.total,
        }


class MetricsRegistry:
    """Counters, gauges, and histograms at two scopes.

    Every update lands in the run-cumulative scope (dumped at run end)
    *and* a per-record scope that :meth:`round_snapshot` drains — the
    deltas stored in ``RoundRecord.extras["metrics"]``.  Snapshots carry
    deterministic quantities only (bytes, event counts, virtual-clock
    staleness), so they are identical across reruns, backends, and
    checkpoint/resume boundaries at record cadence.
    """

    def __init__(self):
        self.counters: dict[str, int | float] = {}
        self.gauges: dict[str, float] = {}
        #: host-measurement gauges (e.g. ``peak_rss_mb``) that are *not*
        #: deterministic: rendered in :meth:`totals` / ``metrics.json``
        #: only, never in :meth:`round_snapshot` — record extras must
        #: stay bit-for-bit reproducible (same rule as phase wall-clocks)
        self.volatile: dict[str, float] = {}
        self.hists: dict[str, _Hist] = {}
        self._round_counters: dict[str, int | float] = {}
        self._round_hists: dict[str, _Hist] = {}

    def count(self, name: str, n: int | float = 1) -> None:
        n = int(n)
        self.counters[name] = self.counters.get(name, 0) + n
        self._round_counters[name] = self._round_counters.get(name, 0) + n

    def observe(self, name: str, value: float) -> None:
        value = float(value)
        for scope in (self.hists, self._round_hists):
            hist = scope.get(name)
            if hist is None:
                hist = scope[name] = _Hist()
            hist.observe(value)

    def gauge(self, name: str, value: float, volatile: bool = False) -> None:
        if volatile:
            self.volatile[name] = float(value)
        else:
            self.gauges[name] = float(value)

    @staticmethod
    def _render(counters: dict, gauges: dict, hists: dict) -> dict:
        return {
            "counters": {k: counters[k] for k in sorted(counters)},
            "gauges": {k: gauges[k] for k in sorted(gauges)},
            "histograms": {k: hists[k].stats() for k in sorted(hists)},
        }

    def round_snapshot(self) -> dict:
        """Per-record deltas since the last snapshot (drains the scope)."""
        snap = self._render(self._round_counters, self.gauges, self._round_hists)
        self._round_counters = {}
        self._round_hists = {}
        return snap

    def totals(self) -> dict:
        """Run-cumulative view (the ``metrics.json`` body) — includes the
        volatile host gauges the per-record snapshots exclude."""
        return self._render(
            self.counters, {**self.gauges, **self.volatile}, self.hists
        )

    def to_csv(self) -> str:
        """Flat ``kind,name,stat,value`` table of the cumulative totals."""
        lines = ["kind,name,stat,value"]
        for name in sorted(self.counters):
            lines.append(f"counter,{name},total,{self.counters[name]}")
        gauges = {**self.gauges, **self.volatile}
        for name in sorted(gauges):
            lines.append(f"gauge,{name},last,{gauges[name]}")
        for name in sorted(self.hists):
            for stat, value in self.hists[name].stats().items():
                lines.append(f"histogram,{name},{stat},{value}")
        return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# the telemetry objects
# ----------------------------------------------------------------------
@register("telemetry", "off")
class NullTelemetry:
    """Disabled telemetry — every method is a no-op (the default).

    The engine holds the shared :data:`NULL_TELEMETRY` instance from
    construction, so every instrumentation site can call through
    unconditionally; the per-call cost is one no-op method dispatch
    (measured by ``bench_telemetry.py`` against a <2% budget).
    """

    name = "off"
    enabled = False
    #: empty event stream (so ``replay_history(algo.telemetry.events)``
    #: is type-safe, if pointless, on a disabled run)
    events: tuple = ()

    def begin_run(self, algo, resumed_from: int | None = None) -> None:
        pass

    def finish(self, algo=None) -> None:
        pass

    def span(self, name: str, cat: str = "", **attrs) -> _NullSpan:
        return _NULL_SPAN

    def vspan(self, name: str, t0: float, t1: float, **attrs) -> None:
        pass

    def emit(self, type_: str, **fields) -> None:
        pass

    def count(self, name: str, n: int | float = 1) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def gauge(self, name: str, value: float, volatile: bool = False) -> None:
        pass

    def metrics_snapshot(self) -> dict:
        return {}

    def record(self, rec: RoundRecord) -> None:
        pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NullTelemetry()"


#: the shared disabled instance the engine defaults to
NULL_TELEMETRY = NullTelemetry()


@register("telemetry", "on", options=[
    opt("tele_dir", str, None,
        optional=True, inline=False,
        env="REPRO_TELEMETRY_DIR", cli="telemetry-dir", only_for=("on",),
        help="run directory receiving the full telemetry trio — "
             "events.jsonl, metrics.json, trace.json (inspect with "
             "`python -m repro.experiments trace <dir>`)"),
    opt("tele_trace_out", str, None,
        optional=True, inline=False,
        env="REPRO_TELEMETRY_TRACE_OUT", cli="trace-out", only_for=("on",),
        help="Chrome-trace-event JSON path (open in chrome://tracing or "
             "https://ui.perfetto.dev)"),
    opt("tele_metrics_out", str, None,
        optional=True, inline=False,
        env="REPRO_TELEMETRY_METRICS_OUT", cli="metrics-out", only_for=("on",),
        help="metrics dump path: cumulative counters/gauges/histograms + "
             "per-phase seconds (.json, or .csv for a flat table)"),
    opt("tele_events_out", str, None,
        optional=True, inline=False,
        env="REPRO_TELEMETRY_EVENTS_OUT", cli="events-out", only_for=("on",),
        help="append-only JSONL event-log path; `replay_history` rebuilds "
             "the full History from this file alone"),
    opt("tele_progress", int, 0,
        low=0, alias="progress",
        env="REPRO_TELEMETRY_PROGRESS", cli="progress", only_for=("on",),
        help="log a live progress line every N recorded rounds (0: off)"),
])
class Telemetry:
    """Enabled telemetry: span tracer + metrics registry + event log.

    One instance observes one run (built by ``FederatedAlgorithm.run``
    via :func:`make_telemetry`).  All output paths are optional — with
    none configured the run is observable in memory (``.spans``,
    ``.events``, ``.metrics``) and nothing touches disk.
    """

    name = "on"
    enabled = True

    def __init__(self, options: dict):
        #: the resolved ``tele_*`` knobs (:func:`make_telemetry`)
        self.options = options
        self.progress = int(options["tele_progress"])
        #: optional per-record callback (the live front-end hook):
        #: called as ``on_record(record)`` after every committed record
        self.on_record: Callable[[RoundRecord], None] | None = None
        self.spans: list[dict] = []
        self.vspans: list[dict] = []
        self.events: list[dict] = []
        self.metrics = MetricsRegistry()
        #: cumulative wall seconds per span name (kept out of the
        #: per-record snapshots: wall clocks are not reproducible)
        self.phase_seconds: dict[str, float] = {}
        #: telemetry API calls made, for the disabled-overhead estimate
        #: (each would have been a no-op dispatch with telemetry off)
        self.ops = 0
        self._seq = 0
        self._records = 0
        self._origin = time.perf_counter()
        self._sink: IO[str] | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _path(self, option: str, default_name: str) -> Path | None:
        """The path ``option`` names, else ``default_name`` in ``tele_dir``."""
        explicit, out_dir = self.options[option], self.options["tele_dir"]
        if explicit:
            return Path(explicit)
        if out_dir:
            return Path(out_dir) / default_name
        return None

    def begin_run(self, algo, resumed_from: int | None = None) -> None:
        """Open the event sink and stamp the run header event."""
        self._origin = time.perf_counter()
        path = self._path("tele_events_out", "events.jsonl")
        if path is not None:
            path.parent.mkdir(parents=True, exist_ok=True)
            # line-buffered so a crashed run leaves a usable partial log
            self._sink = open(path, "w", buffering=1)
        fields: dict[str, Any] = {
            "algorithm": str(algo.history.algorithm),
            "dataset": str(algo.history.dataset),
            "num_clients": int(algo.fed.num_clients),
            "seed": int(algo.seed),
        }
        if resumed_from is not None:
            fields["resumed_from"] = int(resumed_from)
        self.emit("run_start", **fields)

    def finish(self, algo=None) -> None:
        """Seal the event log and write the configured trace/metrics files."""
        self.emit("run_end", records=int(self._records))
        if self._sink is not None:
            self._sink.close()
            self._sink = None
        trace_path = self._path("tele_trace_out", "trace.json")
        if trace_path is not None:
            trace_path.parent.mkdir(parents=True, exist_ok=True)
            trace_path.write_text(
                json.dumps(self.chrome_trace(), default=_json_default) + "\n"
            )
        metrics_path = self._path("tele_metrics_out", "metrics.json")
        if metrics_path is not None:
            metrics_path.parent.mkdir(parents=True, exist_ok=True)
            if metrics_path.suffix == ".csv":
                metrics_path.write_text(self.metrics.to_csv())
            else:
                metrics_path.write_text(
                    json.dumps(
                        self.metrics_dump(), indent=2, sort_keys=True,
                        default=_json_default,
                    ) + "\n"
                )

    # ------------------------------------------------------------------
    # instrumentation API (what the engine calls)
    # ------------------------------------------------------------------
    def span(self, name: str, cat: str = "", **attrs) -> _Span:
        """A wall-clock span context manager around one engine phase."""
        self.ops += 1
        return _Span(self, name, cat, attrs)

    def vspan(self, name: str, t0: float, t1: float, **attrs) -> None:
        """One virtual-clock interval (e.g. a simulated client trip)."""
        self.ops += 1
        self.vspans.append(
            {"name": name, "t0": float(t0), "t1": float(t1), "args": attrs}
        )

    def emit(self, type_: str, **fields) -> None:
        """Append one typed event to the log (and the JSONL sink)."""
        self.ops += 1
        event = {"type": type_, "seq": self._seq, **fields}
        self._seq += 1
        self.events.append(event)
        if self._sink is not None:
            self._sink.write(json.dumps(event, default=_json_default) + "\n")

    def count(self, name: str, n: int | float = 1) -> None:
        self.ops += 1
        self.metrics.count(name, n)

    def observe(self, name: str, value: float) -> None:
        self.ops += 1
        self.metrics.observe(name, value)

    def gauge(self, name: str, value: float, volatile: bool = False) -> None:
        self.ops += 1
        self.metrics.gauge(name, value, volatile=volatile)

    def metrics_snapshot(self) -> dict:
        """Per-record metric deltas (drains the record scope)."""
        return self.metrics.round_snapshot()

    def record(self, rec: RoundRecord) -> None:
        """One committed :class:`RoundRecord`: emit its event + progress."""
        self._records += 1
        rss = _peak_rss_mb()
        if rss is not None:
            # volatile: lands in metrics.json totals only, never in the
            # per-record snapshots (host measurements are unreproducible)
            self.gauge("peak_rss_mb", rss, volatile=True)
        fields: dict[str, Any] = {k: getattr(rec, k) for k in RECORD_SCALARS}
        metrics = rec.extras.get("metrics")
        if metrics is not None:
            fields["metrics"] = metrics
        self.emit("record", **fields)
        if self.progress and self._records % self.progress == 0:
            logger.info(
                "round %d: accuracy=%.4f loss=%.4f comm=%.3fMb sim=%.1fs",
                rec.round, rec.accuracy, rec.train_loss,
                rec.cumulative_mb, rec.sim_seconds,
            )
        if self.on_record is not None:
            self.on_record(rec)

    # ------------------------------------------------------------------
    # exporters
    # ------------------------------------------------------------------
    def chrome_trace(self) -> dict:
        """Chrome-trace-event JSON (``chrome://tracing`` / Perfetto).

        Wall-clock spans render under process 1, virtual-clock spans
        under process 2 with one thread lane per client — the two clocks
        share the microsecond axis but are independent timelines.
        """
        trace: list[dict] = [
            {"ph": "M", "pid": 1, "tid": 0, "name": "process_name",
             "args": {"name": "wall clock (engine phases)"}},
            {"ph": "M", "pid": 2, "tid": 0, "name": "process_name",
             "args": {"name": "virtual clock (simulated trips)"}},
        ]
        for s in self.spans:
            trace.append({
                "name": s["name"], "cat": s["cat"] or "span", "ph": "X",
                "ts": s["t0"] * 1e6, "dur": s["dur"] * 1e6,
                "pid": 1, "tid": 1, "args": s["args"],
            })
        for s in self.vspans:
            trace.append({
                "name": s["name"], "cat": "virtual", "ph": "X",
                "ts": s["t0"] * 1e6, "dur": (s["t1"] - s["t0"]) * 1e6,
                "pid": 2, "tid": int(s["args"].get("client", 0)),
                "args": s["args"],
            })
        return {"traceEvents": trace, "displayTimeUnit": "ms"}

    def metrics_dump(self) -> dict:
        """The ``metrics.json`` body: totals + wall-clock phase breakdown."""
        return {
            "totals": self.metrics.totals(),
            "phase_seconds": {
                k: self.phase_seconds[k] for k in sorted(self.phase_seconds)
            },
            "spans": len(self.spans),
            "vspans": len(self.vspans),
            "events": len(self.events),
            "records": self._records,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Telemetry(events={len(self.events)}, spans={len(self.spans)}, "
            f"records={self._records})"
        )


def make_telemetry(config=None, telemetry: str | None = None):
    """Build the run's telemetry from the config / ``REPRO_TELEMETRY_*``.

    Mirrors every other family factory: ``telemetry`` may be an explicit
    spec (``"on"``, ``"on:progress=1"``) overriding the config field;
    ``"auto"`` (the ``FLConfig`` default) resolves from the
    ``REPRO_TELEMETRY`` environment variable, falling back to ``off``.
    Disabled runs share the :data:`NULL_TELEMETRY` singleton.
    """
    r = resolve("telemetry", spec=telemetry, config=config)
    if r.name == "off":
        return NULL_TELEMETRY
    return Telemetry(r.options)


# ----------------------------------------------------------------------
# replay
# ----------------------------------------------------------------------
def load_events(path: str | Path) -> list[dict]:
    """Parse a JSONL event log written by :class:`Telemetry`."""
    out: list[dict] = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                out.append(json.loads(line))
    return out


def replay_history(events: list[dict]) -> History:
    """Reconstruct a :class:`~repro.fl.history.History` from events alone.

    The fact events (:data:`~repro.fl.history.FACT_TYPES`: ``unavailable``/
    ``deadline_drop``/``cancel``/``arrival``/``population``) collect
    between ``record`` events exactly as the scheduler's open span does,
    across every round or buffered flush of a span when ``eval_every >
    1``, and each ``record`` event folds them through the live record's
    own :func:`~repro.fl.history.record_extras`, beside its scalars and
    metrics snapshot.  The result equals the live history bit-for-bit
    (``history.as_dict()`` equality, wall-clock ``seconds`` included,
    since those are replayed from the log rather than re-measured),
    whether the events come from ``Telemetry.events`` directly or from a
    JSONL file via :func:`load_events`.

    Only applies to unbroken runs: a resumed run's event log starts at
    the resume point (its ``run_start`` carries ``resumed_from``), so it
    replays the post-resume tail only.
    """
    hist = History()
    facts: list[tuple[str, dict]] = []
    for event in events:
        kind = event.get("type")
        if kind == "run_start":
            hist.algorithm = event.get("algorithm", "")
            hist.dataset = event.get("dataset", "")
        elif kind == "setup":
            hist.setup_seconds = float(event.get("seconds", 0.0))
        elif kind in FACT_TYPES:
            fields = {k: v for k, v in event.items() if k not in ("type", "seq")}
            facts.append((kind, fields))
        elif kind == "record":
            extras = record_extras(facts)
            if "metrics" in event:
                extras["metrics"] = event["metrics"]
            scalars = {k: event[k] for k in RECORD_SCALARS}
            hist.append(RoundRecord(**scalars, extras=extras))
            facts = []
    return hist
