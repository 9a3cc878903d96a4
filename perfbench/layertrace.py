"""Out-of-program span tracer for the benchmark's traced runs.

A traced cell wraps each layer's public functions from here, so the
program carries no benchmark tracing of its own (the engine's telemetry
stays off).  Every wrapped call opens a span on a stack.  A span's *self
time* is its duration minus the time its child spans cover, so the self
times of all layers add up to the traced part of a cell with nothing
counted twice.  ``core.round0_s`` is the one metric reported as total
time (FedClust's whole round 0, children included).

Names are patched where they are looked up: functions that a module
imports directly are replaced in that module's namespace, methods on the
class that defines or inherits them (each algorithm's ``aggregate``
override included).  A call nested directly inside a span of the same
metric, or inside the cohort span of the same kernel (the parameter-free
layers' cohort path folds into their serial ``forward``), is attributed
to the enclosing span.

Spans are kept in memory and written once, as Chrome trace-event JSON in
the layout of the engine's telemetry ``trace.json`` (opens in Perfetto).
"""

from __future__ import annotations

import functools
import resource
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from repro.algorithms import ifca
from repro.clustering.hierarchical import Dendrogram
from repro.core import fedclust
from repro.experiments import runner
from repro.fl import execution, registry, server
from repro.fl.codecs import Codec
from repro.fl.comm import MB
from repro.fl.scheduler import Scheduler
from repro.nn import layers
from repro.nn.model import CohortModel, Sequential
from repro.nn.optim import SGD, CohortSGD

__all__ = ["KERNELS", "LAYER_METRICS", "Tracer", "current_rss_mb"]

#: layer classes whose four kernels are timed separately
KERNELS = ("Conv2d", "Dense", "BatchNorm", "MaxPool2d", "ReLU")

#: per-layer metric -> unit, in report order
LAYER_METRICS: dict[str, str] = {
    "data.build_s": "s",
    "core.round0_s": "s",
    "clustering.proximity_s": "s",
    "clustering.linkage_s": "s",
    "clustering.clusters": "count",
    "execution.map_s": "s",
    "execution.tasks": "count",
    "execution.batched_share": "fraction",
    "execution.cohort_mean": "count",
    "training.local_sgd_s": "s",
    "training.local_sgd_many_s": "s",
    "training.steps": "count",
    "nn.serial.fwd_s": "s",
    "nn.serial.bwd_s": "s",
    "nn.serial.step_s": "s",
    "nn.cohort.fwd_s": "s",
    "nn.cohort.bwd_s": "s",
    "nn.cohort.step_s": "s",
    "nn.predict_s": "s",
    **{
        f"nn.{kernel}.{part}_s": "s"
        for kernel in KERNELS
        for part in ("fwd", "bwd", "fwd_many", "bwd_many")
    },
    "codecs.encode_s": "s",
    "codecs.decode_s": "s",
    "codecs.encodes": "count",
    "scheduler.wire_down_s": "s",
    "scheduler.encode_upload_s": "s",
    "scheduler.deliver_s": "s",
    "scheduler.delivered_share": "fraction",
    "fl.aggregate_s": "s",
    "ifca.assign_s": "s",
    "fl.evaluate_s": "s",
    "comm.up_mb": "MB",
    "comm.down_mb": "MB",
    "mem.setup_rss_mb": "MB",
    "trace.overhead": "ratio",
}


def current_rss_mb() -> float:
    """Resident set size of this process now, in MB (2**20 bytes)."""
    with open("/proc/self/statm") as f:
        pages = int(f.read().split()[1])
    return pages * resource.getpagesize() / 2**20


# -- count hooks: (tracer, call args, result) --------------------------------
def _note_clusters(tr, args, result):
    tr.counts["clustering.clusters"] = args[0].num_clusters


def _note_tasks(tr, args, result):
    tr.counts["execution.tasks"] += len(args[3])


def _note_cohort(tr, args, result):
    tr.counts["execution.batched"] += args[0].cohort
    tr.counts["execution.cohort_calls"] += 1


def _note_cohort_steps(tr, args, result):
    _note_cohort(tr, args, result)
    tr.counts["training.steps"] += result[1] * args[0].cohort


def _note_steps(tr, args, result):
    tr.counts["training.steps"] += result[1]


def _note_round1_rss(tr, args):
    if tr.setup_rss_mb is None:
        tr.setup_rss_mb = current_rss_mb()


def _patch_points(algorithm_cls: type) -> list[tuple[object, str, str | None, dict]]:
    """``(owner, attribute, metric, wrap options)`` for every wrapped name."""
    points = [
        (runner, "make_federation", "data.build_s", {}),
        (fedclust.FedClust, "setup", "core.round0_s",
         {"inclusive": True, "after": _note_clusters}),
        (fedclust, "proximity_matrix", "clustering.proximity_s", {}),
        (fedclust, "agglomerative", "clustering.linkage_s", {}),
        (fedclust, "largest_gap_threshold", "clustering.linkage_s", {}),
        (Dendrogram, "cut", "clustering.linkage_s", {}),
        (Dendrogram, "cut_k", "clustering.linkage_s", {}),
        (execution.CohortRunner, "map", "execution.map_s",
         {"after": _note_tasks}),
        (execution, "local_sgd_many", "training.local_sgd_many_s",
         {"after": _note_cohort_steps}),
        (execution, "evaluate_accuracy_many", None, {"after": _note_cohort}),
        (server, "local_sgd", "training.local_sgd_s", {"after": _note_steps}),
        (Sequential, "forward", "nn.serial.fwd_s", {}),
        (Sequential, "backward", "nn.serial.bwd_s", {}),
        (SGD, "step", "nn.serial.step_s", {}),
        (CohortModel, "forward", "nn.cohort.fwd_s", {}),
        (CohortModel, "backward", "nn.cohort.bwd_s", {}),
        (CohortSGD, "step", "nn.cohort.step_s", {}),
        (Sequential, "predict", "nn.predict_s", {}),
        (CohortModel, "predict", "nn.predict_s", {}),
        (Codec, "traced_encode", "codecs.encode_s", {}),
        (Codec, "traced_decode", "codecs.decode_s", {}),
        (Scheduler, "wire_down", "scheduler.wire_down_s",
         {"before": _note_round1_rss}),
        (Scheduler, "encode_upload", "scheduler.encode_upload_s", {}),
        (Scheduler, "deliver", "scheduler.deliver_s", {}),
        (ifca, "evaluate_loss", "ifca.assign_s", {}),
        (server.FederatedAlgorithm, "evaluate", "fl.evaluate_s", {}),
    ]
    for kernel in KERNELS:
        cls = getattr(layers, kernel)
        fwd_many, bwd_many = f"nn.{kernel}.fwd_many_s", f"nn.{kernel}.bwd_many_s"
        points += [
            (cls, "forward", f"nn.{kernel}.fwd_s", {"inner_of": fwd_many}),
            (cls, "backward", f"nn.{kernel}.bwd_s", {"inner_of": bwd_many}),
            (cls, "forward_many", fwd_many, {}),
            (cls, "backward_many", bwd_many, {}),
            (cls, "backward_many_params_only", bwd_many, {}),
        ]
    points += [
        (cls, "aggregate", "fl.aggregate_s", {})
        for cls in algorithm_cls.__mro__
        if "aggregate" in vars(cls) and cls is not server.FederatedAlgorithm
    ]
    return points


class Tracer:
    """Spans, self times and counts of one traced cell."""

    def __init__(self):
        self._stack: list[list] = []
        #: metric -> self seconds (total seconds for inclusive metrics)
        self.seconds: dict[str, float] = defaultdict(float)
        #: metric -> completed spans
        self.calls: Counter = Counter()
        #: work counts gathered at the wrapped calls
        self.counts: Counter = Counter()
        #: ``(metric, start, duration)`` of every span, in end order
        self.events: list[tuple[str, float, float]] = []
        self.setup_rss_mb: float | None = None
        self.t0 = 0.0

    def _wrap(self, fn, metric, inclusive=False, inner_of=None, before=None, after=None):
        stack, seconds, calls, events = self._stack, self.seconds, self.calls, self.events
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] in (metric, inner_of):
                return fn(*args, **kwargs)
            if before is not None:
                before(self, args)
            if metric is None:
                result = fn(*args, **kwargs)
            else:
                frame = [metric, clock(), 0.0]
                stack.append(frame)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dur = clock() - frame[1]
                    stack.pop()
                    seconds[metric] += dur if inclusive else dur - frame[2]
                    calls[metric] += 1
                    if stack:
                        stack[-1][2] += dur
                    events.append((metric, frame[1], dur))
            if after is not None:
                after(self, args, result)
            return result

        return traced

    @contextmanager
    def installed(self, method: str):
        """Wrap every patch point for a cell of algorithm ``method``;
        restore the originals on exit."""
        undo = []
        try:
            for owner, attr, metric, opts in _patch_points(
                registry.classes("algorithm")[method]
            ):
                own = attr in vars(owner)
                undo.append((owner, attr, vars(owner).get(attr), own))
                setattr(owner, attr, self._wrap(getattr(owner, attr), metric, **opts))
            self.t0 = time.perf_counter()
            yield self
        finally:
            for owner, attr, original, own in reversed(undo):
                if own:
                    setattr(owner, attr, original)
                else:
                    delattr(owner, attr)

    def values(self, up_bytes: int, down_bytes: int) -> dict[str, float]:
        """This cell's per-layer metrics (all but ``trace.overhead``)."""
        c, calls = self.counts, self.calls
        out = {
            name: self.seconds.get(name, 0.0)
            for name, unit in LAYER_METRICS.items()
            if unit == "s"
        }
        tasks, cohorts = c["execution.tasks"], c["execution.cohort_calls"]
        encoded = calls["scheduler.encode_upload_s"]
        out.update({
            "clustering.clusters": c["clustering.clusters"],
            "execution.tasks": tasks,
            "execution.batched_share": c["execution.batched"] / tasks if tasks else 0.0,
            "execution.cohort_mean": c["execution.batched"] / cohorts if cohorts else 0.0,
            "training.steps": c["training.steps"],
            "codecs.encodes": calls["codecs.encode_s"],
            "scheduler.delivered_share": (
                calls["scheduler.deliver_s"] / encoded if encoded else 0.0
            ),
            "comm.up_mb": up_bytes / MB,
            "comm.down_mb": down_bytes / MB,
            "mem.setup_rss_mb": self.setup_rss_mb or 0.0,
        })
        return out

    def chrome_trace(self) -> dict:
        """Chrome trace-event JSON of this cell's spans."""
        trace = [
            {"ph": "M", "pid": 1, "tid": 0, "name": "process_name",
             "args": {"name": "benchmark cell (wall clock, per-layer spans)"}},
        ]
        for name, start, dur in self.events:
            trace.append({
                "name": name, "cat": name.split(".")[0], "ph": "X",
                "ts": (start - self.t0) * 1e6, "dur": dur * 1e6,
                "pid": 1, "tid": 1, "args": {},
            })
        return {"traceEvents": trace, "displayTimeUnit": "ms"}
