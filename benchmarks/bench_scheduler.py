"""Scheduler benchmark: simulated time-to-accuracy under stragglers.

Unlike the table benches this one measures the *control loop*, not the
paper: it reruns the quickstart configuration (CIFAR-10, label skew 20%)
under the ``stragglers`` network profile for each scheduler
(:mod:`repro.fl.scheduler`) and records, per run, the accuracy curve
against cumulative *simulated* seconds plus the virtual time each
scheduler needed to reach a shared target accuracy
(:meth:`~repro.fl.history.History.sim_seconds_to_target`).

The artifact demonstrates the lever the event-driven schedulers open:
the sync loop is gated by its slowest surviving client every round, so
``semisync`` (over-select, cancel the tail) and ``buffered`` (async
aggregation, flushes never wait for stragglers) reach the sync run's
accuracy level in <= 0.7x its simulated seconds (asserted — i.e. a
>= ~1.4x simulated time-to-accuracy win) while aggregating the same
total client-update budget.

It also counts the client updates each run trains (``Scheduler.execute``)
and delivers (``Scheduler.deliver``).  Arrivals are planned before any
client trains, so ``semisync`` trains only the uploads it keeps: the
bench fails unless it executed exactly the updates it delivered, a gate
that holds on any machine.

Runs standalone too (CI smoke)::

    PYTHONPATH=src python benchmarks/bench_scheduler.py --smoke
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from pathlib import Path

from _bench_util import write_bench_json
from repro.experiments import BENCH_SCALE, SMOKE_SCALE
from repro.experiments.runner import run_cell
from repro.fl.scheduler import Scheduler

METHODS = ["fedclust", "fedavg"]
SCHEDULERS = ["sync", "semisync", "buffered"]
NETWORK = "stragglers"
#: accuracy target = this fraction of the sync run's final accuracy,
#: per method.  FedClust's one-shot clustering warm-starts accuracy near
#: its ceiling (sync's *first* eval already clears 0.85x final, which
#: would make time-to-target degenerate), so its target sits near the
#: ceiling; cold-start methods use a mid-curve target.
TARGET_FRACTIONS = {"fedclust": 0.95}
DEFAULT_TARGET_FRACTION = 0.85
#: async schedulers must reach the target in <= this fraction of sync's
#: simulated seconds (0.7 => a >= ~1.4x time-to-accuracy win)
REQUIRED_TIME_FRACTION = 0.7
#: semisync doubles its candidate pool so the straggler tail is cancellable
OVER_SELECT_FRAC = 1.0


@contextmanager
def counting_updates():
    """Count the client updates ``Scheduler.execute`` trains and
    ``Scheduler.deliver`` delivers while the block runs."""
    counts = {"executed": 0, "delivered": 0}
    execute, deliver = Scheduler.execute, Scheduler.deliver

    def counted_execute(self, algo, idx, survivors):
        updates = execute(self, algo, idx, survivors)
        counts["executed"] += len(updates)
        return updates

    def counted_deliver(self, algo, item, idx):
        counts["delivered"] += 1
        return deliver(self, algo, item, idx)

    Scheduler.execute, Scheduler.deliver = counted_execute, counted_deliver
    try:
        yield counts
    finally:
        Scheduler.execute, Scheduler.deliver = execute, deliver


def run_tradeoff(scale, methods=METHODS, seed: int = 0) -> list[dict]:
    """One row per (method, scheduler): accuracy + sim-seconds curves,
    and the client updates the run trained and delivered."""
    rows = []
    for method in methods:
        sync_row = None
        for sched in SCHEDULERS:
            fl_options = {"network": NETWORK, "scheduler": sched}
            if sched == "semisync":
                fl_options["over_select_frac"] = OVER_SELECT_FRAC
            with counting_updates() as counts:
                res = run_cell(
                    "cifar10", method, "label_skew_20", scale, seed=seed,
                    fl_options=fl_options,
                )
            h = res.history
            row = {
                "method": method,
                "scheduler": sched,
                **counts,
                "accuracy": 100.0 * h.final_accuracy(),
                "best_accuracy": 100.0 * h.best_accuracy(),
                "total_sim_s": h.total_sim_seconds(),
                "curve_sim_s": h.sim_seconds.cumsum().tolist(),
                "curve_acc": (100.0 * h.accuracies).tolist(),
                "history": h,
            }
            if sched == "sync":
                sync_row = row
                frac = TARGET_FRACTIONS.get(method, DEFAULT_TARGET_FRACTION)
                sync_row["target"] = frac * h.final_accuracy()
            row["sim_to_target"] = h.sim_seconds_to_target(sync_row["target"])
            rows.append(row)
    return rows


def _sync_row(rows: list[dict], method: str) -> dict:
    return next(
        r for r in rows if r["method"] == method and r["scheduler"] == "sync"
    )


def time_win(rows: list[dict], method: str, scheduler: str) -> float | None:
    """Sync-over-scheduler ratio of simulated seconds to the shared target."""
    sync = _sync_row(rows, method)
    row = next(
        r for r in rows if r["method"] == method and r["scheduler"] == scheduler
    )
    if row["sim_to_target"] is None or not row["sim_to_target"]:
        return None
    return sync["sim_to_target"] / row["sim_to_target"]


def render(rows: list[dict], scale_name: str) -> str:
    lines = [
        f"Scheduler tradeoff — accuracy vs simulated seconds ({scale_name} "
        f"scale, cifar10 / label_skew_20 / network={NETWORK})",
        "",
        "target: a fraction of the sync run's final accuracy (0.85x, or",
        "0.95x for warm-start fedclust); 'to-target s' is the virtual time",
        "at which each schedule first reaches it.  sync waits for every",
        "straggler each round; semisync cancels the tail; buffered",
        "aggregates asynchronously and never waits.",
        "",
        f"{'method':10s} {'scheduler':9s} {'acc %':>7s} {'best %':>7s} "
        f"{'total sim s':>12s} {'to-target s':>12s} {'x-win':>7s} "
        f"{'trained':>7s} {'delivered':>9s}",
        "-" * 90,
    ]
    for row in rows:
        win = time_win(rows, row["method"], row["scheduler"])
        t = row["sim_to_target"]
        tail = f"{'--':>12s} {'--':>7s}" if t is None else f"{t:>12.3f} {win:>6.2f}x"
        lines.append(
            f"{row['method']:10s} {row['scheduler']:9s} {row['accuracy']:>7.2f} "
            f"{row['best_accuracy']:>7.2f} {row['total_sim_s']:>12.2f} {tail} "
            f"{row['executed']:>7d} {row['delivered']:>9d}"
        )
    lines.append("")
    lines.append("Accuracy-vs-simulated-seconds curves")
    for row in rows:
        pts = "  ".join(
            f"{s:.2f}:{acc:.1f}"
            for s, acc in zip(row["curve_sim_s"], row["curve_acc"])
        )
        lines.append(f"  {row['method']}/{row['scheduler']:9s}  {pts}")
    return "\n".join(lines)


def check_wins(rows: list[dict]) -> None:
    """semisync and buffered must reach the sync run's accuracy level in
    <= REQUIRED_TIME_FRACTION of sync's simulated seconds, per method."""
    for method in {r["method"] for r in rows}:
        sync_t = _sync_row(rows, method)["sim_to_target"]
        assert sync_t is not None and sync_t > 0, (
            f"{method}/sync never reached its own target"
        )
        for sched in ("semisync", "buffered"):
            row = next(
                r for r in rows
                if r["method"] == method and r["scheduler"] == sched
            )
            t = row["sim_to_target"]
            assert t is not None, (
                f"{method}/{sched}: never reached the sync target accuracy"
            )
            assert t <= REQUIRED_TIME_FRACTION * sync_t, (
                f"{method}/{sched}: reached the target in {t:.3f} simulated "
                f"seconds, more than {REQUIRED_TIME_FRACTION}x sync's "
                f"{sync_t:.3f}s (win {sync_t / t:.2f}x < "
                f"{1 / REQUIRED_TIME_FRACTION:.2f}x)"
            )


def check_trained_budget(rows: list[dict]) -> None:
    """semisync must train exactly the updates it delivers: its
    cancellations are planned before any client trains."""
    for row in rows:
        if row["scheduler"] == "semisync":
            assert row["executed"] == row["delivered"] > 0, (
                f"{row['method']}/semisync trained {row['executed']} client "
                f"updates but delivered {row['delivered']}"
            )


def test_scheduler_tradeoff(benchmark, save_artifact):
    from conftest import run_once

    rows = run_once(benchmark, lambda: run_tradeoff(BENCH_SCALE))
    save_artifact("scheduler_tradeoff", render(rows, BENCH_SCALE.name))
    check_wins(rows)
    check_trained_budget(rows)
    # the async schedules must not collapse training: final accuracy stays
    # within reach of the sync run's
    for method in METHODS:
        sync_acc = _sync_row(rows, method)["accuracy"]
        for sched in ("semisync", "buffered"):
            row = next(
                r for r in rows
                if r["method"] == method and r["scheduler"] == sched
            )
            assert row["best_accuracy"] >= 0.85 * sync_acc, (method, sched)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny configuration for CI (seconds instead of minutes)",
    )
    args = parser.parse_args(argv)
    scale = SMOKE_SCALE if args.smoke else BENCH_SCALE
    methods = ["fedavg"] if args.smoke else METHODS
    rows = run_tradeoff(scale, methods=methods)
    text = render(rows, scale.name)
    out_dir = Path(__file__).parent / "out"
    out_dir.mkdir(exist_ok=True)
    name = "scheduler_smoke" if args.smoke else "scheduler_tradeoff"
    path = out_dir / f"{name}.txt"
    path.write_text(text + "\n")
    json_rows = [{k: v for k, v in r.items() if k != "history"} for r in rows]
    json_path = write_bench_json({"bench": "scheduler", "rows": json_rows}, name)
    print(text)
    print(f"[saved to {path} and {json_path}]")
    check_wins(rows)
    check_trained_budget(rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
