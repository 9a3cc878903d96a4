#!/usr/bin/env python3
"""Repository benchmark: whole federation cells, end to end and per layer.

Usage, from the root of a repository checkout::

    python3 perfbench/run.py --workload fedclust-lenet --seed 0 --seconds 30 --trace 0

One invocation measures one workload (``workloads.WORKLOADS``) in its own
fresh process, in a closed loop: one untimed warm-up cell, then cells one
after another for ``--seconds``.  The cells cycle through the federations
``workloads.cell_seeds(--seed)`` generates, each at least once.  A
host-speed probe (``hostspeed.py``) is timed before, during and after
every cell, and each cell's times are read at the probe's reference
speed.  With ``--trace 0`` it reports the end-to-end metrics with tracing
off: times as medians over the cells, ``final_acc`` as the mean over the
federations.  With ``--trace 1`` it
alternates untraced and traced cells, reports the per-layer metrics
(medians over the traced cells) and ``trace.overhead``, and writes a
Chrome trace of the last traced cell plus a per-layer table to
``perfbench/out/<workload>/``.  Every cell's outputs are checked; a cell
that raises or fails a check counts as failed.  The last line of standard
output is the JSON result.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

OUT_DIR = Path(__file__).resolve().parent / "out"

#: run length declared in BENCHMARK.json, the default for ``--seconds``
DECLARED_SECONDS = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)["run_seconds"]

#: end-to-end metric -> unit
E2E_METRICS = {
    "run_s": "s",
    "setup_s": "s",
    "updates_per_s": "1/s",
    "peak_rss_mb": "MB",
    "comm_mb": "MB",
    "final_acc": "fraction",
}


def _blas_info() -> dict:
    """The numpy build's BLAS and the thread count it runs with."""
    import numpy as np

    info: dict = {"numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        info["blas"] = "unknown"
    info["blas_threads"] = None
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line}
        for lib in sorted(libs):
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(ctypes.CDLL(lib), symbol, None)
                if fn is not None:
                    fn.argtypes, fn.restype = [], ctypes.c_int
                    info["blas_threads"] = fn()
                    return info
    except OSError:  # no /proc, or a library that will not load: leave it unknown
        pass
    return info


def environment(seed: int) -> dict:
    """What a result was measured on, recorded with every result."""
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        **_blas_info(),
        "thread_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "seed": seed,
    }


def peak_rss_mb() -> float:
    """This process's peak resident set size in MB (2**20 bytes)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 2**20 if sys.platform == "darwin" else peak / 1024


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Measure ``workload`` for about ``seconds``; returns the result
    (the JSON object printed as the last line) plus the per-cell samples."""
    from hostspeed import HostMeter
    from layertrace import LAYER_METRICS, Tracer
    from workloads import cell_seeds, check_cell, run_cell

    attempted = failed = 0
    problems: list[str] = []
    seeds = cell_seeds(seed)
    #: cell seed -> its first correct cell, which later cells must reproduce
    references: dict = {}
    meter = HostMeter()

    def attempt(traced: bool, cell_seed: int):
        """One checked cell between probe readings:
        ``(cell, tracer, host_scale)``, or None when it failed."""
        nonlocal attempted, failed
        attempted += 1
        tracer = Tracer() if traced else None
        gc.collect()
        meter.start_cell()
        try:
            if tracer is None:
                cell = run_cell(workload, cell_seed, meter.between_rounds)
            else:
                with tracer.installed(workload.method):
                    cell = run_cell(workload, cell_seed, meter.between_rounds)
            bad = check_cell(workload, cell_seed, cell, references.get(cell_seed))
        except Exception as exc:  # a failed cell is counted and reported
            bad = [f"{type(exc).__name__}: {exc}"]
        host_scale = meter.end_cell()
        if bad:
            failed += 1
            problems.extend(f"cell seed {cell_seed}: {p}" for p in bad)
            return None
        references.setdefault(cell_seed, cell)
        return cell, tracer, host_scale

    attempt(False, seeds[0])  # warm-up: im2col workspaces, cohort-model caches
    plain, traced = [], []
    start = time.perf_counter()
    rounds = 0
    while True:
        cell_seed = seeds[rounds % len(seeds)]
        # alternate which side of a traced/untraced pair runs first
        order = ((False, True) if rounds % 2 == 0 else (True, False)) if trace else (False,)
        for is_traced in order:
            done = attempt(is_traced, cell_seed)
            if done is None:
                continue
            if is_traced and traced:
                traced[-1][1].events.clear()  # only the last cell's spans are written
            (traced if is_traced else plain).append(done)
        rounds += 1
        elapsed = time.perf_counter() - start
        # every cell seed runs at least once, so final_acc covers all of them
        if rounds >= len(seeds) and elapsed * (rounds + 1) / rounds > seconds:
            break

    # Times are read at the probe's reference host speed (hostspeed.py),
    # which takes out most of the slowdown other tenants of a shared host
    # cause; WORKLOADS.md records how much.  Each is the median over the
    # run's cells.
    at_ref = workload.at_reference_speed
    metrics: dict[str, float] = {}
    cells = [c for c, _, _ in plain]
    if cells and not trace:
        metrics = {
            "run_s": statistics.median(at_ref(c.run_s, k) for c, _, k in plain),
            "setup_s": statistics.median(at_ref(c.setup_s, k) for c, _, k in plain),
            "updates_per_s": statistics.median(
                c.updates / at_ref(c.run_s - c.setup_s, k) for c, _, k in plain
            ),
            "peak_rss_mb": peak_rss_mb(),
            "comm_mb": cells[0].comm_mb,
            "final_acc": statistics.fmean(c.final_acc for c in references.values()),
        }
        units = E2E_METRICS
    elif cells and traced:
        samples = [tr.values(c.up_bytes, c.down_bytes) for c, tr, _ in traced]
        metrics = {
            name: statistics.median(s[name] for s in samples) for name in samples[0]
        }
        metrics["trace.overhead"] = (
            statistics.median(at_ref(c.run_s, k) for c, _, k in traced)
            / statistics.median(at_ref(c.run_s, k) for c, _, k in plain)
        )
        units = LAYER_METRICS
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    return {
        "result": result, "problems": problems, "plain": plain, "traced": traced,
        "references": references,
    }


def layer_table(workload: str, metrics: dict, traced: list) -> str:
    """Self time, share of the traced cell and calls per layer metric."""
    run_s = statistics.median(c.run_s for c, _, _ in traced)
    calls = traced[-1][1].calls
    lines = [
        f"{workload}: per-layer self time, median over {len(traced)} traced "
        f"cells (traced run_s {run_s:.4f} s)",
        f"{'metric':<28} {'self_s':>10} {'share':>7} {'calls':>8}",
    ]
    timed = 0.0
    for name, entry in metrics.items():
        if entry["unit"] != "s":
            continue
        value = entry["value"]
        if name != "core.round0_s":  # total time, covers other rows
            timed += value
        lines.append(
            f"{name:<28} {value:>10.4f} {value / run_s:>7.1%} {calls[name]:>8}"
        )
    lines.append(
        f"{'(outside every span)':<28} {run_s - timed:>10.4f} "
        f"{(run_s - timed) / run_s:>7.1%}"
    )
    lines.append("")
    lines += [
        f"{name:<28} {entry['value']:.6g} {entry['unit']}"
        for name, entry in metrics.items()
        if entry["unit"] != "s"
    ]
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DECLARED_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # One BLAS thread, fixed before numpy loads; and no REPRO_* override may
    # reshape a workload (the engine's telemetry stays off).
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    for var in [v for v in os.environ if v.startswith("REPRO_")]:
        del os.environ[var]
    try:
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"perfbench: cannot import the program under test ({exc}); "
              "run from the root of a repository checkout", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    env = environment(args.seed)
    run = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    result = run["result"]

    out = OUT_DIR / args.workload
    out.mkdir(parents=True, exist_ok=True)
    tag = f"seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "env": env, **result,
        "problems": run["problems"],
        "final_acc_by_cell_seed": {s: c.final_acc for s, c in run["references"].items()},
        "wall_run_s_samples": [c.run_s for c, _, _ in run["plain"]],
        "wall_setup_s_samples": [c.setup_s for c, _, _ in run["plain"]],
        "host_scale_samples": [k for _, _, k in run["plain"]],
    }
    if args.trace and run["traced"]:
        tracer = run["traced"][-1][1]
        (out / f"trace-{tag}.json").write_text(
            json.dumps(tracer.chrome_trace(), separators=(",", ":"))
        )
        (out / f"layers-{tag}.txt").write_text(
            layer_table(args.workload, result["metrics"], run["traced"])
        )
        record["traced_wall_run_s_samples"] = [c.run_s for c, _, _ in run["traced"]]
    (out / f"result-{tag}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"workload {args.workload}: {len(run['plain'])} untraced + "
          f"{len(run['traced'])} traced cells after 1 warm-up; "
          f"{result['failed']} of {result['attempted']} failed")
    for problem in run["problems"]:
        print(f"  FAILED: {problem}")
    for name, entry in result["metrics"].items():
        print(f"  {name:<28} {entry['value']:<14.6g} {entry['unit']}")
    print("env " + json.dumps(env))
    print(json.dumps(result))
    return 0 if result["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
