"""Execution-backend benchmark: the vector backend against the serial loop.

Unlike the table/figure benches this one measures the *simulator*, not the
paper.  The ``vector`` backend stacks same-shape client models and
replaces the per-client Python loop with cohort-batched GEMM kernels, so
its speedup over ``serial`` needs no extra cores.
``test_vector_backend_speedup`` records it (with the documented-tolerance
equivalence check) as ``BENCH_10.json``, which the CI perf gate
(``_bench_util.py --gate 10``) compares against the committed baseline:

    PYTHONPATH=src python -m pytest benchmarks/bench_execution.py -q
    PYTHONPATH=src python benchmarks/bench_execution.py --smoke

The row also gates four cohort forward kernels, each timed against a
same-size copy on the same runner (best of 5), under its ``kernels`` key
(outside ``rows``, so the ``--gate 10`` comparison does not see it): the
conv patch gather on ResNet-9's ``(10, 10, 32, 2, 2)`` input at k=3,
pad 1 and on LeNet-5 conv1's ``(10, 10, 3, 8, 8)`` input at k=5, pad 2,
each against ``np.copyto`` of its columns, and ``ReLU.forward_many`` and
MaxPool's training ``forward_many`` on a ``(10, 10, 16, 8, 8)`` float32
input against ``x.copy()``.  Both sides scale with the host, so the
ratios do not; a kernel that costs more copies than
:data:`MAX_KERNEL_COPY_RATIOS` allows fails the run.
"""

from __future__ import annotations

import argparse
import os
import time

import numpy as np

from _bench_util import write_bench_json
from conftest import run_once
from repro.experiments import BENCH_SCALE
from repro.experiments.runner import run_cell
from repro.nn.conv_utils import CohortConvWorkspace
from repro.nn.layers import MaxPool2d, ReLU

#: cells for the vector-backend speedup row.  IFCA batches too but is not
#: a gated cell: its cluster scoring is one shared-input k-member cohort
#: forward on either backend, so its speedup over serial straddles the
#: target below (2.4-3.1x at BENCH_SCALE, best of 3, six repeats on a
#: 2-core Xeon host)
VECTOR_CELLS = [("cifar10", "fedclust"), ("cifar10", "fedavg")]
#: the PR's target: cohort batching must be at least this much faster
#: than the serial per-client loop on every measured cell
VECTOR_TARGET_SPEEDUP = 3.0
#: most each cohort forward kernel may cost, in same-size copies.  On a
#: 2-core Xeon (numpy 2.4, three runs) the window-copy gather read
#: 5.1-5.5 on ResNet-9's input and 1.14-1.21 on LeNet-5 conv1's, the
#: branch-free ReLU 4.0-4.7 and the running-compare MaxPool argmax
#: 43-48.  The take-indexed gather it replaced read 12-15 and 4.1-4.7,
#: and fails the LeNet gate; the slice-copy gather, ``np.where`` ReLU
#: and ``argmax(axis=0)`` MaxPool before it read 33-48, 47-58 and 71-91
MAX_KERNEL_COPY_RATIOS = {
    "gather": 25.0, "gather_lenet": 2.0, "relu": 15.0, "maxpool": 55.0,
}


def _best_of(dataset: str, method: str, backend: str, reps: int = 3):
    """Best-of-``reps`` wall clock for one cell (serial timings on this
    container fluctuate ~2x between runs; the minimum is the stable
    statistic)."""
    best, result = float("inf"), None
    for rep in range(reps + 1):
        t0 = time.perf_counter()
        result = run_cell(
            dataset, method, "label_skew_20", BENCH_SCALE, seed=0,
            fl_options={"backend": backend},
        )
        if rep > 0:  # rep 0 is an untimed warm-up (first-call allocation)
            best = min(best, time.perf_counter() - t0)
    return best, result


def time_forward_kernels(repeats: int = 5, number: int = 20) -> dict:
    """Seconds per call of each gated forward kernel and of its same-size
    copy (the best of ``repeats`` loops of ``number`` calls), and their
    ratio, keyed like :data:`MAX_KERNEL_COPY_RATIOS`."""
    rng = np.random.default_rng(0)

    def gather_pair(shape, k, pad):
        x_conv = rng.standard_normal(shape).astype(np.float32)
        ws = CohortConvWorkspace(shape, x_conv.dtype, k, k, 1, pad)
        cols = ws.gather(x_conv)
        cols_dst = np.empty_like(cols)
        return lambda: ws.gather(x_conv), lambda: np.copyto(cols_dst, cols)

    x = rng.standard_normal((10, 10, 16, 8, 8)).astype(np.float32)
    relu, pool = ReLU(), MaxPool2d(2)

    def best(fn) -> float:
        fn()  # untimed: first-call allocation
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(number):
                fn()
            times.append((time.perf_counter() - t0) / number)
        return min(times)

    pairs = {
        "gather": gather_pair((10, 10, 32, 2, 2), 3, 1),
        "gather_lenet": gather_pair((10, 10, 3, 8, 8), 5, 2),
        "relu": (lambda: relu.forward_many(x), x.copy),
        "maxpool": (lambda: pool.forward_many(x), x.copy),
    }
    out = {}
    for name, (kernel, copy) in pairs.items():
        kernel_s, copy_s = best(kernel), best(copy)
        out[name] = {
            "kernel_s": kernel_s, "copy_s": copy_s, "ratio": kernel_s / copy_s,
        }
    return out


def run_vector_study() -> dict:
    """Measure every :data:`VECTOR_CELLS` cell under serial and vector,
    check accuracy within ``VECTOR_ACC_ATOL`` and byte metering exactly,
    and time the gated forward kernels.  Returns the BENCH_10 row; its
    ``acc_maxdiff_vs_serial`` is the largest accuracy gap measured over
    these cells (0.0 in the committed row).  The check is the
    ``VECTOR_ACC_ATOL`` contract, not bitwise agreement, though the conv
    goldens (``tests/data/golden_conv.json``) find the benchmark's three
    recipes bitwise across backends."""
    from repro.fl.execution import VECTOR_ACC_ATOL

    rows, acc_maxdiff = {}, 0.0
    for dataset, method in VECTOR_CELLS:
        t_serial, res_serial = _best_of(dataset, method, "serial")
        t_vector, res_vector = _best_of(dataset, method, "vector")
        hs, hv = res_serial.history, res_vector.history
        diff = float(np.abs(hs.accuracies - hv.accuracies).max())
        np.testing.assert_allclose(
            hv.accuracies, hs.accuracies, atol=VECTOR_ACC_ATOL
        )
        np.testing.assert_array_equal(hs.cumulative_mb, hv.cumulative_mb)
        acc_maxdiff = max(acc_maxdiff, diff)
        rows[f"{dataset}/{method}"] = {
            "serial_s": round(t_serial, 4),
            "vector_s": round(t_vector, 4),
            "speedup": round(t_serial / t_vector, 2),
        }
    return {
        "bench": "vector_execution",
        "scale": "bench",
        "cpu_count": os.cpu_count(),
        "rows": rows,
        "min_speedup": min(r["speedup"] for r in rows.values()),
        "target_speedup": VECTOR_TARGET_SPEEDUP,
        "acc_maxdiff_vs_serial": acc_maxdiff,
        "acc_tolerance": VECTOR_ACC_ATOL,
        "kernels": time_forward_kernels(),
    }


def _render_vector(row: dict) -> str:
    lines = [
        "Vector backend — cohort-batched kernels vs the serial client loop",
        f"(cpu_count={row['cpu_count']}; vector needs no extra cores)",
        "",
        f"{'cell':24s}{'serial':>10s}{'vector':>10s}{'speedup':>10s}",
    ]
    for cell, r in row["rows"].items():
        lines.append(
            f"{cell:24s}{r['serial_s']:>9.2f}s{r['vector_s']:>9.2f}s"
            f"{r['speedup']:>9.2f}x"
        )
    lines.append("")
    lines.append(
        f"accuracy maxdiff vs serial: {row['acc_maxdiff_vs_serial']:.2e} "
        f"(tolerance {row['acc_tolerance']})"
    )
    lines.append("forward kernels, in same-size copies (gate):")
    for name, k in row["kernels"].items():
        lines.append(
            f"  {name:13s}{k['kernel_s'] * 1e3:>8.3f} ms / copy "
            f"{k['copy_s'] * 1e3:.4f} ms = {k['ratio']:>6.2f}x "
            f"(<= {MAX_KERNEL_COPY_RATIOS[name]}x)"
        )
    return "\n".join(lines)


def _check_vector(row: dict) -> None:
    assert row["min_speedup"] >= VECTOR_TARGET_SPEEDUP, (
        f"vector backend speedup {row['min_speedup']:.2f}x fell below "
        f"the {VECTOR_TARGET_SPEEDUP}x target: {row['rows']}"
    )
    slow = {
        name: round(k["ratio"], 2)
        for name, k in row["kernels"].items()
        if k["ratio"] > MAX_KERNEL_COPY_RATIOS[name]
    }
    assert not slow, (
        f"forward kernels cost more same-size copies than allowed: {slow} "
        f"(limits {MAX_KERNEL_COPY_RATIOS})"
    )


def test_vector_backend_speedup(benchmark, save_artifact):
    row = run_once(benchmark, run_vector_study)
    save_artifact("vector_backend", _render_vector(row))
    write_bench_json(row, "BENCH_10")
    _check_vector(row)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="run the vector-backend study and write BENCH_10.json "
             "(already CI-sized: a few seconds)",
    )
    parser.parse_args(argv)
    row = run_vector_study()
    text = _render_vector(row)
    out_dir = os.path.join(os.path.dirname(__file__), "out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "vector_backend.txt"), "w") as fh:
        fh.write(text + "\n")
    path = write_bench_json(row, "BENCH_10")
    print(text)
    print(f"[saved to {out_dir}/vector_backend.txt and {path}]")
    _check_vector(row)
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
