"""Execution-backend benchmark: the vector backend against the serial loop.

Unlike the table/figure benches this one measures the *simulator*, not the
paper.  The ``vector`` backend stacks same-shape client models and
replaces the per-client Python loop with cohort-batched GEMM kernels, so
its speedup over ``serial`` needs no extra cores.  ``serial`` runs the
same kernels, each client as a cohort of one, so that speedup is the
batching factor alone; it is recorded, ungated.
``test_vector_backend_speedup`` records each cell's median vector wall
clock (after checking that its accuracies equal serial's) as
``BENCH_10.json``, next to ``ref_s``, the median timing of the
benchmarks' fixed reference workload (``_bench_util.HostProbe``) taken
between the cell's runs.  The CI perf gate (``_bench_util.py --gate
10``) compares each cell's ``vector_s / ref_s`` against the committed
baseline:

    PYTHONPATH=src python -m pytest benchmarks/bench_execution.py -q
    PYTHONPATH=src python benchmarks/bench_execution.py --smoke

Run as a script (CI's way), it pins BLAS to one thread before numpy
loads, so the cells and the reference run single-threaded alike.

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
import statistics
import time

if __name__ == "__main__":
    # One BLAS thread, set before numpy loads (as perfbench/run.py does).
    # A two-thread GEMM whose second thread waits for a contended core
    # slows several-fold while single-threaded work slows a little, which
    # would move the cells' time against the reference's.
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import numpy as np

from _bench_util import HostProbe, write_bench_json
from conftest import run_once
from repro.experiments import BENCH_SCALE
from repro.experiments.runner import run_cell
from repro.nn.conv_utils import CohortConvWorkspace
from repro.nn.layers import MaxPool2d, ReLU

#: cells for the vector-backend row.  IFCA batches too but is not a
#: gated cell: its cluster scoring is one shared-input k-member cohort
#: forward on either backend, so its time says little about batching
VECTOR_CELLS = [("cifar10", "fedclust"), ("cifar10", "fedavg")]
#: timed vector runs per cell (serial gets 3, ungated): the gate reads
#: their median against the reference's, and on a shared 2-core host
#: that ratio settled within about 8% of its middle at 15 runs
VECTOR_REPS = 15
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


def _time_cell(
    dataset: str, method: str, backend: str, reps: int,
    probe: HostProbe | None = None,
):
    """Median wall clock of ``reps`` runs of one cell, after an untimed
    warm-up (first-call allocation), and with a ``probe`` the median of
    its workload timed before each run and after the last, so that both
    medians come from the same stretch of the host's load.  Timings on a
    shared host swing by a third from run to run; medians over runs
    paired like this move together.  Returns ``(cell_s, ref_s,
    result)``, ``ref_s`` None without a probe."""

    def run():
        return run_cell(
            dataset, method, "label_skew_20", BENCH_SCALE, seed=0,
            fl_options={"backend": backend},
        )

    result = run()
    cells, refs = [], []
    for _ in range(reps):
        if probe is not None:
            refs.append(probe.seconds())
        t0 = time.perf_counter()
        result = run()
        cells.append(time.perf_counter() - t0)
    if probe is not None:
        refs.append(probe.seconds())
    ref = statistics.median(refs) if refs else None
    return statistics.median(cells), ref, result


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
    check that accuracies and byte metering are equal, and time the
    gated forward kernels.  Returns the BENCH_10 row."""
    rows = {}
    probe = HostProbe()
    for dataset, method in VECTOR_CELLS:
        t_serial, _, res_serial = _time_cell(dataset, method, "serial", reps=3)
        t_vector, t_ref, res_vector = _time_cell(
            dataset, method, "vector", reps=VECTOR_REPS, probe=probe
        )
        hs, hv = res_serial.history, res_vector.history
        np.testing.assert_array_equal(hv.accuracies, hs.accuracies)
        np.testing.assert_array_equal(hs.cumulative_mb, hv.cumulative_mb)
        rows[f"{dataset}/{method}"] = {
            "serial_s": round(t_serial, 4),
            "vector_s": round(t_vector, 5),
            "ref_s": round(t_ref, 5),
            "speedup": round(t_serial / t_vector, 2),
        }
    return {
        "bench": "vector_execution",
        "scale": "bench",
        "cpu_count": os.cpu_count(),
        "rows": rows,
        "min_speedup": min(r["speedup"] for r in rows.values()),
        "kernels": time_forward_kernels(),
    }


def _render_vector(row: dict) -> str:
    lines = [
        "Vector backend — cohort-batched kernels vs the serial client loop",
        f"(cpu_count={row['cpu_count']}; vector needs no extra cores)",
        "",
        f"{'cell':24s}{'serial':>10s}{'vector':>10s}{'speedup':>10s}"
        f"{'reference':>11s}{'vector/ref':>12s}",
    ]
    for cell, r in row["rows"].items():
        lines.append(
            f"{cell:24s}{r['serial_s']:>9.2f}s{r['vector_s']:>9.3f}s"
            f"{r['speedup']:>9.2f}x{r['ref_s']:>10.4f}s"
            f"{r['vector_s'] / r['ref_s']:>11.2f}x"
        )
    lines.append("")
    lines.append("accuracies and bytes equal serial's (checked exactly)")
    lines.append("forward kernels, in same-size copies (gate):")
    for name, k in row["kernels"].items():
        lines.append(
            f"  {name:13s}{k['kernel_s'] * 1e3:>8.3f} ms / copy "
            f"{k['copy_s'] * 1e3:.4f} ms = {k['ratio']:>6.2f}x "
            f"(<= {MAX_KERNEL_COPY_RATIOS[name]}x)"
        )
    return "\n".join(lines)


def _check_vector(row: dict) -> None:
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
