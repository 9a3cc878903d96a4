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

The row also gates six cohort kernels, each timed against a same-size
copy on the same runner (best of 5), under its ``kernels`` key (outside
``rows``, so the ``--gate 10`` comparison does not see it).  Each takes
the batch-innermost ``(C, ch, H, W, N)`` activations the model hands it,
at cohort 10 and batch 10, in float32: the conv patch gather on
ResNet-9's 2x2 stage ``(10, 32, 2, 2, 10)`` at k=3, pad 1 and on LeNet-5
conv1's ``(10, 3, 8, 8, 10)`` at k=5, pad 2, each against ``np.copyto``
of its columns; the conv input-gradient scatter on the same ResNet-9
geometry and on LeNet-5 conv2's ``(10, 2, 4, 4, 10)`` at k=5, pad 2,
each against ``np.copyto`` of its column gradient; and
``ReLU.forward_many`` and MaxPool's training ``forward_many`` on a
``(10, 16, 8, 8, 10)`` input against ``x.copy()``.  Both sides scale
with the host, so the ratios do not; a kernel that costs more copies than
:data:`MAX_KERNEL_COPY_RATIOS` allows fails the run.

Under its ``paper_eval`` key (outside ``rows`` too) the row records one
PAPER_SCALE-shaped evaluation dispatch through ``CohortRunner``: LeNet-5
at width 1.0 scoring 100 clients of 100 test rows each at 16x16 (the
paper's 50,000 CIFAR-10 images split evenly).  It records the wall clock
(median of 3 runs, ungated) and the tracemalloc peak of one run as a
multiple of the 30.7 MB the dispatch's test inputs take.  A byte count
over a byte count does not depend on the host; a peak above
:data:`MAX_PAPER_EVAL_PEAK_RATIO` fails the run.
"""

from __future__ import annotations

import argparse
import os
import statistics
import time
import tracemalloc

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
from repro.algorithms import build_algorithm
from repro.data import build_federated_dataset, make_dataset
from repro.experiments import BENCH_SCALE, PAPER_SCALE
from repro.experiments.configs import make_model_fn
from repro.experiments.runner import run_cell
from repro.fl.config import FLConfig
from repro.fl.execution import CohortRunner
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
#: most each gated cohort kernel may cost, in same-size copies.  On a
#: 2-core Xeon (numpy 2.4, three runs), with the batch-innermost inputs,
#: the window-copy gather read 4.1-4.6 on ResNet-9's input and 0.94-1.06
#: on LeNet-5 conv1's, the interior-only scatter 10.7-11.1 on ResNet-9's
#: and 18.3-20.2 on LeNet-5 conv2's, the branch-free ReLU 3.6-4.7 and the
#: running-compare MaxPool argmax over its copied window rows 17.7-21.6.
#: On the (C, N, ch, H, W) inputs before, the same kernels read 4.5-5.2,
#: 1.12-1.19, 22.6-23.1 (a scatter over the padded map, then a transposing
#: copy out), 21.0-23.8, 3.9-4.4 and 39-45 (MaxPool through im2col).  The
#: take-indexed gather before those read 12-15 and 4.1-4.7, and fails the
#: LeNet gate; the slice-copy gather, ``np.where`` ReLU and
#: ``argmax(axis=0)`` MaxPool before it read 33-48, 47-58 and 71-91
MAX_KERNEL_COPY_RATIOS = {
    "gather": 25.0, "gather_lenet": 2.0, "scatter": 20.0, "scatter_lenet": 40.0,
    "relu": 15.0, "maxpool": 40.0,
}
#: most the paper-shaped evaluation dispatch may allocate, in multiples of
#: its test inputs' bytes.  On a 2-core Xeon (numpy 2.4) it read 0.32 in
#: member blocks (each client alone: its 7.7 MB of conv1 columns are over
#: ``COHORT_STEP_BYTES``) and 31.6 as one 100-member cohort, which
#: gathered 768 MB of conv1 columns and raised the RSS from 352 to 1184 MB
MAX_PAPER_EVAL_PEAK_RATIO = 1.0


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


def time_kernels(repeats: int = 5, number: int = 20) -> dict:
    """Seconds per call of each gated kernel and of its same-size
    copy (the best of ``repeats`` loops of ``number`` calls), and their
    ratio, keyed like :data:`MAX_KERNEL_COPY_RATIOS`."""
    rng = np.random.default_rng(0)

    def gather_pair(shape, k, pad):
        x_conv = rng.standard_normal(shape).astype(np.float32)
        ws = CohortConvWorkspace(shape, x_conv.dtype, k, k, 1, pad)
        cols = ws.gather(x_conv)
        cols_dst = np.empty_like(cols)
        return lambda: ws.gather(x_conv), lambda: np.copyto(cols_dst, cols)

    def scatter_pair(shape, k, pad):
        ws = CohortConvWorkspace(shape, np.float32, k, k, 1, pad)
        cols_shape = (shape[0], ws.patch_len, ws.out_len * shape[4])
        dcols = rng.standard_normal(cols_shape).astype(np.float32)
        dcols_dst = np.empty_like(dcols)
        return lambda: ws.scatter(dcols), lambda: np.copyto(dcols_dst, dcols)

    x = rng.standard_normal((10, 16, 8, 8, 10)).astype(np.float32)
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
        "gather": gather_pair((10, 32, 2, 2, 10), 3, 1),
        "gather_lenet": gather_pair((10, 3, 8, 8, 10), 5, 2),
        "scatter": scatter_pair((10, 32, 2, 2, 10), 3, 1),
        "scatter_lenet": scatter_pair((10, 2, 4, 4, 10), 5, 2),
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


def measure_paper_eval(reps: int = 3) -> dict:
    """Wall clock (median of ``reps`` runs after a warm-up) and
    tracemalloc peak (one more run) of one ``evaluate_client`` dispatch
    over every client of a PAPER_SCALE-shaped CIFAR-10 federation, split
    evenly so that every client holds 100 test rows: one same-shape
    group of 100 LeNet-5 (width 1.0) members."""
    scale = PAPER_SCALE
    data = make_dataset(
        "cifar10", seed=0, n_samples=scale.n_samples, size=scale.image_size
    )
    fed = build_federated_dataset(data, "iid", num_clients=scale.num_clients, rng=0)
    del data
    algo = build_algorithm(
        "fedavg", fed, make_model_fn("cifar10", fed, scale),
        FLConfig(backend="vector"), seed=0,
    )
    algo.setup()
    runner = CohortRunner()
    tasks = [(c,) for c in range(fed.num_clients)]
    runner.map(algo, "evaluate_client", tasks)  # untimed warm-up
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        runner.map(algo, "evaluate_client", tasks)
        times.append(time.perf_counter() - t0)
    tracemalloc.start()
    try:
        runner.map(algo, "evaluate_client", tasks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    inputs = sum(fed[c].test_x.nbytes for c in range(fed.num_clients))
    return {
        "clients": fed.num_clients,
        "test_rows": len(fed[0].test_x),
        "input_mb": round(inputs / 1e6, 2),
        "wall_s": round(statistics.median(times), 4),
        "peak_mb": round(peak / 1e6, 2),
        "peak_ratio": round(peak / inputs, 3),
    }


def run_vector_study() -> dict:
    """Measure every :data:`VECTOR_CELLS` cell under serial and vector,
    check that accuracies and byte metering are equal, and time the
    gated cohort kernels.  Returns the BENCH_10 row."""
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
        "kernels": time_kernels(),
        "paper_eval": measure_paper_eval(),
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
    lines.append("cohort kernels, in same-size copies (gate):")
    for name, k in row["kernels"].items():
        lines.append(
            f"  {name:13s}{k['kernel_s'] * 1e3:>8.3f} ms / copy "
            f"{k['copy_s'] * 1e3:.4f} ms = {k['ratio']:>6.2f}x "
            f"(<= {MAX_KERNEL_COPY_RATIOS[name]}x)"
        )
    ev = row["paper_eval"]
    lines.append(
        f"paper-shaped evaluation ({ev['clients']} clients x "
        f"{ev['test_rows']} rows, LeNet-5 at 16x16): {ev['wall_s']:.3f}s, "
        f"peak {ev['peak_mb']:.1f} MB = {ev['peak_ratio']:.2f}x its "
        f"{ev['input_mb']:.1f} MB of inputs (<= {MAX_PAPER_EVAL_PEAK_RATIO}x)"
    )
    return "\n".join(lines)


def _check_vector(row: dict) -> None:
    slow = {
        name: round(k["ratio"], 2)
        for name, k in row["kernels"].items()
        if k["ratio"] > MAX_KERNEL_COPY_RATIOS[name]
    }
    assert not slow, (
        f"cohort kernels cost more same-size copies than allowed: {slow} "
        f"(limits {MAX_KERNEL_COPY_RATIOS})"
    )
    peak = row["paper_eval"]["peak_ratio"]
    assert peak <= MAX_PAPER_EVAL_PEAK_RATIO, (
        f"the paper-shaped evaluation dispatch peaked at {peak}x its inputs "
        f"(limit {MAX_PAPER_EVAL_PEAK_RATIO}x)"
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
