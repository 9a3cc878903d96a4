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

#: cells for the vector-backend speedup row: methods whose client loop is
#: the default recipe, so the CohortRunner actually batches (ifca's
#: overridden client hook serial-falls-back by design and would measure
#: nothing)
VECTOR_CELLS = [("cifar10", "fedclust"), ("cifar10", "fedavg")]
#: the PR's target: cohort batching must be at least this much faster
#: than the serial per-client loop on every measured cell
VECTOR_TARGET_SPEEDUP = 3.0


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


def _profile_predict_short_circuit(model, x, reps: int = 300):
    """Time eval-set prediction one-forward vs the old chunk-and-concat.

    ``Sequential.predict`` now short-circuits sets that fit one batch;
    the old path sliced and re-concatenated even for a single chunk.
    Both produce bitwise-identical logits (asserted); the timing pin
    goes into BENCH_10.json.
    """
    short = model.predict(x)
    chunked = np.concatenate(
        [model.forward(x[s : s + 256], train=False) for s in range(0, len(x), 256)]
    )
    np.testing.assert_array_equal(short, chunked)

    t0 = time.perf_counter()
    for _ in range(reps):
        model.predict(x)
    t_short = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(reps):
        np.concatenate(
            [model.forward(x[s : s + 256], train=False) for s in range(0, len(x), 256)]
        )
    t_chunked = time.perf_counter() - t0
    return {
        "n_samples": int(len(x)),
        "one_forward_us": round(t_short / reps * 1e6, 2),
        "chunked_concat_us": round(t_chunked / reps * 1e6, 2),
        "speedup": round(t_chunked / t_short, 3),
    }


def run_vector_study() -> dict:
    """Measure every :data:`VECTOR_CELLS` cell under serial and vector,
    check equivalence at the documented vector tolerance (empirically
    bitwise on this container; byte metering must stay exact), and pin
    the eval predict short-circuit.  Returns the BENCH_10 row."""
    from repro.fl.execution import VECTOR_ACC_ATOL

    rows, acc_maxdiff = {}, 0.0
    eval_profile = None
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
        if eval_profile is None:
            # Pin the predict() one-forward win on a real client eval set
            # (tiny at BENCH_SCALE — exactly the case the short-circuit
            # targets).
            algo = res_serial.algorithm
            eval_profile = _profile_predict_short_circuit(
                algo.model, algo.fed[0].test_x
            )
    return {
        "bench": "vector_execution",
        "scale": "bench",
        "cpu_count": os.cpu_count(),
        "rows": rows,
        "min_speedup": min(r["speedup"] for r in rows.values()),
        "target_speedup": VECTOR_TARGET_SPEEDUP,
        "acc_maxdiff_vs_serial": acc_maxdiff,
        "acc_tolerance": VECTOR_ACC_ATOL,
        "eval_predict": eval_profile,
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
    ep = row["eval_predict"]
    lines.append("")
    lines.append(
        f"accuracy maxdiff vs serial: {row['acc_maxdiff_vs_serial']:.2e} "
        f"(tolerance {row['acc_tolerance']})"
    )
    lines.append(
        f"eval predict short-circuit: {ep['speedup']:.2f}x on "
        f"{ep['n_samples']}-sample client eval set"
    )
    return "\n".join(lines)


def _check_vector(row: dict) -> None:
    assert row["min_speedup"] >= VECTOR_TARGET_SPEEDUP, (
        f"vector backend speedup {row['min_speedup']:.2f}x fell below "
        f"the {VECTOR_TARGET_SPEEDUP}x target: {row['rows']}"
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
