"""Shared helpers for the bench scripts' machine-readable outputs.

Every ``bench_*.py`` emits its result row twice: the human-readable
``benchmarks/out/<name>.txt`` (unchanged) and a JSON record written
through :func:`write_bench_json` — ``benchmarks/out/BENCH_<n>.json`` for
the numbered perf records (comparable across commits; CI uploads them
as artifacts), or any other stable name for per-bench rows.

Run as a script, it is the perf-regression gate: ``--gate N --baseline
<committed BENCH_N.json>`` compares the freshly generated
``benchmarks/out/BENCH_N.json`` against the committed baseline and
exits non-zero when the vectorized path regressed by more than
``--max-regression`` (default 25%).  The comparison is on each cell's
*relative* wall clock — ``vector_s / ref_s``, where ``ref_s`` is the
fixed :class:`HostProbe` workload timed in the same job, between the
cell's timed runs (both medians) — so a slower CI runner cannot fail the
gate, but a genuinely slower vectorized path does::

    PYTHONPATH=src python benchmarks/_bench_util.py --gate 10 \\
        --baseline /tmp/BENCH_10.baseline.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

OUT_DIR = Path(__file__).parent / "out"


class HostProbe:
    """A fixed workload that scales with the host as a federation cell does.

    The yardstick of the time gates: a cell's wall clock divided by this
    workload's, both timed in the same job, reads the same on a fast and
    a slow host, and moves only when the cell's own code does.  The
    workload is the benchmarks' own, the same on every commit, in three
    parts of about equal time:

    - many small-array numpy calls (a small GEMM, softmax, ReLU,
      pooling), where dispatch overhead dominates, as in the cells'
      kernels on 8x8 maps;
    - a pure-Python dict and string loop, like the engine's glue;
    - copies of a 16 MB float32 array into a preallocated one: the memory
      traffic a busy neighbour on the host contends for.

    It follows the design of the probe under ``perfbench/`` without that
    probe's LeNet-sized 32x32 GEMM part: timed next to the BENCH_SCALE
    cells in 28 processes on a shared 2-core host, that part tracked the
    cells worst (correlation 0.2-0.6 of per-process medians, against
    0.4-0.98 for the small numpy calls).
    """

    def __init__(self):
        rng = np.random.default_rng(20240101)
        self.a = rng.standard_normal((10, 84)).astype(np.float32)
        self.w = rng.standard_normal((84, 10)).astype(np.float32)
        self.x = rng.standard_normal((10, 6, 14, 14)).astype(np.float32)
        self.src = rng.standard_normal(4_000_000).astype(np.float32)
        self.dst = np.empty_like(self.src)
        for _ in range(3):  # first-call allocations are not part of a timing
            self.seconds()

    def _run(self) -> None:
        for _ in range(30):
            y = self.a @ self.w
            y -= y.max(axis=1, keepdims=True)
            np.exp(y, out=y)
            relu = np.maximum(self.x, 0.0)
            relu.reshape(10, 6, 7, 2, 7, 2).max(axis=(3, 5))
        d: dict[int, int] = {}
        acc = 0
        for i in range(60000):
            d[i & 255] = d.get(i & 255, 0) + i
            acc += len(str(i)) if i % 7 == 0 else 1
        for _ in range(4):
            np.copyto(self.dst, self.src)

    def seconds(self) -> float:
        """Wall clock of one pass over the workload."""
        t0 = time.perf_counter()
        self._run()
        return time.perf_counter() - t0


def write_bench_json(row: dict, name: str) -> Path:
    """Write one bench row as ``benchmarks/out/<name>.json`` and return
    the path.  Keys are sorted so diffs between commits stay readable."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{name}.json"
    path.write_text(json.dumps(row, indent=2, sort_keys=True) + "\n")
    return path


def gate_regressions(
    fresh: dict, baseline: dict, max_regression: float = 0.25
) -> list[str]:
    """Perf-gate comparison of a fresh bench row against its baseline.

    For every cell in the baseline's ``rows``, the gated statistic is the
    vectorized path's wall clock *relative to the* :class:`HostProbe`
    *workload timed in the same job* (``vector_s / ref_s``) —
    machine-speed-independent, so only a real slowdown of the vectorized
    path can trip it.  The serial loop's ``serial_s`` and the
    ``speedup`` over it stay in the record, ungated.

    Args:
        fresh: the just-generated ``BENCH_N.json`` record.
        baseline: the committed record to compare against.
        max_regression: allowed fractional slowdown (0.25 = 25%).

    Returns:
        Human-readable failure strings; empty when the gate passes.
    """
    failures: list[str] = []
    base_rows = baseline.get("rows", {})
    fresh_rows = fresh.get("rows", {})
    if not base_rows:
        return ["baseline has no 'rows' to gate against"]
    for cell, base in base_rows.items():
        row = fresh_rows.get(cell)
        if row is None:
            failures.append(f"{cell}: present in baseline, missing from fresh bench")
            continue
        try:
            base_rel = float(base["vector_s"]) / float(base["ref_s"])
            fresh_rel = float(row["vector_s"]) / float(row["ref_s"])
        except (KeyError, TypeError, ZeroDivisionError) as exc:
            failures.append(f"{cell}: malformed timing row ({exc!r})")
            continue
        limit = (1.0 + max_regression) * base_rel
        if fresh_rel > limit:
            failures.append(
                f"{cell}: vector/reference wall-clock ratio {fresh_rel:.3f} "
                f"exceeds baseline {base_rel:.3f} by more than "
                f"{max_regression:.0%} (limit {limit:.3f})"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--gate", type=int, metavar="N", required=True,
        help="gate the fresh benchmarks/out/BENCH_N.json against --baseline",
    )
    parser.add_argument(
        "--baseline", type=Path, required=True,
        help="committed BENCH_N.json to gate against",
    )
    parser.add_argument(
        "--max-regression", type=float, default=0.25,
        help="allowed fractional slowdown of the vectorized path (default 0.25)",
    )
    args = parser.parse_args(argv)
    fresh_path = OUT_DIR / f"BENCH_{args.gate}.json"
    if not fresh_path.exists():
        print(f"gate FAILED: fresh bench {fresh_path} was never written")
        return 1
    fresh = json.loads(fresh_path.read_text())
    baseline = json.loads(args.baseline.read_text())
    failures = gate_regressions(fresh, baseline, args.max_regression)
    if failures:
        print(f"perf gate FAILED for BENCH_{args.gate}:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print(
        f"perf gate passed for BENCH_{args.gate} "
        f"({len(baseline.get('rows', {}))} cells within "
        f"{args.max_regression:.0%} of baseline)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
