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
*relative* wall clock — ``vector_s / serial_s``, both measured in the
same job — so a slower CI runner cannot fail the gate, but a genuinely
slower vectorized path (relative to the serial loop it replaced) does::

    PYTHONPATH=src python benchmarks/_bench_util.py --gate 10 \\
        --baseline /tmp/BENCH_10.baseline.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

OUT_DIR = Path(__file__).parent / "out"


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
    vectorized path's wall clock *relative to the serial loop measured in
    the same job* (``vector_s / serial_s``) — machine-speed-independent,
    so only a real slowdown of the vectorized path can trip it.

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
            base_rel = float(base["vector_s"]) / float(base["serial_s"])
            fresh_rel = float(row["vector_s"]) / float(row["serial_s"])
        except (KeyError, TypeError, ZeroDivisionError) as exc:
            failures.append(f"{cell}: malformed timing row ({exc!r})")
            continue
        limit = (1.0 + max_regression) * base_rel
        if fresh_rel > limit:
            failures.append(
                f"{cell}: vector/serial wall-clock ratio {fresh_rel:.3f} "
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
