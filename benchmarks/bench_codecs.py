"""Codec benchmark: accuracy-vs-Mb tradeoff curves under upload compression.

Unlike the table benches this one measures the *wire layer*, not the
paper: it reruns the quickstart configuration (CIFAR-10, label skew 20%)
for FedClust vs. FedAvg and IFCA under each upload codec
(:mod:`repro.fl.codecs`) and records, per run, the accuracy curve against
cumulative metered Mb plus the compression ratio actually achieved
(logical uncompressed bytes / metered wire bytes on the uplink).

The artifact demonstrates the Table-5 lever the codecs open: ``int8``
and ``topk`` cut metered upload bytes >= 4x (asserted) at a modest
accuracy cost, so Mb-to-target improves even when rounds-to-target does
not.

Runs standalone too (CI smoke)::

    PYTHONPATH=src python benchmarks/bench_codecs.py --smoke
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from _bench_util import write_bench_json
from repro.experiments import BENCH_SCALE, SMOKE_SCALE
from repro.experiments.runner import run_cell
from repro.fl.comm import MB

METHODS = ["fedclust", "fedavg", "ifca"]
CODECS = ["none", "fp16", "int8", "topk"]
#: codecs the acceptance bar applies to, with the required uplink ratio
REQUIRED_REDUCTION = {"int8": 4.0, "topk": 4.0}


def run_tradeoff(scale, methods=METHODS, codecs=CODECS, seed: int = 0) -> list[dict]:
    """One row per (method, codec): final accuracy, uplink bytes, curves."""
    rows = []
    for method in methods:
        for codec in codecs:
            res = run_cell(
                "cifar10", method, "label_skew_20", scale, seed=seed,
                fl_options={"codec": codec},
            )
            comm = res.algorithm.comm
            rows.append(
                {
                    "method": method,
                    "codec": codec,
                    "accuracy": 100.0 * res.final_accuracy,
                    "wire_up_mb": comm.total_up / MB,
                    "logical_up_mb": comm.total_logical_up / MB,
                    "total_wire_mb": comm.total_mb(),
                    "curve_mb": res.history.cumulative_mb.tolist(),
                    "curve_acc": (100.0 * res.history.accuracies).tolist(),
                }
            )
    return rows


def uplink_reduction(row: dict) -> float:
    """Uncompressed-over-wire byte ratio of a run's uplink."""
    return row["logical_up_mb"] / row["wire_up_mb"] if row["wire_up_mb"] else 1.0


def render(rows: list[dict], scale_name: str) -> str:
    lines = [
        f"Codec tradeoff — accuracy vs metered Mb ({scale_name} scale, "
        "cifar10 / label_skew_20)",
        "",
        "raw f64 Mb: the same uploads as raw float64 vectors — one baseline",
        "for every row.  The seed wire ('none') ships model-native fp32, so",
        "even it sits ~2x below raw f64; codec reductions are vs raw f64.",
        "",
        f"{'method':10s} {'codec':6s} {'acc %':>7s} {'uplink Mb':>10s} "
        f"{'raw f64 Mb':>11s} {'x-reduction':>12s} {'total Mb':>9s}",
        "-" * 70,
    ]
    for row in rows:
        lines.append(
            f"{row['method']:10s} {row['codec']:6s} {row['accuracy']:>7.2f} "
            f"{row['wire_up_mb']:>10.3f} {row['logical_up_mb']:>11.3f} "
            f"{uplink_reduction(row):>11.2f}x {row['total_wire_mb']:>9.3f}"
        )
    lines.append("")
    lines.append("Accuracy-vs-cumulative-Mb curves (metered wire, both directions)")
    for row in rows:
        pts = "  ".join(
            f"{mb:.2f}:{acc:.1f}"
            for mb, acc in zip(row["curve_mb"], row["curve_acc"])
        )
        lines.append(f"  {row['method']}/{row['codec']:6s}  {pts}")
    return "\n".join(lines)


def check_reductions(rows: list[dict]) -> None:
    """int8 and topk must cut the metered uplink >= 4x on every method."""
    for row in rows:
        required = REQUIRED_REDUCTION.get(row["codec"])
        if required is None:
            continue
        got = uplink_reduction(row)
        assert got >= required, (
            f"{row['method']}/{row['codec']}: uplink reduction {got:.2f}x "
            f"< required {required}x"
        )


def test_codec_tradeoff(benchmark, save_artifact):
    from conftest import run_once

    rows = run_once(benchmark, lambda: run_tradeoff(BENCH_SCALE))
    save_artifact("codecs_tradeoff", render(rows, BENCH_SCALE.name))
    check_reductions(rows)
    # The codecs must not collapse training: every compressed run stays
    # within reach of its uncompressed twin.
    by_key = {(r["method"], r["codec"]): r for r in rows}
    for method in METHODS:
        base = by_key[(method, "none")]["accuracy"]
        for codec in ("fp16", "int8"):
            assert by_key[(method, codec)]["accuracy"] >= base - 10.0, (
                method, codec
            )


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
    name = "codecs_smoke" if args.smoke else "codecs_tradeoff"
    path = out_dir / f"{name}.txt"
    path.write_text(text + "\n")
    json_path = write_bench_json({"bench": "codecs", "rows": rows}, name)
    print(text)
    print(f"[saved to {path} and {json_path}]")
    check_reductions(rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
