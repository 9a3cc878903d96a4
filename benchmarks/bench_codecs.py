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

The smoke also gates the top-k selection's cost: it times
``TopKCodec(0.05).encode`` on a seeded 1,000,000-entry delta against one
``np.sort`` of the same vector on the same runner, writes both times and
their ratio to ``codecs_smoke.json``, and fails when the ratio exceeds
:data:`MAX_ENCODE_SORT_RATIO`.  Both sides scale with the host's speed,
so the ratio does not: an O(n) selection reads ~1.5, a full sort-based
one ~20 (2-core Xeon, numpy 2.4).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from _bench_util import write_bench_json
from repro.experiments import BENCH_SCALE, SMOKE_SCALE
from repro.experiments.runner import run_cell
from repro.fl.codecs import TopKCodec
from repro.fl.comm import MB

METHODS = ["fedclust", "fedavg", "ifca"]
CODECS = ["none", "fp16", "int8", "topk"]
#: codecs the acceptance bar applies to, with the required uplink ratio
REQUIRED_REDUCTION = {"int8": 4.0, "topk": 4.0}
#: delta length the encode gate times
ENCODE_GATE_N = 1_000_000
#: most ``TopKCodec(0.05).encode`` may cost, in ``np.sort``s of its delta
MAX_ENCODE_SORT_RATIO = 5.0


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


def time_topk_encode(n: int = ENCODE_GATE_N, repeats: int = 5) -> dict:
    """Best-of-``repeats`` seconds of ``TopKCodec(0.05).encode`` on a
    seeded ``n``-entry delta, of one ``np.sort`` of the same vector, and
    their ratio."""
    delta = np.random.default_rng(0).standard_normal(n)
    codec = TopKCodec(0.05)
    codec.encode(0, delta, None)  # allocate the codec's scratch buffers

    def best(fn) -> float:
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return min(times)

    encode_s = best(lambda: codec.encode(0, delta, None))
    sort_s = best(lambda: np.sort(delta))
    return {
        "n": n, "frac": codec.frac, "encode_s": encode_s, "sort_s": sort_s,
        "ratio": encode_s / sort_s,
    }


def check_encode_cost(timing: dict) -> None:
    """Top-k encode must cost at most MAX_ENCODE_SORT_RATIO sorts."""
    assert timing["ratio"] <= MAX_ENCODE_SORT_RATIO, (
        f"TopKCodec({timing['frac']}).encode on {timing['n']:,} entries took "
        f"{timing['encode_s'] * 1e3:.1f} ms = {timing['ratio']:.2f}x one "
        f"np.sort ({timing['sort_s'] * 1e3:.1f} ms) > {MAX_ENCODE_SORT_RATIO}x"
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
    row = {"bench": "codecs", "rows": rows}
    if args.smoke:
        row["topk_encode"] = timing = time_topk_encode()
        text += (
            f"\n\nTopKCodec({timing['frac']}).encode, {timing['n']:,} entries: "
            f"{timing['encode_s'] * 1e3:.2f} ms vs np.sort "
            f"{timing['sort_s'] * 1e3:.2f} ms -> {timing['ratio']:.2f}x "
            f"(gate <= {MAX_ENCODE_SORT_RATIO}x)"
        )
    path.write_text(text + "\n")
    json_path = write_bench_json(row, name)
    print(text)
    print(f"[saved to {path} and {json_path}]")
    check_reductions(rows)
    if args.smoke:
        check_encode_cost(row["topk_encode"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
