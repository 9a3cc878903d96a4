"""Paper-scale dataset synthesis: time and peak memory of one federation.

At ``PAPER_SCALE`` the synthetic CIFAR-100 stand-in has 100,000 images of
3x16x16 (307 MB of float32).  :func:`repro.data.sample_class_images`
fills it in fixed-size chunks, so building the whole 100-client
federation costs about twice the dataset's bytes (the dataset, its
standardization temporary, then the client shards); a whole-array
synthesis would need about 5.7 GB.  This bench builds the federation once,
prints the seconds and the process's peak RSS, and fails when the peak
exceeds ``RSS_CEILING_MB``::

    PYTHONPATH=src python benchmarks/bench_synthesis.py --smoke

``--smoke`` builds the CIFAR-100 federation, the largest; without it the
bench builds all four datasets' federations one after another.
"""

from __future__ import annotations

import argparse
import sys
import time

from bench_scale import peak_rss_mb
from repro.data import DATASET_SPECS
from repro.experiments import PAPER_SCALE, make_federation

#: whole-process budget; measured about 680 MB for CIFAR-100
RSS_CEILING_MB = 1500.0
SETTING = "label_skew_20"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="build only the CIFAR-100 federation"
    )
    args = parser.parse_args(argv)
    for name in ["cifar100"] if args.smoke else sorted(DATASET_SPECS):
        t0 = time.perf_counter()
        fed = make_federation(name, SETTING, PAPER_SCALE)
        seconds = time.perf_counter() - t0
        print(
            f"{name} {SETTING} at {PAPER_SCALE.name} scale: "
            f"{fed.total_train_samples():,} train samples on {fed.num_clients} "
            f"clients in {seconds:.1f} s, peak RSS {peak_rss_mb():.0f} MB "
            f"(ceiling {RSS_CEILING_MB:.0f} MB)"
        )
        del fed
    if peak_rss_mb() > RSS_CEILING_MB:
        print(f"FAIL: peak RSS above {RSS_CEILING_MB:.0f} MB", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
