"""The benchmark's workloads: whole federation cells built through the
public experiments runner, plus the checks every measured cell must pass.

Each workload is one (method x model x partition x execution path) cell,
run end to end with ``repro.experiments.runner.build_cell(...)`` followed
by ``algo.run()``.  The workload seed is the cell's root seed: it changes
the generated federation (data synthesis, partition, client draws) and
none of the sizes or options below.  Why each workload exists, and which
layers it loads or bypasses, is recorded in ``WORKLOADS.md``.
"""

from __future__ import annotations

import math
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if (_SRC / "repro").is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.experiments.configs import BENCH_SCALE, ExperimentScale  # noqa: E402
from repro.experiments.runner import build_cell  # noqa: E402
from repro.fl.comm import MB  # noqa: E402
from repro.fl.execution import VECTOR_ACC_ATOL  # noqa: E402
from repro.fl.scheduler import nominal_cohort  # noqa: E402

__all__ = [
    "DEFAULT_SEED",
    "SEEDS_PER_RUN",
    "cell_seeds",
    "WORKLOADS",
    "Workload",
    "Cell",
    "run_cell",
    "check_cell",
]

#: the run seed whose outputs are pinned below; any other seed checks
#: only the invariants
DEFAULT_SEED = 0

#: federations a run cycles through, one per cell in turn, so that its
#: ``final_acc`` is a mean over several generated federations
SEEDS_PER_RUN = 5


def cell_seeds(seed: int) -> list[int]:
    """The cell (root) seeds of run seed ``seed``; disjoint across runs."""
    return [seed * SEEDS_PER_RUN + i for i in range(SEEDS_PER_RUN)]


@dataclass(frozen=True)
class Workload:
    """One benchmark cell: runner coordinates plus pinned outputs."""

    name: str
    dataset: str
    method: str
    setting: str
    scale: ExperimentScale
    fl_options: dict = field(default_factory=dict)
    #: cell seed -> ``History.final_accuracy()``, for the cell seeds of
    #: :data:`DEFAULT_SEED`
    pinned_acc: dict[int, float] = field(default_factory=dict)
    #: ``algo.comm.total_bytes`` at those cell seeds (exact)
    pinned_comm_bytes: int = 0
    #: how strongly the cell's wall time follows the host-speed probe:
    #: ``wall ~ host_scale ** -host_exponent``.  Fitted once per workload
    #: on the development host (WORKLOADS.md); interpreter-bound cells
    #: slow down more than the probe, GEMM-bound cells less.
    host_exponent: float = 1.0

    def at_reference_speed(self, seconds: float, host_scale: float) -> float:
        """``seconds`` of wall time read at the probe's reference speed."""
        return seconds * host_scale ** self.host_exponent

    @property
    def expected_updates(self) -> int:
        """Client updates aggregated over rounds 1..T: one nominal cohort
        per round (sync aggregates the whole cohort; semisync aggregates
        its quorum, which is the same size)."""
        s = self.scale
        return s.rounds * nominal_cohort(s.num_clients, s.sample_rate)

    def build(self, seed: int):
        return build_cell(
            self.dataset, self.method, self.setting, self.scale,
            seed=seed, fl_options=dict(self.fl_options),
        )


_LENET_CELL = dict(num_clients=100, n_samples=8000, sample_rate=0.1, eval_every=10)

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "fedclust-lenet", "cifar10", "fedclust", "label_skew_20",
            BENCH_SCALE.scaled(rounds=20, **_LENET_CELL),
            {"backend": "vector"},
            pinned_acc={0: 0.999375, 1: 0.998125, 2: 1.0, 3: 0.988125, 4: 0.994375},
            pinned_comm_bytes=3_562_000, host_exponent=0.90,
        ),
        Workload(
            "ifca-lenet", "cifar10", "ifca", "label_skew_20",
            BENCH_SCALE.scaled(rounds=8, **_LENET_CELL),
            {"backend": "vector"},
            pinned_acc={0: 0.991875, 1: 0.805625, 2: 0.879375, 3: 0.973125, 4: 0.900625},
            pinned_comm_bytes=2_779_200, host_exponent=1.15,
        ),
        Workload(
            "fedavg-resnet-topk", "cifar100", "fedavg", "label_skew_20",
            BENCH_SCALE.scaled(
                num_clients=40, n_samples=2000, sample_rate=0.2, local_epochs=1,
                eval_every=6, rounds=12,
            ),
            {"backend": "vector", "codec": "topk", "network": "hetero",
             "scheduler": "semisync"},
            pinned_acc={0: 0.32125, 1: 0.31375, 2: 0.37125, 3: 0.35625, 4: 0.30375},
            pinned_comm_bytes=59_182_848, host_exponent=0.79,
        ),
    )
}


@dataclass
class Cell:
    """What one measured cell produced."""

    run_s: float
    setup_s: float
    updates: int
    final_acc: float
    comm_bytes: int
    up_bytes: int
    down_bytes: int
    #: clusters the one-shot round-0 clustering formed (0 when the
    #: method does not cluster in round 0)
    clusters: int

    @property
    def comm_mb(self) -> float:
        return self.comm_bytes / MB


def run_cell(
    workload: Workload, seed: int, between_rounds: Callable[[], float] | None = None
) -> Cell:
    """Build and run one cell, timing it from the start of ``build_cell``.

    The only hook is an instance-level wrapper on ``aggregate`` (one call
    per round).  It counts the client updates folded into server state,
    and calls ``between_rounds``, whose returned seconds (a host-speed
    reading) are left out of ``run_s``.
    """
    updates = 0
    paused = 0.0
    t0 = time.perf_counter()
    algo = workload.build(seed)
    build_s = time.perf_counter() - t0
    aggregate = algo.aggregate

    def counting_aggregate(round_idx, delivered):
        nonlocal updates, paused
        updates += len(delivered)
        if between_rounds is not None:
            paused += between_rounds()
        return aggregate(round_idx, delivered)

    algo.aggregate = counting_aggregate
    history = algo.run()
    run_s = time.perf_counter() - t0 - paused
    return Cell(
        run_s=run_s,
        setup_s=build_s + history.setup_seconds,
        updates=updates,
        final_acc=history.final_accuracy(),
        comm_bytes=algo.comm.total_bytes,
        up_bytes=algo.comm.total_up,
        down_bytes=algo.comm.total_down,
        clusters=algo.num_clusters if workload.method == "fedclust" else 0,
    )


def check_cell(
    workload: Workload, seed: int, cell: Cell, reference: Cell | None = None
) -> list[str]:
    """Every failed output check of ``cell`` (empty when it is correct).

    ``seed`` is the cell seed.  Invariants hold at any seed; the pinned
    accuracy and traffic apply to the cell seeds of :data:`DEFAULT_SEED`
    only.  ``reference`` is an earlier cell of the same process and cell
    seed, which this one must reproduce bit for bit.
    """
    problems = []
    if cell.updates != workload.expected_updates:
        problems.append(
            f"aggregated {cell.updates} updates, configuration implies "
            f"{workload.expected_updates}"
        )
    if not (math.isfinite(cell.final_acc) and 0.0 < cell.final_acc <= 1.0):
        problems.append(f"final accuracy {cell.final_acc!r} outside (0, 1]")
    if cell.comm_bytes <= 0 or cell.up_bytes + cell.down_bytes != cell.comm_bytes:
        problems.append(f"inconsistent traffic meters: {cell.comm_bytes} bytes")
    if workload.method == "fedclust" and cell.clusters < 2:
        problems.append(f"round-0 clustering formed {cell.clusters} cluster(s)")
    if seed in workload.pinned_acc:
        pinned = workload.pinned_acc[seed]
        if abs(cell.final_acc - pinned) > VECTOR_ACC_ATOL:
            problems.append(
                f"final accuracy {cell.final_acc!r} vs pinned {pinned!r} "
                f"(atol {VECTOR_ACC_ATOL})"
            )
        if cell.comm_bytes != workload.pinned_comm_bytes:
            problems.append(
                f"traffic {cell.comm_bytes} bytes vs pinned "
                f"{workload.pinned_comm_bytes}"
            )
    if reference is not None and (
        cell.final_acc != reference.final_acc
        or cell.comm_bytes != reference.comm_bytes
    ):
        problems.append(
            f"cell differs from the first cell of this run: accuracy "
            f"{cell.final_acc!r} vs {reference.final_acc!r}, traffic "
            f"{cell.comm_bytes} vs {reference.comm_bytes} bytes"
        )
    return problems
