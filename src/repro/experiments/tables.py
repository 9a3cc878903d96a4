"""Regeneration harnesses for the paper's Tables 1-6.

Each function reproduces one table's rows at a configurable scale and
returns a structured result; :mod:`repro.experiments.reporting` renders the
same rows the paper prints.
"""

from __future__ import annotations

import numpy as np

from repro.core.newcomer import incorporate_newcomers
from repro.experiments.configs import (
    ALL_METHODS,
    ExperimentScale,
    make_federation,
    make_model_fn,
    method_extras,
)
from repro.experiments.runner import mean_std, run_cell, run_methods

__all__ = [
    "table_accuracy",
    "table_rounds_to_target",
    "table_comm_cost",
    "table_newcomers",
    "table_population",
    "table_robustness",
    "DEFAULT_TARGET_FRACTION",
    "POPULATION_SCENARIOS",
    "ATTACK_SCENARIOS",
    "ROBUST_AGGREGATORS",
]

#: Targets in Tables 4/5 are dataset-specific absolute accuracies tuned to
#: the paper's testbed.  At reproduction scale we set each dataset's target
#: to this fraction of the best method's final accuracy, which preserves
#: the question the tables ask ("how fast does each method reach a level
#: that the strong methods all reach?").
DEFAULT_TARGET_FRACTION = 0.9


def table_accuracy(
    setting: str,
    scale: ExperimentScale,
    datasets: list[str] = ("cifar10", "cifar100", "fmnist", "svhn"),
    methods: list[str] = tuple(ALL_METHODS),
    seeds: tuple[int, ...] = (0,),
    config_overrides: dict | None = None,
) -> dict:
    """Tables 1-3: final average local test accuracy, mean ± std over seeds.

    ``setting`` picks the heterogeneity regime: ``label_skew_20`` (Table 1),
    ``label_skew_30`` (Table 2), ``dirichlet_0.1`` (Table 3).
    ``config_overrides`` (e.g. ``{"backend": "vector"}``)
    reach every cell's :class:`~repro.fl.config.FLConfig`.
    """
    cells: dict[str, dict[str, tuple[float, float]]] = {m: {} for m in methods}
    results: dict[str, dict[str, list]] = {m: {} for m in methods}
    for dataset in datasets:
        by_method = run_methods(
            dataset, list(methods), setting, scale, seeds=seeds,
            config_overrides=config_overrides,
        )
        for method, runs in by_method.items():
            accs = [100.0 * r.final_accuracy for r in runs]
            cells[method][dataset] = mean_std(accs)
            results[method][dataset] = runs
    return {"setting": setting, "datasets": list(datasets), "cells": cells, "runs": results}


def _targets_from_histories(histories_by_method: dict, fraction: float) -> float:
    best = max(h.final_accuracy() for hs in histories_by_method.values() for h in hs)
    return fraction * best


def table_rounds_to_target(
    setting: str,
    scale: ExperimentScale,
    datasets: list[str] = ("cifar10", "cifar100", "fmnist", "svhn"),
    methods: list[str] = tuple(ALL_METHODS),
    target_fraction: float = DEFAULT_TARGET_FRACTION,
    seeds: tuple[int, ...] = (0,),
    config_overrides: dict | None = None,
) -> dict:
    """Table 4: communication rounds needed to reach the target accuracy.

    Entries are ``None`` ("– –" in the paper) when a method never reaches
    the target within the round budget.
    """
    cells: dict[str, dict[str, float | None]] = {m: {} for m in methods}
    targets: dict[str, float] = {}
    for dataset in datasets:
        by_method = run_methods(
            dataset, list(methods), setting, scale, seeds=seeds,
            config_overrides=config_overrides,
        )
        target = _targets_from_histories(
            {m: [r.history for r in rs] for m, rs in by_method.items()}, target_fraction
        )
        targets[dataset] = target
        for method, runs in by_method.items():
            vals = [r.history.rounds_to_target(target) for r in runs]
            reached = [v for v in vals if v is not None]
            cells[method][dataset] = float(np.mean(reached)) if len(reached) == len(vals) else None
    return {
        "setting": setting,
        "datasets": list(datasets),
        "targets": targets,
        "cells": cells,
    }


def table_comm_cost(
    setting: str,
    scale: ExperimentScale,
    datasets: list[str] = ("cifar10", "cifar100", "fmnist", "svhn"),
    methods: list[str] = tuple(ALL_METHODS),
    target_fraction: float = DEFAULT_TARGET_FRACTION,
    seeds: tuple[int, ...] = (0,),
    config_overrides: dict | None = None,
) -> dict:
    """Table 5: communication cost (Mb) to reach the target accuracy.

    Besides the paper's Mb-to-target cells, the result carries a ``comm``
    block with each cell's *total* run traffic — metered wire Mb next to
    the logical (uncompressed float64) Mb — so a single command shows both
    the Table-5 numbers and what a codec saved
    (``python -m repro.experiments table5 --codec int8``), plus a
    ``sim_to_target`` block with the *simulated* seconds to the same
    target (:meth:`~repro.fl.history.History.sim_seconds_to_target`) —
    the scheduler comparison's metric.  The simulated column is all-zero
    under the default ideal network; pair it with ``--network`` and
    ``--scheduler`` (``python -m repro.experiments table5 --network
    stragglers --scheduler buffered``).
    """
    cells: dict[str, dict[str, float | None]] = {m: {} for m in methods}
    comm: dict[str, dict[str, tuple[float, float]]] = {m: {} for m in methods}
    sim_to_target: dict[str, dict[str, float | None]] = {m: {} for m in methods}
    targets: dict[str, float] = {}
    for dataset in datasets:
        by_method = run_methods(
            dataset, list(methods), setting, scale, seeds=seeds,
            config_overrides=config_overrides,
        )
        target = _targets_from_histories(
            {m: [r.history for r in rs] for m, rs in by_method.items()}, target_fraction
        )
        targets[dataset] = target
        for method, runs in by_method.items():
            vals = [r.history.mb_to_target(target) for r in runs]
            reached = [v for v in vals if v is not None]
            cells[method][dataset] = float(np.mean(reached)) if len(reached) == len(vals) else None
            comm[method][dataset] = (
                float(np.mean([r.algorithm.comm.total_mb() for r in runs])),
                float(np.mean([r.algorithm.comm.total_logical_mb() for r in runs])),
            )
            sims = [r.history.sim_seconds_to_target(target) for r in runs]
            sim_reached = [v for v in sims if v is not None]
            sim_to_target[method][dataset] = (
                float(np.mean(sim_reached)) if len(sim_reached) == len(sims) else None
            )
    return {
        "setting": setting,
        "datasets": list(datasets),
        "targets": targets,
        "cells": cells,
        "comm": comm,
        "sim_to_target": sim_to_target,
    }


#: The dynamic-population study's scenarios (the ``population`` artifact):
#: the same federation under a fixed roster, seeded churn, and late
#: joiners entering through each newcomer-assignment rule.  Times are in
#: population-clock units (one per round under the default ideal
#: network, :mod:`repro.fl.population`).
POPULATION_SCENARIOS = {
    "static": "static",
    "churn": "churn:session=4,gap=2",
    "growth/weights": "growth:join_start=1,join_every=1,assign=weights",
    "growth/random": "growth:join_start=1,join_every=1,assign=random",
    "growth/coldstart": "growth:join_start=1,join_every=1,assign=coldstart",
}


def table_population(
    setting: str,
    scale: ExperimentScale,
    datasets: list[str] = ("cifar10", "cifar100", "fmnist", "svhn"),
    method: str = "fedclust",
    scenarios: dict[str, str] | None = None,
    seeds: tuple[int, ...] = (0,),
    config_overrides: dict | None = None,
) -> dict:
    """The dynamic-population study: accuracy under churn, growth, ablations.

    Runs ``method`` (FedClust by default) on each dataset under every
    scenario of :data:`POPULATION_SCENARIOS` — fixed roster, seeded
    churn, and late joiners assigned by the paper's weight-distance
    rule vs the ``random``/``coldstart`` ablations — and reports final
    mean local accuracy plus the applied membership-event counts.  The
    ``static`` row is bit-for-bit the plain engine, so the delta to
    every other row is attributable to the population dynamics alone.
    """
    scenarios = dict(scenarios or POPULATION_SCENARIOS)
    cells: dict[str, dict[str, tuple[float, float]]] = {s: {} for s in scenarios}
    events: dict[str, dict[str, dict[str, int]]] = {s: {} for s in scenarios}
    for dataset in datasets:
        for scenario, spec in scenarios.items():
            runs = [
                run_cell(
                    dataset, method, setting, scale, seed=s,
                    config_overrides=config_overrides,
                    fl_options={"population": spec},
                )
                for s in seeds
            ]
            accs = [100.0 * r.final_accuracy for r in runs]
            cells[scenario][dataset] = mean_std(accs)
            counts = {"joins": 0, "leaves": 0, "returns": 0}
            for r in runs:
                counts["joins"] += len(r.history.population_events("join"))
                counts["leaves"] += len(r.history.population_events("leave"))
                counts["returns"] += len(r.history.population_events("return"))
            events[scenario][dataset] = counts
    return {
        "setting": setting,
        "datasets": list(datasets),
        "method": method,
        "cells": cells,
        "events": events,
    }


#: The adversarial-robustness study's attack columns (the ``robustness``
#: artifact): a clean federation next to the two byzantine behaviors at a
#: 20% adversary fraction (:mod:`repro.fl.attacks`).  The
#: ``clean`` column is bit-for-bit the plain engine under the default
#: ``weighted`` rule, so every other cell's delta is attributable to the
#: attack / defense pair alone.
ATTACK_SCENARIOS = {
    "clean": "none",
    "signflip": "signflip:frac=0.2",
    "scale": "scale:frac=0.2",
}

#: Aggregation rules the robustness grid compares (rows), default first
#: (:mod:`repro.fl.aggregation`).
ROBUST_AGGREGATORS = ("weighted", "median", "trimmed")


def table_robustness(
    setting: str,
    scale: ExperimentScale,
    datasets: list[str] = ("cifar10",),
    method: str = "fedclust",
    attacks: dict[str, str] | None = None,
    aggregators: tuple[str, ...] = ROBUST_AGGREGATORS,
    seeds: tuple[int, ...] = (0,),
    config_overrides: dict | None = None,
) -> dict:
    """The adversarial-robustness study: attack × aggregation-rule grid.

    Runs ``method`` (FedClust by default) under every combination of
    :data:`ATTACK_SCENARIOS` and :data:`ROBUST_AGGREGATORS` and reports
    final mean local accuracy, plus each attack's adversary count (from
    the seeded roster, identical across rules and seeds by
    construction).  The ``clean`` × ``weighted`` cell is bit-for-bit the
    plain engine.  Defaults to a single dataset: the grid is already
    ``len(attacks) × len(aggregators)`` federations per dataset.
    """
    attacks = dict(attacks or ATTACK_SCENARIOS)
    cells: dict[str, dict[str, dict[str, tuple[float, float]]]] = {
        a: {g: {} for g in aggregators} for a in attacks
    }
    adversaries: dict[str, dict[str, int]] = {a: {} for a in attacks}
    for dataset in datasets:
        for attack_name, attack_spec in attacks.items():
            for agg in aggregators:
                runs = [
                    run_cell(
                        dataset, method, setting, scale, seed=s,
                        config_overrides=config_overrides,
                        fl_options={"attack": attack_spec, "aggregator": agg},
                    )
                    for s in seeds
                ]
                accs = [100.0 * r.final_accuracy for r in runs]
                cells[attack_name][agg][dataset] = mean_std(accs)
                adversaries[attack_name][dataset] = len(
                    runs[-1].algorithm.attack.roster
                )
    return {
        "setting": setting,
        "datasets": list(datasets),
        "method": method,
        "aggregators": list(aggregators),
        "cells": cells,
        "adversaries": adversaries,
    }


def table_newcomers(
    setting: str,
    scale: ExperimentScale,
    datasets: list[str] = ("cifar10", "cifar100", "fmnist", "svhn"),
    newcomer_fraction: float = 0.2,
    personalize_epochs: int = 5,
    seeds: tuple[int, ...] = (0,),
    config_overrides: dict | None = None,
) -> dict:
    """Table 6: average local test accuracy of unseen (newcomer) clients.

    Protocol (paper §5.2): hold out 20% of clients, federate the rest with
    FedClust, then incorporate each newcomer via Alg. 2 with 5
    personalization epochs.
    """
    cells: dict[str, tuple[float, float]] = {}
    for dataset in datasets:
        accs = []
        for seed in seeds:
            fed = make_federation(dataset, setting, scale, seed=seed)
            k = max(1, int(round(newcomer_fraction * fed.num_clients)))
            base, newcomers = fed.split_newcomers(k)
            model_fn = make_model_fn(dataset, base, scale)
            cfg = scale.fl_config(**(config_overrides or {})).with_extra(
                **method_extras("fedclust", dataset, scale)
            )
            from repro.core.fedclust import FedClust

            algo = FedClust(base, model_fn, cfg, seed=seed)
            algo.run()
            results = incorporate_newcomers(
                algo, newcomers, personalize_epochs=personalize_epochs, seed=seed
            )
            accs.append(100.0 * float(np.mean([r.accuracy for r in results])))
        cells[dataset] = mean_std(accs)
    return {
        "setting": setting,
        "datasets": list(datasets),
        "cells": {"fedclust": cells},
        "personalize_epochs": personalize_epochs,
    }
