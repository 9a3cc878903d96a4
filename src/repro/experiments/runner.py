"""Experiment runner: one cell = (dataset, method, setting, scale, seed)."""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass

import numpy as np

from repro.algorithms import build_algorithm
from repro.experiments.configs import (
    ExperimentScale,
    make_federation,
    make_model_fn,
    method_extras,
)
from repro.fl import registry
from repro.fl.history import History

__all__ = ["CellResult", "build_cell", "run_cell", "run_methods", "resume_cell"]

logger = logging.getLogger("repro.experiments")


@dataclass
class CellResult:
    """One completed federation plus its identity."""

    dataset: str
    method: str
    setting: str
    seed: int
    history: History
    algorithm: object

    @property
    def final_accuracy(self) -> float:
        return self.history.final_accuracy()


def build_cell(
    dataset: str,
    method: str,
    setting: str,
    scale: ExperimentScale,
    seed: int = 0,
    config_overrides: dict | None = None,
    extra_overrides: dict | None = None,
    fl_options: dict | None = None,
    **unknown,
):
    """Construct one cell's ready-to-run algorithm without running it.

    The construction half of :func:`run_cell`, exposed so callers can
    hook the algorithm before execution (the crash-injection harness
    sets ``on_checkpoint``) or resume it (``algo.run(resume_from=...)``).
    The cell's coordinates — everything needed to rebuild an identical
    algorithm — are recorded in ``algo.checkpoint_meta``, so every
    checkpoint the run writes is self-describing and the ``resume`` CLI
    can reconstruct the cell from the file alone.

    Engine knobs go in ``fl_options`` only; any other keyword raises a
    ``TypeError`` that lists the ``fl_options`` keys.
    """
    if unknown:
        raise TypeError(
            f"build_cell() got unexpected keyword arguments {sorted(unknown)}; "
            f"pass engine knobs via fl_options (known keys: "
            f"{sorted(registry.flat_option_targets())})"
        )
    fl_options = dict(fl_options or {})
    overrides = dict(config_overrides or {})
    option_fields, option_extras = registry.apply_options(fl_options)
    overrides.update(option_fields)
    fed = make_federation(dataset, setting, scale, seed=seed)
    model_fn = make_model_fn(dataset, fed, scale)
    cfg = scale.fl_config(**overrides)
    extras = method_extras(method, dataset, scale)
    extras.update(option_extras)
    extras.update(extra_overrides or {})
    if extras:
        cfg = cfg.with_extra(**extras)
    algo = build_algorithm(method, fed, model_fn, cfg, seed=seed)
    algo.checkpoint_meta = {
        "dataset": dataset,
        "method": method,
        "setting": setting,
        "scale": asdict(scale),
        "seed": int(seed),
        "config_overrides": dict(config_overrides or {}),
        "extra_overrides": dict(extra_overrides or {}),
        "fl_options": fl_options,
    }
    return algo


def run_cell(
    dataset: str,
    method: str,
    setting: str,
    scale: ExperimentScale,
    seed: int = 0,
    config_overrides: dict | None = None,
    extra_overrides: dict | None = None,
    fl_options: dict | None = None,
    resume_from=None,
    **unknown,
) -> CellResult:
    """Run one (dataset, method, setting) cell at the given scale.

    Args:
        dataset: dataset key (``cifar10``/``cifar100``/``fmnist``/``svhn``).
        method: algorithm registry name (see ``repro.algorithms``).
        setting: heterogeneity setting key (``NONIID_SETTINGS``).
        scale: size knobs (``PAPER_SCALE``/``BENCH_SCALE``/``SMOKE_SCALE``).
        seed: root seed reproducing the entire cell bit-for-bit.
        config_overrides: keyword overrides for the cell's ``FLConfig``.
        extra_overrides: merged into ``FLConfig.extra`` after the method's
            defaults.
        fl_options: flat engine options, keyed by registry family name
            (``{"codec": "topk", "scheduler": "buffered:bs=8"}``) or
            option name (``{"topk_frac": 0.1, "net_mbps": 10.0,
            "prox_mu": 0.01}``) — any key a registered component
            declares (:func:`repro.fl.registry.apply_options`); unknown
            keys raise with the known-key list.
        resume_from: checkpoint path (or loaded
            :class:`~repro.fl.checkpoint.Checkpoint`) to resume from
            instead of starting at round 1; the cell configuration must
            match the checkpoint's fingerprint.
        **unknown: rejected with a ``TypeError`` that points at
            ``fl_options``.

    Returns:
        The completed :class:`CellResult`.
    """
    algo = build_cell(
        dataset, method, setting, scale, seed=seed,
        config_overrides=config_overrides, extra_overrides=extra_overrides,
        fl_options=fl_options, **unknown,
    )
    logger.debug(
        "running cell %s/%s/%s seed=%d rounds=%d%s",
        dataset, method, setting, seed, algo.config.rounds,
        "" if resume_from is None else " (resumed)",
    )
    history = algo.run(resume_from=resume_from)
    logger.info(
        "cell %s/%s/%s seed=%d done: %d rounds, final accuracy %.4f",
        dataset, method, setting, seed, len(history.records),
        history.final_accuracy(),
    )
    return CellResult(dataset, method, setting, seed, history, algo)


def resume_cell(checkpoint) -> CellResult:
    """Resume an experiments-runner cell from its checkpoint file.

    Rebuilds the cell from the provenance the runner stored in the
    checkpoint's ``meta`` (dataset, method, setting, scale, seed, and
    every override), then runs it to completion from the saved round.

    Raises:
        ValueError: if the checkpoint carries no runner provenance (it
            was saved by a hand-built run — resume those with
            ``algo.run(resume_from=...)`` directly), or if the rebuilt
            configuration no longer matches the checkpoint's fingerprint
            (e.g. conflicting ``REPRO_*`` environment overrides).
    """
    from repro.fl.checkpoint import Checkpoint, load_checkpoint

    ckpt = (
        checkpoint
        if isinstance(checkpoint, Checkpoint)
        else load_checkpoint(checkpoint)
    )
    meta = ckpt.meta
    if not meta or "dataset" not in meta:
        raise ValueError(
            "checkpoint carries no experiment-cell provenance; it was not "
            "written by the experiments runner — resume it with "
            "FederatedAlgorithm.run(resume_from=...) on a hand-built cell"
        )
    return run_cell(
        meta["dataset"],
        meta["method"],
        meta["setting"],
        ExperimentScale(**meta["scale"]),
        seed=meta["seed"],
        config_overrides=meta.get("config_overrides"),
        extra_overrides=meta.get("extra_overrides"),
        fl_options=meta.get("fl_options"),
        resume_from=ckpt,
    )


def run_methods(
    dataset: str,
    methods: list[str],
    setting: str,
    scale: ExperimentScale,
    seeds: tuple[int, ...] = (0,),
    **kwargs,
) -> dict[str, list[CellResult]]:
    """Run several methods (each over ``seeds``) on one dataset/setting.

    Extra keyword arguments (``config_overrides``, ``extra_overrides``,
    ``fl_options``) are forwarded to :func:`run_cell`.
    """
    out: dict[str, list[CellResult]] = {}
    for method in methods:
        out[method] = [
            run_cell(dataset, method, setting, scale, seed=s, **kwargs) for s in seeds
        ]
    return out


def mean_std(values: list[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=np.float64)
    return float(arr.mean()), float(arr.std())
