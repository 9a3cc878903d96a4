"""Command-line entry point: regenerate any paper table or figure.

Usage::

    python -m repro.experiments table1 [--scale bench|smoke|paper] [--seeds 0 1 2]
    python -m repro.experiments figure4 --dataset cifar10
    python -m repro.experiments all            # everything, bench scale
    python -m repro.experiments table1 --backend process --workers 4
    python -m repro.experiments table5 --codec int8 --network hetero
    python -m repro.experiments table1 --network stragglers --scheduler buffered
    python -m repro.experiments table5 --codec topk:frac=0.1
    python -m repro.experiments components     # list every registered component
    python -m repro.experiments components --check-docs   # CI drift gate
    python -m repro.experiments resume --checkpoint checkpoints/latest.ckpt
    python -m repro.experiments table1 --telemetry on --telemetry-dir runs/t1
    python -m repro.experiments trace runs/t1  # inspect a telemetry run dir

Artifacts print to stdout in the paper's row format.  The engine flags
(``--backend``, ``--codec``, ``--network``, ``--scheduler``, and their
option flags) are **auto-generated from the component registry**
(:mod:`repro.fl.registry`): every registered family contributes one
selection flag (accepting a name, or an inline spec like
``topk:frac=0.05``) and each declared option with a ``cli`` name
contributes its own flag.  Flag values are exported to the matching
``REPRO_*`` environment variables, which every ``FLConfig`` built by the
artifact runners resolves through ``"auto"`` — one switch covers tables
and figures alike.

``components`` lists every family / implementation / option with its
defaults, straight from the registry; ``--check-docs`` fails when the
README / docs flag tables have drifted from the declarations (a CI
step), and ``--write-docs`` regenerates them.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from repro.fl import registry

from repro.experiments import (
    ALL_METHODS,
    BENCH_SCALE,
    PAPER_SCALE,
    SMOKE_SCALE,
    figure1,
    figure3,
    figure4,
    format_accuracy_table,
    format_curves,
    format_figure1,
    format_figure4,
    format_population_table,
    format_robustness_table,
    format_scalar_table,
    table_accuracy,
    table_comm_cost,
    table_newcomers,
    table_population,
    table_robustness,
    table_rounds_to_target,
)
from repro.experiments.components import (
    CLI_FAMILIES,
    check_docs,
    components_text,
    family_option_specs,
    flag_table_markdown,
    write_docs,
)

SCALES = {"bench": BENCH_SCALE, "smoke": SMOKE_SCALE, "paper": PAPER_SCALE}
DATASETS = ["cifar10", "cifar100", "fmnist", "svhn"]
ARTIFACTS = [
    "figure1", "table1", "table2", "table3", "figure3",
    "table4", "table5", "figure4", "table6", "population", "robustness",
]
COMMANDS = ARTIFACTS + ["all", "components", "resume", "trace"]

logger = logging.getLogger("repro.experiments")

LOG_LEVELS = ("debug", "info", "warning", "error")


def _setup_logging(level: str) -> None:
    """Root-logger config for the CLI: stderr, ``LEVEL name: message``.

    ``force=True`` so repeated programmatic ``main()`` calls (tests, the
    ``all`` artifact loop) reconfigure cleanly instead of stacking
    handlers.  Artifact rows still go to stdout via ``print`` — logging
    is the progress/diagnostics channel, never the data channel.
    """
    logging.basicConfig(
        level=getattr(logging, level.upper()),
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
        force=True,
    )


def run_artifact(name: str, scale, seeds, datasets) -> str:
    no_local = [m for m in ALL_METHODS if m != "local"]
    if name == "figure1":
        return format_figure1(
            figure1(local_epochs=2, n_samples=600, image_size=scale.image_size),
            "Figure 1 — layer-wise distance matrices",
        )
    if name == "table1":
        return format_accuracy_table(
            table_accuracy("label_skew_20", scale, datasets, seeds=seeds),
            "Table 1 — accuracy (%), non-IID label skew 20%",
        )
    if name == "table2":
        return format_accuracy_table(
            table_accuracy("label_skew_30", scale, datasets, seeds=seeds),
            "Table 2 — accuracy (%), non-IID label skew 30%",
        )
    if name == "table3":
        return format_accuracy_table(
            table_accuracy("dirichlet_0.1", scale, datasets, seeds=seeds),
            "Table 3 — accuracy (%), non-IID Dirichlet(0.1)",
        )
    if name == "figure3":
        fig = figure3("label_skew_20", scale.scaled(rounds=max(scale.rounds, 10)),
                      datasets, seeds=seeds)
        return "\n\n".join(format_curves(fig, ds, every=2) for ds in datasets)
    if name == "table4":
        return format_scalar_table(
            table_rounds_to_target(
                "label_skew_20", scale.scaled(rounds=max(scale.rounds, 10)),
                datasets, methods=no_local, seeds=seeds,
            ),
            "Table 4 — rounds to target accuracy, label skew 20%",
            fmt="{:.0f}",
        )
    if name == "table5":
        return format_scalar_table(
            table_comm_cost(
                "label_skew_30", scale.scaled(rounds=max(scale.rounds, 10)),
                datasets, methods=no_local, seeds=seeds,
            ),
            "Table 5 — Mb to target accuracy, label skew 30%",
            fmt="{:.3f}",
        )
    if name == "figure4":
        parts = [
            format_figure4(figure4(ds, "label_skew_20", scale, num_lambdas=6))
            for ds in datasets
        ]
        return "\n\n".join(parts)
    if name == "table6":
        return format_accuracy_table(
            table_newcomers("label_skew_20", scale, datasets, seeds=seeds),
            "Table 6 — newcomer accuracy (%), label skew 20%",
        )
    if name == "population":
        return format_population_table(
            table_population(
                "label_skew_20", scale.scaled(rounds=max(scale.rounds, 8)),
                datasets, seeds=seeds,
            ),
            "Population study — accuracy (%) under churn/growth, label skew 20%",
        )
    if name == "robustness":
        return format_robustness_table(
            table_robustness(
                "label_skew_20", scale.scaled(rounds=max(scale.rounds, 8)),
                datasets[:1], seeds=seeds,
            ),
            "Robustness study — accuracy (%) under byzantine attacks, "
            "label skew 20%",
        )
    raise KeyError(name)


def _cli_options(fam) -> list:
    """The family's CLI-flagged options (family-level + per-impl, deduped)."""
    return [o for o in family_option_specs(fam) if o.cli]


def _add_registry_flags(parser: argparse.ArgumentParser) -> None:
    """One selection flag per family plus one flag per declared option —
    generated from the registry, never hand-maintained."""
    for fam_name in CLI_FAMILIES:
        fam = registry.get_family(fam_name)
        names = "/".join(sorted(fam.impls))
        hint = f" or an inline spec like '{fam.example}'" if fam.example else ""
        parser.add_argument(
            f"--{fam.name}", default=None, metavar="SPEC",
            help=f"{fam.label}: {names}{hint} (default: {fam.default}, or "
                 f"the {fam.env} environment variable)",
        )
        for o in _cli_options(fam):
            parser.add_argument(
                f"--{o.cli}", type=o.type, default=None,
                help=o.help + (f" [{'/'.join(o.only_for)} only]"
                               if o.only_for else ""),
            )


def _validate_registry_flags(parser: argparse.ArgumentParser, args) -> None:
    """Registry-driven flag validation + cross-flag consistency checks."""
    for fam_name in CLI_FAMILIES:
        fam = registry.get_family(fam_name)
        value = getattr(args, fam.name)
        if value is not None:
            try:
                registry.validate_spec(fam.name, value)
            except ValueError as exc:
                parser.error(str(exc))
        # an option flag without its implementation selected is a no-op
        # the user should hear about (generated from `only_for`)
        for o in _cli_options(fam):
            if getattr(args, o.cli.replace("-", "_")) is None or not o.only_for:
                continue
            selected = value
            if selected is None:
                selected = os.environ.get(fam.env, "").strip() or fam.default
            try:
                name = registry.spec_name(fam.name, selected)
            except ValueError as exc:  # malformed REPRO_* content
                parser.error(str(exc))
            if name != "auto" and name not in o.only_for:
                parser.error(
                    f"--{o.cli} only applies to the "
                    f"{'/'.join(sorted(o.only_for))} {fam.label}; also pass "
                    f"--{fam.name} {'|'.join(sorted(o.only_for))} "
                    f"(or set {fam.env})"
                )


def _registry_env(args) -> dict[str, str]:
    """``REPRO_*`` assignments for every registry flag that was passed."""
    assignments: dict[str, str] = {}
    for fam_name in CLI_FAMILIES:
        fam = registry.get_family(fam_name)
        value = getattr(args, fam.name)
        if value is not None:
            assignments[fam.env] = str(value)
        for o in _cli_options(fam):
            flag_value = getattr(args, o.cli.replace("-", "_"))
            if flag_value is not None and o.env:
                assignments[o.env] = str(flag_value)
    return assignments


def _all_registry_envs() -> list[str]:
    """Every env var the registry declares (family and option level)."""
    envs: list[str] = []
    for fam in registry.families():
        if fam.env:
            envs.append(fam.env)
        for o in fam.options:
            if o.env:
                envs.append(o.env)
        for impl in fam.impls.values():
            for o in impl.options:
                if o.env:
                    envs.append(o.env)
    return envs


def _run_components(args) -> int:
    if args.check_docs:
        problems = check_docs()
        if problems:
            for problem in problems:
                print(problem, file=sys.stderr)
            return 1
        print("docs flag tables match the component registry")
        return 0
    if args.write_docs:
        touched = write_docs()
        print("updated: " + (", ".join(touched) if touched else "nothing"))
        return 0
    print(flag_table_markdown() if args.markdown else components_text())
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the FedClust paper's tables and figures.",
    )
    parser.add_argument("artifact", choices=COMMANDS)
    parser.add_argument(
        "target", nargs="?", default=None,
        help="for `trace`: a telemetry run directory (--telemetry-dir) "
             "or an events.jsonl file",
    )
    parser.add_argument("--scale", choices=sorted(SCALES), default="bench")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    parser.add_argument("--dataset", choices=DATASETS, action="append",
                        help="restrict to specific datasets (repeatable)")
    parser.add_argument(
        "--log-level", choices=LOG_LEVELS,
        default=os.environ.get("REPRO_LOG_LEVEL", "info").lower(),
        help="logging verbosity on stderr (or REPRO_LOG_LEVEL; artifact "
             "rows always print to stdout)",
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true",
        help="shorthand for --log-level error",
    )
    _add_registry_flags(parser)
    resume_group = parser.add_argument_group("resume subcommand")
    resume_group.add_argument(
        "--checkpoint", metavar="PATH", default=None,
        help="checkpoint file to resume (round-NNNNNN.ckpt or latest.ckpt "
             "written by --checkpoint-every / REPRO_CHECKPOINT_EVERY)",
    )
    group = parser.add_argument_group("components subcommand")
    group.add_argument("--markdown", action="store_true",
                       help="print the docs flag table instead of the "
                            "plain listing")
    group.add_argument("--check-docs", action="store_true",
                       help="exit non-zero when README/docs flag tables "
                            "drift from the registry (CI gate)")
    group.add_argument("--write-docs", action="store_true",
                       help="regenerate the README/docs flag tables "
                            "in place")
    args = parser.parse_args(argv)
    _setup_logging("error" if args.quiet else args.log_level)

    if args.artifact == "components":
        return _run_components(args)
    if args.artifact == "trace":
        if args.target is None:
            parser.error("trace requires a run directory or events.jsonl path")
        return _run_trace(args.target)
    if args.target is not None:
        parser.error(f"unexpected argument {args.target!r} "
                     f"(only `trace` takes a target)")
    if args.artifact == "resume" and args.checkpoint is None:
        parser.error("resume requires --checkpoint PATH")

    _validate_registry_flags(parser, args)

    # Every FLConfig built below defaults to backend/codec/network/
    # scheduler = "auto", which resolve from the REPRO_* variables — one
    # switch covers tables and figures alike.  Saved and restored so
    # programmatic main() calls don't leak the choice into later
    # invocations in the same process.
    saved_env = {key: os.environ.get(key) for key in _all_registry_envs()}
    os.environ.update(_registry_env(args))

    scale = SCALES[args.scale]
    datasets = args.dataset or DATASETS
    names = ARTIFACTS if args.artifact == "all" else [args.artifact]
    try:
        if args.artifact == "resume":
            return _run_resume(args.checkpoint)
        _run_all(names, scale, args.seeds, datasets)
    finally:
        for key, value in saved_env.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    return 0


def _run_trace(target: str) -> int:
    """Inspect a telemetry run directory (or bare events.jsonl file)."""
    from repro.experiments.trace_view import inspect_run

    try:
        print(inspect_run(target))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _run_resume(path: str) -> int:
    """Resume a checkpointed experiment cell and print its summary."""
    from repro.experiments.runner import resume_cell
    from repro.fl.checkpoint import load_checkpoint

    ckpt = load_checkpoint(path)
    meta = ckpt.meta or {}
    label = "/".join(
        str(meta[k]) for k in ("dataset", "method", "setting") if k in meta
    )
    logger.info(
        "resuming %s from round %d: %s", label or "checkpoint", ckpt.round,
        path,
    )
    result = resume_cell(ckpt)
    hist = result.history
    print(
        f"resumed run complete: {result.method} on {result.dataset} "
        f"({result.setting}, seed {result.seed}) — "
        f"{len(hist.records)} rounds recorded, "
        f"final accuracy {result.final_accuracy:.4f}"
    )
    return 0


def _run_all(names, scale, seeds, datasets) -> None:
    for name in names:
        print(run_artifact(name, scale, tuple(seeds), datasets))
        print()


if __name__ == "__main__":
    sys.exit(main())
