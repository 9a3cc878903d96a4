"""Unified component registry: one declaration per pluggable component.

Every pluggable family of the engine — client-execution **backends**,
upload **codecs**, simulated **networks**, control-loop **schedulers**,
and the **algorithms** themselves — registers its implementations here
via the :func:`register` decorator, declaring each tunable option once
(:class:`OptionSpec`: name, type, bounds, default, env var, CLI flag,
inline-spec alias).  From that single declaration the engine derives
everything that used to be hand-rolled four times per family:

* ``FLConfig`` validation (:func:`validate_config` replaces the
  per-family ``if`` ladders),
* one shared :func:`resolve` that uniformly handles explicit names,
  ``"auto"``/environment resolution (``REPRO_<FAMILY>`` names the
  implementation, ``REPRO_<OPTION>`` tunes a knob), and **inline spec
  strings** such as ``"topk:frac=0.05"`` or ``"buffered:bs=8,sa=0.5"``,
* the experiments CLI's ``--codec`` / ``--topk-frac`` / ... flags
  (auto-generated in ``repro.experiments.__main__``),
* the ``python -m repro.experiments components`` listing and the
  README/docs flag tables (``repro.experiments.components``), and
* the ``run_cell(..., fl_options={...})`` flat-option path
  (:func:`apply_options`).

Third parties add a component with **one declaration**::

    from repro.fl.registry import opt, register
    from repro.fl.codecs import Codec

    @register("codec", "randk", options=[
        opt("randk_frac", float, 0.05, low=0.0, high=1.0,
            low_inclusive=False, alias="frac",
            help="fraction of delta entries transmitted, drawn at random"),
    ])
    class RandKCodec(Codec):
        name = "randk"
        ...

and the codec is immediately selectable via ``FLConfig(codec="randk")``,
``REPRO_CODEC=randk``, ``--codec randk``, or ``codec="randk:frac=0.1"``,
is listed by ``python -m repro.experiments components``, and has its
option validated everywhere.

Spec strings
------------

A *spec string* selects an implementation and may carry inline option
assignments: ``"name"`` or ``"name:key=value,key=value"``.  Keys are an
option's canonical name or its short alias (``frac`` for ``topk_frac``,
``bs`` for ``buffer_size``).  ``"auto"`` defers to the family's
``REPRO_<FAMILY>`` environment variable (which may itself be a full spec
string), falling back to the family default.  Precedence, least to most
specific: option default < ``FLConfig`` field / ``extra`` entry <
``REPRO_<OPTION>`` env var (consulted only when the family resolved
through ``"auto"``) < inline assignment.

Resolution never mutates state; building an instance is each family's
``make_*`` factory's job (they all delegate here).  A factory hands the
component :attr:`Resolved.options`, already defaulted and bounds-checked,
so no component reads ``FLConfig.extra`` or repeats a declared default
or bound (an algorithm resolves its own, in ``FederatedAlgorithm``).
"""

from __future__ import annotations

import importlib
import os
from dataclasses import dataclass, field as dataclass_field
from typing import Any, Iterable

__all__ = [
    "SCALE_LR",
    "OptionSpec",
    "opt",
    "ComponentSpec",
    "FamilySpec",
    "register",
    "family_options",
    "get_family",
    "families",
    "classes",
    "known_prefix_keys",
    "Resolved",
    "resolve",
    "resolve_field_option",
    "spec_name",
    "validate_config",
    "validate_spec",
    "apply_options",
    "flat_option_targets",
]


class _ScaleLR:
    """Sentinel default: the experiment harness substitutes the running
    scale's learning rate (``repro.experiments.configs.method_extras``)."""

    def __repr__(self) -> str:
        return "scale.lr"


#: sentinel for ``extras_defaults`` values that track the scale's ``lr``
SCALE_LR = _ScaleLR()


# ----------------------------------------------------------------------
# declarations
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class OptionSpec:
    """One declared component option (the single source of truth).

    Attributes:
        name: canonical key — the ``FLConfig`` field name, or the
            ``FLConfig.extra`` key for prefix-namespaced knobs
            (``net_mbps``, ``sched_concurrency``).
        type: value type (``int``/``float``/``str``); drives casting of
            env-var and inline-spec strings, with error messages naming
            the source.
        default: the value used when nothing sets the option.
        help: one-line description (CLI ``--help``, docs tables).
        low / high: numeric bounds; ``low_inclusive``/``high_inclusive``
            pick between ``[``/``(`` semantics.
        choices: closed set of legal values (string options); on an
            ``int``/``float`` option, the names it takes besides a
            number within ``low``/``high`` (``lam``: ``'auto'`` or a
            float >= 0).
        env: ``REPRO_*`` environment variable tuning this option.
        cli: experiments-CLI flag name without the leading dashes
            (``"topk-frac"``); ``None`` keeps the option off the CLI.
        field: ``FLConfig`` field backing the option; ``None`` means the
            option lives in ``FLConfig.extra`` (prefix families) or is
            algorithm-specific.
        alias: short inline-spec key (``"frac"``, ``"bs"``).
        only_for: implementation names the option applies to (drives the
            CLI's "--x only applies to ..." cross-checks); ``None`` =
            the whole family.
        inline: whether the option may appear in an inline spec string.
        optional: whether ``None`` is a legal resolved value.
        env_mode: when the env var applies — ``"auto"`` (family resolved
            through ``"auto"``: env wins) or ``"fill"`` (fills ``None``
            regardless of how the family was selected — ``deadline``).
    """

    name: str
    type: type = float
    default: Any = None
    help: str = ""
    low: float | None = None
    high: float | None = None
    low_inclusive: bool = True
    high_inclusive: bool = True
    choices: tuple | None = None
    env: str | None = None
    cli: str | None = None
    field: str | None = None
    alias: str | None = None
    only_for: tuple[str, ...] | None = None
    inline: bool = True
    optional: bool = False
    env_mode: str = "auto"


def opt(name: str, type: type = float, default: Any = None, **kwargs) -> OptionSpec:
    """Terse :class:`OptionSpec` constructor for registration sites."""
    return OptionSpec(name=name, type=type, default=default, **kwargs)


@dataclass(frozen=True)
class ComponentSpec:
    """One registered implementation of a family."""

    family: str
    name: str
    cls: type
    options: tuple[OptionSpec, ...] = ()
    help: str = ""
    #: experiment-harness ``FLConfig.extra`` defaults for this component
    #: (``repro.experiments.configs.method_extras``); may differ from the
    #: code-level option defaults (e.g. Per-FedAvg's ``beta`` follows the
    #: harness scale's ``lr``).
    extras_defaults: dict = dataclass_field(default_factory=dict)


@dataclass
class FamilySpec:
    """One pluggable family (backend / codec / network / scheduler / ...)."""

    name: str
    #: label used in error messages ("execution backend", "network profile")
    label: str
    #: ``FLConfig`` field holding the family's spec string (None: the
    #: family is not config-selected, e.g. algorithms)
    field: str | None
    #: ``REPRO_*`` env var naming the implementation in ``"auto"`` mode
    env: str | None
    #: implementation used when nothing selects one
    default: str | None
    #: ``FLConfig.extra`` prefix namespacing the family's extra knobs
    prefix: str | None
    #: module whose import registers the implementations (lazy-loaded)
    module: str
    #: one-line family description (CLI help, docs tables)
    doc: str = ""
    #: example inline spec string for error messages and docs
    example: str = ""
    options: tuple[OptionSpec, ...] = ()
    impls: dict[str, ComponentSpec] = dataclass_field(default_factory=dict)
    _loaded: bool = False


_FAMILIES: dict[str, FamilySpec] = {}


def _declare(**kwargs) -> None:
    fam = FamilySpec(**kwargs)
    _FAMILIES[fam.name] = fam


_declare(
    name="backend",
    label="execution backend",
    field="backend",
    env="REPRO_BACKEND",
    default="serial",
    prefix=None,
    module="repro.fl.execution",
    doc=(
        "how the per-round client sweep executes: `serial` runs one client "
        "after another (each a cohort of one), `vector` batches same-shape "
        "clients into cohorts whose largest step buffer fits 4 MiB "
        "(`COHORT_STEP_BYTES`; a larger group runs as near-equal member "
        "blocks); both run the one task runner, and the tests check that "
        "their results are equal bit for bit"
    ),
)
_declare(
    name="codec",
    label="codec",
    field="codec",
    env="REPRO_CODEC",
    default="none",
    prefix=None,
    module="repro.fl.codecs",
    doc=(
        "upload representation; `none` meters the parameters in their own "
        "dtype (4 bytes each for float32 models), `fp16` and `int8` "
        "(unbiased stochastic quantization) send 4x and ~8x fewer bytes "
        "than the float64 delta (2x and ~4x fewer than `none` for float32 "
        "models), `topk` keeps the largest entries with per-client "
        "error-feedback residuals"
    ),
    example="topk:frac=0.05",
)
_declare(
    name="network",
    label="network profile",
    field="network",
    env="REPRO_NETWORK",
    default="ideal",
    prefix="net_",
    module="repro.fl.network",
    doc=(
        "per-client bandwidth/latency/compute draws (seeded); `flaky` "
        "adds per-round availability"
    ),
    example="stragglers:straggler_factor=8",
)
_declare(
    name="scheduler",
    label="scheduler",
    field="scheduler",
    env="REPRO_SCHEDULER",
    default="sync",
    prefix="sched_",
    module="repro.fl.scheduler",
    doc=(
        "the control loop itself: `sync` waits for every survivor each "
        "round (the seed loop, bit-for-bit); `semisync` over-selects and "
        "cancels the straggler tail; `buffered` aggregates asynchronously "
        "on the virtual clock with staleness-discounted weights"
    ),
    example="buffered:bs=8,sa=0.5",
)
_declare(
    name="population",
    label="population model",
    field="population",
    env="REPRO_POPULATION",
    default="static",
    prefix="pop_",
    module="repro.fl.population",
    doc=(
        "who is *in* the federation over virtual time: `static` fixes the "
        "round-0 roster (the seed behaviour); `churn` gives clients seeded "
        "up/down sessions; `growth` holds out late joiners that arrive at "
        "configured sim-times and enter through the paper's newcomer "
        "assignment; `trace` replays an explicit event list"
    ),
    example="churn:session=20,gap=5",
)
_declare(
    name="telemetry",
    label="telemetry sink",
    field="telemetry",
    env="REPRO_TELEMETRY",
    default="off",
    prefix="tele_",
    module="repro.fl.telemetry",
    doc=(
        "run observability: `on` records wall/virtual-clock spans, a "
        "metrics registry snapshotted into every RoundRecord, and a "
        "replayable typed event log (JSONL + Chrome-trace export); "
        "`off` (the default) is a shared no-op object — observation "
        "never changes results"
    ),
    example="on:progress=1",
)
_declare(
    name="attack",
    label="attack model",
    field="attack",
    env="REPRO_ATTACK",
    default="none",
    prefix="atk_",
    module="repro.fl.attacks",
    doc=(
        "byzantine client behaviour: a seeded `atk_frac` subset of the "
        "roster poisons its uploads before the wire layer — `signflip` "
        "reverses the delta, `scale` boosts the delta for model "
        "replacement; `none` (the default) is a shared no-op object, "
        "bit-for-bit the seed behaviour"
    ),
    example="signflip:frac=0.2",
)
_declare(
    name="aggregator",
    label="aggregation rule",
    field="aggregator",
    env="REPRO_AGGREGATOR",
    default="weighted",
    prefix="agg_",
    module="repro.fl.aggregation",
    doc=(
        "how client updates combine on the server (per cluster, for the "
        "clustered methods): `weighted` is the seed's n_samples-weighted "
        "mean, bit-for-bit; `median`/`trimmed` are the coordinate-wise "
        "robust rules"
    ),
    example="trimmed:trim=0.2",
)
_declare(
    name="topology",
    label="aggregation topology",
    field="topology",
    env="REPRO_TOPOLOGY",
    default="flat",
    prefix="topo_",
    module="repro.fl.topology",
    doc=(
        "how the cohort's updates reach the cloud aggregator: `flat` "
        "(the default) hands the scheduler's delivered list straight to "
        "the algorithm, bit-for-bit the seed behaviour; `hier` shards "
        "the cohort over `topo_edges` seeded edge aggregators (client→"
        "edge assignment is a pure function of the run seed, stable "
        "under churn), reduces each edge's members with the configured "
        "`aggregator` as a stream, meters the edge→cloud hop through "
        "the CommTracker, and forwards one summary per edge"
    ),
    example="hier:edges=4",
)
_declare(
    name="algorithm",
    label="algorithm",
    field=None,
    env=None,
    default=None,
    prefix=None,
    module="repro.algorithms",
    doc=(
        "the federated method itself (selected per experiment cell, not "
        "via FLConfig); knobs live un-prefixed in FLConfig.extra"
    ),
    example="",
)


def get_family(name: str) -> FamilySpec:
    """The family's spec, with its registering module imported."""
    try:
        fam = _FAMILIES[name]
    except KeyError:
        raise KeyError(
            f"unknown component family {name!r}; known: {sorted(_FAMILIES)}"
        ) from None
    if not fam._loaded:
        # Reentrant-safe: a module calling back into the registry while it
        # is itself being imported hits sys.modules, not a re-execution.
        importlib.import_module(fam.module)
        fam._loaded = True
    return fam


def families() -> list[FamilySpec]:
    """All families, registering modules imported, in declaration order."""
    return [get_family(name) for name in _FAMILIES]


def register(
    family: str,
    name: str,
    *,
    options: Iterable[OptionSpec] = (),
    help: str = "",
    extras_defaults: dict | None = None,
):
    """Class decorator registering one implementation of ``family``.

    Args:
        family: family name (``"backend"``, ``"codec"``, ``"network"``,
            ``"scheduler"``, ``"algorithm"``).
        name: registry name the implementation is selected by.
        options: the implementation's :class:`OptionSpec` declarations.
        help: one-line description (defaults to the first line of the
            class docstring).
        extras_defaults: experiment-harness ``FLConfig.extra`` defaults
            (algorithms only; see :attr:`ComponentSpec.extras_defaults`).

    Registration is idempotent: re-registering a name replaces the spec
    (so ``importlib.reload`` in tests cannot double-register).
    """
    if name == "auto":
        raise ValueError("'auto' is reserved and cannot name a component")
    fam = _FAMILIES[family]  # no lazy load: we're likely mid-import of it

    def deco(cls):
        lines = (cls.__doc__ or "").strip().splitlines()
        doc = help or (lines[0].rstrip(".") if lines else "")
        fam.impls[name] = ComponentSpec(
            family=family,
            name=name,
            cls=cls,
            options=tuple(options),
            help=doc,
            extras_defaults=dict(extras_defaults or {}),
        )
        return cls

    return deco


def family_options(family: str, options: Iterable[OptionSpec]) -> None:
    """Declare family-level options shared by every implementation."""
    fam = _FAMILIES[family]
    merged = {o.name: o for o in fam.options}
    merged.update({o.name: o for o in options})
    fam.options = tuple(merged.values())


def classes(family: str) -> dict[str, type]:
    """``{name: class}`` for the family (the legacy registry-dict shape)."""
    fam = get_family(family)
    return {name: spec.cls for name, spec in sorted(fam.impls.items())}


def _options_for(fam: FamilySpec, impl: ComponentSpec | None) -> list[OptionSpec]:
    """Family-level options plus the implementation's, deduped by name
    (an implementation may redeclare a family option with its own
    default, as ``flaky`` does ``net_availability``)."""
    merged = {o.name: o for o in fam.options}
    if impl is not None:
        merged.update({o.name: o for o in impl.options})
    return list(merged.values())


def _all_options(fam: FamilySpec) -> list[OptionSpec]:
    """Every option any implementation of the family declares."""
    merged = {o.name: o for o in fam.options}
    for impl in fam.impls.values():
        merged.update({o.name: o for o in impl.options})
    return list(merged.values())


def known_prefix_keys(family: str) -> frozenset[str]:
    """The family's legal ``FLConfig.extra`` keys (its prefix namespace)."""
    fam = get_family(family)
    if not fam.prefix:
        return frozenset()
    return frozenset(
        o.name for o in _all_options(fam) if o.name.startswith(fam.prefix)
    )


# ----------------------------------------------------------------------
# casting + validation
# ----------------------------------------------------------------------
def _num(x: float) -> str:
    return str(int(x)) if float(x) == int(x) else str(x)


def _cast(option: OptionSpec, raw: str, source: str) -> Any:
    """Cast a string from the env or an inline spec, naming the source."""
    if option.type is int:
        try:
            return int(raw)
        except ValueError:
            raise ValueError(f"{source} must be an integer, got {raw!r}") from None
    if option.type is float:
        try:
            return float(raw)
        except ValueError:
            raise ValueError(f"{source} must be a float, got {raw!r}") from None
    return str(raw)


def check_option(option: OptionSpec, value: Any, label: str | None = None) -> None:
    """Validate one resolved value against the option's declared contract.

    Raises:
        ValueError: out-of-bounds or not one of ``choices``, with the
            same message shapes the hand-written validators used
            (``"topk_frac must be in (0, 1], got 0.0"``).
    """
    label = label or option.name
    if value is None:
        if option.optional:
            return
        raise ValueError(f"{label} must be set")
    if option.choices is not None:
        if str(value).strip().lower() in option.choices:
            return
        known = "/".join(f"'{c}'" for c in option.choices)
        if option.type is str:
            raise ValueError(f"{label} must be one of {known}, got {value!r}")
        try:
            value = option.type(value)
        except (TypeError, ValueError):
            raise ValueError(
                f"{label} must be {known} or a number, got {value!r}"
            ) from None
    if option.type in (int, float):
        value = option.type(value)
        low, high = option.low, option.high
        if low is not None and high is not None:
            lb = "[" if option.low_inclusive else "("
            rb = "]" if option.high_inclusive else ")"
            ok = (value >= low if option.low_inclusive else value > low) and (
                value <= high if option.high_inclusive else value < high
            )
            if not ok:
                raise ValueError(
                    f"{label} must be in {lb}{_num(low)}, {_num(high)}{rb}, "
                    f"got {value}"
                )
        elif low is not None:
            if option.low_inclusive:
                if value < low:
                    raise ValueError(f"{label} must be >= {_num(low)}, got {value}")
            elif value <= low:
                if low == 0:
                    raise ValueError(f"{label} must be positive, got {value}")
                raise ValueError(f"{label} must be > {_num(low)}, got {value}")


# ----------------------------------------------------------------------
# spec-string parsing
# ----------------------------------------------------------------------
def _parse_spec(fam: FamilySpec, spec: Any) -> tuple[str, dict[str, str]]:
    """``"name[:k=v,...]"`` → ``(name, {key: raw_value})`` (lower-cased)."""
    if not isinstance(spec, str):
        # str() coercion would be a trap: str(None) == "none" is a
        # registered codec, so a threaded-through unset Optional would
        # silently select it instead of erroring.
        raise ValueError(
            f"{fam.label} spec must be a string, got {spec!r}"
        )
    text = spec.strip().lower()
    name, _, tail = text.partition(":")
    name = name.strip()
    assigns: dict[str, str] = {}
    if tail:
        for part in tail.split(","):
            key, eq, raw = part.partition("=")
            key, raw = key.strip(), raw.strip()
            if not eq or not key or not raw:
                raise ValueError(
                    f"invalid {fam.label} spec {text!r}: expected "
                    f"'name:key=value,...' (e.g. {fam.example!r})"
                )
            assigns[key] = raw
    return name, assigns


def _match_inline(
    fam: FamilySpec,
    impl_name: str,
    options: list[OptionSpec],
    key: str,
    where: str,
) -> OptionSpec:
    """Match one inline-spec key; ``where`` names the spec's source
    (``"codec spec 'topk:...'"``, possibly ``"... (from REPRO_CODEC)"``)."""
    by_key = {}
    for o in options:
        if not o.inline:
            continue
        by_key[o.name] = o
        if o.alias:
            by_key[o.alias] = o
    got = by_key.get(key)
    if got is None:
        raise ValueError(
            f"unknown option {key!r} in {where}; "
            f"known options: {sorted(by_key)}"
        )
    if got.only_for and impl_name not in got.only_for:
        # an explicitly-spelled knob the selected implementation would
        # silently discard is a user error, same as the CLI cross-checks
        raise ValueError(
            f"option {key!r} in {where} only applies to "
            f"{'/'.join(sorted(got.only_for))}, not {impl_name!r}"
        )
    return got


def _auto_inline_message(fam: FamilySpec) -> str:
    example = f", e.g. {fam.example!r}" if fam.example else ""
    return (
        f"inline options are not allowed on an 'auto' {fam.label} spec "
        f"(which implementation they apply to is unknown until the "
        f"{fam.env} environment variable resolves); name the "
        f"implementation instead{example}"
    )


def _unknown_impl(fam: FamilySpec, name: str) -> ValueError:
    via = []
    if fam.field:
        via.append(f"FLConfig.{fam.field}")
    if fam.env:
        via.append(f"the {fam.env} environment variable")
    if fam.example:
        via.append(f"an inline spec like {fam.example!r}")
    if len(via) > 1:
        via = [", ".join(via[:-1]), via[-1]]
    hint = f"; select via {' or '.join(via)}" if via else ""
    return ValueError(
        f"unknown {fam.label} {name!r}; known {fam.label}s: "
        f"{sorted(fam.impls)} (or 'auto'){hint}"
    )


# ----------------------------------------------------------------------
# resolution
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Resolved:
    """Outcome of :func:`resolve`: which implementation, with what knobs."""

    family: FamilySpec
    impl: ComponentSpec
    #: resolved implementation name (never ``"auto"``)
    name: str
    #: every applicable option's final value, canonical-name-keyed —
    #: what the family's factory hands the component it builds
    options: dict[str, Any]


def resolve(family: str, spec: Any = None, config: Any = None) -> Resolved:
    """Resolve one family selection to an implementation plus options.

    Args:
        family: family name.
        spec: explicit spec string (wins over the config field); ``None``
            defers to ``config.<field>``, then the family default.
        config: an ``FLConfig`` supplying the spec field, option fields,
            and ``extra`` knobs (optional).

    Returns:
        The :class:`Resolved` selection; construction stays with the
        family's factory.

    Raises:
        ValueError: unknown implementation, unknown inline option, bad
            cast (message names the env var or spec string), or an
            out-of-bounds value.
    """
    fam = get_family(family)
    if spec is None:
        if config is not None and fam.field:
            spec = getattr(config, fam.field, fam.default)
        else:
            spec = fam.default
    name, inline_raw = _parse_spec(fam, spec)
    where = f"{fam.label} spec {str(spec).strip().lower()!r}"
    if name == "auto":
        if inline_raw:
            raise ValueError(_auto_inline_message(fam))
        env_raw = os.environ.get(fam.env, "").strip() if fam.env else ""
        if env_raw:
            env_name, inline_raw = _parse_spec(fam, env_raw)
            if env_name == "auto":
                # an env var set to "auto" means "no opinion", not a
                # (nonexistent) implementation named auto
                if inline_raw:
                    raise ValueError(_auto_inline_message(fam))
                env_name = ""
            name = env_name or fam.default
            where = (
                f"{fam.label} spec {env_raw.lower()!r} (from {fam.env})"
            )
        else:
            name = fam.default
        via_auto = True
    else:
        via_auto = False
    impl = fam.impls.get(name)
    if impl is None:
        raise _unknown_impl(fam, name)

    options = _options_for(fam, impl)
    values: dict[str, Any] = {o.name: o.default for o in options}
    # config fields + extra
    if config is not None:
        extra = getattr(config, "extra", None) or {}
        for o in options:
            if o.field is not None and hasattr(config, o.field):
                values[o.name] = getattr(config, o.field)
            elif o.name in extra:
                values[o.name] = extra[o.name]
    # per-option env vars
    for o in options:
        if not o.env:
            continue
        if o.env_mode == "fill":
            applies = values[o.name] is None
        else:
            applies = via_auto
        if not applies:
            continue
        raw = os.environ.get(o.env, "").strip()
        if raw:
            values[o.name] = _cast(o, raw, o.env)
    # inline assignments (most specific)
    for key, raw in inline_raw.items():
        o = _match_inline(fam, name, options, key, where)
        values[o.name] = _cast(o, raw, f"option {key!r} in {where}")
    for o in options:
        check_option(o, values[o.name])
    return Resolved(family=fam, impl=impl, name=name, options=values)


def spec_name(family: str, spec: Any) -> str:
    """The implementation-name part of a spec string (inline opts dropped,
    no env resolution — ``"auto"`` stays ``"auto"``)."""
    fam = get_family(family)
    name, _ = _parse_spec(fam, spec)
    return name


def resolve_field_option(family: str, name: str, config: Any = None) -> Any:
    """Resolve a single field-backed option outside a full family resolve.

    Used for knobs consumed at run time rather than construction time
    (the per-round ``deadline``): reads the config field, applies a
    ``"fill"``-mode env var, validates, and returns the value.
    """
    fam = get_family(family)
    matches = [o for o in _all_options(fam) if o.name == name]
    if not matches:
        raise KeyError(f"{family} has no option {name!r}")
    o = matches[0]
    value = getattr(config, o.field, None) if config is not None else None
    if value is None and o.env and o.env_mode == "fill":
        raw = os.environ.get(o.env, "").strip()
        if raw:
            value = _cast(o, raw, o.env)
    check_option(o, value, label=o.field or o.name)
    return value


# ----------------------------------------------------------------------
# FLConfig integration
# ----------------------------------------------------------------------
def validate_spec(family: str, spec: Any) -> None:
    """Validate a config-field spec string without resolving the env.

    ``"auto"`` passes (the environment is consulted at build time, not
    config-construction time); a concrete name must be registered and
    any inline assignments must name known options with in-bounds
    values.
    """
    fam = get_family(family)
    name, inline_raw = _parse_spec(fam, spec)
    if name == "auto":
        # mirror resolve(): which implementation inline options would
        # apply to is unknowable until the env var resolves
        if inline_raw:
            raise ValueError(_auto_inline_message(fam))
        return
    impl = fam.impls.get(name)
    if impl is None:
        raise _unknown_impl(fam, name)
    options = _options_for(fam, impl)
    where = f"{fam.label} spec {str(spec).strip().lower()!r}"
    for key, raw in inline_raw.items():
        o = _match_inline(fam, name, options, key, where)
        check_option(o, _cast(o, raw, f"option {key!r} in {where}"))


def validate_config(config: Any) -> None:
    """Registry-derived part of ``FLConfig.__post_init__``.

    For every config-selected family: validate the spec-string field,
    bounds-check each field-backed option, and reject unknown
    prefix-namespaced keys in ``extra`` with the known-key list
    (:func:`known_prefix_keys`, derived for every family from its
    declarations).
    """
    extra = getattr(config, "extra", None) or {}
    for fam in _FAMILIES.values():
        if not fam.field and not fam.prefix:
            continue  # not config-selected (algorithms)
        fam = get_family(fam.name)
        if fam.field:
            validate_spec(fam.name, getattr(config, fam.field))
        for o in _all_options(fam):
            if o.field is not None and hasattr(config, o.field):
                check_option(o, getattr(config, o.field), label=o.field)
        if fam.prefix:
            known = known_prefix_keys(fam.name)
            for key in extra:
                if key.startswith(fam.prefix) and key not in known:
                    raise ValueError(
                        f"unknown {fam.name} knob {key!r} in FLConfig.extra; "
                        f"known {fam.prefix} keys: {sorted(known)}"
                    )


# ----------------------------------------------------------------------
# flat-option mapping (run_cell's fl_options)
# ----------------------------------------------------------------------
def flat_option_targets() -> dict[str, tuple[str, str]]:
    """Every legal ``fl_options`` key → ``("field"|"extra", target key)``.

    Family names map to their spec-string field (``"codec"`` →
    ``FLConfig.codec``), field-backed options to their field, and
    prefix-namespaced plus algorithm options to their ``extra`` key.
    """
    targets: dict[str, tuple[str, str]] = {}
    for fam in families():
        if fam.field:
            targets[fam.name] = ("field", fam.field)
        for o in _all_options(fam):
            if o.name in targets:
                continue
            if o.field is not None:
                targets[o.name] = ("field", o.field)
            else:
                targets[o.name] = ("extra", o.name)
    return targets


def apply_options(fl_options: dict[str, Any]) -> tuple[dict, dict]:
    """Split a flat ``fl_options`` dict into config and extra overrides.

    Args:
        fl_options: flat mapping of family names (``"codec"``), option
            names (``"topk_frac"``, ``"net_mbps"``), or algorithm knobs
            (``"prox_mu"``) to values.

    Returns:
        ``(config_overrides, extra_overrides)`` ready for
        ``FLConfig(**config_overrides).with_extra(**extra_overrides)``.

    Raises:
        ValueError: on a key no registered component declares, listing
            the known keys.
    """
    targets = flat_option_targets()
    config_overrides: dict[str, Any] = {}
    extra_overrides: dict[str, Any] = {}
    for key, value in fl_options.items():
        target = targets.get(key)
        if target is None:
            raise ValueError(
                f"unknown fl_options key {key!r}; known keys: {sorted(targets)}"
            )
        kind, name = target
        if kind == "field":
            config_overrides[name] = value
        else:
            extra_overrides[name] = value
    return config_overrides, extra_overrides
