"""Registry-driven component listing and flag-table generation.

Backs the ``python -m repro.experiments components`` subcommand: a plain
listing of every registered family / implementation / option (generated
from :mod:`repro.fl.registry`, never hand-maintained), the markdown flag
table embedded in ``README.md`` and ``docs/architecture.md`` between
``registry-flag-table`` markers, and the ``--check-docs`` /
``--write-docs`` machinery CI uses to fail on drift between the docs and
the declarations.
"""

from __future__ import annotations

from pathlib import Path

from repro.fl import registry
from repro.fl.registry import FamilySpec, OptionSpec

__all__ = [
    "CLI_FAMILIES",
    "DOC_FILES",
    "MARK_BEGIN",
    "MARK_END",
    "components_text",
    "family_option_specs",
    "flag_table_markdown",
    "check_docs",
    "write_docs",
    "repo_root",
]

#: families the experiments CLI exposes as flags (algorithms are selected
#: per cell by the artifact runners, not via a global flag)
CLI_FAMILIES = (
    "backend", "codec", "network", "scheduler", "population", "telemetry",
    "attack", "aggregator", "topology",
)

#: files carrying a generated flag-table block, relative to the repo root
DOC_FILES = ("README.md", "docs/architecture.md")

MARK_BEGIN = (
    "<!-- registry-flag-table:begin — generated from the component "
    "registry; refresh with `PYTHONPATH=src python -m repro.experiments "
    "components --write-docs` (CI fails on drift via --check-docs) -->"
)
MARK_END = "<!-- registry-flag-table:end -->"


def _values_doc(o: OptionSpec) -> str:
    """Human-readable value domain of one option (table "Values" cell)."""
    if o.choices is not None:
        parts = [
            f"`{c}` (default)" if c == o.default else f"`{c}`" for c in o.choices
        ]
        return " / ".join(parts)
    kind = {int: "int", float: "float", str: "str"}.get(o.type, "value")
    dom = kind
    if o.low is not None and o.high is not None:
        lb = "[" if o.low_inclusive else "("
        rb = "]" if o.high_inclusive else ")"
        dom = f"{kind} in {lb}{o.low:g}, {o.high:g}{rb}"
    elif o.low is not None:
        cmp = ">=" if o.low_inclusive else ">"
        dom = f"{kind} {cmp} {o.low:g}"
    default = "off" if o.default is None else f"{o.default}"
    return f"{dom}, default {default}"


def _flag_cell(fam: FamilySpec, o: OptionSpec) -> str:
    """Table cell naming every way to set one option."""
    parts = []
    if o.cli:
        parts.append(f"`--{o.cli}`")
    if o.field:
        parts.append(f"`{o.field}`")
    elif fam.prefix and o.name.startswith(fam.prefix):
        parts.append(f'`extra["{o.name}"]`')
    if o.alias and o.inline:
        parts.append(f"inline `{o.alias}=`")
    return " / ".join(parts)


def _impl_defaults(fam: FamilySpec, o: OptionSpec) -> str:
    """`` (`flaky`: 0.8)`` for each implementation that redeclares the
    option with a default of its own."""
    notes = [
        f"`{name}`: {own.default}"
        for name, impl in sorted(fam.impls.items())
        for own in impl.options
        if own.name == o.name and own.default != o.default
    ]
    return f" ({', '.join(notes)})" if notes else ""


def _what_cell(o: OptionSpec) -> str:
    scope = f" *({'/'.join(o.only_for)} only)*" if o.only_for else ""
    return f"{o.help}{scope}"


def family_option_specs(fam: FamilySpec) -> list[OptionSpec]:
    """Family-level then per-implementation options, declaration order.

    The one merge used for both the docs tables here and the CLI flag
    generation in ``repro.experiments.__main__`` — keep them from
    drifting apart.
    """
    seen: dict[str, OptionSpec] = {o.name: o for o in fam.options}
    for name in sorted(fam.impls):
        for o in fam.impls[name].options:
            seen.setdefault(o.name, o)
    return list(seen.values())


def flag_table_markdown() -> str:
    """The engine-knob table embedded in README.md / docs/architecture.md."""
    lines = [
        "| Flag / `FLConfig` field | Values | Env var | What it does |",
        "|---|---|---|---|",
    ]
    for fam_name in CLI_FAMILIES:
        fam = registry.get_family(fam_name)
        impls = " / ".join(
            f"`{n}` (default)" if n == fam.default else f"`{n}`"
            for n in sorted(fam.impls)
        )
        values = f"{impls}, `auto`"
        if fam.example:
            values += f", or inline `{fam.example}`"
        lines.append(
            f"| `--{fam.name}` / `{fam.field}` | {values} "
            f"| `{fam.env}` | {fam.doc} |"
        )
        for o in family_option_specs(fam):
            env = f"`{o.env}`" if o.env else "—"
            lines.append(
                f"| {_flag_cell(fam, o)} | {_values_doc(o)}"
                f"{_impl_defaults(fam, o)} | {env} | {_what_cell(o)} |"
            )
    return "\n".join(lines)


def components_text() -> str:
    """The ``python -m repro.experiments components`` listing."""
    fams = registry.families()
    n_impls = sum(len(f.impls) for f in fams)
    out = [
        f"component registry — {len(fams)} families, "
        f"{n_impls} implementations (declared via "
        f"@register in repro.fl.registry)",
    ]
    for fam in fams:
        out.append("")
        out.append(f"{fam.name} — {fam.doc}")
        selectors = []
        if fam.field:
            selectors.append(f"FLConfig.{fam.field}")
        if fam.env:
            selectors.append(fam.env)
        if fam.name in CLI_FAMILIES:
            selectors.append(f"--{fam.name}")
        if fam.example:
            selectors.append(f"inline spec (e.g. '{fam.example}')")
        if selectors:
            line = f"  select via: {' / '.join(selectors)}"
            if fam.default:
                line += f"; default: {fam.default}"
            out.append(line)
        for name in sorted(fam.impls):
            spec = fam.impls[name]
            out.append(f"  * {name:<12} {spec.help}")
            for o in spec.options:
                out.append(f"      - {_option_line(o)}")
        shared = [o for o in fam.options]
        if shared:
            out.append("  family options:")
            for o in shared:
                out.append(f"      - {_option_line(o)}")
    return "\n".join(out)


def _option_line(o: OptionSpec) -> str:
    kind = {int: "int", float: "float", str: "str"}.get(o.type, "value")
    default = "none" if o.default is None else f"{o.default}"
    ways = []
    if o.field:
        ways.append(f"FLConfig.{o.field}")
    else:
        ways.append(f'extra["{o.name}"]')
    if o.env:
        ways.append(o.env)
    if o.cli:
        ways.append(f"--{o.cli}")
    if o.alias and o.inline:
        ways.append(f"inline '{o.alias}='")
    return (
        f"{o.name} ({kind}, default {default}; {', '.join(ways)}): {o.help}"
    )


def repo_root() -> Path | None:
    """The checkout root (where README.md lives), or None if not present
    (e.g. an installed package without the docs tree)."""
    root = Path(__file__).resolve().parents[3]
    return root if (root / "README.md").is_file() else None


def _replace_block(text: str, table: str) -> str | None:
    """``text`` with the marked block's body replaced (None: no markers)."""
    try:
        head, rest = text.split(MARK_BEGIN, 1)
        _, tail = rest.split(MARK_END, 1)
    except ValueError:
        return None
    return f"{head}{MARK_BEGIN}\n{table}\n{MARK_END}{tail}"


def check_docs(root: Path | None = None) -> list[str]:
    """Drift report: one message per doc file whose flag table is stale.

    Empty list = in sync.  Used by ``python -m repro.experiments
    components --check-docs`` (a CI step).
    """
    root = root or repo_root()
    if root is None:
        return ["repo root with README.md not found; cannot check docs"]
    table = flag_table_markdown()
    problems = []
    for rel in DOC_FILES:
        path = root / rel
        if not path.is_file():
            problems.append(f"{rel}: missing")
            continue
        text = path.read_text()
        updated = _replace_block(text, table)
        if updated is None:
            problems.append(f"{rel}: no registry-flag-table markers")
        elif updated != text:
            problems.append(
                f"{rel}: flag table is stale — run "
                "`PYTHONPATH=src python -m repro.experiments components "
                "--write-docs`"
            )
    return problems


def write_docs(root: Path | None = None) -> list[str]:
    """Rewrite the marked flag-table blocks; returns the files touched."""
    root = root or repo_root()
    if root is None:
        raise RuntimeError("repo root with README.md not found")
    table = flag_table_markdown()
    touched = []
    for rel in DOC_FILES:
        path = root / rel
        if not path.is_file():
            continue
        text = path.read_text()
        updated = _replace_block(text, table)
        if updated is not None and updated != text:
            path.write_text(updated)
            touched.append(rel)
    return touched
