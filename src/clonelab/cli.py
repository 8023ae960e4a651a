"""Command line front end.

Every run prints one deterministic report: a header echoing the
subcommand, its inputs and the settings it read (the caps on the five
commands that build a clone, the seed on `qdemo`), then the result.
Exit codes separate the ways a run can end:

* 0 — the question has a positive answer (or the report is purely
  descriptive),
* 1 — the question has a definite negative answer,
* 2 — the inputs could not be used (unreadable file, parse error,
  inconsistent data, bad flags),
* 3 — a search hit its caps before the answer was settled.

File formats are line-oriented; see `parse_operations` for operation
files, `structures.parse_structure` for structure files, and
`equations.parse_equation_system` for equation files.  A structure
argument is either a path or one of the literals `dlo` / `pureset`.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable, Sequence

from .canonical import Operation, Structure, critical_level, is_canonical, type_image
from .clones import FiniteClone, Table, generate
from .config import DEFAULT_CAPS, Caps
from .equations import (
    CloneSearchReport,
    EquationSystem,
    format_sigma,
    has_projective_homomorphism,
    parse_equation_system,
    satisfiable_in_clone,
    satisfiable_in_projections,
    satisfiable_modulo_outside,
)
from .errors import (
    CapExceeded,
    ClonelabError,
    InconsistentData,
    NonCanonicalOperation,
    ParseError,
    UnsatisfiableSystem,
)
from .lifting import (
    DEFAULT_STAGES,
    analyze_transfer,
    build_instance,
    describe_lift,
    run_lift,
)
from .orderterms import parse_order_term
from .qclone import noncontinuity_demo
from .structures import (
    DLO,
    PURE_SET,
    FiniteStructure,
    parse_structure,
    type_space,
)
from .syntax import natural, records


# -- input files -----------------------------------------------------------


def _read(path: str) -> str:
    return Path(path).read_text()


def _load_structure(token: str) -> Structure:
    symbolic = {"dlo": DLO, "pureset": PURE_SET}.get(token)
    return symbolic if symbolic is not None else parse_structure(_read(token))


def parse_operations(text: str) -> list[Operation]:
    """Read named operations from `op <name> <arity>` blocks.

    Each block carries one body line: `term <expr>` for an order term
    (`term lex(x1, x2)`), or `table <outputs...>` for a finite table in
    row-major product order.  Table outputs may continue on following
    lines until size**arity values have appeared; the base size is
    recovered from the count.  '#' starts a comment.
    """
    ops: list[Operation] = []
    seen: set[str] = set()
    current: tuple[str, int, int] | None = None  # name, arity, line
    outputs: list[int] | None = None
    body: Operation | None = None

    def finish() -> None:
        nonlocal current, outputs, body
        if current is None:
            return
        name, arity, opened = current
        if body is None and outputs is None:
            raise ParseError(f"operation {name!r} has no body", opened)
        if body is None:
            size = _infer_size(len(outputs), arity, name, opened)
            bad = next((v for v in outputs if v >= size), None)
            if bad is not None:
                raise ParseError(
                    f"table for {name!r} maps into 0..{size - 1}, got {bad}", opened
                )
            try:
                op = Operation(name, arity, Table(size, arity, tuple(outputs)))
            except InconsistentData as exc:
                raise ParseError(str(exc), opened) from exc
            ops.append(op)
        else:
            ops.append(body)
        current, outputs, body = None, None, None

    for number, (head, *rest) in records(text):
        if head == "op":
            finish()
            if len(rest) != 2:
                raise ParseError("expected `op <name> <arity>`", number)
            name = rest[0]
            arity = natural(rest[1], number, "`op <name> <arity>` with arity >= 1", 1)
            if name in seen:
                raise ParseError(f"duplicate operation name {name!r}", number)
            seen.add(name)
            current = (name, arity, number)
        elif head == "term":
            if current is None or body is not None or outputs is not None:
                raise ParseError("`term` needs a fresh `op` block", number)
            term = parse_order_term(" ".join(rest), None, number)
            try:
                body = Operation(current[0], current[1], term)
            except InconsistentData as exc:
                raise ParseError(str(exc), number) from exc
        elif head == "table":
            if current is None or body is not None or outputs is not None:
                raise ParseError("`table` needs a fresh `op` block", number)
            outputs = [natural(t, number, "an integer >= 0") for t in rest]
        elif current is not None and outputs is not None:
            outputs.extend(natural(t, number, "an integer >= 0") for t in (head, *rest))
        else:
            raise ParseError(f"unknown directive {head!r}", number)
    finish()
    if not ops:
        raise ParseError("no operations in file", None)
    return ops


def _infer_size(count: int, arity: int, name: str, line: int) -> int:
    # count >= 2 outputs need size >= 2, so 2**arity <= count < 2**count.bit_length()
    fits = count < 2 or arity < count.bit_length()
    size = 1
    while fits and size**arity < count:
        size += 1
    if not fits or size**arity != count:
        raise ParseError(
            f"table for {name!r} has {count} outputs, "
            f"not a power with exponent {arity}",
            line,
        )
    return size


def _named_tables(ops: Sequence[Operation], path: str) -> tuple[list[tuple[str, Table]], int]:
    tables = []
    for op in ops:
        if not isinstance(op.body, Table):
            raise InconsistentData(
                f"{path} must hold finite tables; {op.name!r} is an order term"
            )
        tables.append((op.name, op.body))
    sizes = sorted({t.size for _, t in tables})
    if len(sizes) != 1:
        raise InconsistentData(f"tables in {path} disagree on base size: {sizes}")
    return tables, sizes[0]


def _clone(path: str, caps: Caps) -> FiniteClone:
    tables, base = _named_tables(parse_operations(_read(path)), path)
    return generate(tables, base, caps)


# -- report pieces ---------------------------------------------------------


def _header(ns: argparse.Namespace, caps: Caps) -> list[str]:
    lines = [f"command: {ns.subcommand}"]
    given = vars(ns)
    inputs = [
        given[name]
        for name in ("operations", "equations", "tables", "structure")
        if given.get(name) is not None
    ]
    if inputs:
        lines.append("inputs: " + " ".join(inputs))
    if "arity_cap" in given:
        lines.append(
            f"caps: arity<={caps.arity_cap} depth<={caps.depth_cap} "
            f"catalog<={caps.catalog_cap}"
        )
    options = [
        f"{label}={given[name]}"
        for name, label in (
            ("k", "k"),
            ("k_max", "kmax"),
            ("depth", "depth"),
            ("n", "n"),
            ("samples", "samples"),
        )
        if given.get(name) is not None
    ]
    options.extend(f"assign:{sym}={gen}" for sym, gen in given.get("assign", ()))
    if given.get("family") is not None:
        options.append(f"family={given['family']}")
    if options:
        lines.append("options: " + " ".join(options))
    if "seed" in given:
        lines.append(f"seed: {ns.seed}")
    return lines


def _signature(system: EquationSystem) -> str:
    return " ".join(f"{name}/{arity}" for name, arity in system.signature)


# -- subcommands -----------------------------------------------------------


def _cmd_orbits(ns: argparse.Namespace, caps: Caps) -> tuple[list[str], int]:
    structure = _load_structure(ns.structure)
    k = ns.k if ns.k is not None else critical_level(structure)
    space = type_space(structure, k, caps)
    if isinstance(structure, FiniteStructure):
        lines = [f"{space.size} orbit classes at level k={k}"]
        lines.extend(
            f"type {i}: rep {space.describe(i)} size {space.orbit_sizes[i]}"
            for i in range(space.size)
        )
    else:
        lines = [f"{space.size} patterns at level k={k} over {structure.name}"]
        lines.extend(f"type {i}: {space.describe(i)}" for i in range(space.size))
    return lines, 0


def _cmd_canonical(ns: argparse.Namespace, caps: Caps) -> tuple[list[str], int]:
    ops = parse_operations(_read(ns.operations))
    structure = _load_structure(ns.structure)
    lines = []
    failed = False
    for op in ops:
        verdict = is_canonical(op, structure, ns.k_max, caps)
        if verdict.canonical:
            lines.append(
                f"{op.name}: canonical at every level up to k={verdict.checked_up_to}"
            )
        else:
            failed = True
            lines.extend(_not_canonical(op.name, verdict.counterexample))
    return lines, 1 if failed else 0


def _not_canonical(name: str, cx) -> list[str]:
    """The refusal that `canonical`, `type-image`, `lift` and `analyze` print."""
    args = [" ".join(f"({','.join(map(str, t))})" for t in a) for a in (cx.args_a, cx.args_b)]
    return [
        f"{name}: not canonical at k={cx.k}",
        f"  args {args[0]} and {args[1]}",
        "  agree in type argument by argument; the images differ",
    ]


def _cmd_type_image(ns: argparse.Namespace, caps: Caps) -> tuple[list[str], int]:
    ops = parse_operations(_read(ns.operations))
    structure = _load_structure(ns.structure)
    k = ns.k if ns.k is not None else critical_level(structure)
    lines = []
    for op in ops:
        try:
            image = type_image(op, structure, k, caps)
        except NonCanonicalOperation as exc:
            return lines + _not_canonical(op.name, exc.counterexample), 1
        lines.append(f"type table of {op.name} at k={k} ({image.space.size} types):")
        lines.extend("  " + row for row in image.describe().splitlines())
    return lines, 0


def _cmd_sat(ns: argparse.Namespace, caps: Caps) -> tuple[list[str], int]:
    system = parse_equation_system(_read(ns.equations))
    clone = _clone(ns.tables, caps)
    report = satisfiable_in_clone(system, clone)
    lines = [
        f"system: {len(system.equations)} equation(s) over {_signature(system)}",
        f"catalogs: {clone.saturation_summary()}",
    ]
    return _search_tail(
        lines, report, "satisfiable: yes ({} assignments examined)",
        "satisfiable: no", "assignments",
    )


def _search_tail(
    lines: list[str], report: CloneSearchReport, found: str, refuted: str, unit: str
) -> tuple[list[str], int]:
    """The found / exhaustive / undecided end of `sat` and `sat-mod`."""
    n = report.checked
    if report.found:
        lines.append(found.format(n))
        for name, entry in report.assignment:
            lines.append(f"  {name} := {entry.term}")
        for i, (left, right) in enumerate(report.modifiers or ()):
            lines.append(
                f"  equation {i}: left side under {left}, right side under {right}"
            )
        return lines, 0
    if report.exhaustive:
        lines.append(f"{refuted} — all {n} {unit} fail (catalogs saturated)")
        return lines, 1
    lines.append(f"undecided: {n} {unit} fail, but the catalogs are not saturated")
    return lines, 3


def _cmd_sat1(ns: argparse.Namespace, caps: Caps) -> tuple[list[str], int]:
    system = parse_equation_system(_read(ns.equations))
    report = satisfiable_in_projections(system)
    lines = [f"system: {len(system.equations)} equation(s) over {_signature(system)}"]
    if report.satisfiable:
        lines.append(f"satisfiable in projections: {format_sigma(report.sigma)}")
        return lines, 0
    total = len(report.failures)
    lines.append(f"unsatisfiable in projections, {total}/{total} assignments fail")
    for sigma, index in report.failures:
        lines.append(f"  {format_sigma(sigma)} fails {system.equations[index]}")
    return lines, 1


def _cmd_sat_mod(ns: argparse.Namespace, caps: Caps) -> tuple[list[str], int]:
    system = parse_equation_system(_read(ns.equations))
    clone = _clone(ns.tables, caps)
    outside = [("id", Table(clone.base_size, 1, tuple(range(clone.base_size))))]
    if ns.family is not None:
        extra, base = _named_tables(
            parse_operations(_read(ns.family)), ns.family
        )
        if base != clone.base_size:
            raise InconsistentData(
                f"family base size {base} differs from clone base {clone.base_size}"
            )
        outside.extend(extra)
    report = satisfiable_modulo_outside(system, clone, outside)
    lines = [
        f"system: {len(system.equations)} equation(s) over {_signature(system)}",
        "outside family: " + " ".join(name for name, _ in outside),
        f"catalogs: {clone.saturation_summary()}",
    ]
    return _search_tail(
        lines, report, "satisfiable modulo the family ({} combinations)",
        "not satisfiable modulo the family", "combinations",
    )


# a "found" that is not exhaustive exits 0 too; its reading carries the note
_READING_CODES = {"found": 0, "refuted": 1, "undecided": 3}


def _cmd_proj_hom(ns: argparse.Namespace, caps: Caps) -> tuple[list[str], int]:
    clone = _clone(ns.tables, caps)
    report = has_projective_homomorphism(clone)
    lines = [
        "generators: " + " ".join(f"{n}/{t.arity}" for n, t in clone.generators),
        f"catalogs: {clone.saturation_summary()}",
        *report.describe().splitlines(),
    ]
    return lines, _READING_CODES[report.status]


def _cmd_lift(ns: argparse.Namespace, caps: Caps) -> tuple[list[str], int]:
    ops = parse_operations(_read(ns.operations))
    system = parse_equation_system(_read(ns.equations))
    structure = _load_structure(ns.structure)
    stages = ns.depth if ns.depth is not None else DEFAULT_STAGES
    symbols = [sym for sym, _ in ns.assign]
    for sym in symbols:
        if symbols.count(sym) > 1:
            raise InconsistentData(f"--assign names symbol {sym!r} twice")
    assign = dict(ns.assign) or None
    try:
        instance = build_instance(structure, ops, system, caps, assign=assign)
    except UnsatisfiableSystem as exc:
        return [f"no assignment to lift: {exc}"], 1
    lines = [f"structure: {structure.name}"]
    for name, _ in system.signature:
        lines.append(f"order term for {name}: {instance.order_term_of(name)}")
    witnesses, accumulation, failure = run_lift(instance, stages, caps)
    lines.extend(describe_lift(witnesses, accumulation, failure))
    return lines, 0 if failure is None else 1


def _cmd_analyze(ns: argparse.Namespace, caps: Caps) -> tuple[list[str], int]:
    ops = parse_operations(_read(ns.operations))
    structure = _load_structure(ns.structure)
    stages = ns.depth if ns.depth is not None else DEFAULT_STAGES
    report = analyze_transfer(structure, ops, caps, stages=stages)
    return report.describe().splitlines(), _READING_CODES[report.homomorphism.status]


def _cmd_qdemo(ns: argparse.Namespace, caps: Caps) -> tuple[list[str], int]:
    n = ns.n if ns.n is not None else 2
    samples = ns.samples if ns.samples is not None else 5
    report = noncontinuity_demo(n, samples, ns.seed, caps)
    return report.describe().splitlines(), 0


_COMMANDS: dict[str, Callable[[argparse.Namespace, Caps], tuple[list[str], int]]] = {
    "orbits": _cmd_orbits,
    "canonical": _cmd_canonical,
    "type-image": _cmd_type_image,
    "sat": _cmd_sat,
    "sat1": _cmd_sat1,
    "sat-mod": _cmd_sat_mod,
    "proj-hom": _cmd_proj_hom,
    "lift": _cmd_lift,
    "analyze": _cmd_analyze,
    "qdemo": _cmd_qdemo,
}


# -- argument parsing ------------------------------------------------------


def _at_least(minimum: int) -> Callable[[str], int]:
    """An argparse type for integer flags: ASCII decimal digits, as in files."""

    def read(text: str) -> int:
        try:
            return natural(text, None, f"an integer of at least {minimum}", minimum)
        except ParseError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return read


def _seed(text: str) -> int:
    if text.startswith("-"):
        return -_at_least(0)(text[1:])
    return _at_least(0)(text)


def _assign_pair(text: str) -> tuple[str, str]:
    symbol, eq, generator = text.partition("=")
    if not eq or not symbol or not generator:
        raise argparse.ArgumentTypeError("expected <symbol>=<generator>")
    return symbol, generator


# only the commands that build a clone take caps; the others run at DEFAULT_CAPS
_CAP_DESTS = ("arity_cap", "depth_cap", "catalog_cap")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="also write the report to this file")
    capped = argparse.ArgumentParser(add_help=False, parents=[common])
    for dest in _CAP_DESTS:
        flag, default = "--" + dest.replace("_", "-"), getattr(DEFAULT_CAPS, dest)
        capped.add_argument(flag, type=_at_least(1), default=default)

    parser = argparse.ArgumentParser(
        prog="clonelab",
        description="finite and symbolic clone experiments from the command line",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("orbits", parents=[common], help="type space of a structure")
    p.add_argument("structure", help="structure file, or dlo/pureset")
    p.add_argument(
        "--k", type=_at_least(1), help="tuple length (default: critical level)"
    )

    p = sub.add_parser("canonical", parents=[common], help="canonicity check")
    p.add_argument("operations", help="operation file")
    p.add_argument("structure")
    p.add_argument("--kmax", type=_at_least(1), dest="k_max")

    p = sub.add_parser("type-image", parents=[common], help="action on types")
    p.add_argument("operations")
    p.add_argument("structure")
    p.add_argument("--k", type=_at_least(1))

    p = sub.add_parser("sat", parents=[capped], help="satisfiability in a clone")
    p.add_argument("equations", help="equation file")
    p.add_argument("tables", help="operation file of finite tables")

    p = sub.add_parser("sat1", parents=[common], help="satisfiability in projections")
    p.add_argument("equations")

    p = sub.add_parser(
        "sat-mod", parents=[capped], help="satisfiability modulo outer unaries"
    )
    p.add_argument("equations")
    p.add_argument("tables")
    p.add_argument("--family", help="operation file of unary tables (identity is free)")

    p = sub.add_parser(
        "proj-hom", parents=[capped], help="projection reading of a finite clone"
    )
    p.add_argument("tables")

    p = sub.add_parser("lift", parents=[capped], help="equalize a system by stages")
    p.add_argument("operations")
    p.add_argument("equations")
    p.add_argument("structure", help="dlo or pureset")
    p.add_argument("--depth", type=_at_least(1), help=f"last stage (default {DEFAULT_STAGES})")
    p.add_argument(
        "--assign",
        type=_assign_pair,
        action="append",
        default=[],
        metavar="SYMBOL=GENERATOR",
        help="pin an equation symbol to a named generator",
    )

    p = sub.add_parser(
        "analyze", parents=[capped], help="full transfer report for generators"
    )
    p.add_argument("operations")
    p.add_argument("structure", help="dlo or pureset")
    p.add_argument("--depth", type=_at_least(1), help="lift stages on refutation")

    p = sub.add_parser("qdemo", parents=[common], help="finite data never pins a member")
    p.add_argument("--n", type=_at_least(1), help="arity (default 2)")
    p.add_argument(
        "--samples", type=_at_least(0), help="restriction size (default 5)"
    )
    p.add_argument("--seed", type=_seed, default=0)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    caps = Caps(**{dest: getattr(ns, dest) for dest in _CAP_DESTS if dest in ns})
    try:
        body, code = _COMMANDS[ns.subcommand](ns, caps)
    except NonCanonicalOperation as exc:  # `lift` and `analyze` need canonical generators
        body, code = _not_canonical(exc.name, exc.counterexample), 1
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 3
    except (ClonelabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        causes = "a deeply nested term, or a structure with too many elements"
        print(f"error: input too deep: {causes}", file=sys.stderr)
        return 2
    report = "\n".join(_header(ns, caps) + [""] + body) + "\n"
    sys.stdout.write(report)
    if ns.out is not None:
        Path(ns.out).write_text(report)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
