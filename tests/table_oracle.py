"""Term tables by composition, the test oracle for clone generation and
equation search.

`eval_term_table` builds a term's table the slow way: a selector table
for every variable and a validated `Table.compose` for every symbol.
`reference_search` is the clone search on top of it: catalog
assignments in signature order, each side's table post-composed with
every member of the outside family, the first agreeing pair kept per
equation.  The library compiles each side into a gather plan instead;
both must give the same report.

`reference_generate` is the breadth-first closure with output tuples as
catalog keys, each composition read off the generator row by row.  The
library keys its catalogs by packed bytes instead; both must give the
same catalogs, collisions and saturation flags.
"""

from __future__ import annotations

import itertools
from typing import Mapping, Sequence

from clonelab.clones import CatalogEntry, FiniteClone, Table, selector
from clonelab.config import Caps
from clonelab.equations import CloneSearchReport, EquationSystem
from clonelab.terms import App, Term, Var


def eval_term_table(
    term: Term,
    assignment: Mapping[str, Table],
    arity: int,
    base_size: int,
) -> Table:
    """Table of a term under a symbol-to-table assignment, at the given
    ambient arity (variables beyond those used act as dummies)."""
    if isinstance(term, Var):
        return selector(base_size, arity, term.index)
    inner = [eval_term_table(a, assignment, arity, base_size) for a in term.args]
    return assignment[term.symbol].compose(inner)  # type: ignore[union-attr]


def _post(modifier, table: Table) -> Table:
    return table if modifier is None else modifier[1].compose([table])


def reference_search(
    system: EquationSystem,
    clone: FiniteClone,
    outside: Sequence[tuple[str, Table] | None] = (None,),
) -> CloneSearchReport:
    """The report `satisfiable_in_clone` (family `(None,)`) or
    `satisfiable_modulo_outside` should give, built from tables."""
    names = [name for name, _ in system.signature]
    catalogs = [clone.catalog(arity) for _, arity in system.signature]
    exhaustive = all(clone.saturated[arity] for _, arity in system.signature)
    n = system.ambient_arity
    checked = 0
    for entries in itertools.product(*catalogs):
        checked += 1
        tables = {name: entry.table for name, entry in zip(names, entries)}
        picks = []
        for eq in system.equations:
            lhs = eval_term_table(eq.lhs, tables, n, clone.base_size)
            rhs = eval_term_table(eq.rhs, tables, n, clone.base_size)
            pick = next(
                (
                    (a, b)
                    for a in outside
                    for b in outside
                    if _post(a, lhs) == _post(b, rhs)
                ),
                None,
            )
            if pick is None:
                break
            picks.append(pick)
        else:
            modifiers = None
            if None not in outside:
                modifiers = tuple((a[0], b[0]) for a, b in picks)
            return CloneSearchReport(
                True, tuple(zip(names, entries)), checked, exhaustive, modifiers
            )
    return CloneSearchReport(False, None, checked, exhaustive)


def reference_generate(
    generators: Sequence[tuple[str, Table]], base_size: int, caps: Caps
) -> FiniteClone:
    """The clone `clones.generate` should give: catalog order by depth,
    then generator, then argument tuples in catalog order."""
    catalogs, collisions, saturated = {}, {}, {}
    for arity in range(1, caps.arity_cap + 1):
        entries, pairs, full = _reference_arity(generators, base_size, arity, caps)
        catalogs[arity] = tuple(entries)
        collisions[arity] = tuple(pairs)
        saturated[arity] = full
    return FiniteClone(
        base_size, tuple(generators), caps, catalogs, collisions, saturated
    )


def _reference_arity(generators, base_size, arity, caps):
    entries: list[CatalogEntry] = []
    index: dict[tuple[int, ...], int] = {}
    pairs = []
    for i in range(1, arity + 1):
        table = selector(base_size, arity, i)
        pos = index.get(table.outputs)
        if pos is not None:
            pairs.append((entries[pos].term, Var(i)))
            continue
        index[table.outputs] = len(entries)
        entries.append(CatalogEntry(table, Var(i), 0))
    frontier_start = 0
    for depth in range(1, caps.depth_cap + 1):
        round_start = len(entries)
        for name, gtable in generators:
            for arg_ids in itertools.product(range(round_start), repeat=gtable.arity):
                if max(arg_ids) < frontier_start and depth > 1:
                    continue  # tried in an earlier round
                args = [entries[i] for i in arg_ids]
                term = App(name, tuple(e.term for e in args))
                rows = zip(*(e.table.outputs for e in args))
                outputs = tuple(gtable.apply(row) for row in rows)
                pos = index.get(outputs)
                if pos is not None:
                    pairs.append((entries[pos].term, term))
                    continue
                if len(entries) >= caps.catalog_cap:
                    return entries, pairs, False
                index[outputs] = len(entries)
                entries.append(CatalogEntry(Table(base_size, arity, outputs), term, depth))
        if len(entries) == round_start:
            return entries, pairs, True
        frontier_start = round_start
    return entries, pairs, False
