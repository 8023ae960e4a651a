"""Finitely generated clones of operations on a finite set.

Operations are stored as row-major output tables.  A clone is generated
from named operations by breadth-first composition: per arity the
catalog starts from the selectors and repeatedly applies each generator
to already-catalogued operations, deduplicating by table and remembering
the first composition term that produced each table.  Pairs of distinct
terms that produced the same table ("collisions") are kept; they are the
equations the clone is known to satisfy and drive the projective
homomorphism search.

Caps bound arity, composition depth, and catalog size; each arity
records whether its catalog is saturated (a full round added nothing)
or was cut short.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Sequence

from .config import Caps, DEFAULT_CAPS
from .errors import CapExceeded, InconsistentData
from .terms import App, Term, Var


@dataclass(frozen=True)
class Table:
    """Finite operation: outputs indexed row-major over product order of
    the inputs (base set {0..size-1})."""

    size: int
    arity: int
    outputs: tuple[int, ...]

    def __post_init__(self):
        if self.size < 1 or self.arity < 1:
            raise InconsistentData("tables need size >= 1 and arity >= 1")
        if len(self.outputs) != self.size**self.arity:
            raise InconsistentData(
                f"table needs {self.size ** self.arity} outputs, got {len(self.outputs)}"
            )
        if min(self.outputs) < 0 or max(self.outputs) >= self.size:
            raise InconsistentData("table output out of range")

    def apply(self, args: Sequence[int]) -> int:
        idx = 0
        for a in args:
            idx = idx * self.size + a
        return self.outputs[idx]

    def compose(self, inner: Sequence["Table"]) -> "Table":
        """self after inner: all inner tables share one arity."""
        if len(inner) != self.arity:
            raise InconsistentData(
                f"outer arity {self.arity}, got {len(inner)} inner tables"
            )
        if not inner:
            raise InconsistentData("composition needs at least one inner table")
        l = inner[0].arity
        if any(g.arity != l or g.size != self.size for g in inner):
            raise InconsistentData("inner tables must share arity and base size")
        outputs = gather(self.outputs, self.size, [g.outputs for g in inner])
        return Table(self.size, l, outputs)


def gather(
    outer: tuple[int, ...], size: int, inner: Sequence[tuple[int, ...]]
) -> tuple[int, ...]:
    """Outputs of outer after inner, row by row: outer read at the index
    sum of size^(n-1-j) * inner[j][row]."""
    index = inner[0]
    for column in inner[1:]:
        index = [i * size + v for i, v in zip(index, column)]
    return tuple(map(outer.__getitem__, index))


def selector(size: int, arity: int, index: int) -> Table:
    """The arity-ary selector of the index-th coordinate (1-based)."""
    if not 1 <= index <= arity:
        raise InconsistentData(f"selector index {index} out of range for arity {arity}")
    outputs = []
    for args in itertools.product(range(size), repeat=arity):
        outputs.append(args[index - 1])
    return Table(size, arity, tuple(outputs))


@dataclass(frozen=True)
class CatalogEntry:
    table: Table
    term: Term
    depth: int


@dataclass(frozen=True)
class FiniteClone:
    base_size: int
    generators: tuple[tuple[str, Table], ...]
    caps: Caps
    catalogs: dict[int, tuple[CatalogEntry, ...]] = field(compare=False)
    collisions: dict[int, tuple[tuple[Term, Term], ...]] = field(compare=False)
    saturated: dict[int, bool] = field(compare=False)

    def catalog(self, arity: int) -> tuple[CatalogEntry, ...]:
        if arity not in self.catalogs:
            cap = self.caps.arity_cap
            raise CapExceeded(
                f"no catalog for arity {arity} (cap {cap})", "catalog arity", arity, cap
            )
        return self.catalogs[arity]

    def lookup_by_table(self, table: Table) -> CatalogEntry | None:
        for entry in self.catalogs.get(table.arity, ()):
            if entry.table == table:
                return entry
        return None

    def generator_table(self, name: str) -> Table:
        for gname, table in self.generators:
            if gname == name:
                return table
        raise InconsistentData(f"no generator named {name!r}")

    def saturation_summary(self) -> str:
        return " ".join(
            f"{arity}:{'yes' if self.saturated[arity] else 'no'}"
            for arity in sorted(self.saturated)
        )


def generate(
    generators: Sequence[tuple[str, Table]],
    base_size: int,
    caps: Caps = DEFAULT_CAPS,
) -> FiniteClone:
    """Breadth-first closure of the selectors under the generators.

    Deterministic catalog order: depth, then generator index, then
    argument tuples in catalog order.  Collisions record (first witness,
    later witness) for every recomputed table.
    """
    names = set()
    for name, table in generators:
        if name in names:
            raise InconsistentData(f"duplicate generator name {name!r}")
        names.add(name)
        if table.size != base_size:
            raise InconsistentData(f"generator {name!r} has base size {table.size}")
    catalogs: dict[int, tuple[CatalogEntry, ...]] = {}
    collisions: dict[int, tuple[tuple[Term, Term], ...]] = {}
    saturated: dict[int, bool] = {}
    for arity in range(1, caps.arity_cap + 1):
        entries, pairs, full = _generate_arity(generators, base_size, arity, caps)
        catalogs[arity] = tuple(entries)
        collisions[arity] = tuple(pairs)
        saturated[arity] = full
    return FiniteClone(
        base_size, tuple(generators), caps, catalogs, collisions, saturated
    )


def _generate_arity(generators, base_size, arity, caps):
    # selectors seed the catalog; on degenerate bases some coincide as
    # tables, and those identifications are collisions like any other
    entries: list[CatalogEntry] = []
    index: dict[tuple[int, ...], int] = {}
    pairs: list[tuple[Term, Term]] = []
    for i in range(1, arity + 1):
        table = selector(base_size, arity, i)
        pos = index.get(table.outputs)
        if pos is not None:
            pairs.append((entries[pos].term, Var(i)))
            continue
        index[table.outputs] = len(entries)
        entries.append(CatalogEntry(table, Var(i), 0))
    capped = False
    frontier_start = 0
    for depth in range(1, caps.depth_cap + 1):
        round_start = len(entries)
        for name, gtable in generators:
            for arg_ids in itertools.product(range(round_start), repeat=gtable.arity):
                if max(arg_ids) < frontier_start and depth > 1:
                    continue  # tried in an earlier round
                args = [entries[i] for i in arg_ids]
                term = App(name, tuple(e.term for e in args))
                outputs = gather(
                    gtable.outputs, base_size, [e.table.outputs for e in args]
                )
                pos = index.get(outputs)
                if pos is not None:
                    pairs.append((entries[pos].term, term))
                    continue
                if len(entries) >= caps.catalog_cap:
                    capped = True
                    break
                index[outputs] = len(entries)
                table = Table(base_size, arity, outputs)  # validated once, when new
                entries.append(CatalogEntry(table, term, depth))
            if capped:
                break
        if capped:
            break
        if len(entries) == round_start:
            return entries, pairs, True  # saturated: a full round added nothing
        frontier_start = round_start
    # catalog cap hit, or depth cap reached while still finding new tables
    return entries, pairs, False
