"""Finitely generated clones of operations on a finite set.

Operations are stored as row-major output tables.  A clone is generated
from named operations by breadth-first composition: per arity the
catalog starts from the selectors and repeatedly applies each generator
to already-catalogued operations, deduplicating by table and remembering
the first composition term that produced each table.  Two distinct
terms that produce the same table ("collisions") are kept; they are the
equations the clone is known to satisfy and drive the projective
homomorphism search.

On a base of at most 256 points a catalog is keyed by its tables'
outputs as bytes, one byte per row, and each round packs every entry it
reads into one integer.  A generator whose table has at most 256 entries
then composes with one integer sum and one `bytes.translate`.  A wider
generator, such as a ternary table on 7 points, reads its table row by
row with `gather`, as `Table.compose` does; on a base over 256 points
every generator does, and the catalog is keyed by output tuples.

A catalog entry is a valid `Table` by construction: its outputs are a
selector's, or a checked generator table read at one in-range index per
row (`_unchecked_table` gives the argument).  So generation builds
entries without `Table`'s checks; tables from anywhere else keep them.

Caps bound arity, composition depth, and catalog size; each arity
records whether its catalog is saturated (a full round added nothing)
or was cut short.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Sequence

from .config import Caps, DEFAULT_CAPS, guard
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
        n = len(self.outputs)
        if self.size.bit_length() > 64:
            # size^arity >= size > n, since no table in memory has 2^64
            # outputs; the size, which may be too long to print, is named
            # by its bit length
            raise InconsistentData(
                f"table needs more than {n} outputs: its size has "
                f"{self.size.bit_length()} bits"
            )
        if self.size > 1 and self.arity > n.bit_length():
            # size^arity >= 2^arity > n: the power, which can have millions
            # of digits, is named instead of computed
            raise InconsistentData(f"table needs {self.size}^{self.arity} outputs, got {n}")
        if n != self.size**self.arity:
            raise InconsistentData(f"table needs {self.size ** self.arity} outputs, got {n}")
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
    """The arity-ary selector of the index-th coordinate (1-based).  In
    row-major order each value fills a block of size^(arity-index) rows,
    and the run of blocks repeats size^(index-1) times, so no row is
    built as an argument tuple."""
    if not 1 <= index <= arity:
        raise InconsistentData(f"selector index {index} out of range for arity {arity}")
    block = size ** (arity - index)
    outputs = tuple(v for v in range(size) for _ in range(block)) * size ** (index - 1)
    return Table(size, arity, outputs)


def guard_arity(table: Table, caps: Caps) -> None:
    """Refuse a table whose arity is over `tuple_cap`, before any work
    linear in its arity.  A table on one point has one output whatever
    its arity, so its outputs do not bound the argument tuples and
    argument columns that reading it builds."""
    guard(table.arity, caps.tuple_cap, "argument tuple length")


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
        guard_arity(table, caps)
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
    rows = base_size**arity
    packed = base_size <= 256  # outputs fit one byte each: keys are bytes
    key = bytes if packed else tuple
    # selectors seed the catalog; on degenerate bases some coincide as
    # tables, and those identifications are collisions like any other
    entries: list[CatalogEntry] = []
    terms: list[Term] = []
    index: dict[bytes | tuple[int, ...], int] = {}  # keys in catalog order
    pairs: list[tuple[Term, Term]] = []

    def add(outputs, term, depth):
        index[outputs] = len(entries)
        table = _unchecked_table(base_size, arity, tuple(outputs))
        entries.append(CatalogEntry(table, term, depth))
        terms.append(term)

    for i in range(1, arity + 1):
        outputs = key(selector(base_size, arity, i).outputs)
        pos = index.get(outputs)
        if pos is not None:
            pairs.append((terms[pos], Var(i)))
        else:
            add(outputs, Var(i), 0)
    frontier_start = 0
    for depth in range(1, caps.depth_cap + 1):
        round_start = len(entries)
        keys = list(index)  # the round reads the entries it starts with
        packs = [int.from_bytes(k, "big") for k in keys] if packed else None
        for name, gtable in generators:
            k = gtable.arity
            if packed and len(gtable.outputs) <= 256:
                # byte r of the weighted sum is row r's index into gtable
                lut = bytes(gtable.outputs).ljust(256, b"\0")
                columns = [[p * gtable.size ** (k - 1 - j) for p in packs] for j in range(k)]
            else:  # too wide to translate through: gather row by row
                lut = None
                columns = [keys] * k
            ids = itertools.product(range(round_start), repeat=k)
            for arg_ids, parts in zip(ids, itertools.product(*columns)):
                if depth > 1 and max(arg_ids) < frontier_start:
                    continue  # tried in an earlier round
                term = App(name, tuple(map(terms.__getitem__, arg_ids)))
                if lut is None:
                    outputs = key(gather(gtable.outputs, gtable.size, parts))
                else:
                    outputs = sum(parts).to_bytes(rows, "big").translate(lut)
                pos = index.get(outputs)
                if pos is not None:
                    pairs.append((terms[pos], term))
                    continue
                if len(entries) >= caps.catalog_cap:
                    return entries, pairs, False  # cut at the catalog cap
                add(outputs, term, depth)
        if len(entries) == round_start:
            return entries, pairs, True  # saturated: a full round added nothing
        frontier_start = round_start
    # depth cap reached while still finding new tables
    return entries, pairs, False


def _unchecked_table(size: int, arity: int, outputs: tuple[int, ...]) -> Table:
    """A catalog entry's `Table`, built without `Table.__post_init__`.

    Only `_generate_arity` calls this, where the checks hold by
    construction.  An entry's outputs are a checked selector's, or one
    per row of a generator table `g` read at the index of each row's
    inner outputs.  Every inner output is below `size`, so every index
    is below size^k, the length of `g.outputs`: a packed sum never reads
    the zero padding of the translate table, and no byte carries into
    the next row.  So there are size^arity outputs, each an output of
    `g`, whose checked `Table` keeps it in 0..size-1."""
    table = object.__new__(Table)
    object.__setattr__(table, "size", size)
    object.__setattr__(table, "arity", arity)
    object.__setattr__(table, "outputs", outputs)
    return table
