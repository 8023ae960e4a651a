"""Finitely generated clones of operations on a finite set.

Operations are stored as row-major output tables.  A clone is generated
from named operations by breadth-first composition: per arity the
catalog starts from the selectors and repeatedly applies each generator
to already-catalogued operations, deduplicating by table and remembering
the first composition that produced each table.  Two distinct
compositions that produce the same table ("collisions") are kept; they
are the equations the clone is known to satisfy and drive the
projective homomorphism search.

Generation builds no terms.  It keeps each composition as integers, its
recipe: the generator's position and the catalog ids of its arguments,
or a selector's index.  A collision is one fixed-stride record in an
`array` of machine ints: the id of the entry that first gave the table,
then the later composition's recipe, padded to the widest generator.
`_term` is the one place that turns a recipe into a term, when a
catalog entry or a collision is read; an entry's arguments come before
it, so `Catalog.build_terms` builds a term upwards from the selectors,
without recursing once per composition level.  The selector scan reads the
records as they are (`Collisions.apart`).

On a base of at most 256 points a catalog is keyed by its tables'
outputs as bytes, one byte per row, and each round packs every entry it
reads into one integer.  A generator whose table has at most 256 entries
then composes a whole row of argument tuples at once: for each prefix of
its first k-1 argument ids the last argument runs over the round, so the
prefix's weighted packs, repeated once per lane, plus the concatenation
of the round's packs are one integer, and one `bytes.translate` gives
every composition in the row, one slice each.  A wider generator, such
as a ternary table on 7 points, reads its table row by row with
`gather`, as `Table.compose` does; on a base over 256 points every
generator does, and the catalog is keyed by output tuples.

A finished catalog is a `Catalog`: the keys, recipes and depths that
generation kept, in catalog order.  It reads as a tuple of
`CatalogEntry`s, and it is the one place that turns a key into an entry,
each time a reader asks for one; generation builds none.  So a search
that misses builds no entry, and readers that need only outputs take
the keys.  An arity's collisions are a `Collisions`, which reads as the
tuple of its (first term, later term) pairs in the same way.  The same
packing reads a catalog across all its entries:
`FiniteClone.catalog_rows` joins the kept keys and holds, for each row,
one integer whose byte e is entry e's output there, so that the clone
search can test a height-1 equation on the whole catalog at once.

Caps bound arity, composition depth, and catalog size; each arity
records whether its catalog is saturated (a full round added nothing)
or was cut short.
"""

from __future__ import annotations

import itertools
from array import array
from collections import abc
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Sequence

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


def guard_arity(arity: int, caps: Caps) -> None:
    """Refuse an operation whose arity is over `tuple_cap`, before any
    work linear in its arity.  A table on one point, or an order term
    read at a level with one type, has one row whatever its arity, so
    its size does not bound the argument tuples that reading it builds."""
    guard(arity, caps.tuple_cap, "argument tuple length")


@dataclass(frozen=True)
class CatalogEntry:
    table: Table
    term: Term
    depth: int


def _key(base_size: int) -> type:
    """How a catalog on the base keys its entries: by outputs packed one
    byte per row on at most 256 points, by output tuples above."""
    return bytes if base_size <= 256 else tuple


# A recipe says how generation made a table: a generator's position in
# the generator list and the catalog ids of its arguments, or SELECTOR
# and a selector's index.
SELECTOR = -1


def _term(symbols: Sequence[tuple[str, int]], recipe: Sequence[int], terms) -> Term:
    """The term a recipe spells, its argument ids read in `terms`.  A
    collision record pads its recipe to a fixed width; the generator's
    arity, in `symbols` with its name, says where the arguments end."""
    op = recipe[0]
    if op == SELECTOR:
        return Var(recipe[1])
    name, arity = symbols[op]
    return App(name, tuple(map(terms.__getitem__, recipe[1 : 1 + arity])))


class _Kept(abc.Sequence):
    """What generation kept of one arity, read as a tuple: `_read(ids)`
    builds the items at the ids, in order, only when they are read.  An
    index builds one item, a slice a tuple of them, and the sequence
    equals the tuple of its items."""

    __slots__ = ()

    def __getitem__(self, i):
        ids = range(len(self))[i]  # an IndexError past either end
        if isinstance(i, slice):
            return tuple(self._read(ids))
        return next(self._read((ids,)))

    def __iter__(self):
        return self._read(range(len(self)))

    def __eq__(self, other):
        if isinstance(other, (type(self), tuple)):
            return tuple(self) == tuple(other)
        return NotImplemented


class Catalog(_Kept):
    """One arity's catalog as generation kept it: each entry's key (its
    outputs, as `_key` packs them), recipe and depth, in catalog order,
    over the generators named in `symbols` (name and arity, in generator
    order).  It reads as the tuple of its `CatalogEntry`s.  An entry is a
    frozen value, so it is built again on each read rather than kept
    twice."""

    __slots__ = ("size", "arity", "symbols", "keys", "recipes", "depths")

    def __init__(self, size, arity, symbols, keys: tuple, recipes: tuple, depths: tuple):
        self.size, self.arity, self.symbols = size, arity, symbols
        self.keys, self.recipes, self.depths = keys, recipes, depths

    def __len__(self) -> int:
        return len(self.keys)

    def _read(self, ids) -> Iterator[CatalogEntry]:
        return map(self._entry, ids, map(self.build_terms(ids).__getitem__, ids))

    def _entry(self, i: int, term: Term) -> CatalogEntry:
        table = Table(self.size, self.arity, tuple(self.keys[i]))
        return CatalogEntry(table, term, self.depths[i])

    def composed_of(self, recipe: Sequence[int]) -> Sequence[int]:
        """The ids of the entries a recipe composes (none for a selector)."""
        op = recipe[0]
        return () if op == SELECTOR else recipe[1 : 1 + self.symbols[op][1]]

    def build_terms(self, ids) -> dict[int, Term]:
        """The terms of the entries `ids` and of every entry they are
        composed from.  An entry's arguments come before it in the
        catalog, so the terms are built upwards from the selectors, each
        from terms already built, and a term thousands of compositions
        deep needs no recursion."""
        needed = set(ids)
        stack = list(needed)
        while stack:
            for a in self.composed_of(self.recipes[stack.pop()]):
                if a not in needed:
                    needed.add(a)
                    stack.append(a)
        terms: dict[int, Term] = {}
        for i in sorted(needed):
            terms[i] = _term(self.symbols, self.recipes[i], terms)
        return terms

    def collapse(self, i: int, picks: Sequence[int]) -> int:
        """The variable entry i collapses to when generator g reads as the
        selector of its picks[g]-th argument: follow that argument's
        recipe until it is a selector's."""
        recipes = self.recipes
        recipe = recipes[i]
        while (op := recipe[0]) != SELECTOR:
            recipe = recipes[recipe[picks[op]]]
        return recipe[1]


class Collisions(_Kept):
    """One arity's collisions as generation kept them, in one `array` of
    machine ints: per collision a record of `stride` ints, the id of the
    entry that first gave the table, then the later composition's recipe
    padded with zeros to the widest generator.  It reads as the tuple of
    its (first term, later term) pairs."""

    __slots__ = ("catalog", "records", "stride")

    def __init__(self, catalog: Catalog, records: array):
        self.catalog, self.records = catalog, records
        self.stride = 2 + max((k for _, k in catalog.symbols), default=1)

    def __len__(self) -> int:
        return len(self.records) // self.stride

    def _read(self, ids) -> Iterator[tuple[Term, Term]]:
        catalog, s = self.catalog, self.stride
        rows = [self.records[j * s : (j + 1) * s] for j in ids]
        terms = catalog.build_terms(
            {a for row in rows for a in (row[0], *catalog.composed_of(row[1:]))}
        )
        return ((terms[row[0]], _term(catalog.symbols, row[1:], terms)) for row in rows)

    def apart(self, j: int, picks: Sequence[int]) -> bool:
        """Whether collision j's two sides collapse to different variables
        when generator g reads as the selector of its picks[g]-th argument
        (`Catalog.collapse`), read on the record without building it."""
        records, collapse = self.records, self.catalog.collapse
        o = j * self.stride
        op = records[o + 1]
        later = records[o + 2] if op == SELECTOR else collapse(records[o + 1 + picks[op]], picks)
        return collapse(records[o], picks) != later


@dataclass(frozen=True)
class FiniteClone:
    base_size: int
    generators: tuple[tuple[str, Table], ...]
    caps: Caps
    catalogs: dict[int, Catalog] = field(compare=False)
    collisions: dict[int, Collisions] = field(compare=False)
    saturated: dict[int, bool] = field(compare=False)

    def catalog(self, arity: int) -> Catalog:
        if arity not in self.catalogs:
            cap = self.caps.arity_cap
            raise CapExceeded(
                f"no catalog for arity {arity} (cap {cap})", "catalog arity", arity, cap
            )
        return self.catalogs[arity]

    def catalog_rows(self, arity: int) -> tuple[int, ...] | None:
        """The arity's catalog read row by row: for each row of
        {0..base_size-1}^arity in row-major order, one integer whose byte
        e, little-endian, is entry e's output on that row.  None on a base
        over 256 points, whose outputs do not fit a byte.  Joined from the
        catalog's keys on first use and kept with the clone."""
        if arity not in self._rows:
            rows = None
            if _key(self.base_size) is bytes:
                stride = self.base_size**arity
                blob = b"".join(self.catalog(arity).keys)
                rows = tuple(int.from_bytes(blob[r::stride], "little") for r in range(stride))
            self._rows[arity] = rows
        return self._rows[arity]

    @cached_property
    def _rows(self) -> dict[int, tuple[int, ...] | None]:
        return {}  # catalog_rows by arity, for this clone alone

    def lookup_by_table(self, table: Table) -> CatalogEntry | None:
        """The catalog entry whose table this is, if any; the only entry
        built is the one returned.  A table of another size has outputs of
        another length, or past one byte, so no key matches them."""
        catalog = self.catalogs.get(table.arity)
        if catalog is None:
            return None
        try:
            return catalog[catalog.keys.index(_key(self.base_size)(table.outputs))]
        except ValueError:  # no such key, or an output past one byte
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
        guard_arity(table.arity, caps)
    catalogs: dict[int, Catalog] = {}
    collisions: dict[int, Collisions] = {}
    saturated: dict[int, bool] = {}
    for arity in range(1, caps.arity_cap + 1):
        catalogs[arity], collisions[arity], saturated[arity] = _generate_arity(
            generators, base_size, arity, caps
        )
    return FiniteClone(
        base_size, tuple(generators), caps, catalogs, collisions, saturated
    )


def _generate_arity(generators, base_size, arity, caps):
    rows = base_size**arity
    key = _key(base_size)
    packed = key is bytes
    symbols = tuple((name, table.arity) for name, table in generators)
    width = max((k for _, k in symbols), default=1)
    # selectors seed the catalog; on degenerate bases some coincide as
    # tables, and those identifications are collisions like any other
    recipes: list[tuple[int, ...]] = []
    depths: list[int] = []
    index: dict[bytes | tuple[int, ...], int] = {}  # keys in catalog order
    collided = array("i")  # the collision records, see `Collisions`

    def done(full: bool) -> tuple[Catalog, Collisions, bool]:
        catalog = Catalog(base_size, arity, symbols, tuple(index), tuple(recipes), tuple(depths))
        return catalog, Collisions(catalog, collided), full

    for i in range(1, arity + 1):
        outputs = key(selector(base_size, arity, i).outputs)
        pos = index.get(outputs)
        if pos is not None:
            collided.fromlist([pos, SELECTOR, i, *(0,) * (width - 1)])
        else:
            index[outputs] = len(recipes)
            recipes.append((SELECTOR, i))
            depths.append(0)
    frontier_start = 0
    slices: list[slice] = []
    for depth in range(1, caps.depth_cap + 1):
        round_start = len(recipes)
        keys = list(index)  # the round reads the entries it starts with
        if packed:
            packs = [int.from_bytes(k, "big") for k in keys]
            # for each id the last argument can start at: the round's packs
            # from there on, one lane of `rows` bytes each, and a 1 in the
            # last byte of every lane
            lanes = {
                start: (
                    int.from_bytes(b"".join(keys[start:]), "big"),
                    int.from_bytes((bytes(rows - 1) + b"\1") * (round_start - start), "big"),
                )
                for start in {0, frontier_start}
            }
        # lane n of a batch: the outputs of the n-th tuple it composes
        slices += [slice(n * rows, (n + 1) * rows) for n in range(len(slices), round_start)]
        for g, (_, gtable) in enumerate(generators):
            k = gtable.arity
            padding = (0,) * (width - k)
            batched = packed and len(gtable.outputs) <= 256
            if batched:
                # byte r of the weighted sum is row r's index into gtable
                lut = bytes(gtable.outputs).ljust(256, b"\0")
                # each prefix position's packs, weighted by its place
                weighted = [[p * gtable.size ** (k - 1 - j) for p in packs] for j in range(k - 1)]
            for prefix in itertools.product(range(round_start), repeat=k - 1):
                # the last argument runs over the round; a tuple whose ids
                # all lie before the frontier was tried in an earlier round
                start = 0 if prefix and max(prefix) >= frontier_start else frontier_start
                if batched:
                    column, ones = lanes[start]
                    offset = sum(map(list.__getitem__, weighted, prefix))
                    batch = (offset * ones + column).to_bytes(rows * (round_start - start), "big")
                    composed = map(batch.translate(lut).__getitem__, slices)
                else:  # too wide to translate through: gather row by row
                    args = [keys[i] for i in prefix]
                    composed = (
                        key(gather(gtable.outputs, gtable.size, [*args, keys[last]]))
                        for last in range(start, round_start)
                    )
                # the row's collision records: a list takes them faster
                # than the `array` does, and moving them per row keeps it short
                found: list[int] = []
                for last, outputs in zip(range(start, round_start), composed):
                    pos = index.get(outputs)
                    if pos is not None:
                        found += pos, g, *prefix, last, *padding
                        continue
                    if len(recipes) >= caps.catalog_cap:
                        collided.fromlist(found)
                        return done(False)  # cut at the catalog cap
                    index[outputs] = len(recipes)
                    recipes.append((g, *prefix, last))
                    depths.append(depth)
                collided.fromlist(found)
        if len(recipes) == round_start:
            return done(True)  # saturated: a full round added nothing
        frontier_start = round_start
    # depth cap reached while still finding new tables
    return done(False)
