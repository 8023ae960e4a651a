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
then composes a whole row of argument tuples at once: for each prefix of
its first k-1 argument ids the last argument runs over the round, so the
prefix's weighted packs, repeated once per lane, plus the concatenation
of the round's packs are one integer, and one `bytes.translate` gives
every composition in the row, one slice each.  A wider generator, such
as a ternary table on 7 points, reads its table row by row with
`gather`, as `Table.compose` does; on a base over 256 points every
generator does, and the catalog is keyed by output tuples.

A finished catalog is a `Catalog`: the keys, terms and depths that
generation kept, in catalog order.  It reads as a tuple of
`CatalogEntry`s, and it is the one place that turns a key into an entry,
each time a reader asks for one; generation builds none.  So a search
that misses builds no entry, and readers that need only outputs take
the keys.  The same packing reads a catalog across all its entries:
`FiniteClone.catalog_rows` joins the kept keys and holds, for each row,
one integer whose byte e is entry e's output there, so that the clone
search can test a height-1 equation on the whole catalog at once.

A catalog entry is a valid `Table` by construction: its outputs are a
selector's, or a checked generator table read at one in-range index per
row (`_unchecked_table` gives the argument).  So entries are built
without `Table`'s checks; tables from anywhere else keep them.

Caps bound arity, composition depth, and catalog size; each arity
records whether its catalog is saturated (a full round added nothing)
or was cut short.
"""

from __future__ import annotations

import itertools
from collections import abc
from dataclasses import dataclass, field
from functools import cached_property
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


class Catalog(abc.Sequence):
    """One arity's catalog as generation kept it: each entry's key (its
    outputs, as `_key` packs them), term and depth, in catalog order.  It
    reads as the tuple of its `CatalogEntry`s (an index builds one, a
    slice a tuple of them) and equals that tuple.  An entry is a frozen
    value, so it is built again on each read rather than kept twice."""

    __slots__ = ("size", "arity", "keys", "terms", "depths")

    def __init__(self, size: int, arity: int, keys: tuple, terms: tuple, depths: tuple):
        self.size, self.arity = size, arity
        self.keys, self.terms, self.depths = keys, terms, depths

    def __len__(self) -> int:
        return len(self.keys)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self._entry, self.keys[i], self.terms[i], self.depths[i]))
        return self._entry(self.keys[i], self.terms[i], self.depths[i])

    def __iter__(self):
        return map(self._entry, self.keys, self.terms, self.depths)

    def __eq__(self, other):
        if isinstance(other, (Catalog, tuple)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def _entry(self, key, term: Term, depth: int) -> CatalogEntry:
        table = _unchecked_table(self.size, self.arity, tuple(key))
        return CatalogEntry(table, term, depth)


@dataclass(frozen=True)
class FiniteClone:
    base_size: int
    generators: tuple[tuple[str, Table], ...]
    caps: Caps
    catalogs: dict[int, Catalog] = field(compare=False)
    collisions: dict[int, tuple[tuple[Term, Term], ...]] = field(compare=False)
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
    collisions: dict[int, tuple[tuple[Term, Term], ...]] = {}
    saturated: dict[int, bool] = {}
    for arity in range(1, caps.arity_cap + 1):
        catalogs[arity], pairs, full = _generate_arity(generators, base_size, arity, caps)
        collisions[arity] = tuple(pairs)
        saturated[arity] = full
    return FiniteClone(
        base_size, tuple(generators), caps, catalogs, collisions, saturated
    )


def _generate_arity(generators, base_size, arity, caps):
    rows = base_size**arity
    key = _key(base_size)
    packed = key is bytes
    # selectors seed the catalog; on degenerate bases some coincide as
    # tables, and those identifications are collisions like any other
    terms: list[Term] = []
    depths: list[int] = []
    index: dict[bytes | tuple[int, ...], int] = {}  # keys in catalog order
    pairs: list[tuple[Term, Term]] = []

    def done(full: bool) -> tuple[Catalog, list[tuple[Term, Term]], bool]:
        return Catalog(base_size, arity, tuple(index), tuple(terms), tuple(depths)), pairs, full

    for i in range(1, arity + 1):
        outputs = key(selector(base_size, arity, i).outputs)
        pos = index.get(outputs)
        if pos is not None:
            pairs.append((terms[pos], Var(i)))
        else:
            index[outputs] = len(terms)
            terms.append(Var(i))
            depths.append(0)
    frontier_start = 0
    slices: list[slice] = []
    for depth in range(1, caps.depth_cap + 1):
        round_start = len(terms)
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
        for name, gtable in generators:
            k = gtable.arity
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
                head = tuple(map(terms.__getitem__, prefix))
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
                for last, outputs in zip(range(start, round_start), composed):
                    term = App(name, (*head, terms[last]))
                    pos = index.get(outputs)
                    if pos is not None:
                        pairs.append((terms[pos], term))
                        continue
                    if len(terms) >= caps.catalog_cap:
                        return done(False)  # cut at the catalog cap
                    index[outputs] = len(terms)
                    terms.append(term)
                    depths.append(depth)
        if len(terms) == round_start:
            return done(True)  # saturated: a full round added nothing
        frontier_start = round_start
    # depth cap reached while still finding new tables
    return done(False)


def _unchecked_table(size: int, arity: int, outputs: tuple[int, ...]) -> Table:
    """A catalog entry's `Table`, built without `Table.__post_init__`.

    Only `Catalog._entry` calls this, on a key `_generate_arity` kept,
    where the checks hold by construction.  An entry's outputs are a
    checked selector's, or one per row of a generator table `g` read at
    the index of each row's inner outputs.  Every inner output is below
    `size`, so every index is below size^k, the length of `g.outputs`: a
    packed sum never reads the zero padding of the translate table, and
    no byte carries into the next row or the next lane of a batch.  So
    there are size^arity outputs, each an output of `g`, whose checked
    `Table` keeps it in 0..size-1."""
    table = object.__new__(Table)
    object.__setattr__(table, "size", size)
    object.__setattr__(table, "arity", arity)
    object.__setattr__(table, "outputs", outputs)
    return table
