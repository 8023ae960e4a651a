"""Base structures and their type spaces.

Two worlds share one vocabulary here.  Finite relational structures get
one backtracking search for automorphisms, which answers every question
about the group without listing it, and orbits of tuples as types.  The
two symbolic structures, the dense linear order on Q and the pure set on
Q, are homogeneous, so the type of a tuple is its order respectively
equality pattern, and a symbolic type is its code tuple: the rank vector
of a weak order over `dlo`, the first-occurrence block codes of a
partition over `pureset`.  Both kinds of space classify tuples and
produce canonical representatives.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Hashable, Iterable, Iterator, Sequence

from .config import Caps, DEFAULT_CAPS, guard, guard_weak_orders
from .errors import InconsistentData, ParseError
from .syntax import natural, records


# -- finite structures -------------------------------------------------


@dataclass(frozen=True)
class Relation:
    name: str
    arity: int
    tuples: frozenset[tuple[int, ...]]


@dataclass(frozen=True)
class FiniteStructure:
    domain_size: int
    relations: tuple[Relation, ...] = ()

    def __post_init__(self):
        if self.domain_size < 1:
            raise InconsistentData("domain must be nonempty")
        seen = set()
        for rel in self.relations:
            if rel.name in seen:
                raise InconsistentData(f"duplicate relation name {rel.name!r}")
            seen.add(rel.name)
            if rel.arity < 1:
                raise InconsistentData(f"relation {rel.name!r} has arity < 1")
            for t in rel.tuples:
                if len(t) != rel.arity:
                    raise InconsistentData(f"tuple {t} has wrong arity for {rel.name!r}")
                if any(not 0 <= v < self.domain_size for v in t):
                    raise InconsistentData(f"tuple {t} out of domain in {rel.name!r}")

    @property
    def max_relation_arity(self) -> int:
        """Largest declared relation arity; 1 for a relation-free
        structure.  `canonical.critical_level` turns it into a level."""
        return max((r.arity for r in self.relations), default=1)

    @cached_property
    def generators(self) -> tuple[tuple, ...]:
        """Image tuples of automorphisms that generate Aut, found once per
        structure without listing the group (Sims, 1970).  For d = n-1 down
        to 0 and each c > d outside the orbit of d under those kept so far,
        the first automorphism that fixes 0..d-1 and sends d to c is kept;
        by induction they generate the stabilizer of 0..d-1.  Each enlarges
        the group, and subgroup chains in S_n have fewer than 3n/2 steps
        (Cameron, Solomon and Turull, 1989)."""
        n = self.domain_size
        gens: list[tuple] = []
        for d in reversed(range(n)):
            orbit = _closure((d,), gens)
            for c in range(d + 1, n):
                if (c,) in orbit:
                    continue
                g = next(extensions(self, [(v, v) for v in range(d)] + [(d, c)]), None)
                if g is not None:
                    gens.append(g)
                    orbit = _closure((d,), gens)
        return tuple(gens)


def parse_structure(text: str) -> FiniteStructure:
    """Parse the line format: `domain <n>`, then `relation <name> <arity>`
    blocks with one tuple per line.  '#' comments and blank lines are
    ignored; errors carry line numbers."""
    domain_size: int | None = None
    relations: list[tuple[str, int, set[tuple[int, ...]]]] = []
    for lineno, parts in records(text):
        if parts[0] == "domain":
            if domain_size is not None:
                raise ParseError("domain declared twice", lineno)
            if len(parts) != 2:
                raise ParseError("expected `domain <n>`", lineno)
            domain_size = natural(parts[1], lineno, "a domain size of at least 1", 1)
            continue
        if domain_size is None:
            raise ParseError("`domain <n>` must come first", lineno)
        if parts[0] == "relation":
            if len(parts) != 3:
                raise ParseError("expected `relation <name> <arity>`", lineno)
            name = parts[1]
            if any(name == other for other, _, _ in relations):
                raise ParseError(f"relation {name!r} declared twice", lineno)
            arity = natural(parts[2], lineno, "a relation arity of at least 1", 1)
            relations.append((name, arity, set()))
            continue
        if not relations:
            raise ParseError(
                f"unexpected line {' '.join(parts)!r} before any relation", lineno
            )
        name, arity, tuples = relations[-1]
        if len(parts) != arity:
            raise ParseError(
                f"tuple has {len(parts)} entries, relation {name!r} has arity {arity}",
                lineno,
            )
        values = tuple(natural(p, lineno, "a vertex number") for p in parts)
        if any(v >= domain_size for v in values):
            raise ParseError(f"vertex out of range in {values}", lineno)
        tuples.add(values)
    if domain_size is None:
        raise ParseError("missing `domain <n>` line")
    return FiniteStructure(
        domain_size,
        tuple(Relation(n, a, frozenset(ts)) for n, a, ts in relations),
    )


@dataclass(frozen=True)
class Permutation:
    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(len(self.images))):
            raise InconsistentData(f"not a permutation: {self.images}")

    def apply(self, t: Sequence[int]) -> tuple[int, ...]:
        return tuple(self.images[v] for v in t)


def extensions(structure: FiniteStructure, pairs: Iterable) -> Iterator[tuple]:
    """Image tuples of the automorphisms that send a to b for every pair
    (a, b), in lexicographic order, by backtracking with relation-consistency
    pruning; none when the pairs are not an injective map."""
    pairs = set(pairs)
    fixed = dict(pairs)
    targets = set(fixed.values())
    if not len(pairs) == len(fixed) == len(targets):
        return
    n = structure.domain_size
    free = [v for v in range(n) if v not in targets]
    choices = [(fixed[d],) if d in fixed else free for d in range(n)]
    # tuples grouped by their largest vertex: checkable as soon as that
    # vertex gets an image
    by_max: list[list[tuple[frozenset, tuple[int, ...]]]] = [[] for _ in range(n)]
    for rel in structure.relations:
        for t in rel.tuples:
            by_max[max(t)].append((rel.tuples, t))
    images: list[int] = []
    used = [False] * n

    def extend(d: int) -> Iterator[tuple]:
        if d == n:
            yield tuple(images)
            return
        for candidate in choices[d]:
            if used[candidate]:
                continue
            images.append(candidate)
            used[candidate] = True
            if all(tuple(map(images.__getitem__, t)) in ts for ts, t in by_max[d]):
                yield from extend(d + 1)
            images.pop()
            used[candidate] = False

    yield from extend(0)


def automorphisms(structure: FiniteStructure) -> list[Permutation]:
    """All automorphisms in lexicographic order.  No code path lists the
    group; it stays because the tests compare against it and the benchmark
    tracer wraps it by name."""
    return [Permutation(images) for images in extensions(structure, ())]


def _closure(seed: tuple, gens: Sequence[tuple]) -> set[tuple]:
    """The orbit of a tuple under the group the image tuples generate."""
    orbit, pending = {seed}, [seed]
    while pending:
        t = pending.pop()
        for g in gens:
            image = tuple(map(g.__getitem__, t))
            if image not in orbit:
                orbit.add(image)
                pending.append(image)
    return orbit


# -- symbolic structures ------------------------------------------------


class StructureKind(enum.Enum):
    DLO = "dlo"
    PURE_SET = "pureset"


@dataclass(frozen=True)
class SymbolicStructure:
    kind: StructureKind

    @property
    def max_relation_arity(self) -> int:
        """Largest relation arity: 2 for the order `<`, and 1 for the pure
        set, which has no relations besides equality.
        `canonical.critical_level` turns it into a level."""
        return 2 if self.kind is StructureKind.DLO else 1

    @property
    def name(self) -> str:
        return self.kind.value


DLO = SymbolicStructure(StructureKind.DLO)
PURE_SET = SymbolicStructure(StructureKind.PURE_SET)


def pattern_of(
    structure: SymbolicStructure, values: Sequence[Hashable]
) -> tuple[int, ...]:
    """The code tuple of rationals, integer ranks or order-term sort keys,
    compared natively: ranks among the distinct values over `dlo`, block
    indices in order of first occurrence over `pureset`."""
    if structure.kind is StructureKind.DLO:
        distinct = sorted(set(values))
        rank = {v: i for i, v in enumerate(distinct)}
        return tuple(rank[v] for v in values)
    codes: dict[Hashable, int] = {}
    return tuple(codes.setdefault(v, len(codes)) for v in values)


def _weak_orders(k: int) -> Iterable[tuple[int, ...]]:
    """All rank vectors of length k (weak orders on positions): each set
    partition with its blocks ranked in every order."""
    for codes in _partitions(k):
        for ranks in itertools.permutations(range(len(set(codes)))):
            yield tuple(ranks[c] for c in codes)


def _partitions(k: int) -> Iterable[tuple[int, ...]]:
    """All first-occurrence code vectors of length k (set partitions)."""
    codes = [0] * k

    def rec(i: int, blocks: int):
        if i == k:
            yield tuple(codes)
            return
        for c in range(blocks + 1):
            codes[i] = c
            yield from rec(i + 1, blocks + (1 if c == blocks else 0))

    yield from rec(0, 0)


# -- type spaces --------------------------------------------------------


@dataclass(frozen=True)
class ConcreteTypeSpace:
    """Orbits of k-tuples of a finite structure under its automorphisms."""

    structure: FiniteStructure
    k: int
    reps: tuple[tuple[int, ...], ...]
    index: dict[tuple[int, ...], int] = field(compare=False, repr=False)
    orbit_sizes: tuple[int, ...] = ()

    @property
    def size(self) -> int:
        return len(self.reps)

    def classify(self, t: Sequence[int]) -> int:
        return self.index[tuple(t)]

    def representative(self, i: int) -> tuple[int, ...]:
        return self.reps[i]

    def describe(self, i: int) -> str:
        return "(" + ",".join(str(v) for v in self.reps[i]) + ")"


@dataclass(frozen=True)
class PatternTypeSpace:
    """The types of k-tuples over a symbolic structure, each its code tuple."""

    structure: SymbolicStructure
    k: int
    patterns: tuple[tuple[int, ...], ...]
    index: dict[tuple[int, ...], int] = field(compare=False, repr=False)

    @property
    def size(self) -> int:
        return len(self.patterns)

    def classify(self, t: Sequence[Fraction]) -> int:
        return self.index[pattern_of(self.structure, t)]

    def representative(self, i: int) -> tuple[int, ...]:
        """The pattern realized by its own codes, which are integer ranks."""
        return self.patterns[i]

    def describe(self, i: int) -> str:
        """Blocks of equal positions in order: "x2 < x1=x3", "x1=x2 | x3"."""
        blocks: dict[int, list[str]] = {}
        for position, c in enumerate(self.patterns[i], 1):
            blocks.setdefault(c, []).append(f"x{position}")
        separator = " < " if self.structure.kind is StructureKind.DLO else " | "
        return separator.join("=".join(blocks[c]) for c in sorted(blocks))


TypeSpace = ConcreteTypeSpace | PatternTypeSpace
Structure = FiniteStructure | SymbolicStructure


def orbits(
    structure: FiniteStructure, k: int, caps: Caps = DEFAULT_CAPS
) -> ConcreteTypeSpace:
    """Type space at level k: orbit representatives are the
    lexicographically least tuples, ids follow representative order."""
    guard(k, caps.k_cap, "tuple length")
    guard(structure.domain_size**k, caps.tuple_cap, "tuple space size")
    gens = structure.generators
    index: dict[tuple[int, ...], int] = {}
    reps: list[tuple[int, ...]] = []
    sizes: list[int] = []
    for t in itertools.product(range(structure.domain_size), repeat=k):
        if t in index:
            continue
        orbit = _closure(t, gens)
        idx = len(reps)
        reps.append(t)
        sizes.append(len(orbit))
        for member in orbit:
            index[member] = idx
    return ConcreteTypeSpace(structure, k, tuple(reps), index, tuple(sizes))


def enumerate_patterns(
    structure: SymbolicStructure, k: int, caps: Caps = DEFAULT_CAPS
) -> PatternTypeSpace:
    """All code tuples of length k, sorted."""
    guard(k, caps.k_cap, "tuple length")
    if structure.kind is StructureKind.DLO:
        guard_weak_orders(k, caps.pattern_cap, "pattern family size")
        patterns = tuple(sorted(_weak_orders(k)))
    else:
        patterns = tuple(sorted(_partitions(k)))
    index = {p: i for i, p in enumerate(patterns)}
    return PatternTypeSpace(structure, k, patterns, index)


def type_space(structure: Structure, k: int, caps: Caps = DEFAULT_CAPS) -> TypeSpace:
    """The level-k type space of either kind of structure: orbits for a
    finite structure, patterns for a symbolic one."""
    if isinstance(structure, FiniteStructure):
        return orbits(structure, k, caps)
    return enumerate_patterns(structure, k, caps)


def joint_order_patterns(length: int, caps: Caps) -> list[tuple[int, ...]]:
    """Sorted rank vectors of the given length, refused over
    `pattern_cap`.  No package code calls it: it stays only because
    `bench/tracing.py` wraps it by name, and without the name the traced
    benchmark run would stop with an AttributeError."""
    guard_weak_orders(length, caps.pattern_cap, "joint pattern family size")
    return sorted(_weak_orders(length))
