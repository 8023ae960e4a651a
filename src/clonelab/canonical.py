"""Canonicity of operations and their action on type spaces.

An operation f is canonical for a structure when tuples of arguments of
the same types have images of the same type, for every tuple length k:
applying automorphisms to the arguments independently can be undone by
one automorphism on the image.  Canonical operations act on type spaces;
that action is the type table computed here.  One private builder
computes every table: it refuses an operation that `is_canonical` refuses
up to max(k, `default_k_max`), then builds one level-k type space.
`type_image` is that builder on one operation at any level k, and
`xi_infty` on a generating set at the critical level m =
`critical_level`: 2 for the dense order, 1 for the pure set, the largest
relation arity (1 without relations) for finite structures.  Level m
need not determine the higher levels: over the pure set, and over a
relation-free or unary finite structure with two points in one orbit,
level 1 does not determine level 2, while level 2 determines level 3
(`tests/test_canonical.py`, the factor checks).

Deciding canonicity is exact, never sampled.  Over a finite structure
the automorphism group decides a canonical table outright.  The table f
is canonical at every level iff each (α_1, …, α_n) in Aut^n is undone
by one β in Aut, f(α_1x_1, …, α_nx_n) = βf(x) pointwise: such a β moves
the column images of any argument list onto those of the moved list,
and conversely the argument list whose k = |D|^n columns enumerate D^n
forces one β for every point.  The tuples that are undone form a
subgroup of Aut^n, since they are closed under composition, so it is
enough that moving one coordinate by a generator of Aut is undone: per
generator in `FiniteStructure.generators` and coordinate, one gather of
the table and one search for an automorphism extending the induced map
on im(f).  The group is never listed.

When that test fails, and over a symbolic structure always, one loop
decides: it runs through argument lists (one k-tuple per argument), each
with its per-argument types and the type of its column images, groups
them by the former, and reports the first two lists of one group whose
images differ in type.  The kinds differ in what is enumerated, at which
k and how the images are typed.  Over a finite structure it is every
argument list over the domain, typed by orbits, for each k up to
`k_max`, which finds the least level that splits: finite structures are
not homogeneous in general; the images are gathered from the table and
typed by orbits.  Over a symbolic structure it is every joint order
pattern of the n*k argument entries, realized by its integer ranks and
typed by patterns; this is exact precisely because the order-term basis
is pattern-determined, so inner applications of named maps are rejected
(see `orderterms.require_pattern_determined`).

Over the symbolic structures one level decides every k: the pair level
`PAIR_LEVEL` = 2.  `dlo` and `pureset` are homogeneous in a binary
language (`<` for the order, `=` for both), so the type of a k-tuple is
fixed by the types of its pairs.  If argument lists with equal
per-argument 2-types always have images of equal type, then any two
argument lists with equal per-argument k-types agree on every pair of
columns, so their images agree on every pair and hence in type: an
operation canonical at k <= 2 is canonical at every k (Bodirsky and
Pinsker, *Canonical functions: a proof via topological dynamics*;
Bodirsky, *Complexity of Infinite-Domain Constraint Satisfaction*,
2021).  A 1-tuple has a single type over either structure, so level 1
never splits, and the first split at any k <= `k_max` is the first
split at min(`k_max`, 2).  The every-k loop survives as the test oracle
for this lemma (`tests/canonical_oracle.py`).

The symbolic check's argument lists, their per-argument types and the
places of their columns in the grid range(n*k)^n depend only on the
structure kind, the arity n and k, never on the term.  So
`_joint_family` builds them once per process.  Only families of at most
`RETAINED_FAMILY_SIZE` = 4,683 joint patterns are kept: n*k <= 6, every
term of arity at most 3 at k = 2.  The next family, 545,835 patterns
for a 4-ary term, would keep hundreds of megabytes for the rest of the
process, so it is built per check and dropped, as before.  The
`pattern_cap` guard runs on every check, kept family or not.  A check
reads the term once: it evaluates the term at each of the (2n)^n grid
points (16 for a binary term, where the family has 150 columns) and
ranks the values into an integer table.  Ranking is an order
isomorphism of a finite value set, so an image pair has the type of its
two ranks, which one comparison decides: their sign over `dlo`, their
equality over `pureset`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from typing import Callable, Hashable, Iterable, Sequence

from .clones import Table, gather, guard_arity, selector
from .config import Caps, DEFAULT_CAPS, guard_power
from .errors import InconsistentData, NonCanonicalOperation
from .orderterms import (
    OrderTerm,
    compile_term,
    rank,
    require_pattern_determined,
    term_arity,
)
from .structures import (
    ConcreteTypeSpace,
    FiniteStructure,
    PatternTypeSpace,
    Permutation,
    Structure,
    StructureKind,
    SymbolicStructure,
    extensions,
    joint_order_patterns,
    joint_pattern_count,
    orbits,
    pattern_of,
    type_space,
)


@dataclass(frozen=True)
class Operation:
    """A named operation: a finite table or an order term."""

    name: str
    arity: int
    body: Table | OrderTerm

    def __post_init__(self):
        if isinstance(self.body, Table):
            if self.arity != self.body.arity:
                raise InconsistentData(
                    f"operation {self.name!r} declares arity {self.arity}, "
                    f"table has {self.body.arity}"
                )
        else:
            used = term_arity(self.body)
            if self.arity < used:
                raise InconsistentData(
                    f"operation {self.name!r} declares arity {self.arity}, "
                    f"term uses x{used}"
                )


@dataclass(frozen=True)
class CanonicalCounterexample:
    """Two argument lists with equal per-argument types whose images have
    different types.  Over a finite structure, `automorphisms[i]` maps
    args_a[i] onto args_b[i]."""

    k: int
    args_a: tuple[tuple, ...]
    args_b: tuple[tuple, ...]
    automorphisms: tuple[Permutation, ...] | None = None


@dataclass(frozen=True)
class CanonicalVerdict:
    canonical: bool
    checked_up_to: int
    counterexample: CanonicalCounterexample | None = None


PAIR_LEVEL = 2


def critical_level(structure: Structure) -> int:
    """The level m that `xi_infty` reads types at and the CLI's `orbits`
    and `type-image` default to; every other reader asks here.  It is the
    largest relation arity: 2 for `dlo`, 1 for `pureset`, 1 for a
    relation-free finite structure.  Known defect: where that is 1, level
    1 does not determine level 2 (module docstring), so the level should
    be at least 2."""
    return structure.max_relation_arity


def default_k_max(structure: Structure) -> int:
    """The default bound of `is_canonical`: max(`critical_level`, 3).  It
    bounds only the search for a split: a canonical verdict covers every
    k, by the finite generator test or the symbolic pair lemma of the
    module docstring."""
    return max(critical_level(structure), 3)


def _require_matching(body: Table | OrderTerm, structure: Structure) -> None:
    if isinstance(body, Table):
        if not isinstance(structure, FiniteStructure):
            raise InconsistentData("table operations need a finite structure")
        if body.size != structure.domain_size:
            raise InconsistentData("table base size differs from structure domain")
    elif not isinstance(structure, SymbolicStructure):
        raise InconsistentData("order terms need a symbolic structure")


def _rank_table(term: OrderTerm, side: int, n: int) -> tuple[int, ...]:
    """The term on the grid range(side)^n, row-major, each value replaced
    by its rank among the grid's values.  Ranking is an order isomorphism
    of a finite value set, so ranks have the patterns of the values; the
    table is read like a table's outputs, by `gather`."""
    keys = list(map(compile_term(term), itertools.product(range(side), repeat=n)))
    ranks = rank(keys)
    return tuple(map(ranks.__getitem__, keys))


def _first_split(
    typed: Iterable[tuple[tuple[tuple, ...], tuple, Hashable]],
) -> tuple[tuple, tuple] | None:
    """The first two argument lists with equal per-argument types whose
    images differ in type, or None when the images' type is a function
    of the argument types.  `typed` gives each argument list with its
    per-argument types and the type of its images."""
    groups: dict[tuple, tuple[tuple, Hashable]] = {}
    for args, key, image_type in typed:
        first_args, first_type = groups.setdefault(key, (args, image_type))
        if image_type != first_type:
            return first_args, args
    return None


def _moves_are_undone(table: Table, structure: FiniteStructure) -> bool:
    """Whether every move of one argument by a generator of Aut is undone
    on the output: paired row by row with f, f after the move must be an
    injective map on im(f) that some automorphism extends."""
    size, n, outputs = table.size, table.arity, table.outputs
    columns = [selector(size, n, i).outputs for i in range(1, n + 1)]
    for g in structure.generators:
        for i, column in enumerate(columns):
            inner = [*columns[:i], tuple(map(g.__getitem__, column)), *columns[i + 1 :]]
            moved = gather(outputs, size, inner)
            if next(extensions(structure, zip(outputs, moved)), None) is None:
                return False
    return True


def _enumerated_verdict(
    table: Table, structure: FiniteStructure, k_max: int, caps: Caps
) -> CanonicalVerdict:
    """The exhaustive check: for k = 1, 2, … up to `k_max`, every list of
    argument tuples over the domain, typed by orbits.  It reports the least
    k with a split, its first counterexample and the least automorphisms
    that witness the equal argument types, or canonical when no k splits."""
    n = table.arity
    image = partial(gather, table.outputs, table.size)
    for k in range(1, k_max + 1):
        guard_power(structure.domain_size, k * n, caps.tuple_cap, "argument space size")
        space = orbits(structure, k, caps)
        tuples = itertools.product(range(structure.domain_size), repeat=k)
        typed = (
            (args, tuple(map(space.classify, args)), space.classify(image(args)))
            for args in itertools.product(tuples, repeat=n)
        )
        split = _first_split(typed)
        if split is not None:
            first_args, args = split
            witnesses = tuple(
                Permutation(next(extensions(structure, zip(a, b))))
                for a, b in zip(first_args, args)
            )
            return CanonicalVerdict(
                False, k, CanonicalCounterexample(k, first_args, args, witnesses)
            )
    return CanonicalVerdict(True, k_max)


def is_canonical_finite(
    table: Table,
    structure: FiniteStructure,
    k_max: int | None = None,
    caps: Caps = DEFAULT_CAPS,
) -> CanonicalVerdict:
    """Canonicity over a finite structure, at every k up to `k_max`.

    Canonical with no enumeration and no cap when every move of one
    coordinate by a generator of Aut is undone (module docstring).
    Otherwise the exhaustive check finds the least splitting k up to
    `k_max` and its first counterexample, or answers canonical."""
    _require_matching(table, structure)
    guard_arity(table, caps)
    k_max = default_k_max(structure) if k_max is None else k_max
    if _moves_are_undone(table, structure):
        return CanonicalVerdict(True, k_max)
    return _enumerated_verdict(table, structure, k_max, caps)


RETAINED_FAMILY_SIZE = 4_683  # n*k <= 6; see the module docstring

_families: dict[
    tuple[StructureKind, int, int], tuple[tuple[tuple, tuple, tuple], ...]
] = {}


def _joint_family(
    structure: SymbolicStructure, n: int, k: int, caps: Caps
) -> Iterable[tuple[tuple[tuple, ...], tuple, tuple]]:
    """Every joint order pattern of n argument k-tuples as its argument
    list (each tuple realized by its integer ranks), the patterns of its
    arguments and the row-major indices of its columns in the grid
    range(n*k)^n, in `joint_order_patterns` order.  None of them depends
    on the term, so a family of at most `RETAINED_FAMILY_SIZE` patterns
    is built once per process and structure kind; a larger one is built
    for the call and dropped.  The family-size cap is checked on every
    call."""
    count = joint_pattern_count(n * k, caps)
    key = (structure.kind, n, k)
    if key in _families:
        return _families[key]
    arg_lists = (
        tuple(codes[i * k : (i + 1) * k] for i in range(n))
        for codes in joint_order_patterns(n * k, caps)
    )
    classify = partial(pattern_of, structure)
    # `gather` read through the identity gives the grid indices
    grid = range((n * k) ** n)
    typed = (
        (args, tuple(map(classify, args)), gather(grid, n * k, args))
        for args in arg_lists
    )
    if count > RETAINED_FAMILY_SIZE:
        return typed
    family = _families[key] = tuple(typed)
    return family


def _pair_type(structure: SymbolicStructure) -> Callable[[int, int], Hashable]:
    """The type of a pair of integers: the sign of their comparison over
    `dlo`, their equality over `pureset`.  It partitions pairs as
    `pattern_of` does."""
    if structure.kind is StructureKind.DLO:
        return lambda x, y: (x > y) - (x < y)
    return int.__eq__


def is_canonical_symbolic(
    term: OrderTerm,
    structure: SymbolicStructure,
    k_max: int | None = None,
    caps: Caps = DEFAULT_CAPS,
) -> CanonicalVerdict:
    """Exact canonicity decision for a pattern-determined order term.

    The joint order patterns of all n*k argument entries are enumerated
    at the single level k = min(`k_max`, `PAIR_LEVEL`), each realized by
    its integer ranks and typed by patterns.  Those argument lists, their
    types and their columns' places in the grid range(n*k)^n do not
    depend on the term: `_joint_family` builds them once per process for
    n*k <= 6.  The term itself is read once, as its rank table on that
    grid, so an image pair is typed by one comparison of two table
    entries.  Below `PAIR_LEVEL` nothing can split, and after the
    family-size guard the answer is canonical with nothing enumerated.
    By the pair lemma the verdict covers every k up to `k_max`, which a
    canonical verdict reports as `checked_up_to`.  Outer increasing-map
    chains are peeled off first since they preserve output patterns;
    inner map applications are rejected.
    """
    _require_matching(term, structure)
    core = require_pattern_determined(term)
    k_max = default_k_max(structure) if k_max is None else k_max
    n = max(term_arity(core), 1)
    k = min(k_max, PAIR_LEVEL)
    if k < PAIR_LEVEL:
        joint_pattern_count(n * k, caps)
        return CanonicalVerdict(True, k_max)
    family = _joint_family(structure, n, k, caps)
    ranks = _rank_table(core, n * k, n)
    pair_type = _pair_type(structure)
    typed = (
        (args, key, pair_type(ranks[a], ranks[b])) for args, key, (a, b) in family
    )
    split = _first_split(typed)
    if split is not None:
        return CanonicalVerdict(False, k, CanonicalCounterexample(k, *split))
    return CanonicalVerdict(True, k_max)


def is_canonical(
    operation: Operation,
    structure: Structure,
    k_max: int | None = None,
    caps: Caps = DEFAULT_CAPS,
) -> CanonicalVerdict:
    if isinstance(operation.body, Table):
        return is_canonical_finite(operation.body, structure, k_max, caps)
    return is_canonical_symbolic(operation.body, structure, k_max, caps)


# -- action on types --------------------------------------------------------


@dataclass(frozen=True)
class TypeOperation:
    """The action of a canonical operation on the level-k type space."""

    space: ConcreteTypeSpace | PatternTypeSpace
    table: Table

    def describe(self) -> str:
        rows = []
        for args in itertools.product(range(self.space.size), repeat=self.table.arity):
            out = self.table.apply(args)
            left = ", ".join(self.space.describe(a) for a in args)
            rows.append(f"({left}) -> {self.space.describe(out)}")
        return "\n".join(rows)


def type_table(
    body: Table | OrderTerm,
    arity: int,
    space: ConcreteTypeSpace | PatternTypeSpace,
    caps: Caps,
) -> Table:
    """The action of `body` on the types of `space`, read off at the type
    representatives; meaningful only for a body canonical at `space.k`.
    A table is read at the representatives' columns.  An order term is
    read through its rank table on range(`space.k`)^arity, which holds
    every column of the pattern representatives and is no larger than
    the type table guarded here."""
    guard_power(space.size, arity, caps.tuple_cap, "type table size")
    if isinstance(body, Table):
        image = partial(gather, body.outputs, body.size)
    else:
        image = partial(gather, _rank_table(body, space.k, arity), space.k)
    outputs = tuple(
        space.classify(image([space.representative(t) for t in type_args]))
        for type_args in itertools.product(range(space.size), repeat=arity)
    )
    return Table(space.size, arity, outputs)


@dataclass(frozen=True)
class XiImage:
    """Images of operations on one level-k type space."""

    space: ConcreteTypeSpace | PatternTypeSpace
    images: tuple[tuple[str, TypeOperation], ...]

    def named_tables(self) -> list[tuple[str, Table]]:
        return [(name, op.table) for name, op in self.images]


def _canonical_images(
    operations: Sequence[Operation], structure: Structure, k: int, caps: Caps
) -> XiImage:
    """The one canonicity gate and the one builder of type tables.

    Each operation must pass `is_canonical` up to max(k, `default_k_max`);
    the first that does not raises NonCanonicalOperation with its
    counterexample.  Then one level-k type space is built, and every
    table shares it."""
    level = max(k, default_k_max(structure))
    for op in operations:
        cx = is_canonical(op, structure, level, caps).counterexample
        if cx is not None:
            raise NonCanonicalOperation(op.name, cx)
    space = type_space(structure, k, caps)
    images = tuple(
        (op.name, TypeOperation(space, type_table(op.body, op.arity, space, caps)))
        for op in operations
    )
    return XiImage(space, images)


def type_image(
    operation: Operation,
    structure: Structure,
    k: int,
    caps: Caps = DEFAULT_CAPS,
) -> TypeOperation:
    """The action of one operation on the level-k types.

    It refuses what `canonical` refuses at its default `--kmax`, whatever
    k is: a check up to k = 1 alone would pass `min` over `pureset`,
    where level 1 has one type.  The check covers every k over a symbolic
    structure and for a finite table that passes the generator test; any
    other table is checked up to max(k, `default_k_max`)."""
    return _canonical_images([operation], structure, k, caps).images[0][1]


def xi_infty(
    generators: Sequence[Operation],
    structure: Structure,
    caps: Caps = DEFAULT_CAPS,
) -> XiImage:
    """The generators' action on the types at `critical_level`, behind
    the same gate as `type_image`; every image shares one space.

    The gate keeps every non-canonical generator out, but the images need
    not be the action at every level.  Over `pureset` and over
    relation-free or unary finite structures, `critical_level` is 1, which
    has a single type and does not determine level 2 (module docstring).
    That known defect stays open until the level is raised to 2."""
    return _canonical_images(generators, structure, critical_level(structure), caps)
