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
let U_k be the α in Aut^n with f(αc) and f(c) in one orbit of k-tuples
for every list c of k columns; f is canonical at level k iff U_k is all
of Aut^n.  U_k is closed under composition, f(αα'c) ~ f(α'c) ~ f(c), so
it is a subgroup, and it is enough that U_k holds each move of one
argument by a generator in `FiniteStructure.generators`.  One gather of
the table gives a move m its distinct image pairs P_m = {(f(x), f(m·x))}.
If they extend to an automorphism, m is in every U_k.  Otherwise m
splits at level k iff some min(k, |P_m|) pairs of P_m have image tuples
in different k-orbits, since columns that repeat a pair reduce to their
distinct pairs and a split stays a split when it grows; at level |P_m|,
all of P_m splits.  So the least splitting level is the least k at which
a k-subset of some P_m splits, and the group is never listed.  Finite
structures are not homogeneous in general, so that level is not bounded
by the relation arities.

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
split at min(`k_max`, 2).  The every-k loop over joint order patterns
survives as the test oracle for this lemma (`tests/canonical_oracle.py`).

At the pair level a term is decided as a table is, by moving one
coordinate at a time.  The type of an image pair (f(a), f(b)) is a
function of the joint order pattern of the 2n entries of a and b, n the
arity of the map-free core (outer increasing maps keep output patterns;
inner ones are rejected by `orderterms.require_pattern_determined`).
The core is evaluated at each point of the grid {0, 2, ..., 4n-4}^n and
at each grid point with one coordinate raised by 1, (n+1)(2n-1)^n
points (27 for a binary term), coded together as integers by
`pattern_of`.  The bump of coordinate i at a grid value v raises x_i by
1 where x_i = v: an increasing map of that coordinate alone, as other
grid values are 2 away.  Over `pureset` the reflection x_i -> 4n-4-x_i
of a coordinate is a move too.  A move is undone when the images of the
moved grid have the pattern of the images of the grid.  A move keeps
every per-argument type, so a canonical term undoes it.  Conversely,
let every move be undone:

- Joint patterns with one per-argument type are connected by steps: the
  entries of one coordinate in one block (both where a_i = b_i) leave it
  for the gap just above, or return.  Moving one coordinate along a
  segment between two generic realizations crosses one block at a time,
  and leaving a block downward is the block-mates leaving it upward one
  coordinate at a time, the earlier ones returning to the later block.
- A pattern whose moving entries share their block has at most 2n-1
  blocks, so a grid pair realizes it with that block at some v, and the
  bump of that coordinate at v is the step.
- Each pattern of 2n blocks is a bump of one of 2n-1 blocks: for n >= 2
  two adjacent blocks belong to different coordinates.  (For n = 1 the
  grid is one point, and every unary term is increasing, so canonical.)

Over `pureset` the reflections join the order types of one equality
type.  So the images' type is a function of the per-argument types.  A
failing move gives the counterexample: two grid points and their moved
images, at k = 2.  Nothing is kept between checks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from math import comb
from typing import Callable, Iterable, Iterator, Sequence

from .clones import Table, gather, guard_arity, selector
from .config import Caps, DEFAULT_CAPS, guard, guard_power
from .errors import InconsistentData, NonCanonicalOperation
from .orderterms import (
    OrderTerm,
    compile_term,
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
    bounds only the search for a split.  A canonical verdict covers every
    k when the pair lemma or undone generator moves decide it, else only
    up to `k_max`: sum mod 10 on 10 bare points passes k = 1, splits at 2."""
    return max(critical_level(structure), 3)


def _require_matching(body: Table | OrderTerm, structure: Structure) -> None:
    if isinstance(body, Table):
        if not isinstance(structure, FiniteStructure):
            raise InconsistentData("table operations need a finite structure")
        if body.size != structure.domain_size:
            raise InconsistentData("table base size differs from structure domain")
    elif not isinstance(structure, SymbolicStructure):
        raise InconsistentData("order terms need a symbolic structure")


def _rank_table(
    structure: SymbolicStructure, term: OrderTerm, points: Iterable[tuple[int, ...]]
) -> tuple[int, ...]:
    """The term at each point, each value replaced by its `pattern_of`
    code among all the points' values (its rank over `dlo`, its block
    over `pureset`), which keeps the values' patterns; on a row-major
    grid the table is read like a table's outputs, by `gather`."""
    return pattern_of(structure, list(map(compile_term(term), points)))


def _failing_moves(table: Table, structure: FiniteStructure) -> list[tuple]:
    """Each move of one argument by a generator that is not undone, as
    (the argument, the generator, the image pairs row by row, the distinct
    pairs in order of first row): its pairs extend to no automorphism."""
    size, n, outputs = table.size, table.arity, table.outputs
    columns = [selector(size, n, i).outputs for i in range(1, n + 1)]
    failing = []
    for g in structure.generators:
        for i, column in enumerate(columns):
            inner = [*columns[:i], tuple(map(g.__getitem__, column)), *columns[i + 1 :]]
            images = list(zip(outputs, gather(outputs, size, inner)))
            pairs = list(dict.fromkeys(images))
            if next(extensions(structure, pairs), None) is None:
                failing.append((i, g, images, pairs))
    return failing


def is_canonical_finite(
    table: Table,
    structure: FiniteStructure,
    k_max: int | None = None,
    caps: Caps = DEFAULT_CAPS,
) -> CanonicalVerdict:
    """Canonicity over a finite structure, at every k up to `k_max`.

    Canonical at every level when every generator move is undone, else
    the least k up to `k_max` at which a k-subset of a failing move's
    pairs splits (module docstring), guarded against `tuple_cap` by the
    most subsets of one move.  The first such subset's rows are the
    argument lists; the moved argument's witness is the generator, and
    every other one the identity."""
    _require_matching(table, structure)
    guard_arity(table.arity, caps)
    k_max = default_k_max(structure) if k_max is None else k_max
    size, n = table.size, table.arity
    moves = _failing_moves(table, structure)
    for k in range(1, k_max + 1) if moves else ():
        guard(max(comb(len(m[3]), k) for m in moves), caps.tuple_cap, "image pair subsets")
        space = orbits(structure, k, caps)
        for i, g, images, pairs in moves:
            for subset in itertools.combinations(pairs, k):
                a, b = zip(*subset)
                if space.classify(a) == space.classify(b):
                    continue
                rows = [images.index(pair) for pair in subset]
                args = tuple(tuple(r // size ** (n - 1 - j) % size for r in rows) for j in range(n))
                moved = (*args[:i], tuple(map(g.__getitem__, args[i])), *args[i + 1 :])
                witnesses = tuple(Permutation(g if j == i else tuple(range(size))) for j in range(n))
                cx = CanonicalCounterexample(k, args, moved, witnesses)
                return CanonicalVerdict(False, k, cx)
    return CanonicalVerdict(True, k_max)


def _moves(
    structure: SymbolicStructure, grid: list[tuple[int, ...]], ranks: Sequence[int]
) -> Iterator[tuple[list[int], Callable[[tuple[int, ...]], tuple[int, ...]]]]:
    """Each bump, and over `pureset` each reflection (module docstring):
    the ranks at the moved grid points, in grid order, and the map that
    moves a point.  `ranks` holds the grid in row-major order, then the
    grid raised by 1 in coordinate 1, then in coordinate 2, and so on."""
    size, top = len(grid), grid[-1][0]
    base = ranks[:size]
    for i in range(len(grid[0])):
        raised = ranks[(i + 1) * size : (i + 2) * size]
        column = [p[i] for p in grid]
        for v in range(0, top + 1, 2):
            moved = [r if x == v else b for b, r, x in zip(base, raised, column)]
            yield moved, lambda p, i=i, v=v: p if p[i] != v else p[:i] + (v + 1,) + p[i + 1 :]
        if structure.kind is StructureKind.PURE_SET:
            reflect = lambda p, i=i: p[:i] + (top - p[i],) + p[i + 1 :]
            at = dict(zip(grid, base))
            yield [at[reflect(p)] for p in grid], reflect


def _split(
    structure: SymbolicStructure,
    grid: list[tuple[int, ...]],
    base: Sequence[int],
    moved: Sequence[int],
    move: Callable[[tuple[int, ...]], tuple[int, ...]],
) -> CanonicalCounterexample:
    """Two grid points whose images' ranks differ in type from those of
    their moved images, as a counterexample.  Such a pair is adjacent in
    the grid sorted by (`base`, `moved`) or by (`moved`, `base`), or else
    equal ranks would stay equal both ways, and increasing ones
    increasing."""
    indices = range(len(grid))
    orders = (
        [j for _, _, j in sorted(zip(first, second, indices))]
        for first, second in ((base, moved), (moved, base))
    )
    a, b = next(
        (a, b)
        for order in orders
        for a, b in zip(order, order[1:])
        if pattern_of(structure, (base[a], base[b]))
        != pattern_of(structure, (moved[a], moved[b]))
    )
    return CanonicalCounterexample(
        PAIR_LEVEL, tuple(zip(grid[a], grid[b])), tuple(zip(move(grid[a]), move(grid[b])))
    )


def is_canonical_symbolic(
    term: OrderTerm,
    structure: SymbolicStructure,
    k_max: int | None = None,
    caps: Caps = DEFAULT_CAPS,
) -> CanonicalVerdict:
    """Exact canonicity decision for a pattern-determined order term.

    Outer increasing-map chains are peeled off, since they keep output
    patterns, and inner map applications are rejected.  The core is read
    once, as its rank table on the grid and the raised grid, and it is
    canonical iff every move is undone (module docstring); the first
    move that is not gives the counterexample at k = 2.  The grid of
    (2n-1)^n points is guarded against `tuple_cap` first.  Below
    `PAIR_LEVEL` nothing can split, so the answer is canonical with
    nothing evaluated.  By the pair lemma a canonical verdict covers
    every k up to `k_max`, its `checked_up_to`.
    """
    _require_matching(term, structure)
    core = require_pattern_determined(term)
    k_max = default_k_max(structure) if k_max is None else k_max
    n = max(term_arity(core), 1)
    guard_power(2 * n - 1, n, caps.tuple_cap, "canonicity grid size")
    if k_max < PAIR_LEVEL:
        return CanonicalVerdict(True, k_max)
    values, raised = range(0, 4 * n - 3, 2), range(1, 4 * n - 2, 2)
    grid = list(itertools.product(values, repeat=n))
    # the grid, then the grid raised by 1 in coordinate 1, 2, ..., n
    axes = ([values] * i + [raised] + [values] * (n - 1 - i) for i in range(n))
    points = itertools.chain(grid, *(itertools.product(*axis) for axis in axes))
    ranks = _rank_table(structure, core, points)
    base = ranks[: len(grid)]
    pattern = pattern_of(structure, base)
    for moved, move in _moves(structure, grid, ranks):
        if pattern_of(structure, moved) != pattern:
            return CanonicalVerdict(False, PAIR_LEVEL, _split(structure, grid, base, moved, move))
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
    the type table guarded here.  The arity is guarded too: at k = 1
    the one row's argument tuple has that length."""
    guard_power(space.size, arity, caps.tuple_cap, "type table size")
    guard_arity(arity, caps)
    if isinstance(body, Table):
        image = partial(gather, body.outputs, body.size)
    else:
        grid = itertools.product(range(space.k), repeat=arity)
        image = partial(gather, _rank_table(space.structure, body, grid), space.k)
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
