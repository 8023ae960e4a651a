"""Canonicity of operations and their action on type spaces.

An operation f is canonical for a structure when tuples of arguments of
the same types have images of the same type, for every tuple length k:
applying automorphisms to the arguments independently can be undone by
one automorphism on the image.  Canonical operations act on type spaces;
that action is the type table computed here, and at the structure's
critical level m (2 for the dense order, 1 for the pure set, the largest
relation arity for finite structures) the action determines the whole
family.

Deciding canonicity is exact, never sampled.  Over a finite structure
the automorphism group decides a canonical table outright.  The table f
is canonical at every level iff each (α_1, …, α_n) in Aut^n is undone
by one β in Aut, f(α_1x_1, …, α_nx_n) = βf(x) pointwise: such a β moves
the column images of any argument list onto those of the moved list,
and conversely the argument list whose k = |D|^n columns enumerate D^n
forces one β for every point.  The tuples that are undone form a
subgroup of Aut^n, since they are closed under composition, so it is
enough to check that moving one coordinate by a generator of Aut is
undone; a greedy generating set keeps this to n·|gens| gathers of the
table.

When that test fails, and over a symbolic structure always, one loop
decides: it runs through argument lists (one k-tuple per argument),
groups them by their per-argument types, and reports the first two
lists of one group whose column images differ in type.  The kinds differ
in what is enumerated and at which k.  Over a finite structure it is
every argument list over the domain, typed by orbits, for each k up to
`k_max`, which finds the least level that splits: finite structures are
not homogeneous in general.  Over a symbolic structure it is every joint
order pattern of the n*k argument entries, realized by its integer ranks
and typed by patterns; this is exact precisely because the order-term
basis is pattern-determined, so inner applications of named maps are
rejected (see `orderterms.require_pattern_determined`).

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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from typing import Callable, Hashable, Iterable, Sequence

from .clones import Table
from .config import Caps, DEFAULT_CAPS, guard
from .errors import InconsistentData, NonCanonicalOperation
from .orderterms import (
    OrderTerm,
    eval_term,
    require_pattern_determined,
    term_arity,
)
from .structures import (
    ConcreteTypeSpace,
    FiniteStructure,
    PatternTypeSpace,
    Permutation,
    Structure,
    SymbolicStructure,
    automorphisms,
    joint_order_patterns,
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


def default_k_max(structure: Structure) -> int:
    """The default bound of `is_canonical`: max(m, 3), with m the
    structure's largest relation arity.  It bounds only the search for a
    split.  Over a finite structure a table whose single-coordinate moves
    by generators of Aut are undone is canonical at every k, whatever the
    bound, and any other table is searched for its least splitting k up
    to the bound; over a symbolic structure the verdict is decided on
    pairs and covers every k."""
    return max(structure.max_relation_arity, 3)


def _require_matching(body: Table | OrderTerm, structure: Structure) -> None:
    if isinstance(body, Table):
        if not isinstance(structure, FiniteStructure):
            raise InconsistentData("table operations need a finite structure")
        if body.size != structure.domain_size:
            raise InconsistentData("table base size differs from structure domain")
    elif not isinstance(structure, SymbolicStructure):
        raise InconsistentData("order terms need a symbolic structure")


def _column_images(
    body: Table | OrderTerm, k: int
) -> Callable[[Sequence[tuple]], tuple]:
    """The map from an argument list (one k-tuple per argument) to the
    k-tuple of images of its columns."""
    apply = body.apply if isinstance(body, Table) else partial(eval_term, body)
    columns = range(k)
    return lambda args: tuple(apply(tuple(a[j] for a in args)) for j in columns)


def _first_split(
    arg_lists: Iterable[tuple[tuple, ...]],
    classify: Callable[[Sequence], Hashable],
    image: Callable[[Sequence[tuple]], tuple],
) -> tuple[tuple, tuple] | None:
    """The first two argument lists with equal per-argument types whose
    images differ in type, or None when the images' type is a function
    of the argument types."""
    groups: dict[tuple, tuple[tuple, Hashable]] = {}
    for args in arg_lists:
        key = tuple(map(classify, args))
        image_type = classify(image(args))
        first_args, first_type = groups.setdefault(key, (args, image_type))
        if image_type != first_type:
            return first_args, args
    return None


def _generating_set(auts: Sequence[Permutation]) -> list[tuple[int, ...]]:
    """Image tuples of automorphisms that generate the group, chosen
    greedily in the order of `auts`: one is kept when those kept before
    it do not generate it.  The first automorphism is the identity."""
    gens: list[tuple[int, ...]] = []
    group = {auts[0].images}
    for aut in auts:
        if len(group) == len(auts):
            break
        if aut.images in group:
            continue
        gens.append(aut.images)
        # the old group is closed under the old generators, so only its
        # products with the new one, and new elements, need expanding
        pending = [tuple(map(e.__getitem__, aut.images)) for e in group]
        while pending:
            e = pending.pop()
            if e not in group:
                group.add(e)
                pending.extend(tuple(map(e.__getitem__, g)) for g in gens)
    return gens


def _moves_are_undone(table: Table, auts: Sequence[Permutation]) -> bool:
    """Whether every move of one argument by a generator of Aut can be
    undone by one automorphism on the output: f with the generator
    applied at coordinate i must factor through f as a well-defined map
    on the image of f, and that map must be the restriction of an
    automorphism."""
    size, n, outputs = table.size, table.arity, table.outputs
    image = sorted(set(outputs))
    restrictions = {tuple(map(aut.images.__getitem__, image)) for aut in auts}
    gens = _generating_set(auts)
    for i in range(n):
        weight = size ** (n - 1 - i)
        digits = [(row // weight) % size for row in range(len(outputs))]
        for g in gens:
            moved: dict[int, int] = {}
            for row, (out, d) in enumerate(zip(outputs, digits)):
                new = outputs[row + (g[d] - d) * weight]
                if moved.setdefault(out, new) != new:
                    return False
            if tuple(map(moved.__getitem__, image)) not in restrictions:
                return False
    return True


def _enumerated_verdict(
    table: Table,
    structure: FiniteStructure,
    k_max: int,
    caps: Caps,
    auts: Sequence[Permutation],
) -> CanonicalVerdict:
    """The exhaustive check: for k = 1, 2, … up to `k_max`, every list of
    argument tuples over the domain, typed by orbits.  It reports the
    least k with a split, its first counterexample and automorphisms that
    witness the equal argument types, or canonical when no k splits."""
    n = table.arity
    for k in range(1, k_max + 1):
        guard(structure.domain_size ** (k * n), caps.tuple_cap, "argument space size")
        space = orbits(structure, k, caps)
        tuples = itertools.product(range(structure.domain_size), repeat=k)
        arg_lists = itertools.product(tuples, repeat=n)
        split = _first_split(arg_lists, space.classify, _column_images(table, k))
        if split is not None:
            first_args, args = split
            witnesses = tuple(
                next(p for p in auts if p.apply(a) == b)
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

    A table f is canonical at every level iff every (α_1, …, α_n) in
    Aut^n is undone by some β in Aut: f(α_1x_1, …, α_nx_n) = βf(x)
    pointwise.  If b_i = α_i a_i, the images of the columns of b are β of
    those of a; conversely, at k = |D|^n with columns that enumerate D^n,
    one β must undo the move on every point.  The tuples that are undone
    are closed under composition, so they form a subgroup of Aut^n, and
    it is enough that the moves of one coordinate by a generator of Aut
    are undone.  When they are, the verdict is canonical with no
    enumeration and no cap.  When one is not, f is not canonical at some
    level, and the exhaustive check decides whether that level is at most
    `k_max`, with the least splitting k and its first counterexample."""
    _require_matching(table, structure)
    k_max = default_k_max(structure) if k_max is None else k_max
    auts = automorphisms(structure)
    if _moves_are_undone(table, auts):
        return CanonicalVerdict(True, k_max)
    return _enumerated_verdict(table, structure, k_max, caps, auts)


def is_canonical_symbolic(
    term: OrderTerm,
    structure: SymbolicStructure,
    k_max: int | None = None,
    caps: Caps = DEFAULT_CAPS,
) -> CanonicalVerdict:
    """Exact canonicity decision for a pattern-determined order term.

    The joint order patterns of all n*k argument entries are enumerated
    at the single level k = min(`k_max`, `PAIR_LEVEL`), each realized by
    its integer ranks and typed by patterns.  By the pair lemma the
    verdict covers every k up to `k_max`, which a canonical verdict
    reports as `checked_up_to`.  Outer increasing-map chains are peeled
    off first since they preserve output patterns; inner map
    applications are rejected.
    """
    _require_matching(term, structure)
    core = require_pattern_determined(term)
    k_max = default_k_max(structure) if k_max is None else k_max
    n = max(term_arity(core), 1)
    k = min(k_max, PAIR_LEVEL)
    arg_lists = (
        tuple(codes[i * k : (i + 1) * k] for i in range(n))
        for codes in joint_order_patterns(n * k, caps)
    )
    classify = partial(pattern_of, structure)
    split = _first_split(arg_lists, classify, _column_images(core, k))
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


def type_image(
    operation: Operation,
    structure: Structure,
    k: int,
    caps: Caps = DEFAULT_CAPS,
    check: bool = True,
) -> TypeOperation:
    """Type table of a canonical operation at level k.

    Raises NonCanonicalOperation (carrying the counterexample) when the
    canonicity check up to k fails; representatives are then
    meaningless.  Over a symbolic structure that check is decided on
    pairs and covers every k.
    """
    _require_matching(operation.body, structure)
    if check:
        verdict = is_canonical(operation, structure, k_max=k, caps=caps)
        if not verdict.canonical:
            raise NonCanonicalOperation(
                f"operation {operation.name!r} is not canonical at level "
                f"{verdict.counterexample.k}",
                verdict.counterexample,
            )
    n = operation.arity
    space = type_space(structure, k, caps)
    guard(space.size**n, caps.tuple_cap, "type table size")
    image = _column_images(operation.body, k)
    outputs = tuple(
        space.classify(image([space.representative(t) for t in type_args]))
        for type_args in itertools.product(range(space.size), repeat=n)
    )
    return TypeOperation(space, Table(space.size, n, outputs))


@dataclass(frozen=True)
class XiImage:
    """Images of a generating set on the critical-level type space."""

    space: ConcreteTypeSpace | PatternTypeSpace
    images: tuple[tuple[str, TypeOperation], ...]

    def named_tables(self) -> list[tuple[str, Table]]:
        return [(name, op.table) for name, op in self.images]


def xi_infty(
    generators: Sequence[Operation],
    structure: Structure,
    caps: Caps = DEFAULT_CAPS,
    check: bool = True,
) -> XiImage:
    """Action of the generators at the critical level m, past which the
    type spaces of a structure stop changing."""
    m = structure.max_relation_arity
    images = tuple(
        (op.name, type_image(op, structure, m, caps, check)) for op in generators
    )
    return XiImage(type_space(structure, m, caps), images)
