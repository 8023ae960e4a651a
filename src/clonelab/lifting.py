"""Reading type-table identities back as order-term identities.

A system of equations satisfied by the type tables of canonical
generators does not usually hold verbatim for the order terms
themselves: ``lex(lex(x,y),z)`` and ``lex(x,lex(y,z))`` are different
values, they merely order every finite argument family the same way.
What the type tables promise is the weaker statement that on each
finite argument set the two sides of every equation can be equalized by
increasing maps applied on the outside.

This module makes those maps concrete.  ``build_instance`` fixes a
satisfying assignment of the system into the type clone and substitutes
the generator bodies into the assigned catalog terms, producing one
order term per symbol; a generator is read one way, by
``_generator_reading``, for a forced assignment and in
``analyze_transfer`` alike.  ``lift`` then walks the chain of argument
sets ``A_j = {0, ..., j}`` of ints.  It compiles both sides of every
equation once and evaluates each argument column once per lift, at the
first stage that contains it, into the sort keys of its values; a stage
ranks all its keys into integers in key order by merging its new keys
into the previous stage's order.  Patterns, codes and the column check
work on those ranks; each equation gets a pair of order-preserving
maps, exact maps interpolated through its ranks, whose composites agree
exactly, column by column, as the check confirms in integers.  A stage
at which no such pair exists is a genuine obstruction and is reported
as an :class:`~clonelab.errors.EqualizerFailure` rather than papered
over, before any column of a later stage is evaluated.

No other choice of stage points could answer differently.  Both
structures are homogeneous, so any j+1 distinct rationals are an
automorphic image of ``{0, ..., j}`` (an increasing one over ``dlo``).
The order terms are canonical, so they act on argument types alone:
both sides of every equation realize the same patterns on the image
points as on ``A_j``, and the same equalizers exist.

The maps produced at different stages need not cohere, and nothing here
claims they converge.  ``approximate_accumulation`` only classifies the
stages by the joint order pattern of the maps on a few sample points
and reports whether a single pattern owns a tail of the chain.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Mapping, Sequence

from .canonical import Operation, XiImage, type_table, xi_infty
from .clones import CatalogEntry, FiniteClone, generate
from .config import Caps, DEFAULT_CAPS, guard_power
from .equations import (
    EquationSystem,
    ProjHomReport,
    first_broken,
    has_projective_homomorphism,
    satisfiable_in_clone,
    satisfiable_in_projections,
)
from .errors import EqualizerFailure, InconsistentData, UnsatisfiableSystem
from .orderterms import Coord, OrderTerm, compile_term, substitute
from .plmap import PLMap, _exact, from_point_pairs
from .structures import DLO, StructureKind, SymbolicStructure, pattern_of
from .terms import App, Term, Var, fold

# the last stage of a lift and the sample points of its accumulation, by default
DEFAULT_STAGES = 3
ACCUMULATION_DEPTH = 2


@dataclass(frozen=True)
class PointInjection:
    """A finite injective partial map on the rationals.

    Order-preserving maps are the right witnesses over a dense linear
    order, but over a pure set the symmetries are arbitrary injections,
    and the equalizing maps may genuinely have to invert the order of
    their inputs.  A point injection records such a map on exactly the
    points where it is needed, ints or `Fraction`s, kept as given.
    """

    pairs: tuple[tuple[Fraction | int, Fraction | int], ...]

    def __post_init__(self):
        images = dict(self.pairs)
        if len(images) != len(self.pairs):
            raise InconsistentData("point injection maps a source twice")
        if len(set(images.values())) != len(self.pairs):
            raise InconsistentData("point injection reuses a target")
        # the lookup table for `apply`; not a field, so equality and repr
        # see `pairs` only
        object.__setattr__(self, "_images", images)

    def apply(self, x: Fraction | int) -> Fraction | int:
        image = self._images.get(_exact(x))
        if image is None:
            raise InconsistentData(f"{x} is outside the injection's domain")
        return image


Witness = PLMap | PointInjection


@dataclass(frozen=True)
class WitnessTuple:
    """Equalizing maps for one stage: one pair per equation.

    For every equation ``s = t`` of the system and every argument
    column ``c`` drawn from ``universe``, the stored pair ``(w_s, w_t)``
    satisfies ``w_s(s(c)) == w_t(t(c))`` exactly, where the values of
    both sides stand for their integer ranks among all values of the
    stage.  The stage points in ``universe`` are ints; the maps
    themselves are exact: `PLMap`s, or `PointInjection`s on the int
    ranks as `lift` passes them.
    """

    universe: tuple[int, ...]
    pairs: tuple[tuple[Witness, Witness], ...]
    columns: int


def enumerate_argument_matrix(
    points: Sequence[Fraction], n: int
) -> list[tuple[Fraction, ...]]:
    """Rows of the matrix whose columns run through ``points**n``.

    Columns are ordered lexicographically, so for points ``{0,1}`` and
    ``n = 2`` the rows are ``(0,0,1,1)`` and ``(0,1,0,1)``.  The points
    are kept as given, ints or `Fraction`s.  `lift` builds its own
    columns; this matrix, capped at the default ``tuple_cap``, serves
    the benchmark's replay of a lift and the tests.
    """
    pts = tuple(points)
    if not pts:
        raise InconsistentData("argument matrix needs at least one point")
    if n < 1:
        raise InconsistentData("argument matrix needs at least one row")
    guard_power(len(pts), n, DEFAULT_CAPS.tuple_cap, "argument matrix width")
    return list(zip(*itertools.product(pts, repeat=n)))


def find_equalizers(
    left: Sequence[Fraction],
    right: Sequence[Fraction],
    structure: SymbolicStructure,
) -> tuple[Witness, Witness] | None:
    """Maps ``(w_l, w_r)`` with ``w_l(left[c]) == w_r(right[c])`` for all c.

    Both value lists are mapped onto the code sequence of their common
    pattern; if the patterns differ, no pair of symmetries of the
    structure can reconcile the two sides and None is returned.  The
    values may be any rationals, such as the integer ranks `lift`
    passes; the codes are computed on them as given, and a point
    injection keeps them so.
    """
    if len(left) != len(right):
        raise InconsistentData("equalizer sides have different lengths")
    codes = pattern_of(structure, left)
    if pattern_of(structure, right) != codes:
        return None
    build = _SYMMETRIES[structure.kind][0]
    return build(set(zip(left, codes))), build(set(zip(right, codes)))


def _point_injection(pairs) -> PointInjection:
    return PointInjection(tuple(sorted(pairs)))


# per structure kind: the equalizer maps, and the words for a mismatch
_SYMMETRIES = {
    StructureKind.DLO: (from_point_pairs, "order", "increasing maps"),
    StructureKind.PURE_SET: (_point_injection, "equate", "injections"),
}


def _mismatched_columns(
    left: Sequence[Fraction], right: Sequence[Fraction], structure: SymbolicStructure
) -> tuple[int, int]:
    # a pattern disagreement always shows up on a pair of columns
    for c1, c2 in itertools.combinations(range(len(left)), 2):
        if pattern_of(structure, (left[c1], left[c2])) != pattern_of(
            structure, (right[c1], right[c2])
        ):
            return c1, c2
    raise InconsistentData("no mismatching column pair found")


@dataclass(frozen=True)
class LiftInstance:
    """Everything a lift needs, assembled by :func:`build_instance`.

    ``order_terms`` interprets each symbol of the system as an order
    term over the structure; the interpretation's action on the
    critical-level type space is exactly the catalog table assigned to
    the symbol.
    """

    structure: SymbolicStructure
    system: EquationSystem
    type_clone: FiniteClone
    assignment: tuple[tuple[str, CatalogEntry], ...]
    order_terms: tuple[tuple[str, OrderTerm], ...]

    def universe(self, j: int) -> tuple[int, ...]:
        """The j-th argument set ``{0, ..., j}``, as ints."""
        if j < 0:
            raise InconsistentData("stage index must be nonnegative")
        return tuple(range(j + 1))

    def order_term_of(self, name: str) -> OrderTerm:
        for sym, term in self.order_terms:
            if sym == name:
                return term
        raise InconsistentData(f"no interpretation for symbol {name!r}")


def _type_clone(
    structure: SymbolicStructure, gen_ops: tuple[Operation, ...], caps: Caps
) -> tuple[XiImage, FiniteClone]:
    """Refuse a finite structure, then read the generators' action on
    types with `xi_infty`, which refuses a non-canonical generator, and
    generate the type clone."""
    if not isinstance(structure, SymbolicStructure):
        raise InconsistentData("lifts work over the symbolic structures dlo/pureset")
    xi = xi_infty(gen_ops, structure, caps)
    return xi, generate(xi.named_tables(), xi.space.size, caps)


def build_instance(
    structure: SymbolicStructure,
    generators: Sequence[Operation],
    system: EquationSystem,
    caps: Caps = DEFAULT_CAPS,
    assign: Mapping[str, str] | None = None,
    recheck: bool = True,
) -> LiftInstance:
    """Prepare a lift: check canonicity, satisfy the system on the type
    tables, and substitute generator bodies into the satisfying terms.

    By default the assignment is found by searching the type clone's
    catalogs.  ``assign`` forces specific generators onto the symbols
    instead (by generator name); it must name every symbol of the system
    and nothing else, which is checked before any work.  That matters
    when the search would settle on a degenerate solution such as a
    plain selector; see `_generator_reading` for how a generator is
    read.  With ``recheck=False`` the forced assignment is accepted
    without verifying that it satisfies the system, so that the
    resulting obstruction can be observed downstream.
    """
    stray = sorted(set(assign or ()).difference(sym for sym, _ in system.signature))
    if stray:
        raise InconsistentData(
            f"forced assignment names {stray[0]!r}, not a symbol of the system"
        )
    gen_ops = tuple(generators)
    # only the catalogs of the symbols' arities are read, and no catalog
    # depends on a wider one
    widest = max((arity for _, arity in system.signature), default=1)
    narrow = replace(caps, arity_cap=min(caps.arity_cap, widest))
    xi, clone = _type_clone(structure, gen_ops, narrow)
    if assign is None:
        search = satisfiable_in_clone(system, clone)
        if not search.found:
            qualifier = "" if search.exhaustive else " within the explored catalogs"
            raise UnsatisfiableSystem(
                f"no assignment into the type clone satisfies the system{qualifier}"
            )
        assignment = search.assignment
    else:
        assignment = _generator_reading(system, clone, assign)
        if recheck:
            _check_satisfaction(system, assignment, clone)
    return _finish_instance(structure, gen_ops, system, xi, clone, assignment, caps)


def _generator_reading(
    system: EquationSystem, clone: FiniteClone, assign: Mapping[str, str]
) -> tuple[tuple[str, CatalogEntry], ...]:
    """Each symbol read as its assigned generator: the first catalog
    entry with the generator's table, or, where a cap kept that table
    out of the catalog, the generator's own term ``g(x1, ..., xn)``."""
    reading = []
    for sym, arity in system.signature:
        gname = assign.get(sym)
        if gname is None:
            raise InconsistentData(f"forced assignment misses symbol {sym!r}")
        table = clone.generator_table(gname)
        if table.arity != arity:
            raise InconsistentData(
                f"generator {gname!r} has arity {table.arity}, "
                f"symbol {sym!r} needs {arity}"
            )
        entry = clone.lookup_by_table(table)
        if entry is None:
            own = App(gname, tuple(Var(i) for i in range(1, arity + 1)))
            entry = CatalogEntry(table, own, 1)
        reading.append((sym, entry))
    return tuple(reading)


def _check_satisfaction(
    system: EquationSystem,
    assignment: tuple[tuple[str, CatalogEntry], ...],
    clone: FiniteClone,
) -> None:
    tables = {sym: entry.table for sym, entry in assignment}
    bad = first_broken(system, tables, clone.base_size, clone.caps)
    if bad is not None:
        eq = system.equations[bad]
        raise UnsatisfiableSystem(f"assignment breaks {eq} on the type tables")


def _finish_instance(
    structure: SymbolicStructure,
    gen_ops: tuple[Operation, ...],
    system: EquationSystem,
    xi: XiImage,
    clone: FiniteClone,
    assignment: tuple[tuple[str, CatalogEntry], ...],
    caps: Caps,
) -> LiftInstance:
    bodies = {op.name: op.body for op in gen_ops}
    order_terms = []
    for sym, entry in assignment:
        interp = _as_order_term(entry.term, bodies)
        if type_table(interp, system.arity_of(sym), xi.space, caps) != entry.table:
            raise InconsistentData(
                f"substituted term for {sym!r} does not act as its catalog table"
            )
        order_terms.append((sym, interp))
    return LiftInstance(
        structure=structure,
        system=system,
        type_clone=clone,
        assignment=assignment,
        order_terms=tuple(order_terms),
    )


def _as_order_term(term: Term, bodies: Mapping[str, OrderTerm]) -> OrderTerm:
    return fold(
        term,
        lambda i: Coord(i),
        lambda name, parts: substitute(bodies[name], parts),
    )


def lift(
    instance: LiftInstance,
    stages: int,
    caps: Caps = DEFAULT_CAPS,
    recheck: bool = True,
) -> tuple[WitnessTuple, ...]:
    """Equalizing maps for every stage ``A_0, ..., A_stages``.

    Both sides of every equation are compiled once, and each argument
    column is evaluated once per lift, into the sort keys of its values,
    at the first stage that contains it: the argument sets are nested,
    so a stage's columns are the previous stage's plus those that use
    its new point.  Each distinct key is hashed once, when it is
    numbered.  A stage merges its new key numbers into the previous
    stage's key order, so every key of the stage is ranked into an
    integer in key order without hashing it again.  Each equation
    receives a pair of exact maps agreeing on the common pattern codes
    of its ranks.  The resulting equalities are verified exactly, in
    integers, once per distinct pair of ranks, before the stage is
    returned.  A missing equalizer raises
    :class:`~clonelab.errors.EqualizerFailure` naming the stage, the
    equation, and a column pair the two sides order differently, before
    any column of a later stage is evaluated.
    """
    if stages < 0:
        raise InconsistentData("need at least stage 0")
    if recheck:
        _check_satisfaction(instance.system, instance.assignment, instance.type_clone)
    bodies = dict(instance.order_terms)
    n = instance.system.ambient_arity
    sides = [
        compile_term(_as_order_term(side, bodies))
        for eq in instance.system.equations
        for side in (eq.lhs, eq.rhs)
    ]
    # every column evaluated so far, and every distinct key, numbered in
    # the order first met; per side, the key number of each column
    position: dict[tuple[int, ...], int] = {}
    interned: dict[tuple, int] = {}
    ids_of: list[list[int]] = [[] for _ in sides]
    ordered: list[int] = []  # every key number so far, in key order
    out = []
    for j in range(stages + 1):
        pts = instance.universe(j)
        guard_power(len(pts), n, caps.tuple_cap, "argument matrix width")
        seen, known = len(position), len(interned)
        columns = [
            position.setdefault(args, len(position))
            for args in itertools.product(pts, repeat=n)
        ]
        new = list(position)[seen:]
        for evaluate, ids in zip(sides, ids_of):
            ids.extend(interned.setdefault(key, len(interned)) for key in map(evaluate, new))
        # the old numbers are one sorted run, so the sort merges the new ones in
        ordered += range(known, len(interned))
        ordered.sort(key=list(interned).__getitem__)
        rank_of = [0] * len(ordered)
        for r, i in enumerate(ordered):
            rank_of[i] = r
        ranked = [[rank_of[ids[c]] for c in columns] for ids in ids_of]
        pairs = []
        for eq, left, right in zip(instance.system.equations, ranked[::2], ranked[1::2]):
            found = find_equalizers(left, right, instance.structure)
            if found is None:
                c1, c2 = _mismatched_columns(left, right, instance.structure)
                _, relate, maps = _SYMMETRIES[instance.structure.kind]
                raise EqualizerFailure(
                    f"stage {j}: sides of {eq} {relate} columns {c1} and {c2} "
                    f"differently; no {maps} can equalize them",
                    j=j,
                    equation=str(eq),
                )
            c = _unequalized_column(*found, left, right)
            if c is not None:
                raise InconsistentData(f"equalizer pair for {eq} fails on column {c}")
            pairs.append(found)
        out.append(WitnessTuple(universe=pts, pairs=tuple(pairs), columns=len(columns)))
    return tuple(out)


def _unequalized_column(
    w_l: Witness, w_r: Witness, left: Sequence[int], right: Sequence[int]
) -> int | None:
    """The first column whose ranks the pair does not map to one value,
    or None; each distinct pair of ranks is checked once, and increasing
    maps are compared in integers, as `PLMap.ratio` pairs."""
    if isinstance(w_l, PLMap):
        image_l, image_r = (lambda x: w_l.ratio(x, 1)), (lambda x: w_r.ratio(x, 1))
    else:
        image_l, image_r = w_l.apply, w_r.apply
    for a, b in dict.fromkeys(zip(left, right)):
        if image_l(a) != image_r(b):
            return list(zip(left, right)).index((a, b))
    return None


@dataclass(frozen=True)
class AccumulationReport:
    """Which joint pattern owns the most stages, and whether it owns a tail.

    ``stable`` means every stage from ``indices[0]`` on realizes the
    same pattern.  That is a statement about the inspected stages only;
    it does not assert anything about stages that were never computed.
    """

    depth: int
    pattern: tuple[int, ...]
    indices: tuple[int, ...]
    total: int
    stable: bool

    def describe(self) -> str:
        kind = "tail" if self.stable else "subsequence"
        members = ",".join(str(i) for i in self.indices)
        return (
            f"depth {self.depth}: pattern {self.pattern} on {kind} "
            f"[{members}] across {self.total} stages"
        )


def approximate_accumulation(
    witnesses: Sequence[WitnessTuple], depth: int
) -> AccumulationReport | None:
    """Classify witness stages by the joint order pattern of their maps.

    Every map of every pair is applied to the ``depth`` sample points
    ``0, ..., depth-1`` and the rank pattern of the concatenated images
    is the stage's class.  The report picks the largest class, breaking
    ties toward the latest stage.  Increasing maps applied on the outside
    of all witnesses leave the classes unchanged, so the classification
    only sees the mutual order of the witness maps, not their absolute
    values.

    Returns None when a witness is a `PointInjection`, as over the pure
    set: such a map is defined only on its own stage's points, so there
    are no common sample points to apply every map to.
    """
    if len(witnesses) < 2:
        raise InconsistentData("need at least two stages to compare")
    if depth < 1:
        raise InconsistentData("need at least one sample point")
    pts = tuple(Fraction(i) for i in range(depth))
    maps = [w for witness in witnesses for pair in witness.pairs for w in pair]
    if any(isinstance(w, PointInjection) for w in maps):
        return None
    classes: dict[tuple[int, ...], list[int]] = {}
    for index, witness in enumerate(witnesses):
        images = []
        for w_l, w_r in witness.pairs:
            images.extend(w_l.apply(p) for p in pts)
            images.extend(w_r.apply(p) for p in pts)
        classes.setdefault(pattern_of(DLO, images), []).append(index)
    pattern, indices = max(classes.items(), key=lambda kv: (len(kv[1]), kv[1][-1]))
    stable = indices == list(range(indices[0], len(witnesses)))
    return AccumulationReport(
        depth=depth,
        pattern=pattern,
        indices=tuple(indices),
        total=len(witnesses),
        stable=stable,
    )


def run_lift(
    instance: LiftInstance, stages: int, caps: Caps, depth: int = ACCUMULATION_DEPTH
) -> tuple[tuple[WitnessTuple, ...] | None, AccumulationReport | None, str | None]:
    """`lift` and, past one stage, `approximate_accumulation`, with a
    failed stage returned as its message: what `describe_lift` renders."""
    try:
        witnesses = lift(instance, stages, caps)
    except EqualizerFailure as exc:
        return None, None, str(exc)
    if len(witnesses) < 2:
        return witnesses, None, None
    return witnesses, approximate_accumulation(witnesses, depth), None


def describe_lift(
    witnesses: Sequence[WitnessTuple] | None,
    accumulation: AccumulationReport | None,
    failure: str | None,
) -> list[str]:
    """A failed stage, or a line per stage and, past one stage, the
    accumulation; no line for a lift that never ran."""
    if failure is not None:
        return [f"lift failed: {failure}"]
    lines = [
        f"stage {j}: points {{{','.join(map(str, w.universe))}}}, {w.columns} "
        f"columns, {len(w.pairs)} equation(s) equalized exactly"
        for j, w in enumerate(witnesses or ())
    ]
    if len(lines) >= 2 and accumulation is None:
        lines.append("accumulation: not defined for point injections")
    elif len(lines) >= 2:
        lines.append(f"accumulation: {accumulation.describe()}")
    return lines


@dataclass(frozen=True)
class TransferReport:
    """End-to-end analysis of a generating set over a structure."""

    structure: SymbolicStructure
    xi: XiImage
    type_clone: FiniteClone
    homomorphism: ProjHomReport
    system: EquationSystem | None = None
    # (witness system satisfiable in the type clone,
    #  witness system unsatisfiable in the projections)
    triangle: tuple[bool, bool] | None = None
    instance: LiftInstance | None = None
    witnesses: tuple[WitnessTuple, ...] | None = None
    accumulation: AccumulationReport | None = None
    failure: str | None = None

    def describe(self) -> str:
        lines = [f"structure: {self.structure.name}"]
        lines.append(f"type space size: {self.xi.space.size}")
        for name, image in self.xi.images:
            lines.append(f"xi({name}):")
            lines.extend("  " + row for row in image.describe().splitlines())
        lines.append(f"catalogs: {self.type_clone.saturation_summary()}")
        lines.append(self.homomorphism.describe())
        lines.extend(describe_lift(self.witnesses, self.accumulation, self.failure))
        return "\n".join(lines)


def analyze_transfer(
    structure: SymbolicStructure,
    generators: Sequence[Operation],
    caps: Caps = DEFAULT_CAPS,
    stages: int = DEFAULT_STAGES,
    depth: int = ACCUMULATION_DEPTH,
) -> TransferReport:
    """Full pipeline: type images, projection reading, and if a
    refutation was found, the lift of its witness system.

    A refuted projection reading comes with an equation system that the
    type clone satisfies but no selector assignment does.  Its equations
    are collisions of the generators' own tables, so each generator is
    read as itself, as ``build_instance`` reads ``assign={g: g}``, and
    ``triangle[0]`` holds by construction (the lift's recheck verifies
    it).  The lift then shows how the generators themselves satisfy the
    system up to symmetries — or fails honestly at some stage, which is
    itself a finding.
    """
    gen_ops = tuple(generators)
    xi, clone = _type_clone(structure, gen_ops, caps)
    hom = has_projective_homomorphism(clone)
    if hom.status != "refuted":
        return TransferReport(structure, xi, clone, hom)
    system = hom.witness_system()
    reading = _generator_reading(system, clone, {op.name: op.name for op in gen_ops})
    instance = _finish_instance(structure, gen_ops, system, xi, clone, reading, caps)
    triangle = (True, not satisfiable_in_projections(system).satisfiable)
    return TransferReport(
        structure, xi, clone, hom, system, triangle, instance,
        *run_lift(instance, stages, caps, depth),
    )
