"""The lift stage loop the slow way, the test oracle for `lifting.lift`.

`lift_stages` is the stage loop as first written: every stage builds
all its columns with `itertools.product` and evaluates each of them
into a tree of pairs by `pair_oracle.eval_pair`, which converts each
argument to a `Fraction`; the values of a stage are ranked to
`Fraction`s by a sort that compares them with `compare_values`; the
pattern codes are counted here from their definition; `find_equalizers`
builds one `Piece` per segment of each map and merges the collinear
ones with `plmap_oracle.merge`; and every column is checked on its own, in
`Fraction`s.  The library compiles each side once, evaluates each
column once per lift into sort keys, ranks them into integers by
merging each stage's new keys into the last stage's order, builds only
the pieces it keeps and checks each distinct pair of ranks once in
integers; both must give the same witnesses and the same failures.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence

from clonelab.errors import EqualizerFailure, InconsistentData
from clonelab.lifting import LiftInstance, PointInjection, WitnessTuple
from clonelab.orderterms import Coord, substitute
from clonelab.plmap import PLMap, Piece, identity
from clonelab.structures import StructureKind, SymbolicStructure
from clonelab.terms import fold
from pair_oracle import eval_pair, materialize
from plmap_oracle import merge

_ZERO = Fraction(0)
_ONE = Fraction(1)


def pattern_of(structure: SymbolicStructure, values) -> tuple[int, ...]:
    """Each value's code: over the order, the number of distinct values
    below it; over the bare set, the number of distinct values seen
    before its first occurrence."""
    if structure.kind is StructureKind.DLO:
        return tuple(len({w for w in values if w < v}) for v in values)
    return tuple(len(set(values[: values.index(v)])) for v in values)


def from_point_pairs(pairs) -> PLMap:
    """One piece per segment and both tails, then collinear pieces merged."""
    cleaned = sorted(set((Fraction(x), Fraction(y)) for x, y in pairs))
    for (x1, y1), (x2, y2) in zip(cleaned, cleaned[1:]):
        if x1 == x2:
            raise InconsistentData(f"point {x1} maps to both {y1} and {y2}")
        if y1 >= y2:
            raise InconsistentData("point pairs are not increasing")
    if not cleaned:
        return identity()
    pieces = []
    x0, y0 = cleaned[0]
    pieces.append(Piece(None, x0, (_ONE, y0 - x0, _ZERO, _ONE)))
    for (x1, y1), (x2, y2) in zip(cleaned, cleaned[1:]):
        slope = (y2 - y1) / (x2 - x1)
        pieces.append(Piece(x1, x2, (slope, y1 - slope * x1, _ZERO, _ONE)))
    xr, yr = cleaned[-1]
    pieces.append(Piece(xr, None, (_ONE, yr - xr, _ZERO, _ONE)))
    return PLMap(merge(pieces))


def find_equalizers(left, right, structure: SymbolicStructure):
    lv = tuple(Fraction(x) for x in left)
    rv = tuple(Fraction(x) for x in right)
    if len(lv) != len(rv):
        raise InconsistentData("equalizer sides have different lengths")
    pat_l = pattern_of(structure, lv)
    pat_r = pattern_of(structure, rv)
    if pat_l != pat_r:
        return None
    target = tuple(Fraction(c) for c in pat_l)
    if structure.kind is StructureKind.DLO:
        return (
            from_point_pairs(zip(lv, target)),
            from_point_pairs(zip(rv, target)),
        )
    return (
        PointInjection(tuple(sorted(set(zip(lv, target))))),
        PointInjection(tuple(sorted(set(zip(rv, target))))),
    )


def _mismatched_columns(
    left: Sequence[Fraction], right: Sequence[Fraction], structure: SymbolicStructure
) -> tuple[int, int]:
    for c1, c2 in itertools.combinations(range(len(left)), 2):
        if pattern_of(structure, (left[c1], left[c2])) != pattern_of(
            structure, (right[c1], right[c2])
        ):
            return c1, c2
    raise InconsistentData("no mismatching column pair found")


def lift_stages(instance: LiftInstance, stages: int) -> tuple[WitnessTuple, ...]:
    """`lift(instance, stages, caps, recheck=False)`, the slow way."""
    bodies = dict(instance.order_terms)

    def as_order_term(term):
        return fold(term, Coord, lambda name, parts: substitute(bodies[name], parts))

    n = instance.system.ambient_arity
    sides = [
        (as_order_term(eq.lhs), as_order_term(eq.rhs))
        for eq in instance.system.equations
    ]
    out = []
    for j in range(stages + 1):
        pts = instance.universe(j)
        args = list(itertools.product(pts, repeat=n))
        columns = len(args)
        evaluations = [
            ([eval_pair(lt, a) for a in args], [eval_pair(rt, a) for a in args])
            for lt, rt in sides
        ]
        ranks = materialize(v for lv, rv in evaluations for v in lv + rv)
        pairs = []
        for eq, (lv, rv) in zip(instance.system.equations, evaluations):
            left = [ranks[v] for v in lv]
            right = [ranks[v] for v in rv]
            found = find_equalizers(left, right, instance.structure)
            if found is None:
                c1, c2 = _mismatched_columns(left, right, instance.structure)
                if instance.structure.kind is StructureKind.DLO:
                    relate, maps = "order", "increasing maps"
                else:
                    relate, maps = "equate", "injections"
                raise EqualizerFailure(
                    f"stage {j}: sides of {eq} {relate} columns {c1} and {c2} "
                    f"differently; no {maps} can equalize them",
                    j=j,
                    equation=str(eq),
                )
            w_l, w_r = found
            for c in range(columns):
                if w_l.apply(left[c]) != w_r.apply(right[c]):
                    raise InconsistentData(
                        f"equalizer pair for {eq} fails on column {c}"
                    )
            pairs.append((w_l, w_r))
        out.append(WitnessTuple(universe=pts, pairs=tuple(pairs), columns=columns))
    return tuple(out)
