"""Member values the slow way, the test oracle for `qclone.evaluate`.

`hull_apply` is the data hull evaluated as first written: a linear scan
for an exact hit, a scan of every entry for the largest dominated value,
and a tie-breaker summed in `Fraction`s.  `map_value` applies a `PLMap`
by a linear scan of its pieces and `reference_form`, the piece matrix
in `Fraction`s scaled so that c == 1, or d == 1 when c == 0: the form
that `serialize` prints, where a `Piece` stores the primitive integer
multiple.
`nested_value` evaluates a member by recursing through its provenance,
each occurrence of a sub-member on its own, in `Fraction`s throughout.
The library instead compiles each member once, when it is built, into
an integer program: it reads points and values as numerator/denominator
pairs in lowest terms, looks pieces up by cross-multiplying with the
breakpoints, indexes the hull, and runs a composition as a straight-line
program over its distinct sub-members, each once per point.  `evaluate`
runs that program on the arguments turned into pairs and builds one
`Fraction` for the answer, and the spot check runs it on integer pairs
directly; both must give the oracle's values.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from clonelab.plmap import PLMap
from clonelab.qclone import Composition, DataHull, QFunction


def _squash(x: Fraction) -> Fraction:
    # bounded strictly increasing self-map of Q with values in (-1, 1)
    return x / (1 + x) if x >= 0 else x / (1 - x)


def hull_apply(hull: DataHull, point: tuple[Fraction, ...]) -> Fraction:
    for p, v in hull.data:
        if p == point:
            return v
    best = hull.floor
    for p, v in hull.data:
        if v > best and all(pj <= xj for pj, xj in zip(p, point)):
            best = v
    n = len(point)
    return best + hull.epsilon * (n + sum(_squash(x) for x in point))


def reference_form(mat) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """The matrix scaled to c == 1, or to d == 1 when c == 0."""
    a, b, c, d = map(Fraction, mat)
    if c != 0:
        return (a / c, b / c, Fraction(1), d / c)
    return (a / d, b / d, Fraction(0), Fraction(1))


def map_value(m: PLMap, x: Fraction) -> Fraction:
    for piece in m.pieces:
        if (piece.lo is None or piece.lo <= x) and (piece.hi is None or x < piece.hi):
            # in Fractions: on int matrices and an int x, `/` would be float
            # division
            a, b, c, d = reference_form(piece.mat)
            return (a * x + b) / (c * x + d)
    raise AssertionError(f"no piece of {m} contains {x}")


def nested_value(f: QFunction, u: Sequence[Fraction]) -> Fraction:
    point = tuple(Fraction(x) for x in u)
    assert len(point) == f.arity
    if isinstance(f.below, Composition):
        inner = [nested_value(g, point) for g in f.below.inners]
        return nested_value(f.below.outer, inner)
    if isinstance(f.below, PLMap):
        return map_value(f.below, point[f.coordinate - 1])
    if min(point) > f.threshold:
        return map_value(f.eventual, point[f.coordinate - 1])
    return hull_apply(f.below, point)
