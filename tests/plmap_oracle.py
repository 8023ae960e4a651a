"""Composition and inversion of piecewise maps the slow way, the test
oracle for `PLMap.compose` and `PLMap.invert_value`.

`compose` and `invert_value` are those methods as first written, in
`Fraction`s: each piece is read in its reference form (`hull_oracle`),
the image limits of a piece are its values at its ends or a/c at an
infinite Mobius end, a preimage is solved in `Fraction`s, the cuts are
a set sorted as `Fraction`s, each interval is read at its left cut (the
first just below the first cut) by a linear scan of the pieces, and
`merge` then joins neighbours with one matrix.  Maps are built only
through the `Piece` and `PLMap` constructors.  The library works on
numerator/denominator pairs, walks the inner pieces and the outer
breakpoints once in increasing order, merges as it goes and builds a
`Fraction` only for a kept endpoint; both must give equal maps with
equal `repr`s, and the same preimages.  `lift_oracle` merges its
segments with `merge` too.
"""

from __future__ import annotations

from fractions import Fraction

from clonelab.plmap import PLMap, Piece
from hull_oracle import reference_form


def merge(pieces: list[Piece]) -> tuple[Piece, ...]:
    """Adjacent pieces with one stored matrix joined into one."""
    merged = [pieces[0]]
    for piece in pieces[1:]:
        last = merged[-1]
        if piece.mat == last.mat:
            merged[-1] = Piece(last.lo, piece.hi, last.mat)
        else:
            merged.append(piece)
    return tuple(merged)


def value(piece: Piece, x: Fraction) -> Fraction:
    a, b, c, d = reference_form(piece.mat)
    return (a * x + b) / (c * x + d)


def solve(piece: Piece, y: Fraction) -> Fraction | None:
    """The x where the piece's formula is y; None at its asymptote."""
    a, b, c, d = reference_form(piece.mat)
    den = a - c * y
    return None if den == 0 else (d * y - b) / den


def limits(piece: Piece) -> tuple[Fraction | None, Fraction | None]:
    """Infimum and supremum of the piece's values; None is infinite."""
    a, _, c, _ = reference_form(piece.mat)
    at_infinity = None if c == 0 else a / c
    low = at_infinity if piece.lo is None else value(piece, piece.lo)
    high = at_infinity if piece.hi is None else value(piece, piece.hi)
    return low, high


def contains(piece: Piece, x: Fraction) -> bool:
    return (piece.lo is None or piece.lo <= x) and (piece.hi is None or x < piece.hi)


def piece_at(m: PLMap, x: Fraction) -> Piece:
    return next(piece for piece in m.pieces if contains(piece, x))


def compose(outer: PLMap, inner: PLMap) -> PLMap:
    """outer after inner."""
    cuts = set(inner.breakpoints())
    for piece in inner.pieces:
        low, high = limits(piece)
        for b in outer.breakpoints():
            # b inside the open image (low, high) of the increasing piece
            # has its one preimage inside the piece
            if (low is None or low < b) and (high is None or b < high):
                cuts.add(solve(piece, b))
    points = sorted(cuts)
    bounds = [None, *points, None]
    samples = [points[0] - 1 if points else Fraction(0), *points]
    pieces = []
    for x, lo, hi in zip(samples, bounds, bounds[1:]):
        f = piece_at(inner, x)
        g = piece_at(outer, value(f, x))
        a1, b1, c1, d1 = reference_form(g.mat)
        a2, b2, c2, d2 = reference_form(f.mat)
        mat = (
            a1 * a2 + b1 * c2,
            a1 * b2 + b1 * d2,
            c1 * a2 + d1 * c2,
            c1 * b2 + d1 * d2,
        )
        pieces.append(Piece(lo, hi, mat))
    return PLMap(merge(pieces))


def invert_value(m: PLMap, y) -> Fraction | None:
    """The preimage of y, or None outside the range."""
    y = Fraction(y)
    for piece in m.pieces:
        x = solve(piece, y)
        if x is not None and contains(piece, x) and value(piece, x) == y:
            return x
    return None
