"""Increasing piecewise maps of the rationals with affine and Mobius pieces.

A PLMap is a strictly increasing self-map of Q given by finitely many
pieces on half-open intervals [lo, hi) covering the line.  Each piece is
a fractional-linear map x -> (a*x + b)/(c*x + d) with positive
determinant and pole outside the piece; affine pieces are the c == 0
case.  Adjacent pieces agree at shared endpoints, so the whole map is
strictly increasing.  Maps with unbounded range in both directions are
automorphisms of (Q, <); bounded ones are proper self-embeddings.

A piece stores its matrix as four coprime ints and its endpoints as
`fractions.Fraction`s; arguments are `Fraction`s or `int`s, and
everything is exact.  The arithmetic runs in integers, on
numerator/denominator pairs: ``ratio`` takes x as a pair and returns the
value as one in lowest terms, ``preimage`` solves for x the same way,
the constructors scale their values to one common denominator, and
``compose`` finds its cuts and matrices on pairs.  A `Fraction` is built
only where the API hands one out: one per kept endpoint, and the
values of ``apply``, ``invert_value``, ``breakpoints`` and the range
limits.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import InconsistentData, ParseError
from .syntax import records

Mat = tuple[int, int, int, int]


@dataclass(frozen=True)
class Piece:
    """One interval [lo, hi) with its fractional-linear map; None is +-infinity.

    Construction takes any exact matrix and stores its primitive integer
    multiple: four coprime ints with c > 0, or c == 0 and d > 0.  Two
    matrices give the same map exactly when they are proportional, so
    equal maps give equal pieces.  Int endpoints become `Fraction`s, and
    the interval and pole checks cross-multiply.
    """

    lo: Fraction | None
    hi: Fraction | None
    mat: Mat

    def __post_init__(self):
        a, b, c, d = self.mat
        if not type(a) is type(b) is type(c) is type(d) is int:
            vals = [_exact(v) for v in self.mat]
            scale = lcm(*(v.denominator for v in vals))
            a, b, c, d = (v.numerator * (scale // v.denominator) for v in vals)
        if c == d == 0:
            raise InconsistentData("degenerate piece matrix: c = d = 0")
        a, b, c, d = mat = _primitive(a, b, c, d)
        object.__setattr__(self, "mat", mat)
        lo, hi = self.lo, self.hi
        if lo is not None and type(lo) is not Fraction:
            lo = Fraction(_exact(lo))
            object.__setattr__(self, "lo", lo)
        if hi is not None and type(hi) is not Fraction:
            hi = Fraction(_exact(hi))
            object.__setattr__(self, "hi", hi)
        if a * d - b * c <= 0:
            raise InconsistentData("piece matrix must have positive determinant")
        if lo is not None and hi is not None and (
            hi.numerator * lo.denominator <= lo.numerator * hi.denominator
        ):
            raise InconsistentData("piece interval is empty")
        # the pole -d/c, for c > 0, is at or above lo when -d*lo_d >= lo_n*c
        # and at or below hi when -d*hi_d <= hi_n*c
        if c != 0 and (lo is None or -d * lo.denominator >= lo.numerator * c) and (
            hi is None or -d * hi.denominator <= hi.numerator * c
        ):
            raise InconsistentData("piece has a pole inside its closed interval")

    @property
    def is_affine(self) -> bool:
        return self.mat[2] == 0

    def ratio(self, xn: int, xd: int) -> tuple[int, int]:
        """The value at xn/xd, for xd > 0, in lowest terms with a
        positive denominator; left of a pole c*xn + d*xd is negative."""
        a, b, c, d = self.mat
        num, den = a * xn + b * xd, c * xn + d * xd
        g = gcd(num, den)
        if den < 0:
            g = -g
        return num // g, den // g

    def preimage(self, yn: int, yd: int) -> tuple[int, int] | None:
        """The x at which the piece's formula takes the value yn/yd, for
        yd > 0, in lowest terms with a positive denominator, inside the
        piece or not; None when y is the formula's asymptote.  No such x
        is a pole: c*x + d there is yd times the determinant over
        a*yd - c*yn."""
        a, b, c, d = self.mat
        num, den = d * yn - b * yd, a * yd - c * yn
        if den == 0:
            return None
        g = gcd(num, den)
        if den < 0:
            g = -g
        return num // g, den // g

    def invert(self, y: Fraction | int) -> Fraction | None:
        """``preimage`` of an exact y, as a `Fraction`."""
        x = self.preimage(*_ratio(y))
        return None if x is None else Fraction(*x)


@dataclass(frozen=True)
class PLMap:
    """The map made of ``pieces``; construction checks that adjacent
    pieces meet, cross-multiplying their values at each breakpoint, and
    stores the breakpoints as numerator/denominator pairs for
    the piece lookup, outside the fields that equality compares."""

    pieces: tuple[Piece, ...]

    def __post_init__(self):
        ps = self.pieces
        if not ps:
            raise InconsistentData("a PLMap needs at least one piece")
        if ps[0].lo is not None or ps[-1].hi is not None:
            raise InconsistentData("pieces must cover the whole line")
        breaks = []
        for left, right in zip(ps, ps[1:]):
            hi, lo = left.hi, right.lo
            # the builders share one Fraction between neighbours
            if hi is None or lo is None or (hi is not lo and hi != lo):
                raise InconsistentData("pieces must be adjacent")
            point = xn, xd = hi.numerator, hi.denominator
            a1, b1, c1, d1 = left.mat
            a2, b2, c2, d2 = right.mat
            # no denominator is zero: no piece has a pole on its closed interval
            if (a1 * xn + b1 * xd) * (c2 * xn + d2 * xd) != (a2 * xn + b2 * xd) * (
                c1 * xn + d1 * xd
            ):
                raise InconsistentData(
                    f"pieces disagree at breakpoint {left.hi}: "
                    f"{Fraction(*left.ratio(*point))} vs {Fraction(*right.ratio(*point))}"
                )
            breaks.append(point)
        object.__setattr__(self, "_breaks", tuple(breaks))

    # -- evaluation ----------------------------------------------------

    def breakpoints(self) -> tuple[Fraction, ...]:
        return tuple(p.hi for p in self.pieces[:-1])

    def _index(self, xn: int, xd: int) -> int:
        # bisect_right over the breakpoints, comparing xn/xd < bn/bd as
        # xn*bd < bn*xd: a point on a breakpoint belongs to the piece on
        # its right
        breaks = self._breaks
        lo, hi = 0, len(breaks)
        while lo < hi:
            mid = (lo + hi) // 2
            bn, bd = breaks[mid]
            if xn * bd < bn * xd:
                hi = mid
            else:
                lo = mid + 1
        return lo

    def piece_at(self, x: Fraction | int) -> Piece:
        return self.pieces[self._index(*_ratio(x))]

    def ratio(self, xn: int, xd: int) -> tuple[int, int]:
        """The value at xn/xd, for xd > 0, as ``Piece.ratio`` gives it."""
        return self.pieces[self._index(xn, xd)].ratio(xn, xd)

    def apply(self, x: Fraction | int) -> Fraction:
        return Fraction(*self.ratio(*_ratio(x)))

    def preimage(self, yn: int, yd: int) -> tuple[int, int] | None:
        """The x with ratio(x) == yn/yd, for yd > 0, as a pair in lowest
        terms, or None when y is outside the range: the ``preimage`` of
        the one piece whose interval holds it, compared by
        cross-multiplying."""
        for piece in self.pieces:
            x = piece.preimage(yn, yd)
            if x is not None:
                xn, xd = x
                lo, hi = piece.lo, piece.hi
                if (lo is None or lo.numerator * xd <= xn * lo.denominator) and (
                    hi is None or xn * hi.denominator < hi.numerator * xd
                ):
                    return x
        return None

    def invert_value(self, y: Fraction | int) -> Fraction | None:
        """Preimage of y, or None when y is outside the range; solved on
        pairs by ``preimage``, and one `Fraction` built for the answer."""
        x = self.preimage(*_ratio(y))
        return None if x is None else Fraction(*x)

    # -- range shape ---------------------------------------------------

    def range_inf(self) -> Fraction | None:
        """Greatest lower bound of the range (never attained); None is
        -infinity.  The first piece runs to -infinity, where a Mobius
        piece tends to a/c."""
        a, _, c, _ = self.pieces[0].mat
        return None if c == 0 else Fraction(a, c)

    def range_sup(self) -> Fraction | None:
        a, _, c, _ = self.pieces[-1].mat
        return None if c == 0 else Fraction(a, c)

    @property
    def is_automorphism(self) -> bool:
        """True when the map is onto Q (unbounded in both directions):
        both end pieces are affine."""
        return self.pieces[0].is_affine and self.pieces[-1].is_affine

    # -- algebra -------------------------------------------------------

    def compose(self, inner: "PLMap") -> "PLMap":
        """self after inner, as a PLMap, found on numerator/denominator pairs.

        The cuts are the inner breakpoints and, inside each inner piece,
        the preimages of the outer breakpoints in the piece's open image.
        The inner map is increasing, so the images of its pieces follow
        one another and one walk over the inner pieces and the outer
        breakpoints meets every cut in increasing order, together with
        the outer piece that holds the image of the interval it starts.
        Each interval's matrix is the product of its two pieces' in
        primitive form; a run of intervals with one matrix is one piece,
        and only a kept cut becomes a `Fraction` (an inner breakpoint
        reuses the inner piece's ``lo``).
        """
        outer, breaks, cuts = self.pieces, self._breaks, inner._breaks
        count = len(breaks)
        a, _, c, _ = inner.pieces[0].mat
        # the open image (low, high) of each inner piece, as pairs with
        # positive denominators; None is -infinity or +infinity
        low = None if c == 0 else (a, c)
        j = 0  # the outer breakpoints below the current cut's image
        out: list[Piece] = []
        lo: Fraction | None = None
        run: Mat | None = None
        for k, f in enumerate(inner.pieces):
            if k < len(cuts):
                high = f.ratio(*cuts[k])
            else:
                a, _, c, _ = f.mat
                high = None if c == 0 else (a, c)
            if low is not None:
                ln, ld = low
                while j < count and breaks[j][0] * ld <= ln * breaks[j][1]:
                    j += 1
            starts: list = [(f.lo, j)]
            while j < count and (high is None or breaks[j][0] * high[1] < high[0] * breaks[j][1]):
                x = f.preimage(*breaks[j])
                j += 1
                starts.append((x, j))
            for at, index in starts:
                mat = _primitive(*_matmul(outer[index].mat, f.mat))
                if mat != run:
                    if run is not None:
                        if type(at) is tuple:
                            at = Fraction(*at)
                        out.append(Piece(lo, at, run))
                        lo = at
                    run = mat
            low = high
        out.append(Piece(lo, None, run))
        return PLMap(tuple(out))

    # -- serialization -------------------------------------------------

    def serialize(self) -> str:
        lines = []
        for p in self.pieces:
            lo = "-inf" if p.lo is None else p.lo
            hi = "inf" if p.hi is None else p.hi
            # printed with c == 1, or d == 1 when affine
            scale = p.mat[2] or p.mat[3]
            a, b, c, d = (Fraction(v, scale) for v in p.mat)
            if p.is_affine:
                lines.append(f"piece {lo} {hi} affine {a} {b}")
            else:
                lines.append(f"piece {lo} {hi} mobius {a} {b} {c} {d}")
        return "\n".join(lines) + "\n"


def _primitive(a: int, b: int, c: int, d: int) -> Mat:
    # the coprime multiple with c > 0, or c == 0 and d > 0
    g = gcd(a, b, c, d)
    if c < 0 or c == 0 and d < 0:
        g = -g
    return a // g, b // g, c // g, d // g


def _matmul(g: Mat, f: Mat) -> Mat:
    a1, b1, c1, d1 = g
    a2, b2, c2, d2 = f
    return (
        a1 * a2 + b1 * c2,
        a1 * b2 + b1 * d2,
        c1 * a2 + d1 * c2,
        c1 * b2 + d1 * d2,
    )


# -- constructors ------------------------------------------------------


def identity() -> PLMap:
    return PLMap((Piece(None, None, (1, 0, 0, 1)),))


def affine(slope: Fraction | int, offset: Fraction | int) -> PLMap:
    sn, sd = _ratio(slope)
    if sn <= 0:
        raise InconsistentData("affine map must have positive slope")
    on, od = _ratio(offset)
    # x -> slope*x + offset over the denominator sd*od
    return PLMap((Piece(None, None, (sn * od, on * sd, 0, sd * od)),))


def translation(offset: Fraction | int) -> PLMap:
    return affine(1, offset)


def from_point_pairs(pairs: Iterable[tuple[Fraction, Fraction]]) -> PLMap:
    """Increasing interpolation through finitely many points, slope-1 tails.

    The pairs must be strictly increasing in both coordinates after
    sorting by the first; equal first coordinates must carry equal second
    coordinates (duplicates are collapsed).  The map has one piece per
    bend: a piece ends only at a point where the slope changes, so
    collinear points share a piece.

    Everything runs on integers.  Pairs of ints are read as they are;
    otherwise each value is gated once and every coordinate is scaled to
    one common denominator D, and the dedupe, the sort, the refusals and
    the bends work on the numerators.  A kept piece takes its matrix
    (D*dy, ya*dx - dy*xa, 0, D*dx) from the numerators of its first two
    points, without a division, and each kept endpoint is one `Fraction`,
    shared by the two pieces that meet there.
    """
    pairs = list(pairs)
    scale = 1
    if not all(type(x) is type(y) is int for x, y in pairs):
        for x, y in pairs:
            _exact(x)
            _exact(y)
        scale = lcm(*(v.denominator for pair in pairs for v in pair))
        pairs = [
            (x.numerator * (scale // x.denominator), y.numerator * (scale // y.denominator))
            for x, y in pairs
        ]
    cleaned = sorted(set(pairs))
    for (x1, y1), (x2, y2) in zip(cleaned, cleaned[1:]):
        if x1 == x2:
            raise InconsistentData(
                f"point {Fraction(x1, scale)} maps to both "
                f"{Fraction(y1, scale)} and {Fraction(y2, scale)}"
            )
        if y1 >= y2:
            raise InconsistentData("point pairs are not increasing")
    if not cleaned:
        return identity()
    (x0, y0), (xr, yr) = cleaned[0], cleaned[-1]
    # one point beyond each end makes the tails slope-1 segments
    points = [(x0 - scale, y0 - scale), *cleaned, (xr + scale, yr + scale)]
    last = len(points) - 1
    # a piece ends at each bend, a point where the slope changes
    bends = []
    for i in range(1, last):
        (xa, ya), (xb, yb), (xc, yc) = points[i - 1 : i + 2]
        if (yb - ya) * (xc - xb) != (yc - yb) * (xb - xa):
            bends.append(i)
    pieces = []
    lo = None
    for start, end in zip([0, *bends], [*bends, last]):
        (xa, ya), (xb, yb) = points[start], points[start + 1]
        dx, dy = xb - xa, yb - ya
        hi = None if end == last else Fraction(points[end][0], scale)
        pieces.append(Piece(lo, hi, (scale * dy, ya * dx - dy * xa, 0, scale * dx)))
        lo = hi
    return PLMap(tuple(pieces))


def _exact(v) -> int | Fraction:
    # the one gate for exact values; ints stay ints: they are much faster
    if isinstance(v, (int, Fraction)):
        return v
    raise InconsistentData(f"argument {v!r} is not an int or a Fraction")


def _ratio(v) -> tuple[int, int]:
    # an exact rational as its numerator and positive denominator
    v = _exact(v)
    return v.numerator, v.denominator


# -- parsing -----------------------------------------------------------

# a rational literal: -?D+, -?D+/D+ or -?D+.D+ in ASCII digits
_LITERAL = re.compile(r"(-?[0-9]+)(?:([/.])([0-9]+))?")


def _literal(text: str, line: int | None) -> tuple[int, int]:
    """A rational literal as a numerator and a positive denominator, not
    always in lowest terms; anything else, a zero denominator included,
    is a ParseError.  Signs other than a leading `-`, exponents and bare
    or trailing points are refused before any arithmetic."""
    match = _LITERAL.fullmatch(text)
    if match:
        whole, sep, tail = match.groups()
        try:
            if sep is None:
                return int(whole), 1
            if sep == ".":
                return int(whole + tail), 10 ** len(tail)
            if tail.strip("0"):
                return int(whole), int(tail)
        except ValueError:  # past the interpreter's limit on digits
            pass
    raise ParseError(f"bad rational literal {text!r}", line)


def parse_fraction(text: str, line: int | None = None) -> Fraction:
    """A rational literal such as `-3/4` or `2.5`: `-?D+`, `-?D+/D+`
    with a nonzero denominator or `-?D+.D+`, in ASCII digits."""
    return Fraction(*_literal(text, line))


def parse_piece_line(parts: Sequence[str], line: int | None = None) -> Piece:
    """Parse the tail of a `piece` line (after the keyword itself)."""
    if len(parts) < 3:
        raise ParseError("piece needs endpoints and a kind", line)
    # an open end is `-inf` below and `inf` above, never the other way round
    lo = None if parts[0] == "-inf" else parse_fraction(parts[0], line)
    hi = None if parts[1] == "inf" else parse_fraction(parts[1], line)
    kind = parts[2]
    coeffs = [_literal(t, line) for t in parts[3:]]
    if kind == "affine":
        if len(coeffs) != 2:
            raise ParseError("affine piece needs 2 coefficients", line)
        coeffs += [(0, 1), (1, 1)]
    elif kind == "mobius":
        if len(coeffs) != 4:
            raise ParseError("mobius piece needs 4 coefficients", line)
    else:
        raise ParseError(f"unknown piece kind {kind!r}", line)
    # the coefficients over one common denominator, as ints
    scale = lcm(*(den for _, den in coeffs))
    mat = tuple(num * (scale // den) for num, den in coeffs)
    try:
        return Piece(lo, hi, mat)
    except InconsistentData as exc:
        raise ParseError(str(exc), line)


def parse_plmap(text: str) -> PLMap:
    """Parse a whole map from `piece ...` lines ('#' comments allowed)."""
    pieces = []
    for lineno, (head, *rest) in records(text):
        if head != "piece":
            raise ParseError(f"expected 'piece', got {head!r}", lineno)
        pieces.append(parse_piece_line(rest, lineno))
    return assemble_plmap(pieces)


def assemble_plmap(pieces: Sequence[Piece], line: int | None = None) -> PLMap:
    """The map made of parsed pieces; no pieces, a gap, an overlap or a
    jump between them is a ParseError at `line`."""
    try:
        return PLMap(tuple(pieces))
    except InconsistentData as exc:
        raise ParseError(str(exc), line) from exc
