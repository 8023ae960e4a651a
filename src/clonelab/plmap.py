"""Increasing piecewise maps of the rationals with affine and Mobius pieces.

A PLMap is a strictly increasing self-map of Q given by finitely many
pieces on half-open intervals [lo, hi) covering the line.  Each piece is
a fractional-linear map x -> (a*x + b)/(c*x + d) with positive
determinant and pole outside the piece; affine pieces are the c == 0
case.  Adjacent pieces agree at shared endpoints, so the whole map is
strictly increasing.  Maps with unbounded range in both directions are
automorphisms of (Q, <); bounded ones are proper self-embeddings.

A piece stores its matrix as four coprime ints, endpoints are
`fractions.Fraction`s, arguments are `Fraction`s or `int`s, and
everything is exact.  Evaluation runs in integers: ``ratio`` takes x as
a numerator/denominator pair and returns the value as one in lowest
terms, and ``apply`` wraps that in a single `Fraction`.
"""

from __future__ import annotations

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
    equal maps give equal pieces.
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
        g = gcd(a, b, c, d)
        if c < 0 or c == 0 and d < 0:
            g = -g
        object.__setattr__(self, "mat", (a // g, b // g, c // g, d // g))
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
        if c != 0:
            pole = Fraction(-d, c)
            if (self.lo is None or pole >= self.lo) and (
                self.hi is None or pole <= self.hi
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

    def value(self, x: Fraction | int) -> Fraction:
        return Fraction(*self.ratio(*_ratio(x)))

    def invert(self, y: Fraction | int) -> Fraction | None:
        """Solve value(x) == y; None when y is the piece's asymptote."""
        yn, yd = _ratio(y)
        a, b, c, d = self.mat
        den = a * yd - c * yn
        return None if den == 0 else Fraction(d * yn - b * yd, den)

    def limit_low(self) -> Fraction | None:
        """Infimum of values on the piece; None means -infinity."""
        if self.lo is not None:
            return self.value(self.lo)
        a, _, c, _ = self.mat
        return None if c == 0 else Fraction(a, c)

    def limit_high(self) -> Fraction | None:
        """Supremum of values on the piece; None means +infinity."""
        if self.hi is not None:
            return self.value(self.hi)
        a, _, c, _ = self.mat
        return None if c == 0 else Fraction(a, c)


@dataclass(frozen=True)
class PLMap:
    """The map made of ``pieces``; construction checks that adjacent
    pieces meet, comparing their values at each breakpoint as `ratio`
    pairs, and stores the breakpoints as numerator/denominator pairs for
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
            if left.hi is None or right.lo is None or left.hi != right.lo:
                raise InconsistentData("pieces must be adjacent")
            point = left.hi.numerator, left.hi.denominator
            if left.ratio(*point) != right.ratio(*point):
                raise InconsistentData(
                    f"pieces disagree at breakpoint {left.hi}: "
                    f"{left.value(left.hi)} vs {right.value(right.lo)}"
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

    def invert_value(self, y: Fraction | int) -> Fraction | None:
        """Preimage of y, or None when y is outside the range."""
        for piece in self.pieces:
            x = piece.invert(y)
            if x is None:
                continue
            if (piece.lo is None or x >= piece.lo) and (piece.hi is None or x < piece.hi):
                if piece.value(x) == y:
                    return x
        return None

    # -- range shape ---------------------------------------------------

    def range_inf(self) -> Fraction | None:
        """Greatest lower bound of the range (never attained); None is -infinity."""
        return self.pieces[0].limit_low()

    def range_sup(self) -> Fraction | None:
        return self.pieces[-1].limit_high()

    @property
    def is_automorphism(self) -> bool:
        """True when the map is onto Q (unbounded in both directions)."""
        return self.range_inf() is None and self.range_sup() is None

    # -- algebra -------------------------------------------------------

    def compose(self, inner: "PLMap") -> "PLMap":
        """self after inner, as a PLMap."""
        cuts: set[Fraction] = set(inner.breakpoints())
        for piece in inner.pieces:
            low, high = piece.limit_low(), piece.limit_high()
            for b in self.breakpoints():
                # b inside the open image (low, high) of the strictly
                # increasing piece has its one preimage inside the piece
                if (low is None or low < b) and (high is None or b < high):
                    cuts.add(piece.invert(b))
        points = sorted(cuts)
        bounds: list[Fraction | None] = [None, *points, None]
        # each interval is read at its left cut, the first just below the
        # first cut: inside one interval both maps are one piece each
        samples = [points[0] - 1 if points else 0, *points]
        pieces = []
        for x, lo, hi in zip(samples, bounds, bounds[1:]):
            f = inner.piece_at(x)
            g = self.piece_at(f.value(x))
            pieces.append(Piece(lo, hi, _matmul(g.mat, f.mat)))
        return PLMap(_merge(pieces))

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


def _matmul(g: Mat, f: Mat) -> Mat:
    a1, b1, c1, d1 = g
    a2, b2, c2, d2 = f
    return (
        a1 * a2 + b1 * c2,
        a1 * b2 + b1 * d2,
        c1 * a2 + d1 * c2,
        c1 * b2 + d1 * d2,
    )


def _merge(pieces: list[Piece]) -> tuple[Piece, ...]:
    merged = [pieces[0]]
    for piece in pieces[1:]:
        last = merged[-1]
        if piece.mat == last.mat:
            merged[-1] = Piece(last.lo, piece.hi, last.mat)
        else:
            merged.append(piece)
    return tuple(merged)


# -- constructors ------------------------------------------------------


def identity() -> PLMap:
    return PLMap((Piece(None, None, (1, 0, 0, 1)),))


def affine(slope: Fraction | int, offset: Fraction | int) -> PLMap:
    if _exact(slope) <= 0:
        raise InconsistentData("affine map must have positive slope")
    return PLMap((Piece(None, None, (slope, offset, 0, 1)),))


def translation(offset: Fraction | int) -> PLMap:
    return affine(1, offset)


def from_point_pairs(pairs: Iterable[tuple[Fraction, Fraction]]) -> PLMap:
    """Increasing interpolation through finitely many points, slope-1 tails.

    The pairs must be strictly increasing in both coordinates after
    sorting by the first; equal first coordinates must carry equal second
    coordinates (duplicates are collapsed).  The map has one piece per
    bend: a piece ends only at a point where the slope changes, so
    collinear points share a piece.  A kept piece takes its matrix
    (dy, ya*dx - dy*xa, 0, dx) from its first two points, without a
    division.
    """
    distinct = set()
    for x, y in pairs:
        if not type(x) is type(y) is int:  # ints pass the gate without a call
            _exact(x)
            _exact(y)
        distinct.add((x, y))
    cleaned = sorted(distinct)
    for (x1, y1), (x2, y2) in zip(cleaned, cleaned[1:]):
        if x1 == x2:
            raise InconsistentData(f"point {x1} maps to both {y1} and {y2}")
        if y1 >= y2:
            raise InconsistentData("point pairs are not increasing")
    if not cleaned:
        return identity()
    (x0, y0), (xr, yr) = cleaned[0], cleaned[-1]
    # one point beyond each end makes the tails slope-1 segments
    points = [(x0 - 1, y0 - 1), *cleaned, (xr + 1, yr + 1)]
    last = len(points) - 1
    # a piece ends at each bend, a point where the slope changes
    bends = []
    for i in range(1, last):
        (xa, ya), (xb, yb), (xc, yc) = points[i - 1 : i + 2]
        if (yb - ya) * (xc - xb) != (yc - yb) * (xb - xa):
            bends.append(i)
    pieces = []
    for start, end in zip([0, *bends], [*bends, last]):
        (xa, ya), (xb, yb) = points[start], points[start + 1]
        dx, dy = xb - xa, yb - ya
        lo = None if start == 0 else xa
        hi = None if end == last else points[end][0]
        pieces.append(Piece(lo, hi, (dy, ya * dx - dy * xa, 0, dx)))
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


def parse_fraction(text: str, line: int | None = None) -> Fraction:
    """A rational literal such as `-3/4` or `2.5`, in ASCII digits and
    without the underscores `Fraction` would accept."""
    if text.isascii() and "_" not in text:
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            pass
    raise ParseError(f"bad rational literal {text!r}", line)


def parse_piece_line(parts: Sequence[str], line: int | None = None) -> Piece:
    """Parse the tail of a `piece` line (after the keyword itself)."""
    if len(parts) < 3:
        raise ParseError("piece needs endpoints and a kind", line)
    # an open end is `-inf` below and `inf` above, never the other way round
    lo = None if parts[0] == "-inf" else parse_fraction(parts[0], line)
    hi = None if parts[1] == "inf" else parse_fraction(parts[1], line)
    kind = parts[2]
    coeffs = [parse_fraction(t, line) for t in parts[3:]]
    if kind == "affine":
        if len(coeffs) != 2:
            raise ParseError("affine piece needs 2 coefficients", line)
        mat = (coeffs[0], coeffs[1], 0, 1)
    elif kind == "mobius":
        if len(coeffs) != 4:
            raise ParseError("mobius piece needs 4 coefficients", line)
        mat = (coeffs[0], coeffs[1], coeffs[2], coeffs[3])
    else:
        raise ParseError(f"unknown piece kind {kind!r}", line)
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
