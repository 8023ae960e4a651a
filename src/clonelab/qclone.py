"""Polymorphisms of the rational order that are eventually a coordinate.

The functions built here take rational arguments and, once every
argument exceeds a threshold, return a fixed increasing bijection of a
fixed coordinate.  Below the threshold they do whatever a finite
strictly monotone data set demands, filled in by a hull construction
that keeps the whole function a polymorphism of (Q,<): strictly
increasing in every coordinate simultaneously.

Reading off the eventual coordinate is a homomorphism onto the clone of
coordinate selectors — composition collapses to composition of
selectors — yet no finite restriction of a member pins that coordinate
down: ``extend_restriction`` rebuilds any strict-monotone-consistent
finite data with whatever eventual coordinate is requested, and
``noncontinuity_demo`` packages that as n members agreeing on a common
restriction while disagreeing everywhere in their eventual behavior.

Every member is a polymorphism by construction.  Write u < v when
u_j < v_j in every coordinate, and p <= u when p_j <= u_j in every
coordinate.  A data hull of arity n over data points p with values v_p,
below a ceiling c, is v_p at each data point and elsewhere

    h(u) = b(u) + eps * (n + sum_j squash(u_j)),

where b(u) is the largest v_p with p <= u, or the floor min_p v_p - 1
when there is none (c - 2 without data), squash(x) = x / (1 + |x|) maps
Q increasingly into (-1, 1), and eps = min(g, 1, c - max_p v_p) / (4n)
for the least gap g between distinct data values (eps = 1/(4n) without
data).  The tie-breaker is strictly increasing and lies strictly
between 0 and 2n * eps, which is at most half of each of g, 1 and
c - max_p v_p.

Lemma.  If the data are strictly consistent (p < q implies v_p < v_q)
and every v_p is below c, then u < v implies h(u) < h(v), and every
value of h is below c.

Proof.  A value of h off the data is below b(u) + 2n * eps, which is at
most max_p v_p + (c - max_p v_p) / 2 < c, or c - 3/2 without data.
Let u < v.  If neither is a data point, every p <= u
also has p <= v, so b(u) <= b(v), and the tie-breaker adds strictly
more at v.  If u is a data point p and v is not, then p <= v, so
h(v) > b(v) >= v_p.  If v is a data point q and u is not, then b(u) is
the floor, at least 1 below v_q, or some v_p with p <= u < q, at least
g below v_q by strict consistency; either way h(u) < b(u) + min(g, 1) / 2
< v_q.  If both are data points, strict consistency is the claim.

A hull member with threshold a and eventual map alpha has the ceiling
c = alpha(a), which ``QFunction`` enforces.  Let u < v.  If u is past
the threshold in every coordinate, so is v, and alpha of the eventual
coordinate increases.  If u is not and v is, h(u) < alpha(a) <
alpha(v_i).  Otherwise the lemma applies.  A graph member is an
increasing map of one coordinate, and a composition of functions that
are strictly increasing in this sense is one too.  So every
``QFunction`` is a polymorphism of (Q,<).  Every data point also lies
at or below the threshold in some coordinate, so evaluation reaches
the hull there and returns the data value exactly.

Each member compiles once, when it is built, into an integer program:
a function from a point, one numerator/denominator pair per coordinate
in lowest terms, to the value as such a pair.  A hull member's program
compares the point with its threshold and reads its hull or its
eventual map, and a graph member's reads its map at its coordinate.  A
composition's is a straight-line program over the distinct sub-members
read at the point, each run once: first every leaf (a hull or graph
member) at the point, then every composed sub-member, each outer at the
values of its inners.  ``evaluate``, the spot check and the uniqueness
grid run that program, and build no ``Fraction`` between the arguments
and the answer; the spot check and the grid build one only to name a
failing point.  A hull is built in integers too: every coordinate, every
value and the ceiling over one common denominator.

Thresholds, maps, and data are exact rationals throughout; every
verification in this module compares values with ``==``, not with
tolerances.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from math import comb, gcd, lcm
from operator import itemgetter, le, lt
from typing import Callable, Iterable, Mapping, Sequence

from .clones import guard_arity
from .config import Caps, DEFAULT_CAPS, guard, guard_power
from .errors import InconsistentData, ParseError
from .plmap import (
    Piece,
    PLMap,
    _exact,
    _ratio,
    assemble_plmap,
    identity,
    parse_fraction,
    parse_piece_line,
    translation,
)
from .syntax import natural, records


@dataclass(frozen=True)
class DataHull:
    """Strictly monotone interpolation of finite data, below a ceiling.

    A function of its fields: the data as (point, value) pairs, the
    ``arity`` of the points and the ``ceiling``, which a member sets to
    alpha(threshold).  Construction makes the data exact and sorts them
    by point, and refuses a point of another arity, a repeated point, a
    strictly dominated pair whose value does not increase, and a value
    at or above the ceiling.  It derives ``floor`` and ``epsilon`` as
    the module docstring defines them, and the lemma there makes the
    hull strictly increasing and bounded by the ceiling; ``weak_conflict``
    is the first weakly dominated pair whose value does not increase.

    Construction keeps the caller's ``Fraction``s, makes ``Fraction``s of
    plain ints, and scales every coordinate, every value and the ceiling
    to one common denominator; the sort, the repeated-point check,
    ``_check_consistency``, the floor, the gap and epsilon then compare
    and subtract the integer numerators.

    ``apply`` works in integers: it takes the point as one
    numerator/denominator pair per coordinate and returns the value as
    a pair in lowest terms.  Construction indexes the data for it: the
    lower corner, per coordinate the least data coordinate; a dict of
    the exact hits keyed by their points in that form; and the entries
    ranked by descending value, so the dominance scan stops at the
    first dominated entry.  A point below the lower corner in some
    coordinate dominates no data point, so ``apply`` reads the floor
    there without the lookup or the scan.  The floor, the values and
    epsilon share one denominator, so the tie-breaker adds in one step
    and reduces with one ``gcd``.  Without data the corner is empty and
    nothing is built per coordinate.
    """

    data: tuple[tuple[tuple[Fraction, ...], Fraction], ...]
    arity: int
    ceiling: Fraction

    def __post_init__(self):
        n = self.arity
        if n < 1:
            raise InconsistentData("arity must be at least 1")
        ceiling = _fraction(self.ceiling)
        data = _normalize_data(self.data, n)
        # every coordinate, value and the ceiling over one common
        # denominator, so the checks below compare ints
        scale = lcm(ceiling.denominator, *(x.denominator for p, v in data for x in (*p, v)))

        def scaled(x: Fraction) -> int:
            return x.numerator * (scale // x.denominator)

        keys = [(tuple(map(scaled, p)), scaled(v)) for p, v in data]
        order = sorted(range(len(keys)), key=keys.__getitem__)
        data = tuple([data[k] for k in order])
        keys = [keys[k] for k in order]
        for k in range(1, len(keys)):
            if keys[k - 1][0] == keys[k][0]:
                raise InconsistentData(f"data point {data[k][0]} repeated")
        object.__setattr__(self, "weak_conflict", _check_consistency(data, keys))
        top = scaled(ceiling)
        values = sorted({v for _, v in keys})
        floor = values[0] - scale if values else top - 2 * scale
        head = values[-1] if values else floor
        if head >= top:
            raise InconsistentData(
                f"data value {Fraction(head, scale)} at or above the ceiling {ceiling}"
            )
        min_gap = min((b - a for a, b in zip(values, values[1:])), default=scale)
        # epsilon = spread / (4n * scale); apply reads the floor and the
        # values over that denominator too
        spread, t = min(min_gap, scale, top - head), 4 * n
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "ceiling", ceiling)
        # derived attributes, not fields: equality and repr see only
        # the fields
        object.__setattr__(self, "floor", Fraction(floor, scale))
        object.__setattr__(self, "epsilon", Fraction(spread, t * scale))
        object.__setattr__(self, "_exact", {tuple(map(_ratio, p)): _ratio(v) for p, v in data})
        ranked = sorted(keys, key=itemgetter(1), reverse=True)
        object.__setattr__(self, "_ranked", tuple([(v * t, p) for p, v in ranked]))
        # the least data coordinate of each coordinate; () without data
        object.__setattr__(self, "_corner", tuple(map(min, zip(*[p for p, _ in keys]))))
        object.__setattr__(self, "_scale", scale)
        object.__setattr__(self, "_floor", floor * t)
        object.__setattr__(self, "_spread", spread)
        object.__setattr__(self, "_denominator", t * scale)

    def apply(self, point: tuple[tuple[int, int], ...]) -> tuple[int, int]:
        scale, base = self._scale, self._floor
        # a point below the lower corner in some coordinate dominates no
        # data point and reads the floor; c/scale > xn/xd cross-multiplied
        for c, (xn, xd) in zip(self._corner, point):
            if xn * scale < c * xd:
                break
        else:
            hit = self._exact.get(point)
            if hit is not None:
                return hit
            for value, p in self._ranked:
                # p <= point coordinatewise
                for pj, (xn, xd) in zip(p, point):
                    if pj * xd > xn * scale:
                        break
                else:
                    base = value
                    break
        # tie-breaker n + sum of squash(x), squash(p/q) = p/(q + |p|) in
        # lowest terms, summed over the integers
        num, den = len(point), 1
        for xn, xd in point:
            d = xd + abs(xn)
            num, den = num * d + xn * den, den * d
        num, den = base * den + self._spread * num, self._denominator * den
        g = gcd(num, den)
        return num // g, den // g


@dataclass(frozen=True)
class Composition:
    """Provenance of a composed member; the member's program is compiled
    from it, and reads each distinct sub-member once per point."""

    outer: "QFunction"
    inners: tuple["QFunction", ...]


@dataclass(frozen=True)
class QFunction:
    """A polymorphism of (Q,<) that is eventually a coordinate bijection.

    Whenever every argument exceeds ``threshold``, the value is
    ``eventual(u[coordinate-1])``.  ``below`` fixes the rest of the
    function and records where the member came from: a data hull, a
    composition, or a ``PLMap`` of the eventual coordinate that is the
    whole function (a graph member).

    Construction, ``dataclasses.replace`` included, enforces that the
    arity is at least 1 and refuses one over the default ``tuple_cap``
    with ``CapExceeded`` before any work linear in it, that the
    coordinate lies in 1..arity, that
    ``eventual`` is an increasing bijection of Q, that a graph member's
    map agrees with ``eventual`` above the threshold, and that a hull
    member's hull has the member's arity, has the ceiling
    ``eventual(threshold)`` and has every data point at or below the
    threshold in some coordinate.  That is what the module docstring's
    argument needs: every member is a polymorphism of (Q,<) and
    reproduces its data.  Construction then compiles the member into its
    integer program (``_compile_member``), kept as a derived attribute,
    not a field, so equality and ``repr`` do not see it and ``replace``
    compiles anew.
    """

    arity: int
    coordinate: int
    threshold: Fraction
    eventual: PLMap
    below: DataHull | PLMap | Composition

    def __post_init__(self):
        if self.arity < 1:
            raise InconsistentData("arity must be at least 1")
        guard_arity(self.arity, DEFAULT_CAPS)
        if not 1 <= self.coordinate <= self.arity:
            raise InconsistentData(
                f"coordinate {self.coordinate} outside 1..{self.arity}"
            )
        object.__setattr__(self, "threshold", _fraction(self.threshold))
        if not self.eventual.is_automorphism:
            raise InconsistentData("the eventual map must be a bijection of Q")
        if isinstance(self.below, PLMap) and not _agree_above(
            self.below, self.eventual, self.threshold
        ):
            raise InconsistentData(
                "graph disagrees with the eventual map above the threshold"
            )
        if isinstance(self.below, DataHull):
            hull = self.below
            if hull.arity != self.arity:
                raise InconsistentData(
                    f"{hull.arity}-ary hull below a {self.arity}-ary member"
                )
            tn, td = self.threshold.numerator, self.threshold.denominator
            ceiling = self.eventual.ratio(tn, td)
            if (hull.ceiling.numerator, hull.ceiling.denominator) != ceiling:
                raise InconsistentData(
                    f"hull ceiling {hull.ceiling} is not alpha(threshold) = "
                    f"{Fraction(*ceiling)}"
                )
            for point, _ in hull.data:
                # x > threshold, compared as xn*td > tn*xd
                if all(x.numerator * td > tn * x.denominator for x in point):
                    raise InconsistentData(
                        f"data point {point} lies entirely above the threshold "
                        f"{self.threshold}"
                    )
        object.__setattr__(self, "_program", _compile_member(self))

    def __reduce__(self):
        # the program is a closure and does not pickle: rebuild it
        return QFunction, (self.arity, self.coordinate, self.threshold, self.eventual, self.below)


def _agree_above(m1: PLMap, m2: PLMap, lo: Fraction) -> bool:
    # two fractional-linear pieces agree on an interval exactly when their
    # primitive integer matrices are equal; past `lo` both maps are one
    # piece each between consecutive breakpoints, and the piece lookup
    # reads each interval at its left end; breakpoints are compared with
    # `lo` as pairs, bn/bd > ln/ld as bn*ld > ln*bd
    ln, ld = lo.numerator, lo.denominator
    cuts = [(bn, bd) for bn, bd in m1._breaks + m2._breaks if bn * ld > ln * bd]
    return all(
        m1.pieces[m1._index(*x)].mat == m2.pieces[m2._index(*x)].mat
        for x in ((ln, ld), *cuts)
    )


# -- construction --------------------------------------------------------


def _fraction(x) -> Fraction:
    # an exact value as a Fraction, reusing one that already is
    return x if type(x) is Fraction else Fraction(_exact(x))


def _normalize_data(
    data: Iterable[tuple[Sequence[Fraction], Fraction]], n: int
) -> list[tuple[tuple[Fraction, ...], Fraction]]:
    out = []
    for point, value in data:
        if len(point) != n:
            raise InconsistentData(f"data point {point} is not {n}-ary")
        out.append((tuple([_fraction(x) for x in point]), _fraction(value)))
    return out


def _check_consistency(
    data: Sequence[tuple[tuple[Fraction, ...], Fraction]],
    keys: Sequence[tuple[tuple[int, ...], int]],
) -> tuple | None:
    """The order condition finite data must satisfy to extend, in one pass.

    ``data`` holds distinct points in sorted order, so a point can only
    be dominated by a later one; ``keys`` holds the same entries scaled
    to integers over one positive denominator, and the comparisons read
    them.  A pointwise-strict domination whose value does not increase
    raises — the condition forced on any restriction of a polymorphism.
    The first weak such domination is returned, or None.
    """
    weak = None
    for (j, (p, pv)), (k, (q, qv)) in itertools.combinations(enumerate(keys), 2):
        if pv >= qv and all(map(le, p, q)):
            if all(map(lt, p, q)):
                raise _inconsistent((data[j], data[k]))
            weak = weak or (data[j], data[k])
    return weak


def _inconsistent(pair: tuple) -> InconsistentData:
    (p, pv), (q, qv) = pair
    return InconsistentData(f"inconsistent data: {p} -> {pv}, {q} -> {qv}")


def make_member(
    n: int,
    i: int,
    a: Fraction,
    alpha: PLMap,
    base_data: Mapping[Sequence[Fraction], Fraction],
) -> QFunction:
    """A member from its parameters: eventually ``alpha`` of coordinate
    ``i``, below the threshold ``a`` the data hull of ``base_data`` under
    the ceiling ``alpha(a)``.

    ``DataHull`` and ``QFunction`` check everything that makes the
    member a polymorphism reproducing its data.  On top of that the
    data must be consistent under weak domination: a point weakly below
    another, distinct one has a smaller value.
    """
    hull = DataHull(tuple(base_data.items()), n, alpha.apply(a))
    if hull.weak_conflict is not None:
        raise _inconsistent(hull.weak_conflict)
    return QFunction(n, i, a, alpha, hull)


def selector_member(n: int, i: int) -> QFunction:
    """The i-th coordinate itself, as a member (eventual everywhere)."""
    return QFunction(n, i, Fraction(0), identity(), identity())


# -- evaluation and the homomorphism --------------------------------------


def _ratio_of(m: PLMap) -> Callable[[int, int], tuple[int, int]]:
    # a one-piece map reads its piece directly, with no piece lookup
    return m.pieces[0].ratio if len(m.pieces) == 1 else m.ratio


def _compile_member(
    f: QFunction,
) -> Callable[[tuple[tuple[int, int], ...]], tuple[int, int]]:
    """The member's integer program (module docstring), built once.

    Points and values are numerator/denominator pairs in lowest terms
    with positive denominators.  A composition's program lists the
    distinct sub-members read at its point, by identity and in
    post-order: the inners, and the inners of every composed inner.
    Each step is a leaf's program, run at the point, or the slots of a
    composition's inners with its outer's program, run at the values in
    those slots; the last step is the member itself.
    """
    below = f.below
    i = f.coordinate - 1
    if isinstance(below, PLMap):
        ratio = _ratio_of(below)
        return lambda point: ratio(*point[i])
    if isinstance(below, DataHull):
        apply, ratio = below.apply, _ratio_of(f.eventual)
        tn, td = f.threshold.numerator, f.threshold.denominator

        def hull_member(point):
            # min(point) > threshold, compared as xn/xd > tn/td
            for xn, xd in point:
                if xn * td <= tn * xd:
                    return apply(point)
            return ratio(*point[i])

        return hull_member
    order: list[QFunction] = []
    seen: set[int] = set()

    def visit(g: QFunction) -> None:
        if id(g) not in seen:
            seen.add(id(g))
            if isinstance(g.below, Composition):
                for h in g.below.inners:
                    visit(h)
            order.append(g)

    visit(f)
    leaves = [g for g in order if not isinstance(g.below, Composition)]
    composed = [g for g in order if isinstance(g.below, Composition)]
    slots = {id(g): k for k, g in enumerate(leaves + composed)}
    leaf_programs = tuple([g._program for g in leaves])
    steps = tuple(
        [(tuple([slots[id(h)] for h in g.below.inners]), g.below.outer._program) for g in composed]
    )

    def composition(point):
        values = [leaf(point) for leaf in leaf_programs]
        for args, outer in steps:
            values.append(outer(tuple([values[k] for k in args])))
        return values[-1]

    return composition


def evaluate(f: QFunction, u: Sequence[Fraction | int]) -> Fraction:
    """Exact value at a rational point, whose coordinates must be ints
    or Fractions; anything else raises InconsistentData naming it.

    The arguments become numerator/denominator pairs once, here, the
    member's integer program runs once on them, and the answer is the
    one ``Fraction`` built.
    """
    point = tuple(map(_ratio, u))
    if len(point) != f.arity:
        raise InconsistentData(f"expected {f.arity} arguments, got {len(point)}")
    return Fraction(*f._program(point))


def _collapse(f: QFunction) -> int:
    if isinstance(f.below, Composition):
        return _collapse(f.below.inners[_collapse(f.below.outer) - 1])
    return f.coordinate


def xi(f: QFunction) -> int:
    """The eventual coordinate — the selector the member maps to.

    Recomputed as the selector collapse of the provenance and
    cross-checked by one evaluation past the threshold; a disagreement
    means the bookkeeping is broken and raises.
    """
    symbolic = _collapse(f)
    if symbolic != f.coordinate:
        raise InconsistentData(
            f"recorded coordinate {f.coordinate} differs from collapse {symbolic}"
        )
    sample = tuple(f.threshold + 1 + j for j in range(f.arity))
    expected = f.eventual.apply(sample[f.coordinate - 1])
    if evaluate(f, sample) != expected:
        raise InconsistentData("evaluation past the threshold contradicts the coordinate")
    return symbolic


def compose_members(f: QFunction, gs: Sequence[QFunction]) -> QFunction:
    """Composition f(g_1, ..., g_k), with its eventual regime computed.

    The new threshold is the largest inner threshold or point where an
    inner eventual map reaches the outer threshold.  Past it every inner
    member is in its eventual regime and its output has cleared the
    outer threshold, so there the composite is the composed bijection of
    the collapsed coordinate.
    """
    inners = tuple(gs)
    if len(inners) != f.arity:
        raise InconsistentData(f"{f.arity}-ary member composed with {len(inners)} inners")
    arities = {g.arity for g in inners}
    if len(arities) != 1:
        raise InconsistentData("inner members must share one arity")
    n = arities.pop()
    star = inners[f.coordinate - 1]
    # each inner eventual map is a bijection of Q, so it reaches the
    # outer threshold at exactly one point; the candidates are pairs,
    # compared by cross-multiplying
    tn, td = f.threshold.numerator, f.threshold.denominator
    candidates = [(g.threshold.numerator, g.threshold.denominator) for g in inners]
    candidates += [g.eventual.preimage(tn, td) for g in inners]
    top = candidates[0]
    for x in candidates:
        if x[0] * top[1] > top[0] * x[1]:
            top = x
    threshold = Fraction(*top)
    return QFunction(
        arity=n,
        coordinate=star.coordinate,
        threshold=threshold,
        eventual=f.eventual.compose(star.eventual),
        below=Composition(f, inners),
    )


# each spot-check draw as (lo, width, bits): randint(lo, lo + width - 1)
# as CPython draws it, lo plus the first getrandbits(bits) below width
_LOW = ((-60, 121, 7), (1, 6, 3))
_STEP = ((1, 30, 5), (1, 6, 3))


def spot_check_polymorphism(f: QFunction, pairs: int = 1000, seed: int = 0) -> int:
    """Randomized strict-monotonicity check; raises on any violation.

    Each pair draws a point u, per coordinate randint(-60, 60) over
    randint(1, 6), and then a positive step to v, per coordinate
    randint(1, 30) over randint(1, 6), from ``random.Random(seed)``.
    The draws are ``randint``'s own: lo plus the first
    ``getrandbits(width.bit_length())`` below the width, in one loop
    over a per-pair plan.  Both points stay integer pairs in lowest
    terms, as the hull's exact hits are keyed, the member's program runs
    on each, and the two values compare by cross-multiplying;
    ``Fraction``s are built only to name a failing pair.
    """
    if pairs < 0:
        raise InconsistentData(f"pair count {pairs} is negative")
    getrandbits = random.Random(seed).getrandbits
    n, program = f.arity, f._program
    plan = _LOW * n + _STEP * n
    for _ in range(pairs):
        draws = []
        for lo, width, bits in plan:
            r = getrandbits(bits)
            while r >= width:
                r = getrandbits(bits)
            draws.append(lo + r)
        # u and the step from u to v, v summed in integers
        u, v = [], []
        for k in range(0, 2 * n, 2):
            xn, xd, sn, sd = draws[k], draws[k + 1], draws[2 * n + k], draws[2 * n + k + 1]
            g = gcd(xn, xd)
            u.append((xn // g, xd // g))
            yn, yd = xn * sd + sn * xd, xd * sd
            g = gcd(yn, yd)
            v.append((yn // g, yd // g))
        u, v = tuple(u), tuple(v)
        (an, ad), (bn, bd) = program(u), program(v)
        if an * bd >= bn * ad:
            raise InconsistentData(
                f"not increasing between {[Fraction(*x) for x in u]} "
                f"and {[Fraction(*x) for x in v]}"
            )
    return pairs


# -- rebuilding restrictions ----------------------------------------------


def extend_restriction(
    restriction: Mapping[Sequence[Fraction], Fraction], target_i: int, n: int
) -> QFunction:
    """A member agreeing exactly with a finite restriction, with the
    eventual coordinate of our choosing.

    Only pointwise-strict domination constrains a polymorphism, so only
    that is demanded of the data, as ``DataHull`` does — restrictions
    of min, say, repeat values across weakly comparable points and
    still extend.  The threshold is pushed above every coordinate in
    the data and the eventual map is a translation clearing every data
    value, so the member reproduces the data through its hull.
    """
    data = _normalize_data(restriction.items(), n)
    coords = [x for point, _ in data for x in point]
    a = max(coords) + 1 if coords else Fraction(0)
    values = [v for _, v in data]
    offset = max(values) + 1 - a if values else Fraction(0)
    hull = DataHull(tuple(data), n, a + offset)
    return QFunction(n, target_i, a, translation(offset), hull)


# -- the uniqueness argument ----------------------------------------------


def _embedding_above(a: Fraction) -> PLMap:
    # increasing self-map with range exactly (a, oo): a Moebius squash
    # below zero, a translation above; both matrices times a's denominator
    n, d = a.numerator, a.denominator
    zero = Fraction(0)
    return PLMap((Piece(None, zero, (-n, n + d, -d, d)), Piece(zero, None, (d, n + d, 0, d))))


@dataclass(frozen=True)
class UniquenessReport:
    """Record of the check that forces the coordinate reading.

    The witnesses push every argument strictly past the threshold, so
    the composite equals the eventual map of one inner value and
    depends on exactly one coordinate — any selector reading of the
    member has to pick that coordinate.
    """

    threshold: Fraction
    range_inf: Fraction
    grid_side: int
    checked: int
    coordinate: int

    def describe(self) -> str:
        return (
            f"witness range ({self.range_inf}, oo), threshold {self.threshold}; "
            f"composite on the {self.grid_side}x{self.grid_side} grid "
            f"({self.checked} points) depends only on coordinate {self.coordinate}"
        )


def uniqueness_witnesses(
    f: QFunction, grid_side: int = 10, caps: Caps = DEFAULT_CAPS
) -> tuple[tuple[QFunction, ...], UniquenessReport]:
    """Unary members whose ranges sit strictly above f's threshold,
    together with the verification that plugging them into f leaves a
    function of the eventual coordinate alone.

    The range bound is read off the pieces of the witness map exactly;
    the grid evaluation then confirms the composite pointwise.  The grid
    runs in integers: the member's program on the pushed points, as
    numerator/denominator pairs in lowest terms, against the eventual
    map's ``ratio`` of the pushed coordinate; ``Fraction``s are built
    only to name a failing grid point.
    """
    if isinstance(f.below, Composition):
        raise InconsistentData("uniqueness witnesses want a member with parameters")
    if grid_side < 1:
        raise InconsistentData(f"grid side {grid_side} is below 1")
    a = f.threshold
    graph = _embedding_above(a)
    g = QFunction(1, 1, Fraction(0), translation(a + 1), graph)
    guard_power(grid_side, f.arity, caps.tuple_cap, "verification grid size")
    witnesses = tuple(g for _ in range(f.arity))
    half = grid_side // 2
    # every witness is g, so each grid point pushes to a product of g's
    # values on the axis, and the composite must give alpha of the
    # pushed eventual coordinate; all as integer pairs in lowest terms
    pushed = [g._program(((k - half, 1),)) for k in range(grid_side)]
    ratio, program, i = _ratio_of(f.eventual), f._program, f.coordinate - 1
    image = {y: ratio(*y) for y in pushed}
    for point in itertools.product(pushed, repeat=f.arity):
        if program(point) != image[point[i]]:
            x = tuple(Fraction(pushed.index(y) - half) for y in point)
            raise InconsistentData(f"composite not a function of x{f.coordinate} at {x}")
    checked = grid_side**f.arity
    report = UniquenessReport(
        threshold=a,
        range_inf=graph.range_inf(),
        grid_side=grid_side,
        checked=checked,
        coordinate=f.coordinate,
    )
    return witnesses, report


# -- the discontinuity demonstration --------------------------------------


@dataclass(frozen=True)
class NoncontinuityReport:
    """One restriction, n extensions, n different eventual coordinates."""

    arity: int
    seed: int
    base: QFunction
    restriction: tuple[tuple[tuple[Fraction, ...], Fraction], ...]
    extensions: tuple[QFunction, ...]

    def coordinates(self) -> tuple[int, ...]:
        return tuple(xi(g) for g in self.extensions)

    def describe(self) -> str:
        lines = [
            f"arity {self.arity}, seed {self.seed}",
            f"restriction of {len(self.restriction)} points "
            f"of a member with eventual coordinate {self.base.coordinate}",
        ]
        for point, value in self.restriction:
            args = ", ".join(str(x) for x in point)
            lines.append(f"  ({args}) -> {value}")
        for g in self.extensions:
            lines.append(
                f"extension with eventual coordinate {xi(g)}: "
                f"threshold {g.threshold}, agrees on all "
                f"{len(self.restriction)} points"
            )
        lines.append(
            "no finite restriction determines the eventual coordinate"
        )
        return "\n".join(lines)


# noncontinuity_demo draws each sample coordinate as a/b from these
_NUMERATORS = range(-24, 25)
_DENOMINATORS = range(1, 5)


def noncontinuity_demo(
    n: int, sample_count: int, seed: int = 0, caps: Caps = DEFAULT_CAPS
) -> NoncontinuityReport:
    """Restrict a member to finitely many points, then rebuild it with
    every possible eventual coordinate.

    All extensions agree with the original on the sampled points
    exactly, yet their eventual coordinates exhaust 1..n — knowing a
    member on finitely many points says nothing about where it goes.
    Asking for more samples than there are distinct sample points raises
    InconsistentData; the consistency check compares every unordered
    pair of samples once, so a count with more than ``caps.tuple_cap``
    such pairs raises CapExceeded before any sampling.
    """
    if n < 2:
        raise InconsistentData("the demonstration needs arity at least 2")
    if sample_count < 0:
        raise InconsistentData("sample count must be nonnegative")
    values = len({Fraction(a, b) for a in _NUMERATORS for b in _DENOMINATORS})
    # values >= 2, so an arity past the count's bit length always has room
    if sample_count > values ** min(n, sample_count.bit_length()):
        raise InconsistentData(
            f"{sample_count} samples asked for, only {values}**{n} distinct points exist"
        )
    guard(comb(sample_count, 2), caps.tuple_cap, "consistency pairs")
    rng = random.Random(seed)
    base = make_member(n, 1, Fraction(0), identity(), {})
    points: set[tuple[Fraction, ...]] = set()
    while len(points) < sample_count:
        points.add(
            tuple(
                Fraction(rng.choice(_NUMERATORS), rng.choice(_DENOMINATORS))
                for _ in range(n)
            )
        )
    restriction = {p: evaluate(base, p) for p in sorted(points)}
    # threshold, eventual map and hull do not depend on the target, and
    # every extension reproduces the restriction through its hull
    first = extend_restriction(restriction, 1, n)
    extensions = [first] + [replace(first, coordinate=t) for t in range(2, n + 1)]
    return NoncontinuityReport(
        arity=n,
        seed=seed,
        base=base,
        restriction=tuple(sorted(restriction.items())),
        extensions=tuple(extensions),
    )


# -- files -----------------------------------------------------------------


def serialize_member(f: QFunction) -> str:
    """File form of a member with parameters: arity, eventual coordinate
    and threshold, the pieces of the eventual map, and the data rows."""
    if not isinstance(f.below, DataHull):
        raise InconsistentData("only members with parameters have a file form")
    lines = [f"arity {f.arity}", f"eventual {f.coordinate} {f.threshold}"]
    lines.extend(f.eventual.serialize().strip().splitlines())
    lines.extend("data " + " ".join(map(str, (*p, v))) for p, v in f.below.data)
    return "\n".join(lines) + "\n"


_MEMBER_FIELDS = {"arity": 1, "eventual": 2}


def parse_member(text: str) -> QFunction:
    """Inverse of :func:`serialize_member`; '#' starts a comment.  The
    `piece` lines, wherever they stand, make the eventual map in file order;
    a gap, an overlap or a jump between them is reported at the first."""
    arity: int | None = None
    coordinate: int | None = None
    threshold: Fraction | None = None
    pieces: list[Piece] = []
    rows: list[tuple[int, list[str]]] = []
    first_line: dict[str, int] = {}
    for lineno, (head, *rest) in records(text):
        if head in _MEMBER_FIELDS:
            if len(rest) != _MEMBER_FIELDS[head]:
                raise ParseError(f"`{head}` takes {_MEMBER_FIELDS[head]} field(s)", lineno)
            if head in first_line:
                raise ParseError(f"`{head}` line repeated", lineno)
        first_line.setdefault(head, lineno)
        if head == "arity":
            arity = natural(rest[0], lineno, "a member arity of at least 1", 1)
            guard_arity(arity, DEFAULT_CAPS)
        elif head == "eventual":
            coordinate = natural(rest[0], lineno, "an eventual coordinate of at least 1", 1)
            threshold = parse_fraction(rest[1], lineno)
        elif head == "piece":
            pieces.append(parse_piece_line(rest, lineno))
        elif head == "data":
            rows.append((lineno, rest))
        else:
            raise ParseError(f"unknown directive {head!r}", lineno)
    if arity is None or coordinate is None or threshold is None:
        raise ParseError("missing arity or eventual line")
    if coordinate > arity:
        raise ParseError(
            f"eventual coordinate {coordinate} above arity {arity}", first_line["eventual"]
        )
    alpha = assemble_plmap(pieces, first_line.get("piece"))
    ceiling = alpha.apply(threshold)
    data: dict[tuple[Fraction, ...], Fraction] = {}
    for lineno, fields in rows:
        if len(fields) != arity + 1:
            raise ParseError(f"data row needs {arity + 1} rationals", lineno)
        numbers = [parse_fraction(field, lineno) for field in fields]
        point = tuple(numbers[:arity])
        if point in data:
            raise ParseError(f"data point {point} repeated", lineno)
        if all(x > threshold for x in point):
            raise ParseError(
                f"data point {point} lies entirely above the threshold {threshold}",
                lineno,
            )
        if numbers[arity] >= ceiling:
            raise ParseError(
                f"data value {numbers[arity]} at or above alpha(threshold) = {ceiling}",
                lineno,
            )
        data[point] = numbers[arity]
    hull = DataHull(tuple(data.items()), arity, ceiling)
    return QFunction(arity, coordinate, threshold, alpha, hull)
