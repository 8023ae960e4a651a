"""Eventually-a-coordinate polymorphisms: construction, composition,
restriction rebuilding, and the uniqueness check.

Monotonicity below the threshold is exercised with randomized strictly
dominated pairs; everything else is exact rational equality.
"""

from __future__ import annotations

import copy
import pickle
import random
import time
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from clonelab.config import Caps
from clonelab.errors import CapExceeded, InconsistentData, ParseError
from clonelab.plmap import PLMap, Piece, from_point_pairs, identity, translation
from clonelab.qclone import (
    Composition,
    DataHull,
    _embedding_above,
    QFunction,
    compose_members,
    evaluate,
    extend_restriction,
    make_member,
    noncontinuity_demo,
    parse_member,
    selector_member,
    serialize_member,
    spot_check_polymorphism,
    uniqueness_witnesses,
    xi,
)
from hull_oracle import hull_apply, map_value, nested_value, reference_hull
import plmap_oracle

F = Fraction


def plain_member(n=2, i=1, a=0):
    return make_member(n, i, F(a), identity(), {})


def incomparable_member():
    # two data points neither of which dominates the other
    return make_member(2, 1, F(2), translation(4), {(F(0), F(1)): F(5), (F(1), F(0)): F(2)})


MIN_POINTS = {
    (F(0), F(1)): F(0),
    (F(0), F(2)): F(0),
    (F(1), F(0)): F(0),
    (F(2), F(3)): F(2),
    (F(-1), F(-2)): F(-2),
}


# -- members from parameters -----------------------------------------------


def test_empty_member_is_the_coordinate_past_the_threshold():
    f = plain_member()
    assert evaluate(f, (F(5), F(7))) == 5
    assert evaluate(f, (F(1000), F(1, 2))) == 1000
    # once any argument drops to the threshold, values fall below alpha(a)
    assert evaluate(f, (F(5), F(-1))) < 0
    assert evaluate(f, (F(5), F(0))) < 0


def test_single_data_point_member():
    f = make_member(1, 1, F(0), translation(3), {(F(-1),): F(0)})
    assert evaluate(f, (F(-1),)) == 0
    assert evaluate(f, (F(2),)) == 5
    assert evaluate(f, (F(-2),)) < 0


def test_incomparable_data_points_are_accepted():
    f = incomparable_member()
    assert evaluate(f, (F(0), F(1))) == 5
    assert evaluate(f, (F(1), F(0))) == 2
    assert evaluate(f, (F(3), F(3))) == 7


@pytest.mark.parametrize(
    "kwargs",
    [
        # weak domination with a non-increasing value
        dict(data={(F(0), F(1)): F(5), (F(0), F(2)): F(3)}),
        # value at the eventual bound alpha(a) = 0
        dict(data={(F(-1), F(-1)): F(0)}),
        # data point entirely above the threshold
        dict(data={(F(1), F(2)): F(-1)}),
    ],
)
def test_member_data_validation(kwargs):
    with pytest.raises(InconsistentData):
        make_member(2, 1, F(0), identity(), kwargs["data"])


def test_member_parameter_validation():
    with pytest.raises(InconsistentData):
        make_member(2, 3, F(0), identity(), {})
    bounded = uniqueness_witnesses(plain_member())[0][0].below
    with pytest.raises(InconsistentData):
        make_member(2, 1, F(0), bounded, {})


def test_every_construction_checks_the_eventual_bijection():
    # a map onto (0, oo) is not a bijection of Q, however the member is built
    bounded = _embedding_above(F(0))
    hull = DataHull((), 2, F(1))
    with pytest.raises(InconsistentData, match="bijection"):
        QFunction(2, 1, F(0), bounded, hull)
    with pytest.raises(InconsistentData, match="bijection"):
        replace(incomparable_member(), eventual=bounded)
    text = "arity 1\neventual 1 0\n" + bounded.serialize()
    with pytest.raises(InconsistentData, match="bijection"):
        parse_member(text)
    # a bad data row is reported at its line before the map is judged
    with pytest.raises(ParseError, match="line 5:"):
        parse_member(text + "data 1 -5\n")


def test_a_hull_member_must_be_a_polymorphism():
    # a hull under a ceiling other than alpha(threshold) = 0 would give
    # 100 at 0 and 1 at 1
    high = DataHull((((F(0),), F(100)),), 1, F(101))
    with pytest.raises(InconsistentData, match="hull ceiling 101 is not alpha"):
        QFunction(1, 1, F(0), identity(), high)
    with pytest.raises(InconsistentData, match="2-ary hull below a 1-ary member"):
        QFunction(1, 1, F(0), identity(), DataHull((), 2, F(0)))
    member = make_member(2, 1, F(0), identity(), {(F(-1), F(-1)): F(-5)})
    # a new eventual map would give -99 at (1, 1), above -5 at (-1, -1)
    with pytest.raises(InconsistentData, match="hull ceiling 0 is not alpha"):
        replace(member, eventual=translation(-100))
    # a new threshold that keeps the ceiling would leave (-1, -1) past
    # it, where evaluation never reaches its data value
    with pytest.raises(InconsistentData, match="entirely above the threshold -2"):
        replace(member, threshold=F(-2), eventual=translation(2))


@pytest.mark.parametrize(
    "data, arity, ceiling, message",
    [
        ((((F(0),), F(1)), ((F(0),), F(2))), 1, F(5), "data point .* repeated"),
        ((((F(0), F(0)), F(1)), ((F(1), F(1)), F(0))), 2, F(5), "inconsistent data"),
        ((((F(0),), F(5)),), 1, F(5), "data value 5 at or above the ceiling 5"),
        ((((F(0),), F(1)),), 2, F(5), "is not 2-ary"),
        ((((F(0),), F(1)),), -1, F(1), "arity must be at least 1"),
    ],
    ids=["repeated", "inconsistent", "ceiling", "point-arity", "arity"],
)
def test_a_hull_refuses_data_the_lemma_does_not_cover(data, arity, ceiling, message):
    with pytest.raises(InconsistentData, match=message):
        DataHull(data, arity, ceiling)


def test_one_pass_names_the_pair_each_check_names():
    # (0,1) -> 5 is weakly below (0,2) -> 3 and (0,3) -> 1: the hull keeps
    # the first such pair for make_member, which refuses it by name
    a, b, c = ((F(0), F(1)), F(5)), ((F(0), F(2)), F(3)), ((F(0), F(3)), F(1))
    hull = DataHull((c, b, a), 2, F(6))
    assert hull.weak_conflict == (a, b)
    assert DataHull((b, c), 2, F(6)).weak_conflict == (b, c)
    assert DataHull((a,), 2, F(6)).weak_conflict is None
    with pytest.raises(InconsistentData) as err:
        make_member(2, 1, F(6), identity(), dict((a, b, c)))
    assert str(err.value) == f"inconsistent data: {a[0]} -> 5, {b[0]} -> 3"
    # a strict conflict is refused by the hull, ahead of an earlier weak one
    strict = ((F(1), F(4)), F(0))
    with pytest.raises(InconsistentData) as err:
        DataHull((a, b, strict), 2, F(6))
    assert str(err.value) == f"inconsistent data: {a[0]} -> 5, {strict[0]} -> 0"


@given(
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=1, max_value=6),
)
def test_eventual_regime_is_exact(p, q, r, s):
    f = make_member(2, 2, F(3), translation(-7), {(F(0), F(0)): F(-12)})
    u = (F(3) + F(p, q), F(3) + F(r, s))
    assert evaluate(f, u) == u[1] - 7


def test_polymorphism_spot_checks_pass():
    members = [
        plain_member(),
        incomparable_member(),
        selector_member(3, 2),
        extend_restriction(MIN_POINTS, 1, 2),
        compose_members(plain_member(), [incomparable_member(), plain_member(2, 2)]),
        uniqueness_witnesses(plain_member())[0][0],
    ]
    for f in members:
        assert spot_check_polymorphism(f, 300, seed=5) == 300


def replay_spot_check(f, pairs, seed, value=nested_value):
    """The sampled check as first written, in `Fraction`s, with values
    from the oracle: per pair, u, v and whether value(u) < value(v)."""
    rng = random.Random(seed)
    out = []
    for _ in range(pairs):
        lows = [(rng.randint(-60, 60), rng.randint(1, 6)) for _ in range(f.arity)]
        steps = [(rng.randint(1, 30), rng.randint(1, 6)) for _ in range(f.arity)]
        u = [F(xn, xd) for xn, xd in lows]
        v = [F(xn * sd + sn * xd, xd * sd) for (xn, xd), (sn, sd) in zip(lows, steps)]
        out.append((u, v, value(f, u) < value(f, v)))
    return out


def test_the_check_draws_what_randint_draws():
    # a stand-in program records the points the check reads, and returns
    # increasing values so that every pair passes
    for n in range(1, 5):
        f = plain_member(n)
        for seed in range(50):
            read = []

            def recording(point):
                read.append(point)
                return len(read), 1

            object.__setattr__(f, "_program", recording)
            assert spot_check_polymorphism(f, 20, seed) == 20
            replay = replay_spot_check(f, 20, seed, value=lambda g, u: True)
            expected = [
                tuple((x.numerator, x.denominator) for x in w) for u, v, _ in replay for w in (u, v)
            ]
            assert read == expected, (n, seed)


def _check_outcome(f, pairs, seed):
    try:
        return spot_check_polymorphism(f, pairs, seed)
    except InconsistentData as err:
        return str(err)


def _replayed_outcome(replay, pairs):
    for u, v, increasing in replay[:pairs]:
        if not increasing:
            return f"not increasing between {u} and {v}"
    return pairs


# hulls made decreasing, or constant, wherever they are read: each as
# the change to the library's integer value and to the oracle's value
BROKEN_HULLS = {
    "flipped": (lambda num, den: (-num, den), lambda value: -value),
    "constant": (lambda num, den: (0, 1), lambda value: F(0)),
}


def _break_hulls(monkeypatch, kind="flipped"):
    apply, (change, _) = DataHull.apply, BROKEN_HULLS[kind]
    monkeypatch.setattr(DataHull, "apply", lambda hull, point: change(*apply(hull, point)))


def _broken_value(kind):
    # the oracle's value of a hull member built with broken hulls
    change = BROKEN_HULLS[kind][1]

    def value(f, u):
        oracle = nested_value(f, u)
        return change(oracle) if min(u) <= f.threshold else oracle

    return value


def test_a_non_monotone_member_fails_the_check_by_name(monkeypatch):
    # a member built after its hull is made decreasing passes the first
    # two pairs of seed 0 and fails the third
    _break_hulls(monkeypatch)
    f = incomparable_member()
    assert spot_check_polymorphism(f, 2, seed=0) == 2
    message = (
        "not increasing between [Fraction(-12, 1), Fraction(36, 1)] "
        "and [Fraction(-16, 3), Fraction(42, 1)]"
    )
    for pairs in (3, 40):
        with pytest.raises(InconsistentData) as err:
            spot_check_polymorphism(f, pairs, seed=0)
        assert str(err.value) == message


def test_the_check_reads_points_in_lowest_terms(monkeypatch):
    # the hull keys its exact hits in lowest terms, so an unreduced
    # point would miss a hit and read the interpolation instead
    read = []
    apply = DataHull.apply

    def recording(hull, point):
        read.append(point)
        return apply(hull, point)

    monkeypatch.setattr(DataHull, "apply", recording)
    spot_check_polymorphism(incomparable_member(), 200, seed=3)
    assert len(read) > 100
    assert all(gcd(num, den) == 1 and den > 0 for point in read for num, den in point)


def test_the_check_reads_the_pairs_of_the_fraction_check(monkeypatch):
    # every prefix of the library's check passes or fails as the replay
    # in Fractions does, and a failure names the replay's first bad pair
    members = [
        incomparable_member(),
        parse_member(MOBIUS_MEMBER),
        compose_members(incomparable_member(), [plain_member(2, 2), incomparable_member()]),
        selector_member(3, 2),
    ]
    for f in members:
        for seed in (0, 9):
            replay = replay_spot_check(f, 12, seed)
            assert all(increasing for _, _, increasing in replay)
            for pairs in range(len(replay) + 1):
                assert _check_outcome(f, pairs, seed) == pairs
    for kind in BROKEN_HULLS:
        with monkeypatch.context() as patch:
            _break_hulls(patch, kind)
            broken = [
                incomparable_member(),
                make_member(3, 2, F(-20), translation(1), {(F(-30), F(-21), F(0)): F(-40)}),
            ]
            mixed = 0
            for f in broken:
                for seed in range(12):
                    replay = replay_spot_check(f, 12, seed, _broken_value(kind))
                    mixed += len({increasing for _, _, increasing in replay}) == 2
                    for pairs in range(len(replay) + 1):
                        outcome = _replayed_outcome(replay, pairs)
                        assert _check_outcome(f, pairs, seed) == outcome
        # the broken members pass some pairs and fail others
        assert mixed > 0, kind


RATIONAL = st.builds(F, st.integers(-12, 12), st.integers(1, 4))
STEP = st.builds(F, st.integers(1, 12), st.integers(1, 4))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["make_member", "extend_restriction", "parse_member"]), st.data())
def test_members_built_from_consistent_data_are_polymorphisms(builder, draw):
    n = draw.draw(st.integers(1, 3))
    i = draw.draw(st.integers(1, n))
    threshold, shift = draw.draw(RATIONAL), draw.draw(RATIONAL)
    points = draw.draw(st.lists(st.tuples(*[RATIONAL] * n), max_size=6))
    if builder != "extend_restriction":
        # one coordinate of each point at or below the threshold
        ks = [draw.draw(st.integers(0, n - 1)) for _ in points]
        points = [p[:k] + (min(p[k], threshold),) + p[k + 1 :] for p, k in zip(points, ks)]
    # b * min + c * sum increases along strict domination, and along
    # weak domination too when c > 0, as make_member demands
    c = draw.draw(st.integers(1 if builder == "make_member" else 0, 3))
    b = draw.draw(st.integers(0 if c else 1, 3))
    raw = {p: b * min(p) + c * sum(p) for p in points}
    # every value below the ceiling alpha(threshold) = threshold + shift
    offset = threshold + shift - 1 - max(raw.values(), default=0) - draw.draw(STEP)
    data = {p: r + offset for p, r in raw.items()}
    if builder == "make_member":
        f = make_member(n, i, threshold, translation(shift), data)
    elif builder == "extend_restriction":
        f = extend_restriction(data, i, n)
    else:
        rows = "".join(
            "data " + " ".join(str(x) for x in (*p, v)) + "\n" for p, v in data.items()
        )
        f = parse_member(
            f"arity {n}\neventual {i} {threshold}\n"
            f"piece -inf inf affine 1 {shift}\n{rows}"
        )
    # every builder's member is what its file form parses back to
    assert parse_member(serialize_member(f)) == f
    for p, v in data.items():
        assert evaluate(f, p) == v
    # strictly comparable pairs from and to every data point, and from
    # random points, against the oracle
    for u in [*data, *draw.draw(st.lists(st.tuples(*[RATIONAL] * n), min_size=1, max_size=3))]:
        below = tuple(x - draw.draw(STEP) for x in u)
        above = tuple(x + draw.draw(STEP) for x in u)
        values = [evaluate(f, w) for w in (below, u, above)]
        assert values == [nested_value(f, w) for w in (below, u, above)]
        assert values[0] < values[1] < values[2]


# -- composition and the coordinate reading --------------------------------


def test_xi_of_members_and_compositions():
    assert xi(plain_member(3, 2)) == 2
    f = plain_member(2, 1)
    unary = make_member(1, 1, F(0), translation(3), {})
    assert xi(compose_members(unary, [unary])) == 1
    # a binary member reading coordinate 2 composed with two unary
    # members collapses to the second inner's coordinate
    g = plain_member(2, 2)
    assert xi(compose_members(g, [unary, unary])) == 1
    assert xi(compose_members(f, [selector_member(2, 2), selector_member(2, 1)])) == 2


def test_composition_collapse_law_on_random_chains():
    import random

    rng = random.Random(11)
    pool = [
        plain_member(2, 1),
        plain_member(2, 2),
        incomparable_member(),
        selector_member(2, 1),
        selector_member(2, 2),
    ]
    for _ in range(100):
        f = rng.choice(pool)
        gs = [rng.choice(pool) for _ in range(f.arity)]
        composed = compose_members(f, gs)
        assert xi(composed) == xi(gs[xi(f) - 1])
        pool.append(composed)
    # chains whose inners repeat a member and nest a composite take the
    # values of the occurrence-by-occurrence evaluation of the oracle
    a, b = incomparable_member(), plain_member(2, 2)
    inner = compose_members(a, [b, b])
    chains = [
        inner,
        compose_members(b, [inner, inner]),
        compose_members(a, [a, inner]),
        compose_members(inner, [compose_members(b, [a, inner]), a]),
        *pool[5:15],
    ]
    points = [(F(0), F(0)), (F(-3), F(1, 2)), (F(7, 3), F(-5)), (F(40), F(41))]
    points += [
        (F(rng.randint(-40, 40), rng.randint(1, 5)), F(rng.randint(-40, 40), rng.randint(1, 5)))
        for _ in range(20)
    ]
    for chain in chains:
        assert xi(chain) == chain.coordinate
        for u in points:
            assert evaluate(chain, u) == nested_value(chain, u)
    # the integer arguments are converted at the boundary, and a wrong
    # arity is still refused there
    assert evaluate(chains[3], (0, -3)) == nested_value(chains[3], (F(0), F(-3)))
    with pytest.raises(InconsistentData, match="expected 2 arguments, got 3"):
        evaluate(chains[3], (F(0), F(0), F(0)))
    with pytest.raises(InconsistentData, match="expected 2 arguments, got 1"):
        evaluate(chains[1], (1,))


# alpha is the identity off [0, 1) and x/(2 - x) on it, a Moebius piece
# left of its pole at 2
MOBIUS_MEMBER = """\
arity 2
eventual 2 -1
piece -inf 0 affine 1 0
piece 0 1 mobius -1 0 1 -2
piece 1 inf affine 1 0
data -2 0 -5
data -1 -3 -6
"""


def test_evaluation_matches_the_oracle_on_moebius_pieces_and_edges():
    # Moebius pieces left of their pole have negative denominators in
    # integers: the parsed alpha, and the witness graph _embedding_above
    member = parse_member(MOBIUS_MEMBER)
    witness = uniqueness_witnesses(member)[0][0]
    assert witness.below == _embedding_above(F(-1))
    raised = compose_members(witness, [member])
    members = [member, raised, compose_members(member, [raised, member])]
    points = [
        (-2, 0), (F(-1), F(-3)),  # exact data hits
        (-1, 5), (F(3), F(-1)), (-1, -1),  # on the threshold
        (0, 0), (F(7), F(0)), (0, 1), (F(1, 2), F(1)),  # on breakpoints past it
        (F(-7, 3), F(1, 2)), (F(9, 4), F(-5, 2)), (F(1, 3), F(2, 3)),
    ]
    for f in members:
        for u in points:
            assert evaluate(f, u) == nested_value(f, u), (f, u)
    for x in (-1, 0, 1, 5, F(-7, 3), F(0), F(1, 2), F(1)):
        assert evaluate(witness, (x,)) == nested_value(witness, (x,))
    # the maps themselves, on int and Fraction arguments alike
    for m in (member.eventual, witness.below, _embedding_above(F(-5, 3))):
        for x in (-3, -1, 0, 1, 2, F(-1), F(0), F(1), F(-1, 3), F(1, 2), F(5, 2)):
            value = m.apply(x)
            assert type(value) is Fraction and value == map_value(m, x), (m, x)
        # the two pieces agree on a breakpoint, which belongs to the right one
        for b in m.breakpoints():
            assert m.piece_at(b).lo == b


def test_evaluate_refuses_inexact_arguments():
    f = selector_member(2, 1)
    with pytest.raises(InconsistentData, match=r"argument 0\.1 is not an int or a Fraction"):
        evaluate(f, (0.1, 2))
    with pytest.raises(InconsistentData, match="argument '1/3' is not"):
        evaluate(f, (F(1), "1/3"))
    with pytest.raises(InconsistentData, match=r"argument Decimal\('1'\) is not"):
        evaluate(f, (Decimal(1), 2))


@pytest.mark.parametrize("bad", [0.1, "1/3"], ids=["float", "string"])
@pytest.mark.parametrize(
    "build",
    [
        lambda v: make_member(2, 1, v, identity(), {}),
        lambda v: make_member(2, 1, F(0), identity(), {(v, F(-1)): F(-1)}),
        lambda v: make_member(2, 1, F(0), identity(), {(F(-1), F(-1)): v}),
        lambda v: QFunction(1, 1, v, identity(), identity()),
        lambda v: replace(selector_member(2, 1), threshold=v),
    ],
    ids=["threshold", "data-point", "data-value", "qfunction", "replace"],
)
def test_members_refuse_inexact_values(build, bad):
    with pytest.raises(InconsistentData, match=f"argument {bad!r} is not an int or a Fraction"):
        build(bad)


# the identity outside [2, 6]: slope 2 up to 3, then slope 2/3
BUMP = from_point_pairs([(2, 2), (3, 4), (6, 6)])
# the identity up to 5, slope 2 past it
STEEP_TAIL = PLMap((Piece(None, 5, (1, 0, 0, 1)), Piece(5, None, (2, -5, 0, 1))))
# the identity, cut in two at 3
CUT_IDENTITY = PLMap((Piece(None, 3, (1, 0, 0, 1)), Piece(3, None, (1, 0, 0, 1))))


@pytest.mark.parametrize(
    "graph, eventual, threshold",
    [
        (BUMP, identity(), 0),  # inside the graph's pieces
        (BUMP, identity(), 5),  # inside a piece the threshold cuts
        (identity(), BUMP, 0),  # inside the eventual map's pieces
        (STEEP_TAIL, identity(), 0),  # past the last breakpoint
        (STEEP_TAIL, identity(), 7),  # past it, from a threshold beyond it
    ],
)
def test_a_graph_member_must_agree_with_its_map_above_the_threshold(
    graph, eventual, threshold
):
    with pytest.raises(InconsistentData, match="graph disagrees with the eventual map"):
        QFunction(1, 1, F(threshold), eventual, graph)


def test_a_graph_member_may_disagree_up_to_its_threshold():
    member = QFunction(1, 1, F(6), identity(), BUMP)
    assert [evaluate(member, (x,)) for x in (1, 3, F(9, 2), 6, 7)] == [1, 4, 5, 6, 7]
    # pieces cut at different points still agree past the threshold
    cut = QFunction(2, 2, F(0), identity(), CUT_IDENTITY)
    assert evaluate(cut, (F(1), F(7, 2))) == F(7, 2)


def test_a_repeated_inner_is_evaluated_once_per_point(monkeypatch):
    applied = []
    apply = DataHull.apply

    def counting(hull, point):
        applied.append(point)
        return apply(hull, point)

    monkeypatch.setattr(DataHull, "apply", counting)
    a = incomparable_member()
    chain = compose_members(a, [a, a])
    u = (F(-1), F(1, 2))
    evaluate(chain, u)
    # once at u for the two inners, once at their value pair for the
    # outer, each point as numerator/denominator pairs
    point = ((-1, 1), (1, 2))
    inner_value = apply(a.below, point)
    assert applied == [point, (inner_value, inner_value)]


def mobius_bump(a: int, length: int, k: F) -> PLMap:
    """The identity off [a, a + length); on it t -> t / (k - (k - 1) t)
    of t = (x - a) / length, which fixes both ends.  For k > 0 it
    increases, with its pole right of the piece for k > 1 and left of it,
    where the integer denominators are negative, for k < 1."""
    m = length
    mat = (m - a * (k - 1), a * k * m + a * a * (k - 1) - a * m, 1 - k, k * m + (k - 1) * a)
    one = (1, 0, 0, 1)
    return PLMap((Piece(None, a, one), Piece(a, a + m, mat), Piece(a + m, None, one)))


def _eventual_map(draw):
    shift = translation(draw.draw(st.integers(-4, 4)))
    if not draw.draw(st.booleans()):
        return shift
    a, length = draw.draw(st.integers(-4, 4)), draw.draw(st.integers(1, 5))
    k = draw.draw(st.sampled_from([F(1, 3), F(1, 2), F(2), F(3)]))
    return shift.compose(mobius_bump(a, length, k))


def _hull_member(draw, n):
    threshold = draw.draw(RATIONAL)
    alpha = _eventual_map(draw)
    points = draw.draw(st.lists(st.tuples(*[RATIONAL] * n), min_size=1, max_size=4))
    ks = [draw.draw(st.integers(0, n - 1)) for _ in points]
    points = [p[:k] + (min(p[k], threshold),) + p[k + 1 :] for p, k in zip(points, ks)]
    # a positive multiple of the sum increases along weak domination
    c = draw.draw(st.integers(1, 3))
    raw = {p: c * sum(p) for p in points}
    offset = alpha.apply(threshold) - 1 - max(raw.values()) - draw.draw(STEP)
    data = {p: r + offset for p, r in raw.items()}
    return make_member(n, draw.draw(st.integers(1, n)), threshold, alpha, data)


def _leaf(draw, n):
    kind = draw.draw(st.sampled_from(["hull", "graph", "selector"]))
    if kind == "hull":
        return _hull_member(draw, n)
    if kind == "graph":
        # a graph member whose graph is its eventual map
        alpha = _eventual_map(draw)
        return QFunction(n, draw.draw(st.integers(1, n)), draw.draw(RATIONAL), alpha, alpha)
    return selector_member(n, draw.draw(st.integers(1, n)))


def _edge_points(f):
    """Points on f's threshold, on its eventual map's breakpoints past
    it, and f's exact data hits."""
    n, t, i = f.arity, f.threshold, f.coordinate - 1
    points = [(t,) * n, tuple(t if j == i else t + 1 for j in range(n))]
    points.append(tuple(t + 1 if j == i else t for j in range(n)))
    for b in f.eventual.breakpoints():
        points.append(tuple(b if j == i else max(b, t) + 1 for j in range(n)))
        points.append((b,) * n)
    if isinstance(f.below, DataHull):
        points.extend(p for p, _ in f.below.data)
    return points


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_a_composition_takes_the_largest_threshold_or_preimage(draw):
    # the candidates compared in `Fraction`s, the preimages from the oracle
    n = draw.draw(st.integers(1, 3))
    f = _leaf(draw, n)
    inners = [_leaf(draw, n) for _ in range(n)]
    composed = compose_members(f, inners)
    expected = max(
        *(g.threshold for g in inners),
        *(plmap_oracle.invert_value(g.eventual, f.threshold) for g in inners),
    )
    assert composed.threshold == expected and type(composed.threshold) is Fraction
    assert composed.eventual == plmap_oracle.compose(f.eventual, inners[f.coordinate - 1].eventual)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_shared_sub_members_evaluate_as_the_oracle_does(draw):
    # s is an inner of both levels and the outer of the second
    n = draw.draw(st.integers(2, 3))
    s = _hull_member(draw, n)
    leaves = [s, *(_leaf(draw, n) for _ in range(3))]

    def inners(first=None):
        picks = [draw.draw(st.sampled_from(leaves)) for _ in range(n)]
        spots = draw.draw(st.permutations(range(n)))
        picks[spots[0]] = s
        if first is not None:
            picks[spots[1]] = first
        return picks

    first = compose_members(draw.draw(st.sampled_from(leaves)), inners())
    chain = compose_members(s, inners(first))
    members = [*leaves, first, chain]
    points = [p for f in members for p in _edge_points(f)]
    points += draw.draw(st.lists(st.tuples(*[RATIONAL] * n), min_size=1, max_size=4))
    for f in members:
        for u in points:
            assert evaluate(f, u) == nested_value(f, u), (f, u)


def test_a_member_pickles_and_copies_with_its_program():
    a = incomparable_member()
    chain = compose_members(a, [a, compose_members(a, [a, plain_member(2, 2)])])
    for f in (a, chain, selector_member(2, 2)):
        for again in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f)):
            assert again == f
            for u in [(F(0), F(1)), (F(-3), F(1, 2)), (F(9), F(10))]:
                assert evaluate(again, u) == evaluate(f, u)


def test_composing_with_selectors_changes_nothing_pointwise():
    f = incomparable_member()
    comp = compose_members(f, [selector_member(2, 1), selector_member(2, 2)])
    import random

    rng = random.Random(3)
    for _ in range(50):
        u = (F(rng.randint(-40, 40), rng.randint(1, 5)), F(rng.randint(-40, 40), rng.randint(1, 5)))
        assert evaluate(comp, u) == evaluate(f, u)


def test_two_unary_members_compose_to_the_composed_map():
    outer = make_member(1, 1, F(0), translation(3), {})
    inner = make_member(1, 1, F(5), translation(10), {})
    comp = compose_members(outer, [inner])
    assert comp.threshold == 5
    assert comp.eventual == translation(13)
    for k in range(1, 101):
        x = F(5) + F(k, 7)
        assert evaluate(comp, (x,)) == x + 13


def test_composition_arity_mismatches_are_rejected():
    f = plain_member(2, 1)
    with pytest.raises(InconsistentData):
        compose_members(f, [selector_member(2, 1)])
    with pytest.raises(InconsistentData):
        compose_members(f, [selector_member(2, 1), selector_member(3, 1)])


# -- rebuilding restrictions ------------------------------------------------


def test_extension_agrees_but_reads_the_other_coordinate():
    base = plain_member(2, 1)
    points = [(F(1), F(4)), (F(-2), F(0)), (F(3), F(-1)), (F(0), F(0)), (F(5), F(2))]
    restriction = {p: evaluate(base, p) for p in points}
    ext = extend_restriction(restriction, 2, 2)
    assert xi(ext) == 2
    for p in points:
        assert evaluate(ext, p) == evaluate(base, p)
    # past its threshold the extension follows coordinate 2, the base
    # does not feel that coordinate at all
    big = ext.threshold + 1
    assert evaluate(ext, (big, big + 1)) != evaluate(ext, (big, big + 2))
    assert evaluate(base, (big, big + 1)) == evaluate(base, (big, big + 2))


def test_min_restrictions_extend_despite_repeated_values():
    for target in (1, 2):
        ext = extend_restriction(MIN_POINTS, target, 2)
        assert xi(ext) == target
        for point, value in MIN_POINTS.items():
            assert evaluate(ext, point) == value
    # the repeated value on weakly comparable points is exactly what
    # the stricter member constructor refuses
    with pytest.raises(InconsistentData):
        make_member(2, 1, F(4), translation(10), MIN_POINTS)


def _strictly_consistent(rng: random.Random, n: int, count: int, coordinate) -> dict:
    """Up to `count` random data points with random values, each kept
    only when its point is new and strictly comparable points increase."""
    data: dict = {}
    for _ in range(count):
        p = tuple(coordinate() for _ in range(n))
        v = F(rng.randint(-20, 20), rng.randint(1, 4))
        if p not in data and not any(
            all(a < b for a, b in zip(q, p)) and w >= v
            or all(b < a for a, b in zip(q, p)) and v >= w
            for q, w in data.items()
        ):
            data[p] = v
    return data


def test_hull_epsilon_is_the_all_pairs_minimum_gap():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(1, 3)
        data = _strictly_consistent(rng, n, rng.randint(0, 9), lambda: F(rng.randint(-4, 4)))
        values = list(data.values())
        ceiling = max(values, default=F(0)) + F(rng.randint(1, 9), rng.randint(1, 4))
        head = max(values) if values else ceiling - 2
        gaps = {abs(a - b) for a in values for b in values if a != b}
        expected = min(min(gaps, default=F(1)), F(1), ceiling - head) / (4 * n)
        assert DataHull(tuple(data.items()), n, ceiling).epsilon == expected


# small coordinates and values, plain ints among them, so that repeated
# points, strict and weak conflicts and values at the ceiling are common
EXACT = st.one_of(st.integers(-2, 2), st.builds(F, st.integers(-4, 4), st.integers(1, 3)))


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_the_integer_constructor_agrees_with_the_fraction_one(draw):
    n = draw.draw(st.integers(1, 3))
    # repeated points in some lists only, so that the other checks run
    unique = draw.draw(st.booleans())
    data = draw.draw(
        st.lists(
            st.tuples(st.tuples(*[EXACT] * n), EXACT),
            max_size=6,
            unique_by=(lambda entry: tuple(map(F, entry[0]))) if unique else None,
        )
    )
    if data and draw.draw(st.booleans()):
        # a point weakly above a data point, equal to it in the first
        # coordinate, whose value does not increase
        p, v = draw.draw(st.sampled_from(data))
        q = (p[0], *(x + draw.draw(STEP) for x in p[1:]))
        data.append((q, v - draw.draw(st.sampled_from([0, 1]))))
    values = [v for _, v in data]
    ceiling = draw.draw(
        st.one_of(
            st.sampled_from(values) if values else EXACT,
            st.builds(lambda step: max(values, default=0) + step, STEP),
            EXACT,
        )
    )
    try:
        ordered, floor, epsilon, weak = reference_hull(tuple(data), n, ceiling)
    except InconsistentData as err:
        with pytest.raises(InconsistentData) as got:
            DataHull(tuple(data), n, ceiling)
        assert str(got.value) == str(err)
        return
    hull = DataHull(tuple(data), n, ceiling)
    # the repr also pins each coordinate's type: ints become Fractions
    assert repr(hull.data) == repr(ordered)
    assert (hull.floor, hull.epsilon, hull.weak_conflict) == (floor, epsilon, weak)
    assert repr(hull.weak_conflict) == repr(weak)


def _random_hull(rng: random.Random) -> DataHull:
    n = rng.randint(1, 3)
    data = _strictly_consistent(
        rng, n, rng.randint(0, 6), lambda: F(rng.randint(-6, 6), rng.randint(1, 3))
    )
    ceiling = max(data.values(), default=F(0)) + F(rng.randint(1, 9), rng.randint(1, 4))
    return DataHull(tuple(data.items()), n, ceiling)


def test_hull_matches_the_oracle():
    rng = random.Random(29)
    for _ in range(400):
        hull = _random_hull(rng)
        n = hull.arity
        coords = [x for p, _ in hull.data for x in p]
        low = min(coords, default=F(0)) - 1
        points = [p for p, _ in hull.data]  # exact hits
        # below every entry in some coordinate: dominates none
        for p, _ in hull.data:
            k = rng.randrange(n)
            drop = F(rng.randint(0, 9), rng.randint(1, 3))
            points.append(tuple(low - drop if j == k else x for j, x in enumerate(p)))
        points.append(tuple(low for _ in range(n)))
        # zero, negative and integer coordinates, and random ones
        points.append(tuple(F(0) for _ in range(n)))
        points.append(tuple(F(-rng.randint(1, 9)) for _ in range(n)))
        points.append(tuple(F(rng.randint(-9, 9)) for _ in range(n)))
        points += [
            tuple(F(rng.randint(-30, 30), rng.randint(1, 4)) for _ in range(n))
            for _ in range(8)
        ]
        # on the lower corner (the least data coordinate) in one
        # coordinate and at the data maxima in the rest, where the point
        # dominates a data point, and one step below the corner there
        columns = list(zip(*(p for p, _ in hull.data)))
        for k, column in enumerate(columns):
            for x in (min(column), min(column) - F(1, 60)):
                points.append(tuple(x if j == k else max(c) for j, c in enumerate(columns)))
        for point in points:
            # the integer hull returns its value in lowest terms
            expected = hull_apply(hull, point)
            ratio = hull.apply(tuple((x.numerator, x.denominator) for x in point))
            assert ratio == (expected.numerator, expected.denominator), (hull, point)


def test_extension_rejects_strictly_dominated_decrease():
    with pytest.raises(InconsistentData):
        extend_restriction({(F(0), F(0)): F(1), (F(1), F(1)): F(0)}, 1, 2)


def test_extension_of_empty_restriction():
    ext = extend_restriction({}, 2, 3)
    assert xi(ext) == 2
    assert evaluate(ext, (F(1), F(2), F(3))) == 2


# -- uniqueness --------------------------------------------------------------


def test_uniqueness_witnesses_match_the_worked_example():
    f = plain_member(2, 1, a=0)
    witnesses, report = uniqueness_witnesses(f)
    assert len(witnesses) == 2
    g = witnesses[0]
    assert evaluate(g, (F(-1),)) == F(1, 2)
    assert evaluate(g, (F(0),)) == 1
    assert evaluate(g, (F(3),)) == 4
    assert report.range_inf == 0
    assert report.checked == 100
    assert report.coordinate == 1
    assert "depends only on coordinate 1" in report.describe()


def test_uniqueness_range_bound_is_symbolic():
    f = make_member(2, 2, F(3), translation(1), {})
    witnesses, report = uniqueness_witnesses(f)
    graph = witnesses[0].below
    assert graph.range_inf() == 3
    assert graph.range_sup() is None
    assert evaluate(witnesses[0], (F(-1),)) == F(7, 2)
    assert report.coordinate == 2


def test_uniqueness_composite_ignores_the_other_coordinate():
    f = plain_member(2, 1)
    (g, h), _ = uniqueness_witnesses(f)
    for x2 in (F(-9), F(0), F(42)):
        assert evaluate(f, (evaluate(g, (F(1, 3),)), evaluate(h, (x2,)))) == evaluate(
            f, (evaluate(g, (F(1, 3),)), evaluate(h, (F(7),)))
        )


def test_a_uniqueness_failure_names_the_grid_point():
    f = plain_member(2, 1)
    real = f._program

    def broken(point):
        # off by one wherever the pushed x2 is g(1) = 2
        num, den = real(point)
        return (num + den, den) if point[1] == (2, 1) else (num, den)

    object.__setattr__(f, "_program", broken)
    # the first such grid point is (-2, 1), pushed to (1/3, 2)
    with pytest.raises(InconsistentData, match=r"x1 at \(Fraction\(-2, 1\), Fraction\(1, 1\)\)$"):
        uniqueness_witnesses(f, grid_side=4)


def test_uniqueness_needs_parameters():
    comp = compose_members(plain_member(), [plain_member(), plain_member(2, 2)])
    with pytest.raises(InconsistentData):
        uniqueness_witnesses(comp)


def test_uniqueness_refuses_a_huge_grid_before_building_witnesses():
    # 10^(10^6) grid points at the largest arity a member may have:
    # neither the power nor the 10^6 witnesses are built before the cap
    # refuses
    f = make_member(10**6, 1, F(0), identity(), {})
    with pytest.raises(CapExceeded) as err:
        uniqueness_witnesses(f)
    assert (err.value.what, err.value.needed, err.value.cap) == (
        "verification grid size",
        None,
        1_000_000,
    )
    assert str(err.value) == (
        "verification grid size needs 10^1000000, cap is 1000000"
    )


def test_qclone_checks_refuse_vacuous_sizes():
    f = plain_member()
    for side in (0, -3):
        with pytest.raises(InconsistentData, match=f"grid side {side} is below 1"):
            uniqueness_witnesses(f, grid_side=side)
    with pytest.raises(InconsistentData, match="pair count -5 is negative"):
        spot_check_polymorphism(f, -5)
    assert spot_check_polymorphism(f, 0) == 0


# -- the discontinuity demonstration ----------------------------------------


def test_demo_produces_one_extension_per_coordinate():
    report = noncontinuity_demo(2, 5, seed=7)
    assert len(report.restriction) == 5
    assert report.coordinates() == (1, 2)
    for member in report.extensions:
        for point, value in report.restriction:
            assert evaluate(member, point) == value
    assert "eventual coordinate 2" in report.describe()


@pytest.mark.parametrize("n, samples, seed", [(2, 0, 0), (2, 12, 3), (3, 9, 5)])
def test_demo_extensions_are_those_of_extend_restriction(n, samples, seed):
    report = noncontinuity_demo(n, samples, seed)
    restriction = dict(report.restriction)
    assert report.extensions == tuple(
        extend_restriction(restriction, target, n) for target in range(1, n + 1)
    )


def test_demo_is_deterministic_per_seed():
    first = noncontinuity_demo(3, 4, seed=21)
    second = noncontinuity_demo(3, 4, seed=21)
    assert first.describe() == second.describe()
    assert first.restriction == second.restriction
    assert noncontinuity_demo(3, 4, seed=22).restriction != first.restriction


def test_demo_caps_the_unordered_pairs_it_compares():
    # 10 samples make 45 pairs, 11 make 55
    caps = Caps(tuple_cap=45)
    assert len(noncontinuity_demo(2, 10, caps=caps).restriction) == 10
    with pytest.raises(CapExceeded, match="consistency pairs needs 55, cap is 45"):
        noncontinuity_demo(2, 11, caps=caps)


def test_demo_edge_cases():
    assert len(noncontinuity_demo(3, 1, seed=0).extensions) == 3
    assert noncontinuity_demo(2, 0, seed=0).restriction == ()
    with pytest.raises(InconsistentData):
        noncontinuity_demo(1, 5)


# -- files --------------------------------------------------------------------


def test_member_file_roundtrip():
    f = incomparable_member()
    text = serialize_member(f)
    g = parse_member(text)
    assert serialize_member(g) == text
    for u in [(F(0), F(1)), (F(1), F(0)), (F(3), F(3)), (F(-5), F(1, 2))]:
        assert evaluate(g, u) == evaluate(f, u)


def test_extension_members_roundtrip_despite_repeated_values():
    ext = extend_restriction(MIN_POINTS, 2, 2)
    again = parse_member(serialize_member(ext))
    for point, value in MIN_POINTS.items():
        assert evaluate(again, point) == value


def test_only_parameterized_members_serialize():
    comp = compose_members(plain_member(), [plain_member(), plain_member(2, 2)])
    with pytest.raises(InconsistentData):
        serialize_member(comp)


# the second piece of the eventual map, on file line 4, has slope 0
BAD_ALPHA_PIECE = (
    "arity 2\neventual 1 0\n"
    "piece -inf 0 affine 1 0\npiece 0 inf affine 0 0\n"
)

# a file in the retired format whose `junk` map, with gaps between its
# pieces, was once accepted and dropped unread
NAMED_MAPS = """\
arity 2
eventual 1 0
alpha m
map m
piece -inf 0 affine 1 0
piece 0 inf affine 2 0
map junk
piece 5 7 affine 1 0
piece 9 inf affine 3 0
data 0 1 -1
"""

# inputs whose error is reported at a known file line
MEMBER_ERROR_LINES = {
    # coordinate above the arity, reported at the `eventual` line
    "arity 2\neventual 3 0\npiece -inf inf affine 1 0\n": 2,
    # data value at or above alpha(threshold) = 0
    "arity 2\neventual 1 0\npiece -inf inf affine 1 0\n"
    "data -2 -2 -3\ndata -1 -1 5\n": 5,
    # data row entirely above the threshold, before the map it needs
    "arity 2\neventual 1 0\ndata 1 1 -5\npiece -inf inf affine 1 0\n": 3,
    # a repeated single line is refused, not overridden by the last one
    "arity 3\neventual 2 5\narity 2\neventual 1 0\npiece -inf inf affine 1 0\n": 3,
    "arity 2\neventual 2 5\neventual 1 0\npiece -inf inf affine 1 0\n": 3,
    # a malformed piece line anywhere in the file
    "arity 2\neventual 1 0\npiece -inf inf affine 1 0\ndata 0 0 -1\npiece wat\n": 5,
    # `alpha` and `map` are unknown directives
    NAMED_MAPS: 3,
    "arity 2\neventual 1 0\npiece -inf 0 affine 1 0\nmap m\npiece 0 inf affine 2 0\n": 4,
    # the pieces of NAMED_MAPS as one map overlap, reported at the first
    "arity 2\neventual 1 0\npiece -inf 0 affine 1 0\npiece 0 inf affine 2 0\n"
    "piece 5 7 affine 1 0\npiece 9 inf affine 3 0\n": 3,
    # a gap between pieces, reported at the first piece line
    "arity 2\neventual 1 0\ndata -1 -1 -3\n"
    "piece -inf 0 affine 1 0\npiece 1 inf affine 2 0\n": 4,
}

# files in the retired format that named the eventual map with `alpha`
# and gave it in `map` blocks; each is refused at its first `alpha` or
# `map` line, or at a faulty line before it
RETIRED_FORMAT = [
    "arity 2\neventual 3 0\nalpha m\nmap m\npiece -inf inf affine 1 0\n",
    "arity 2\neventual 1 0\nalpha m\nmap m\npiece -inf inf affine 1 0\n"
    "data -2 -2 -3\ndata -1 -1 5\n",
    "arity 2\neventual 1 0\ndata 1 1 -5\nalpha m\nmap m\npiece -inf inf affine 1 0\n",
    "arity 3\neventual 2 5\narity 2\neventual 1 0\nalpha m\nmap m\npiece -inf inf affine 1 0\n",
    "arity 2\neventual 2 5\neventual 1 0\nalpha m\nmap m\npiece -inf inf affine 1 0\n",
    "arity 2\neventual 1 0\nalpha m\nalpha m\nmap m\npiece -inf inf affine 1 0\n",
    "arity 2\neventual 1 0\nmap m\npiece -inf inf affine 1 0\n",
    "arity 2\neventual 1 0\nalpha m\n",
    "arity ٢\neventual 1 0\nalpha m\nmap m\npiece -inf inf affine 1 0\n",
    "arity 2\neventual ١ 0\nalpha m\nmap m\npiece -inf inf affine 1 0\n",
    "arity 2\neventual 1 0\nalpha m\nmap m\npiece -inf 0 affine 1 0\npiece 0 inf affine 0 0\n",
]


@pytest.mark.parametrize(
    "text",
    [
        "arity 2\neventual 1 0\ndata -1 -1 -3\n",  # no piece line
        "piece -inf inf affine 1 0\n",  # no arity or eventual line
        "arity 2\neventual 1 0\npiece -inf inf affine 1 0\ndata 1 2\n",
        "arity two\n",
        "arity 2\nwhatever\n",
        "arity ٢\neventual 1 0\npiece -inf inf affine 1 0\n",
        "arity 2\neventual ١ 0\npiece -inf inf affine 1 0\n",
        BAD_ALPHA_PIECE,
        *MEMBER_ERROR_LINES,
        *RETIRED_FORMAT,
    ],
)
def test_member_parse_errors(text):
    with pytest.raises(ParseError) as err:
        parse_member(text)
    if text in MEMBER_ERROR_LINES:
        assert err.value.line == MEMBER_ERROR_LINES[text]
    if text in RETIRED_FORMAT:
        lines = [line.split()[0] for line in text.splitlines()]
        retired = 1 + min(lines.index(d) for d in ("alpha", "map") if d in lines)
        assert err.value.line <= retired


def test_a_member_file_of_huge_arity_is_refused_at_once():
    # the arity line is guarded before any work linear in the arity
    text = "arity 10000000000\neventual 1 0\npiece -inf inf affine 1 0\n"
    start = time.monotonic()
    with pytest.raises(CapExceeded, match="argument tuple length needs 10000000000, cap is"):
        parse_member(text)
    assert time.monotonic() - start < 1


def test_a_member_of_huge_arity_is_refused_at_once():
    # a member built in code is guarded as a parsed one is: `xi` of a
    # 10^10-ary member would build a 10^10-entry sample point
    huge = 10**10
    start = time.monotonic()
    with pytest.raises(CapExceeded, match="argument tuple length needs 10000000000, cap is"):
        make_member(huge, 1, Fraction(0), identity(), {})
    with pytest.raises(CapExceeded, match="argument tuple length needs 10000000000, cap is"):
        QFunction(huge, 1, Fraction(0), identity(), identity())
    member = selector_member(2, 1)
    with pytest.raises(CapExceeded, match="argument tuple length needs 10000000000, cap is"):
        replace(member, arity=huge)
    assert time.monotonic() - start < 1


def test_member_piece_errors_name_their_file_line():
    with pytest.raises(ParseError, match="line 4:"):
        parse_member(BAD_ALPHA_PIECE)


def test_piece_lines_between_data_rows_make_the_same_member():
    contiguous = (
        "arity 2\neventual 1 0\npiece -inf 0 affine 1 0\npiece 0 inf affine 2 0\n"
        "data -1 -1 -3\ndata 0 1 -1\n"
    )
    scattered = (
        "arity 2\npiece -inf 0 affine 1 0\ndata -1 -1 -3\n"
        "eventual 1 0\npiece 0 inf affine 2 0\ndata 0 1 -1\n"
    )
    member = parse_member(contiguous)
    assert parse_member(scattered) == member
    assert serialize_member(member) == contiguous


def test_parsed_members_are_validated():
    inconsistent = (
        "arity 2\neventual 1 10\npiece -inf inf affine 1 0\n"
        "data 0 0 5\ndata 1 1 4\n"
    )
    with pytest.raises(InconsistentData):
        parse_member(inconsistent)
