from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, strategies as st

from clonelab import plmap
from clonelab.errors import InconsistentData, ParseError
from clonelab.plmap import (
    PLMap,
    Piece,
    affine,
    from_point_pairs,
    identity,
    parse_plmap,
    translation,
)
from clonelab.qclone import _embedding_above, parse_member
import lift_oracle
from hull_oracle import map_value, reference_form


F = Fraction

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)


def squash() -> PLMap:
    # x/(1+x) above 0, x/(1-x) below: increasing, range (-1, 1)
    return PLMap(
        (
            Piece(None, F(0), (F(1), F(0), F(-1), F(1))),
            Piece(F(0), None, (F(1), F(0), F(1), F(1))),
        )
    )


def test_identity():
    m = identity()
    assert m.apply(F(7, 3)) == F(7, 3)
    assert m.is_automorphism


def test_affine_apply_and_invert():
    m = plmap.affine(F(2), F(1))
    assert m.apply(F(3)) == F(7)
    assert m.invert_value(F(7)) == F(3)
    assert m.is_automorphism


def test_squash_shape():
    m = squash()
    assert m.apply(F(1)) == F(1, 2)
    assert m.apply(F(-1)) == F(-1, 2)
    assert m.range_inf() == F(-1)
    assert m.range_sup() == F(1)
    assert not m.is_automorphism
    assert m.invert_value(F(1, 2)) == F(1)
    assert m.invert_value(F(2)) is None


def test_pole_inside_piece_rejected():
    with pytest.raises(InconsistentData):
        Piece(F(0), F(2), (F(0), F(1), F(-1), F(1)))  # pole at 1


def test_nonpositive_determinant_rejected():
    with pytest.raises(InconsistentData):
        Piece(None, None, (F(-1), F(0), F(0), F(1)))


def test_discontinuous_pieces_rejected():
    with pytest.raises(InconsistentData):
        PLMap(
            (
                Piece(None, F(0), (F(1), F(0), F(0), F(1))),
                Piece(F(0), None, (F(1), F(5), F(0), F(1))),
            )
        )


def test_from_point_pairs_interpolates():
    m = from_point_pairs([(F(0), F(10)), (F(2), F(14)), (F(1), F(11))])
    assert m.apply(F(0)) == F(10)
    assert m.apply(F(1)) == F(11)
    assert m.apply(F(2)) == F(14)
    # slope-1 tails
    assert m.apply(F(-5)) == F(5)
    assert m.apply(F(10)) == F(22)
    assert m.is_automorphism


def test_from_point_pairs_rejects_nonincreasing():
    with pytest.raises(InconsistentData):
        from_point_pairs([(F(0), F(1)), (F(1), F(0))])
    with pytest.raises(InconsistentData):
        from_point_pairs([(F(0), F(1)), (F(0), F(2))])


@pytest.mark.parametrize("bad", [0.5, "1/2"], ids=["float", "string"])
@pytest.mark.parametrize(
    "build",
    [
        lambda v: Piece(None, None, (v, 0, 0, 1)),
        lambda v: Piece(None, None, (1, 0, 0, v)),
        lambda v: Piece(v, None, (1, 0, 0, 1)),
        lambda v: Piece(None, v, (1, 0, 0, 1)),
        lambda v: affine(v, 0),
        lambda v: affine(1, v),
        translation,
        lambda v: from_point_pairs([(v, 1)]),
        lambda v: from_point_pairs([(0, 0), (1, v)]),
    ],
    ids=[
        "piece-slope", "piece-d", "piece-lo", "piece-hi", "affine-slope",
        "affine-offset", "translation", "pairs-x", "pairs-y",
    ],
)
def test_constructors_refuse_inexact_values(build, bad):
    # 0.5 is exact as a binary float, and still refused: the gate is the
    # type, not the value
    with pytest.raises(InconsistentData, match=f"argument {bad!r} is not an int or a Fraction"):
        build(bad)


@pytest.mark.parametrize("bad", [0.5, "1/2"], ids=["float", "string"])
@pytest.mark.parametrize(
    "read",
    [
        translation(1).apply,
        translation(1).piece_at,
        translation(1).invert_value,
        translation(1).pieces[0].value,
        translation(1).pieces[0].invert,
    ],
    ids=["apply", "piece_at", "invert_value", "piece-value", "piece-invert"],
)
def test_evaluation_refuses_inexact_points(read, bad):
    with pytest.raises(InconsistentData, match=f"argument {bad!r} is not an int or a Fraction"):
        read(bad)


def test_constructors_keep_int_and_fraction_values():
    assert translation(1) == translation(F(1)) == affine(F(1), 1)
    assert from_point_pairs([(0, 1), (F(1, 3), 2)]).apply(F(1, 3)) == 2


def test_from_point_pairs_empty_is_identity():
    assert from_point_pairs([]) == identity()


@st.composite
def point_runs(draw):
    """Increasing points in collinear runs of random slope, as a list
    with some pairs repeated, in random order."""
    x, y = draw(rationals), draw(rationals)
    points = [(x, y)]
    for _ in range(draw(st.integers(0, 5))):
        dx = draw(st.fractions(min_value=F(1, 4), max_value=4, max_denominator=4))
        slope = draw(st.sampled_from([F(1), F(2), F(1, 3), F(5, 2)]))
        for _ in range(draw(st.integers(1, 4))):
            x, y = x + dx, y + slope * dx
            points.append((x, y))
    points += draw(st.lists(st.sampled_from(points), max_size=3))
    return draw(st.permutations(points))


@given(point_runs())
def test_from_point_pairs_matches_the_merged_segments(pairs):
    expected = lift_oracle.from_point_pairs(pairs)
    m = from_point_pairs(pairs)
    assert m == expected and repr(m) == repr(expected)
    ints = [(x.numerator, y.numerator) for x, y in pairs if x.denominator == y.denominator == 1]
    assert from_point_pairs(ints) == lift_oracle.from_point_pairs(ints)


@given(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), max_size=6))
def test_from_point_pairs_refuses_what_the_merged_segments_refuse(pairs):
    try:
        expected = lift_oracle.from_point_pairs(pairs)
    except InconsistentData as exc:
        with pytest.raises(InconsistentData) as err:
            from_point_pairs(pairs)
        assert str(err.value) == str(exc)
    else:
        assert from_point_pairs(pairs) == expected


@st.composite
def increasing_point_sets(draw):
    """Strictly increasing pairs, all ints or all `Fraction`s."""
    values = st.integers(-30, 30) if draw(st.booleans()) else rationals
    xs = sorted(draw(st.sets(values, max_size=8)))
    ys = sorted(draw(st.sets(values, min_size=len(xs), max_size=len(xs))))
    return list(zip(xs, ys))


@given(increasing_point_sets())
def test_an_interpolation_reads_in_integers_as_in_fractions(pairs):
    m = from_point_pairs(pairs)
    expected = lift_oracle.from_point_pairs(pairs)
    assert m == expected and repr(m) == repr(expected)
    for x, y in pairs:
        assert m.ratio(x.numerator, x.denominator) == (y.numerator, y.denominator)
    for x in [*(x for x, _ in pairs), *m.breakpoints()]:
        value = map_value(m, F(x))
        assert m.ratio(x.numerator, x.denominator) == (value.numerator, value.denominator)
        assert m.apply(x) == value
        if type(x) is int:
            assert m.ratio(x, 1) == (value.numerator, value.denominator)


@given(st.integers(-20, 20), st.integers(1, 5), st.integers(-5, 5), st.booleans())
def test_a_jump_at_a_breakpoint_is_refused_in_integers(b, slope, jump, fractions):
    # the right piece starts at b + jump where the left one ends at b
    cast = F if fractions else int
    left = Piece(None, cast(b), (cast(1), cast(0), cast(0), cast(1)))
    right = Piece(cast(b), None, (cast(slope), cast((1 - slope) * b + jump), cast(0), cast(1)))
    if jump:
        with pytest.raises(InconsistentData, match=f"disagree at breakpoint {b}: {b} vs {b + jump}"):
            PLMap((left, right))
    else:
        assert PLMap((left, right)).apply(b) == b


@given(st.tuples(*[st.integers(-9, 9)] * 4))
def test_an_int_matrix_without_positive_determinant_is_refused(mat):
    a, b, c, d = mat
    assume(a * d - b * c <= 0)
    with pytest.raises(InconsistentData):
        Piece(None, None, mat)


def test_from_point_pairs_builds_only_the_pieces_it_keeps(monkeypatch):
    # one line of slope 2 through 1,000 points: both tails and one piece
    built = []
    check = Piece.__post_init__

    def counted(piece):
        built.append(piece)
        check(piece)

    monkeypatch.setattr(Piece, "__post_init__", counted)
    m = from_point_pairs((F(i), F(2 * i)) for i in range(1000))
    assert len(built) == 3
    assert m.pieces == (
        Piece(None, 0, (1, 0, 0, 1)),
        Piece(0, 999, (2, 0, 0, 1)),
        Piece(999, None, (1, 999, 0, 1)),
    )


coefficients = st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=6))
positive = st.fractions(min_value=F(1, 8), max_value=8, max_denominator=8)
scales = st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=9)).filter(bool)


@st.composite
def exact_pieces(draw):
    """(lo, hi, mat): an exact matrix of positive determinant in ints or
    Fractions, on a bounded interval clear of its pole."""
    mat = draw(
        st.tuples(*[coefficients] * 4).filter(lambda m: m[0] * m[3] > m[1] * m[2])
    )
    _, _, c, d = mat
    width = draw(positive)
    if c == 0:
        lo = draw(rationals)
    elif draw(st.booleans()):
        lo = F(-d) / c + draw(positive)
    else:
        lo = F(-d) / c - draw(positive) - width
    return lo, lo + width, mat


def reference_value(mat, x: Fraction) -> Fraction:
    a, b, c, d = reference_form(mat)
    return (a * x + b) / (c * x + d)


def reference_text(spec) -> str:
    """The file form of pieces given as (lo, hi, mat), printed from the
    reference form of each matrix."""
    text = ""
    for lo, hi, mat in spec:
        a, b, c, d = reference_form(mat)
        ends = f"{'-inf' if lo is None else lo} {'inf' if hi is None else hi}"
        kind = f"affine {a} {b}" if c == 0 else f"mobius {a} {b} {c} {d}"
        text += f"piece {ends} {kind}\n"
    return text


@given(exact_pieces(), scales)
def test_a_piece_stores_its_primitive_integer_matrix(piece, k):
    lo, hi, mat = piece
    p = Piece(lo, hi, mat)
    assert Piece(lo, hi, tuple(k * v for v in mat)) == p
    a, b, c, d = p.mat
    assert all(type(v) is int for v in p.mat) and gcd(a, b, c, d) == 1
    assert c > 0 or c == 0 < d
    assert reference_form(p.mat) == reference_form(mat)


@given(exact_pieces())
def test_serialize_prints_the_reference_form(piece):
    # the drawn piece between two slope-1 tails that meet it at its ends
    lo, hi, mat = piece
    spec = (
        (None, lo, (1, reference_value(mat, lo) - lo, 0, 1)),
        piece,
        (hi, None, (1, reference_value(mat, hi) - hi, 0, 1)),
    )
    m = PLMap(tuple(Piece(*s) for s in spec))
    assert m.serialize() == reference_text(spec)
    assert parse_plmap(m.serialize()) == m


@given(st.lists(rationals, min_size=1, max_size=8), rationals)
def test_interpolation_is_strictly_increasing(xs, probe):
    pairs = [(x, 3 * x + 1) for x in xs]
    m = from_point_pairs(pairs)
    y1, y2 = m.apply(probe), m.apply(probe + 1)
    assert y1 < y2


@given(rationals, rationals)
def test_compose_agrees_pointwise(x, shift):
    f = from_point_pairs([(F(0), F(1)), (F(2), F(6))])
    g = plmap.affine(F(3), shift)
    h = g.compose(f)
    assert h.apply(x) == g.apply(f.apply(x))


@given(rationals)
def test_compose_with_mobius_pieces(x):
    f = squash()
    g = from_point_pairs([(F(-1), F(0)), (F(1), F(4))])
    h = g.compose(f)
    assert h.apply(x) == g.apply(f.apply(x))
    hh = f.compose(g)
    assert hh.apply(x) == f.apply(g.apply(x))


@st.composite
def increasing_maps(draw):
    # a Moebius embedding onto (a, oo), or an interpolation of random points
    if draw(st.booleans()):
        return _embedding_above(draw(rationals))
    xs = sorted(draw(st.sets(rationals, max_size=5)))
    ys = sorted(draw(st.sets(rationals, min_size=len(xs), max_size=len(xs))))
    return from_point_pairs(zip(xs, ys))


MOBIUS_MIDDLE = PLMap(
    (
        Piece(None, 0, (1, 0, 0, 1)),
        Piece(0, 1, (2, 0, 1, 1)),  # 2x/(x + 1), from 0 to 1
        Piece(1, None, (1, 0, 0, 1)),
    )
)


@pytest.mark.parametrize(
    "outer, inner",
    [
        # the inner cut 1 maps exactly onto the outer breakpoint 2
        (from_point_pairs([(2, 2), (3, 5)]), from_point_pairs([(0, 0), (1, 2)])),
        # a bounded Moebius inner piece whose image holds the outer
        # breakpoints 1/2 and 2/3, with preimages 1/3 and 1/2
        (from_point_pairs([(F(1, 2), F(1, 2)), (F(2, 3), 1)]), MOBIUS_MIDDLE),
    ],
    ids=["cut-on-breakpoint", "mobius-inner"],
)
def test_compose_reads_each_interval_at_its_left_cut(outer, inner):
    h = outer.compose(inner)
    for cut in {*inner.breakpoints(), *h.breakpoints()}:
        for x in (cut - F(1, 1000), cut, cut + F(1, 1000)):
            assert h.apply(x) == outer.apply(inner.apply(x))


@given(increasing_maps(), increasing_maps(), rationals)
def test_compose_agrees_pointwise_on_random_maps(g, f, x):
    assert g.compose(f).apply(x) == g.apply(f.apply(x))


@given(increasing_maps(), rationals)
def test_apply_matches_a_scan_of_the_fraction_pieces(m, x):
    # integer matrices and stored breakpoints against the slow form,
    # at x and at every breakpoint
    for y in (x, *m.breakpoints()):
        assert m.apply(y) == map_value(m, y)


@given(rationals)
def test_automorphism_invert_roundtrip(y):
    m = from_point_pairs([(F(0), F(-3)), (F(1), F(0)), (F(3), F(1))])
    x = m.invert_value(y)
    assert x is not None
    assert m.apply(x) == y


def test_serialize_parse_roundtrip():
    for m in (identity(), squash(), from_point_pairs([(F(0), F(1)), (F(1, 2), F(3))])):
        assert parse_plmap(m.serialize()) == m


@pytest.mark.parametrize(
    "text, line",
    [
        ("piece inf 0 affine 1 0\npiece 0 inf affine 2 0\n", 1),
        ("piece -inf 0 affine 1 0\npiece 0 -inf affine 2 0\n", 2),
        ("piece inf 0 affine 1 0\npiece 0 -inf affine 2 0\n", 1),
        ("piece inf -inf affine 1 0\n", 1),
    ],
)
def test_an_infinity_stands_only_at_its_own_end(text, line):
    with pytest.raises(ParseError) as err:
        parse_plmap(text)
    assert err.value.line == line
    with pytest.raises(ParseError) as err:
        parse_member("arity 1\neventual 1 0\n" + text)
    assert err.value.line == line + 2


def test_parse_reports_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_plmap("piece -inf inf affine 1\n")
    assert "line 1" in str(err.value)
    with pytest.raises(ParseError):
        parse_plmap("piece -inf inf wat 1 2\n")
    with pytest.raises(ParseError):
        parse_plmap("")
