from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from clonelab import plmap
from clonelab.errors import InconsistentData, ParseError
from clonelab.plmap import PLMap, Piece, from_point_pairs, identity, parse_plmap
from clonelab.qclone import _embedding_above
from hull_oracle import map_value


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


def test_from_point_pairs_empty_is_identity():
    assert from_point_pairs([]) == identity()


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


def test_parse_reports_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_plmap("piece -inf inf affine 1\n")
    assert "line 1" in str(err.value)
    with pytest.raises(ParseError):
        parse_plmap("piece -inf inf wat 1 2\n")
    with pytest.raises(ParseError):
        parse_plmap("")
