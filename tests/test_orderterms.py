from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from clonelab.errors import ParseError, UnsupportedTerm
from clonelab.orderterms import (
    Coord,
    Lex,
    Max,
    Min,
    Pair,
    compare_values,
    eval_rational,
    eval_term,
    map_value,
    materialize,
    order_key,
    parse_order_term,
    peel_outer_maps,
    require_pattern_determined,
    substitute,
    term_arity,
)
from clonelab.plmap import affine, translation

F = Fraction


def rat(x) -> F:
    return F(x)


def ranks(values):
    """Rank vector of a value list: the order pattern it realizes."""
    order = sorted(set(values))
    return tuple(order.index(v) for v in values)


values_strategy = st.recursive(
    st.fractions(min_value=-6, max_value=6, max_denominator=4).map(rat),
    lambda children: st.tuples(children, children).map(lambda p: Pair(*p)),
    max_leaves=6,
)


# -- value order ----------------------------------------------------------


def test_pair_sits_just_above_its_head():
    assert rat(5) < Pair(rat(5), rat(-100))
    assert Pair(rat(5), rat(3)) < rat(6)
    assert Pair(rat(4), rat(100)) < rat(5)


def test_pairs_compare_lexicographically():
    assert Pair(rat(0), rat(5)) < Pair(rat(1), rat(-5))
    assert Pair(rat(0), rat(1)) < Pair(rat(0), rat(2))
    assert compare_values(Pair(rat(0), rat(1)), Pair(rat(0), rat(1))) == 0


@given(values_strategy, values_strategy)
def test_value_order_antisymmetric(u, v):
    cu, cv = compare_values(u, v), compare_values(v, u)
    assert cu == -cv
    assert (cu == 0) == (u == v)
    # Python's operators agree, also between a Fraction and a Pair
    assert (u < v) == (cu < 0)
    assert (u <= v) == (cu <= 0)


@given(values_strategy, values_strategy, values_strategy)
def test_value_order_transitive(u, v, w):
    if compare_values(u, v) <= 0 and compare_values(v, w) <= 0:
        assert compare_values(u, w) <= 0


@given(values_strategy, values_strategy)
def test_increasing_maps_preserve_value_order(u, v):
    m = affine(F(3), F(-7))
    assert compare_values(map_value(m, u), map_value(m, v)) == compare_values(u, v)


# -- evaluation -------------------------------------------------------------


def test_min_max_selection():
    t = Min((Coord(1), Coord(2)))
    assert eval_rational(t, (F(3), F(1))) == rat(1)
    t = Max((Coord(1), Coord(2), Coord(3)))
    assert eval_rational(t, (F(3), F(1), F(7))) == rat(7)


def test_lex_builds_pairs():
    t = Lex(Coord(1), Coord(2))
    assert eval_rational(t, (F(1), F(2))) == Pair(rat(1), rat(2))


def test_lex_output_pattern_is_lex_order_of_pairs():
    t = Lex(Coord(1), Coord(2))
    points = [(F(0), F(1)), (F(0), F(0)), (F(1), F(-5)), (F(0), F(2))]
    outs = [eval_rational(t, p) for p in points]
    assert ranks(outs) == (1, 0, 3, 2)


def test_associativity_of_lex_up_to_pattern():
    left = Lex(Coord(1), Lex(Coord(2), Coord(3)))
    right = Lex(Lex(Coord(1), Coord(2)), Coord(3))
    points = list(product((F(0), F(1), F(2)), repeat=3))
    l_out = [eval_rational(left, p) for p in points]
    r_out = [eval_rational(right, p) for p in points]
    assert ranks(l_out) == ranks(r_out)
    # but not pointwise equal as values: the sides differ by an outside map
    assert l_out != r_out


def test_map_application_is_exact_on_rationals():
    t = parse_order_term("shift(x1)", {"shift": translation(10)})
    assert eval_rational(t, (F(5),)) == rat(15)


def test_map_pushes_through_pair_heads():
    m = translation(10)
    v = Pair(Pair(rat(0), rat(1)), rat(2))
    assert map_value(m, v) == Pair(Pair(rat(10), rat(1)), rat(2))


# few distinct leaves, so that heads tie and chains of several depths
# share a base; an integral Fraction and a proper one both occur
chain_values = st.recursive(
    st.sampled_from([F(0), F(1), F(1, 2), F(-3, 2)]),
    lambda children: st.tuples(children, children).map(lambda p: Pair(*p)),
    max_leaves=10,
)


@given(st.lists(chain_values, max_size=12))
def test_materialize_ranks_as_compare_values_orders(values):
    mat = materialize(values)
    assert sorted(mat.values()) == [F(i) for i in range(len(set(values)))]
    for u in values:
        for v in values:
            c = compare_values(u, v)
            assert (mat[u] > mat[v]) - (mat[u] < mat[v]) == c


def test_order_key_puts_the_deeper_head_chain_above():
    q, a, b, c = rat(1), rat(9), rat(-9), rat(100)
    deep = Pair(Pair(q, a), b)
    for shallow in (Pair(q, c), Pair(q, Pair(c, c)), q):
        assert compare_values(deep, shallow) == 1
        assert order_key(deep) > order_key(shallow)
        mat = materialize([deep, shallow])
        assert mat[deep] == 1 and mat[shallow] == 0
    # a smaller base wins over any depth, and equal depths compare by tails
    assert order_key(Pair(Pair(rat(0), c), c)) < order_key(F(1, 2))
    assert order_key(Pair(Pair(q, a), b)) < order_key(Pair(Pair(q, a), c))
    assert order_key(Pair(Pair(q, b), c)) < order_key(Pair(Pair(q, a), b))


def test_materialize_is_order_preserving():
    vals = [rat(3), Pair(rat(3), rat(0)), rat(0), Pair(rat(2), rat(9))]
    mat = materialize(vals)
    assert sorted(mat.values()) == [F(0), F(1), F(2), F(3)]
    for u in vals:
        for v in vals:
            assert (mat[u] < mat[v]) == (compare_values(u, v) < 0)


# -- structure helpers ---------------------------------------------------------


def test_term_arity_and_substitute():
    t = parse_order_term("lex(x1, min(x2, x3))")
    assert term_arity(t) == 3
    s = substitute(t, (Coord(2), Coord(1), Coord(1)))
    assert str(s) == "lex(x2, min(x1, x1))"


def test_peel_outer_maps():
    m = translation(1)
    t = parse_order_term("a(b(lex(x1, x2)))", {"a": m, "b": m})
    maps, core = peel_outer_maps(t)
    assert len(maps) == 2
    assert str(core) == "lex(x1, x2)"


def test_require_pattern_determined():
    m = translation(1)
    ok = parse_order_term("a(lex(x1, x2))", {"a": m})
    assert str(require_pattern_determined(ok)) == "lex(x1, x2)"
    bad = parse_order_term("min(a(x1), x2)", {"a": m})
    with pytest.raises(UnsupportedTerm):
        require_pattern_determined(bad)


# -- parser ---------------------------------------------------------------------


def test_parse_round_trips():
    for text in ("x1", "min(x1, x2)", "lex(x1, min(x2, x3))", "max(x1, x2, x3)"):
        assert str(parse_order_term(text)) == text


def test_parse_errors():
    for bad in ("", "x0", "lex(x1)", "min(x1)", "wat(x1)", "min(x1, x2) x3", "min(x1",
                "min(x1, x²)", "min(x1, x١)"):
        with pytest.raises(ParseError):
            parse_order_term(bad)
